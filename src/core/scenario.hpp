// One system scenario over any transport.
//
// The full system (two-layer SAC + FedAvg + two-layer Raft + local
// training) is one protocol; a run of it differs only in who takes part,
// what they train on and which transport carries the frames. This header
// states those three things once:
//
//  * ScenarioSpec — peers, subgroups, seed, the synthetic dataset and
//    the MLP width; Scenario builds the data, the IID partition and the
//    P2pFlSystem from it on a caller-given net::Network;
//  * Testbed — the simulator or loopback TCP plus the Network over it,
//    with one run_until() driver for both;
//  * SystemConfig::sim_profile() / real_clock_profile() (declared in
//    core/system.hpp) — the two timing presets. DESIGN.md ("Scenarios
//    and timing presets") gives the reasoning behind the numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/system.hpp"
#include "fl/data.hpp"
#include "net/network.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {

/// Who takes part in a full-system run and what they train.
struct ScenarioSpec {
  std::size_t peers = 12;
  std::size_t groups = 3;
  std::uint64_t seed = 1;
  /// Small, learnable synthetic task: 8x8 one-channel images, ten
  /// classes, 400 train / 120 test samples.
  fl::SyntheticSpec data = {.height = 8,
                            .width = 8,
                            .train_samples = 400,
                            .test_samples = 120,
                            .noise_scale = 0.6};
  /// Width of the MLP's single hidden layer.
  std::size_t hidden = 16;
};

/// Data, partition and P2pFlSystem of one ScenarioSpec. The data Rng is
/// seeded with spec.seed and draws the dataset first, then the
/// partition; cfg.seed is overwritten with spec.seed. Same spec, same
/// config, same network: bit-identical run.
class Scenario {
 public:
  Scenario(const ScenarioSpec& spec, SystemConfig cfg, net::Network& net);
  /// Stops a real transport's loop first, so no callback runs into the
  /// system while it is torn down.
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  P2pFlSystem& sys() { return sys_; }

 private:
  net::Network& net_;
  Rng data_rng_;
  fl::TrainTest data_;
  fl::PeerIndices parts_;
  P2pFlSystem sys_;
};

enum class TransportKind { kSim, kTcp };

/// A transport of either kind plus the net::Network over it, hosting
/// spec.peers peers. The simulator is seeded with spec.seed and models
/// links per `net_cfg`; over TCP the kernel provides the links.
class Testbed {
 public:
  Testbed(TransportKind kind, const ScenarioSpec& spec,
          net::NetworkConfig net_cfg = {});
  /// Shuts the TCP loop down before the network goes away.
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// The spec the bed was built for (peers, groups, seed).
  const ScenarioSpec& spec() const { return spec_; }
  net::Network& net() { return *net_; }
  /// The simulator, or nullptr over TCP.
  sim::Simulator* sim() { return sim_.get(); }
  /// The TCP transport, or nullptr on the simulator.
  net::tcp::TcpTransport* tcp() { return tcp_.get(); }

  /// Bring the sockets up (TCP) — no-op on the simulator.
  void start();
  /// Flush and stop the TCP loop; afterwards any thread may read the
  /// protocol state. Idempotent; no-op on the simulator.
  void shutdown();
  /// Run `fn` on the protocol thread: inline on the simulator, on the
  /// loop thread (waiting for it) over TCP.
  void call(const std::function<void()>& fn);

  /// Drive the run until `pred` holds or `budget` of transport time has
  /// passed; returns whether `pred` held. `pred` always runs on the
  /// protocol thread. The simulator advances in `poll` slices and checks
  /// `pred` between them, so same-seed runs stop at the same instant;
  /// over TCP `pred` is polled every 10 ms of wall time.
  bool run_until(const std::function<bool()>& pred, SimDuration budget,
                 SimDuration poll = 100 * kMillisecond);

 private:
  ScenarioSpec spec_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::tcp::TcpTransport> tcp_;
  std::unique_ptr<net::Network> net_;
};

}  // namespace p2pfl::core
