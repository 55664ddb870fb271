// TCP chaos heal-soak: the same ChaosPlan — a connection reset, a
// slow-writer throttle window, and a crash that outlives the suspicion
// grace — executed against the full FL system on real loopback sockets
// and on the deterministic simulator. Both backends must converge to
// the same final membership (everyone configured back in), the crashed
// peer must recover from its write-ahead log without any InstallSnapshot
// state transfer, and the trained accuracy must agree within tolerance.
//
// This is the cross-validation the transport-fault seam exists for: a
// chaos experiment designed in the simulator means something because
// the identical plan, driven through the identical engine, produces the
// same healed end state over real sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <set>
#include <string>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "core/scenario.hpp"

namespace p2pfl::core {
namespace {

constexpr std::size_t kPeers = 12;
constexpr std::size_t kGroups = 3;
constexpr PeerId kVictim = 3;  // follower in subgroup 0, never designated
constexpr std::uint64_t kSeed = 11;

/// One shared timeline for both backends (absolute times from start).
chaos::ChaosPlan make_plan() {
  chaos::ChaosPlan plan;
  // A hard connection reset inside subgroup 0: on TCP the sockets RST
  // and reconnect, on the simulator the outage is a modeled stall pair.
  plan.conn_reset_at(3 * kSecond, 1, 2, /*sim_outage=*/100 * kMillisecond);
  // A slow writer: peer 5's egress squeezed to 4 MB/s for two seconds.
  plan.throttle_window(4 * kSecond, 6 * kSecond, 5,
                       /*bytes_per_sec=*/4'000'000);
  // The victim dies long past the suspicion grace (eviction), then
  // comes back and must rejoin through self-healing — from its WAL.
  plan.crash_at(8 * kSecond, kVictim);
  plan.restart_at(18 * kSecond, kVictim);
  return plan;
}

/// Identical configuration on both backends: the real-clock preset plus
/// self-healing timing sized so the 10-second crash outlives the
/// suspicion grace.
SystemConfig make_config(const std::string& wal_dir) {
  SystemConfig cfg = SystemConfig::real_clock_profile();
  // One peer may be dead for ten seconds of rounds; tolerance keeps the
  // share phase completing without it.
  cfg.agg.sac_dropout_tolerance = 1;
  cfg.raft.config_commit_interval = 500 * kMillisecond;
  cfg.raft.suspicion_grace = 4 * kSecond;
  cfg.raft.membership_poll = 500 * kMillisecond;
  cfg.raft.rejoin_retry = 500 * kMillisecond;
  cfg.raft.storage_dir = wal_dir;
  // Rounds tick every second, so a restarted peer refreshes its model
  // from the next live round result long before a catch-up pull would
  // fire. That keeps the scenario's InstallSnapshot count a pure signal
  // for Raft-log recovery failures: the model-catch-up path answers
  // pulls with a deliberate snapshot push, which would muddy the
  // no-state-transfer assertion below.
  cfg.catchup_retry = 60 * kSecond;
  return cfg;
}

std::string fresh_wal_dir(const char* tag) {
  static int counter = 0;
  return testing::TempDir() + "tcp_chaos_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// Fully healed: stable leadership, every topology member configured
/// back into its subgroup, no standing suspicions.
bool healed(P2pFlSystem& sys) {
  return sys.raft().stabilized() && sys.raft().health().fully_healed();
}

/// End state captured from one backend after its run.
struct SoakEndState {
  bool healed = false;
  std::size_t rounds = 0;
  std::set<PeerId> evicted, rejoined;
  std::set<PeerId> in_config;
  std::size_t fedavg_members = 0;
  bool victim_recovered = false;
  std::uint64_t victim_snapshot_installs = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t conn_resets = 0, throttle_windows = 0, stall_windows = 0;
  double accuracy = 0.0;
};

/// Run the plan on one backend until the victim rejoined, the cluster
/// healed and at least `min_rounds` rounds committed (the plan's last
/// event lands at 18 s; the 300 s budget is generous for TSan).
SoakEndState run_soak(TransportKind kind, std::size_t min_rounds) {
  const ScenarioSpec spec{.peers = kPeers, .groups = kGroups, .seed = kSeed};
  Testbed bed(kind, spec);
  Scenario scenario(
      spec,
      make_config(fresh_wal_dir(kind == TransportKind::kTcp ? "tcp" : "sim")),
      bed.net());
  P2pFlSystem& sys = scenario.sys();
  // Callbacks and predicates run on the protocol thread; the state is
  // read here only after shutdown().
  SoakEndState out;
  sys.raft().on_peer_evicted = [&](PeerId p, bool fed_layer) {
    if (!fed_layer) out.evicted.insert(p);
  };
  sys.raft().on_peer_rejoined = [&](PeerId p) { out.rejoined.insert(p); };
  chaos::ChaosEngineHooks hooks;
  hooks.crash = [&sys](PeerId p) { sys.crash_peer(p); };
  hooks.restart = [&sys](PeerId p) { sys.restart_peer(p); };
  chaos::ChaosEngine engine(bed.net(), make_plan(), hooks);

  bed.start();
  bed.call([&] {
    sys.start();
    engine.start();
  });
  out.healed = bed.run_until(
      [&] {
        return out.rejoined.count(kVictim) > 0 && healed(sys) &&
               sys.rounds_completed() >= min_rounds;
      },
      300 * kSecond, 1 * kSecond);
  bed.shutdown();

  out.rounds = sys.rounds_completed();
  for (PeerId p = 0; p < kPeers; ++p) {
    if (sys.raft().subgroup_node(p).in_config()) out.in_config.insert(p);
  }
  out.fedavg_members = sys.raft().fedavg_members().size();
  raft::RaftNode& victim = sys.raft().subgroup_node(kVictim);
  out.victim_recovered = victim.recovered_from_storage();
  out.victim_snapshot_installs = victim.metrics().snapshot_installs;
  out.faults_injected = engine.faults_injected();
  const obs::MetricsRegistry& m = bed.net().obs().metrics;
  out.conn_resets = m.counter_value("chaos.transport.conn_resets");
  out.throttle_windows = m.counter_value("chaos.transport.throttle_windows");
  out.stall_windows = m.counter_value("chaos.transport.stall_windows");
  out.accuracy = sys.evaluate_global().accuracy;
  return out;
}

void expect_healed_from_wal(const SoakEndState& s) {
  ASSERT_TRUE(s.healed) << "never healed: rounds=" << s.rounds;
  EXPECT_EQ(s.evicted.count(kVictim), 1u)
      << "the long crash must trip the failure detector";
  EXPECT_EQ(s.faults_injected, 4u);  // reset+throttle+crash+restart
  // The victim restarted from its WAL and caught up by log append: a
  // snapshot install would mean the durable state was thrown away and
  // re-transferred, which is exactly what the WAL exists to avoid.
  EXPECT_TRUE(s.victim_recovered);
  EXPECT_EQ(s.victim_snapshot_installs, 0u);
}

TEST(TcpChaosSoak, HealsLikeTheSimulatorAndRecoversFromWal) {
  const SoakEndState tcp = run_soak(TransportKind::kTcp, 12);
  {
    SCOPED_TRACE("tcp backend");
    expect_healed_from_wal(tcp);
  }
  // The reset really tore sockets, and the throttle really gated the
  // writer — the TCP-native execution of the plan, not the sim model.
  EXPECT_GE(tcp.conn_resets, 1u);
  EXPECT_GE(tcp.throttle_windows, 1u);

  // The deterministic twin, driven to the same committed-round count so
  // the two end states are comparable.
  const SoakEndState sim = run_soak(TransportKind::kSim, tcp.rounds);
  {
    SCOPED_TRACE("sim backend");
    expect_healed_from_wal(sim);
  }
  ASSERT_GE(sim.rounds, tcp.rounds);
  // On the sim path the reset is modeled as one stall per direction.
  EXPECT_GE(sim.stall_windows, 2u);

  // --- the headline cross-validation -------------------------------------
  // Identical final membership on both backends: every peer configured
  // back into its subgroup, one FedAvg representative per subgroup.
  EXPECT_EQ(tcp.in_config, sim.in_config);
  EXPECT_EQ(tcp.in_config.size(), kPeers);
  EXPECT_EQ(tcp.fedavg_members, kGroups);
  EXPECT_EQ(sim.fedavg_members, kGroups);
  // And the model the healed cluster trained agrees across backends.
  EXPECT_NEAR(tcp.accuracy, sim.accuracy, 0.2);
  EXPECT_GT(tcp.accuracy, 0.4);
}

}  // namespace
}  // namespace p2pfl::core
