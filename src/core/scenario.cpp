#include "core/scenario.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace p2pfl::core {

SystemConfig SystemConfig::sim_profile() {
  SystemConfig cfg;
  cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
  cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
  cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
  cfg.round_interval = 1 * kSecond;
  cfg.train_duration = 100 * kMillisecond;
  cfg.learning_rate = 3e-3f;
  return cfg;
}

SystemConfig SystemConfig::real_clock_profile() {
  SystemConfig cfg;
  cfg.raft.raft.election_timeout_min = 1 * kSecond;
  cfg.raft.raft.election_timeout_max = 2 * kSecond;
  cfg.raft.fedavg_presence_poll = 200 * kMillisecond;
  cfg.round_interval = 1 * kSecond;
  cfg.train_duration = 50 * kMillisecond;
  cfg.agg.collect_timeout = 60 * kSecond;
  cfg.agg.sac_share_timeout = 20 * kSecond;
  cfg.agg.sac_subtotal_timeout = 20 * kSecond;
  cfg.agg.upload_retry = 60 * kSecond;
  cfg.learning_rate = 3e-3f;
  return cfg;
}

namespace {

SystemConfig seeded(SystemConfig cfg, std::uint64_t seed) {
  cfg.seed = seed;
  return cfg;
}

}  // namespace

Scenario::Scenario(const ScenarioSpec& spec, SystemConfig cfg,
                   net::Network& net)
    : net_(net),
      data_rng_(spec.seed),
      data_(fl::make_synthetic(spec.data, data_rng_)),
      parts_(fl::partition_iid(data_.train, spec.peers, data_rng_)),
      sys_(Topology::even(spec.peers, spec.groups), seeded(cfg, spec.seed),
           net, data_.train, data_.test, parts_,
           [inputs = spec.data.channels * spec.data.height * spec.data.width,
            hidden = spec.hidden, classes = spec.data.classes] {
             return fl::Model::mlp(inputs, {hidden}, classes);
           }) {}

Scenario::~Scenario() { net_.transport().shutdown(); }

Testbed::Testbed(TransportKind kind, const ScenarioSpec& spec,
                 net::NetworkConfig net_cfg)
    : spec_(spec) {
  if (kind == TransportKind::kSim) {
    sim_ = std::make_unique<sim::Simulator>(spec.seed);
    net_ = std::make_unique<net::Network>(*sim_, net_cfg);
  } else {
    tcp_ = std::make_unique<net::tcp::TcpTransport>(
        net::tcp::TcpTransportConfig{
            .peers = Topology::even(spec.peers, spec.groups).all_peers(),
            .seed = spec.seed});
    net_ = std::make_unique<net::Network>(*tcp_, net_cfg);
  }
}

Testbed::~Testbed() { shutdown(); }

void Testbed::start() {
  if (tcp_) tcp_->start();
}

void Testbed::shutdown() {
  if (tcp_) tcp_->shutdown();
}

void Testbed::call(const std::function<void()>& fn) {
  if (tcp_) {
    tcp_->call(fn);
  } else {
    fn();
  }
}

bool Testbed::run_until(const std::function<bool()>& pred,
                        SimDuration budget, SimDuration poll) {
  const SimTime deadline = net_->transport().now() + budget;
  for (;;) {
    bool done = false;
    call([&] { done = pred(); });
    if (done) return true;
    if (net_->transport().now() >= deadline) return false;
    if (sim_) {
      sim_->run_for(poll);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace p2pfl::core
