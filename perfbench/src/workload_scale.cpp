// scale_10k: aggregator-only rounds at 10,000 peers on the simulator.
//
// Closed loop: begin_round, then sim.run() until the round and its
// model fan-out have fully drained; the next round starts only then.
// Models are 4-float vectors, so the cost is per message: kernel
// dispatch, Network policy and accounting, encode-verify, SAC actor
// bookkeeping. Inputs are drawn per round from the workload seed and
// every peer's received global is checked against their plain mean.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

constexpr std::size_t kDim = 4;

/// One fully built deployment. Member order is destruction order in
/// reverse: the aggregator goes first, the simulator last.
struct ScaleRig {
  sim::Simulator sim;
  net::SimTransport sim_transport;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<net::Network> net;
  core::Topology topo;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::unique_ptr<core::TwoLayerAggregator> agg;
  core::RoundLeadership lead;

  ScaleRig(std::uint64_t seed, std::size_t peers, std::size_t group_size,
           LayerClock* clock)
      : sim(seed),
        sim_transport(sim),
        topo(core::Topology::by_group_size(peers, group_size)) {
    net::Transport* t = &sim_transport;
    if (clock != nullptr) {
      timing = std::make_unique<TimingTransport>(sim_transport, *clock);
      t = timing.get();
    }
    net = std::make_unique<net::Network>(
        *t, net::NetworkConfig{.base_latency = 15 * kMillisecond});
    hosts.resize(topo.peer_count());
    for (PeerId id : topo.all_peers()) {
      hosts[id] = std::make_unique<net::PeerHost>();
      net->attach(id, hosts[id].get());
    }
    agg = std::make_unique<core::TwoLayerAggregator>(
        topo, core::AggregationConfig{}, *net,
        [this](PeerId id) -> net::PeerHost& { return *hosts[id]; });
    lead.subgroup_leaders = topo.designated_leaders();
    lead.fedavg_leader = lead.subgroup_leaders.front();
  }
};

/// Round inputs: one kDim vector per peer, drawn from (seed, round).
std::vector<float> round_inputs(std::uint64_t seed, std::uint64_t round,
                                std::size_t peers) {
  Rng rng = Rng(seed).fork(0x5ca1e000ULL + round);
  std::vector<float> v(peers * kDim);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

void run_scale_10k(const Options& opt, Measurement& m, Checks& checks) {
  const std::size_t peers = opt.toy ? 256 : 10000;
  const std::size_t group_size = 32;
  const int setups = 3;
  LayerClock clock;
  LayerClock* clock_ptr = opt.trace ? &clock : nullptr;

  std::unique_ptr<ScaleRig> rig;
  for (int s = 0; s < setups; ++s) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ScaleRig>(Rng(opt.seed).fork(s).next_u64(), peers,
                                     group_size, clock_ptr);
    m.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  ScaleRig& r = *rig;

  // Per-round observation, filled from the aggregator's callbacks.
  std::optional<Clock::time_point> committed_at;
  std::vector<double> expected(kDim);
  std::size_t received = 0;
  double max_err = 0.0;
  bool shape_ok = true;
  r.agg->on_global_model = [&](core::TwoLayerAggregator::RoundId,
                               const secagg::Vector&, std::size_t) {
    committed_at = Clock::now();
  };
  r.agg->on_model_received = [&](core::TwoLayerAggregator::RoundId, PeerId,
                                 const secagg::Vector& g) {
    ++received;
    if (g.size() != kDim) {
      shape_ok = false;
      return;
    }
    for (std::size_t i = 0; i < kDim; ++i) {
      max_err = std::max(max_err, std::abs(double(g[i]) - expected[i]));
    }
  };

  obs::MetricsRegistry& metrics = r.sim.obs().metrics;
  // Round time drifts up over the first rounds with identical work (see
  // README.md); warm-up rounds take it to its plateau before the window
  // opens. They are checked and kept in the per-round records.
  const std::uint64_t warmup = opt.toy ? 2 : 6;
  const std::size_t min_rounds = 3;
  double cpu0 = cpu_seconds();
  auto window0 = Clock::now();
  for (std::uint64_t round = 1;; ++round) {
    const bool warm = round <= warmup;
    if (round == warmup + 1) {
      cpu0 = cpu_seconds();
      window0 = Clock::now();
    }
    const bool over = seconds_between(window0, Clock::now()) >= opt.seconds;
    if (!warm && over && round > warmup + min_rounds) break;

    const std::vector<float> inputs = round_inputs(opt.seed, round, peers);
    for (std::size_t i = 0; i < kDim; ++i) {
      double sum = 0.0;
      for (std::size_t p = 0; p < peers; ++p) sum += inputs[p * kDim + i];
      expected[i] = sum / static_cast<double>(peers);
    }
    committed_at.reset();
    received = 0;
    max_err = 0.0;
    const std::uint64_t events0 =
        metrics.counter("sim.events_dispatched").value();
    const std::uint64_t bytes0 = r.net->stats().sent.bytes;
    const std::uint64_t payload0 = r.net->stats().sent.payload;
    const LayerTotals layers0 = clock.totals();
    const bool traced = opt.trace && !warm && round % 2 == 1;
    clock.on = traced;
    clock.begin_round_span(round);

    const auto t0 = Clock::now();
    {
      Scope s(clock, Cat::kBeginRound);
      r.agg->begin_round(round, r.lead, [&](PeerId p) {
        return secagg::Vector(inputs.begin() + p * kDim,
                              inputs.begin() + (p + 1) * kDim);
      });
    }
    const auto t1 = Clock::now();
    {
      Scope s(clock, Cat::kSim);
      r.sim.run();
    }
    const auto t2 = Clock::now();
    clock.end_round_span();
    clock.on = false;
    if (!warm) ++m.started;

    RoundRecord rec;
    rec.index = round;
    rec.begin_round_s = seconds_between(t0, t1);
    rec.sim_run_s = seconds_between(t1, t2);
    rec.round_s = seconds_between(t0, t2);
    rec.events = metrics.counter("sim.events_dispatched").value() - events0;
    rec.wire_bytes = r.net->stats().sent.bytes - bytes0;
    rec.payload_bytes = r.net->stats().sent.payload - payload0;
    rec.traced = traced;
    rec.warmup = warm;
    rec.layers = clock.totals() - layers0;
    if (committed_at.has_value()) {
      if (!warm) ++m.committed;
      rec.agg_ms = 1e3 * seconds_between(t0, *committed_at);
      m.rounds.push_back(rec);
    }
    const double tol = 1e-4;
    checks.expect(committed_at.has_value(),
                  "scale_10k: round " + std::to_string(round) +
                      " committed a global model");
    checks.expect(shape_ok && received == peers,
                  "scale_10k: round " + std::to_string(round) +
                      " global reached every peer (" +
                      std::to_string(received) + "/" +
                      std::to_string(peers) + ")");
    checks.expect(max_err <= tol,
                  "scale_10k: round " + std::to_string(round) +
                      " global equals the plain mean of the inputs (max "
                      "error " + std::to_string(max_err) + ")");
  }
  m.cpu_s = cpu_seconds() - cpu0;
  m.peak_rss_mb = peak_rss_mb();

  const double n_rounds =
      static_cast<double>(std::max<std::size_t>(1, m.rounds.size()));
  // Messages per round over every round run, warm-up included.
  m.layer["net.messages"] =
      static_cast<double>(r.net->stats().sent.messages) / n_rounds;
  m.layer["secagg.share_retries"] =
      static_cast<double>(metrics.counter("sac.share_retries").value());

  if (opt.trace) {
    write_trace_file(opt, m, clock);
    run_probes(opt, ProbeShape{kDim, group_size}, m, checks);
  }
}

}  // namespace perfbench
