// Shared trial harness for the two-layer Raft recovery figures
// (Figs. 10-12): N = 25 peers in five subgroups of five, link latency
// 15 ms, follower/candidate timeouts ~ U(T, 2T) for
// T = 50, 100, 150, 200 ms, 1000 trials per setting in the paper
// (default here 200; --trials=1000 for the full run).
//
// Per trial: bring a fresh system to the steady state, crash the chosen
// leader, and timestamp the recovery milestones via the system's hooks.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/obs_util.hpp"
#include "chaos/engine.hpp"
#include "core/two_layer_raft.hpp"
#include "obs/metrics.hpp"

namespace p2pfl::bench {

enum class CrashKind {
  kSubgroupLeader,  // Figs. 10-11: a subgroup leader (not FedAvg leader)
  kFedAvgLeader,    // Fig. 12: the FedAvg leader (double recovery)
};

struct TrialResult {
  /// Crash -> new leader elected in the victim's subgroup.
  double elect_ms = -1.0;
  /// Crash -> that leader joined the FedAvg layer.
  double join_ms = -1.0;
  /// Crash -> new FedAvg leader elected (Fig. 12 only).
  double fed_elect_ms = -1.0;
  /// Crash -> fully recovered (all applicable milestones).
  double full_ms = -1.0;
  bool ok = false;
};

/// `trace_base`, when non-empty, enables tracing for this trial and
/// exports <trace_base>.metrics.jsonl / <trace_base>.trace.json on every
/// exit path (the harness has several early returns).
inline TrialResult run_recovery_trial(CrashKind kind, SimDuration timeout_t,
                                      std::uint64_t seed,
                                      std::size_t peers = 25,
                                      std::size_t groups = 5,
                                      const std::string& trace_base = {}) {
  using namespace p2pfl::core;
  sim::Simulator sim(seed);
  std::unique_ptr<ScopedObsExport> exporter;
  if (!trace_base.empty()) {
    exporter = std::make_unique<ScopedObsExport>(sim, trace_base);
  }
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = timeout_t;
  opts.raft.election_timeout_max = 2 * timeout_t;
  opts.fedavg_presence_poll = 100 * kMillisecond;  // §VI-B3
  TwoLayerRaftSystem sys(Topology::even(peers, groups), opts, net);
  sys.start_all();

  TrialResult out;
  const SimTime stable_deadline = 60 * kSecond;
  while (sim.now() < stable_deadline && !sys.stabilized()) {
    sim.run_for(20 * kMillisecond);
  }
  if (!sys.stabilized()) return out;

  const std::vector<PeerId> fed_followers = sys.fedavg_followers();
  PeerId victim = kNoPeer;
  if (kind == CrashKind::kFedAvgLeader) {
    victim = sys.fedavg_leader();
  } else if (!fed_followers.empty()) {
    victim = fed_followers.front();
  }
  if (victim == kNoPeer) return out;
  const SubgroupId victim_group = sys.topology().subgroup_of(victim);

  std::optional<SimTime> elected, joined, fed_elected;
  sys.on_subgroup_leader = [&](SubgroupId g, PeerId) {
    if (g == victim_group && !elected) elected = sim.now();
  };
  sys.on_fedavg_joined = [&](PeerId p) {
    if (sys.topology().subgroup_of(p) == victim_group && !joined) {
      joined = sim.now();
    }
  };
  sys.on_fedavg_leader = [&](PeerId) {
    if (!fed_elected) fed_elected = sim.now();
  };

  // The crash is injected through a ChaosPlan so every recovery run is a
  // pure (seed, plan) pair: the fault lands on the chaos trace/metrics
  // and the trial replays exactly. The hook routes the crash through the
  // Raft system (stops the node, not just its links).
  const SimTime crash_at = sim.now();
  chaos::ChaosPlan plan;
  plan.crash_at(crash_at, victim);
  chaos::ChaosEngineHooks hooks;
  hooks.crash = [&sys](PeerId p) { sys.crash_peer(p); };
  chaos::ChaosEngine chaos_engine(net, std::move(plan), hooks);
  chaos_engine.start();

  const bool need_fed = kind == CrashKind::kFedAvgLeader;
  const SimTime deadline = crash_at + 60 * kSecond;
  while (sim.now() < deadline) {
    if (elected && joined && (!need_fed || fed_elected)) break;
    sim.run_for(10 * kMillisecond);
  }
  if (exporter) print_traffic(net.stats());
  if (!elected || !joined || (need_fed && !fed_elected)) return out;

  out.elect_ms = to_ms(*elected - crash_at);
  out.join_ms = to_ms(*joined - crash_at);
  if (need_fed) {
    out.fed_elect_ms = to_ms(*fed_elected - crash_at);
    out.full_ms = to_ms(std::max(*joined, *fed_elected) - crash_at);
  } else {
    out.full_ms = out.join_ms;
  }
  out.ok = true;
  return out;
}

struct Stats {
  double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};

/// Quantiles come from an obs::Histogram (the same estimator the metrics
/// registry exports), so a bench table row and the corresponding
/// *.metrics.jsonl histogram agree. The bucket grid is rebuilt from the
/// sample range with 512 buckets; interpolation error is < 1/512 of the
/// range and the estimate clamps to the observed [min, max].
inline Stats summarize(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  s.n = xs.size();
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  const double lo = *lo_it, hi = *hi_it;
  const double step = std::max((hi - lo) / 512.0, 1e-9);
  obs::Histogram h(obs::Histogram::linear_bounds(lo, step, 513));
  for (double x : xs) h.record(x);
  s.mean = h.mean();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.min = h.min();
  s.max = h.max();
  return s;
}

inline void print_histogram(const std::vector<double>& xs,
                            double bucket_ms) {
  if (xs.empty()) return;
  const double hi = *std::max_element(xs.begin(), xs.end());
  const std::size_t buckets =
      static_cast<std::size_t>(hi / bucket_ms) + 1;
  std::vector<std::size_t> counts(buckets, 0);
  for (double x : xs) {
    ++counts[static_cast<std::size_t>(x / bucket_ms)];
  }
  const std::size_t peak = *std::max_element(counts.begin(), counts.end());
  for (std::size_t b = 0; b < buckets; ++b) {
    if (counts[b] == 0) continue;
    const int bars =
        static_cast<int>(40.0 * static_cast<double>(counts[b]) /
                         static_cast<double>(peak));
    std::printf("    %5.0f-%5.0fms |%-40.*s %zu\n", b * bucket_ms,
                (b + 1) * bucket_ms, bars,
                "########################################", counts[b]);
  }
}

inline std::vector<SimDuration> timeout_settings() {
  return {50 * kMillisecond, 100 * kMillisecond, 150 * kMillisecond,
          200 * kMillisecond};
}

}  // namespace p2pfl::bench
