// §VII-D: fault-tolerance thresholds of the two-layer Raft, validated by
// simulation. For each (m subgroups, n peers each) three scenarios:
//
//  * optimistic (paper bound m(⌊(n-1)/2⌋+1)): only followers crash —
//    ⌊(n-1)/2⌋+1 per subgroup. Leaders never face an election, so the
//    system stays operational even though the hardest-hit subgroups can
//    no longer commit new log entries.
//  * leader replacement: a single subgroup leader crashes with the rest
//    of its subgroup intact — must fully recover (elect + rejoin).
//  * fatal: ⌊(m-1)/2⌋+1 subgroup leaders crash simultaneously — the
//    FedAvg layer loses its quorum and cannot admit replacements, so the
//    system must NOT recover (confirming the paper's threshold).
#include <cstdio>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "bench/raft_recovery_common.hpp"
#include "chaos/engine.hpp"
#include "core/two_layer_raft.hpp"

namespace {

using namespace p2pfl;
using namespace p2pfl::core;

enum class Scenario { kOptimisticFollowers, kLeaderReplacement, kFatal };

struct Outcome {
  bool stabilized_after = false;
  double ms = -1.0;
  /// Per-reason drop counts of this run (accumulated by main into the
  /// sweep-wide drop table).
  std::map<std::string, std::uint64_t> drops;
};

Outcome run_case(std::size_t m, std::size_t n, Scenario scenario,
                 std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;
  opts.raft.election_timeout_max = 100 * kMillisecond;
  TwoLayerRaftSystem sys(Topology::even(m * n, m), opts, net);
  sys.start_all();
  while (sim.now() < 30 * kSecond && !sys.stabilized()) {
    sim.run_for(20 * kMillisecond);
  }
  if (!sys.stabilized()) return {};

  std::vector<PeerId> victims;
  switch (scenario) {
    case Scenario::kOptimisticFollowers: {
      const std::size_t per_group = (n - 1) / 2 + 1;
      for (SubgroupId g = 0; g < m; ++g) {
        const PeerId leader = sys.subgroup_leader(g);
        std::size_t killed = 0;
        for (PeerId p : sys.topology().group(g)) {
          if (p != leader && killed < per_group) {
            victims.push_back(p);
            ++killed;
          }
        }
      }
      break;
    }
    case Scenario::kLeaderReplacement: {
      const std::vector<PeerId> fed_followers = sys.fedavg_followers();
      if (!fed_followers.empty()) victims.push_back(fed_followers.front());
      break;
    }
    case Scenario::kFatal: {
      const std::size_t kill = analysis::fedavg_fatal_leader_crashes(m);
      for (SubgroupId g = 0; g < m && victims.size() < kill; ++g) {
        const PeerId l = sys.subgroup_leader(g);
        if (l != kNoPeer) victims.push_back(l);
      }
      break;
    }
  }

  // Crashes go through a ChaosPlan (executed on the next simulator
  // step), so each case is a replayable (seed, plan) pair.
  const SimTime crash_at = sim.now();
  chaos::ChaosPlan plan;
  for (PeerId v : victims) plan.crash_at(crash_at, v);
  chaos::ChaosEngineHooks hooks;
  hooks.crash = [&sys](PeerId p) { sys.crash_peer(p); };
  chaos::ChaosEngine chaos_engine(net, std::move(plan), hooks);
  chaos_engine.start();

  Outcome out;
  while (sim.now() < crash_at + 30 * kSecond) {
    sim.run_for(20 * kMillisecond);
    if (sys.stabilized()) {
      out.stabilized_after = true;
      out.ms = to_ms(sim.now() - crash_at);
      break;
    }
  }
  out.drops = net.stats().dropped_by_reason;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const std::size_t trials =
      static_cast<std::size_t>(args.get_int("trials", 10));
  bench::print_environment("§VII-D — two-layer Raft fault-tolerance sweep");
  std::printf("%4s %4s %10s | %18s %20s %16s | %28s\n", "m", "n", "opt bound",
              "followers-only ok", "leader-replace ok", "fatal blocked",
              "replace ms p50/p95/p99");
  std::map<std::string, std::uint64_t> total_drops;
  for (std::size_t m : {3u, 5u}) {
    for (std::size_t n : {3u, 5u}) {
      std::size_t opt_ok = 0, repl_ok = 0, fatal_blocked = 0;
      std::vector<double> repl_ms;
      for (std::size_t i = 0; i < trials; ++i) {
        const auto o = run_case(m, n, Scenario::kOptimisticFollowers,
                                0x5000 + i * 13 + m * 7 + n);
        if (o.stabilized_after) ++opt_ok;
        const auto r = run_case(m, n, Scenario::kLeaderReplacement,
                                0x6000 + i * 17 + m * 3 + n);
        if (r.stabilized_after) {
          ++repl_ok;
          repl_ms.push_back(r.ms);
        }
        const auto f =
            run_case(m, n, Scenario::kFatal, 0x7000 + i * 19 + m + n);
        if (!f.stabilized_after) ++fatal_blocked;
        for (const auto* d : {&o.drops, &r.drops, &f.drops}) {
          for (const auto& [reason, count] : *d) {
            total_drops[reason] += count;
          }
        }
      }
      const auto rs = bench::summarize(repl_ms);
      std::printf(
          "%4zu %4zu %10zu | %15zu/%zu %12zu/%zu (%4.0fms) %13zu/%zu | "
          "%8.0f %8.0f %8.0f\n",
          m, n, p2pfl::analysis::two_layer_optimistic_tolerance(m, n),
          opt_ok, trials, repl_ok, trials, repl_ok ? rs.mean : -1.0,
          fatal_blocked, trials, rs.p50, rs.p95, rs.p99);
    }
  }
  std::printf(
      "\nfollowers-only: the §VII-D optimistic bound — every subgroup loses "
      "⌊(n-1)/2⌋+1\nfollowers yet leaders keep serving. leader-replace: one "
      "subgroup leader crash\nfully heals (elect + FedAvg rejoin). fatal: a "
      "FedAvg-layer majority crash cannot\nheal, matching the paper's "
      "⌊(m-1)/2⌋ threshold.\n");
  std::printf("\n");
  p2pfl::bench::print_drop_table(total_drops);
  return 0;
}
