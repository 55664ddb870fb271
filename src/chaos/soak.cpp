#include "chaos/soak.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "chaos/engine.hpp"
#include "common/check.hpp"
#include "core/scenario.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "core/watchdog.hpp"

namespace p2pfl::chaos {

namespace {

/// Dropouts each subgroup tolerates after its share phase (Alg. 4 k).
constexpr std::size_t kDropoutTolerance = 2;
/// Max |committed − exact| accepted as float-accumulation noise.
constexpr double kExactTol = 5e-3;

// Leadership from liveness: first live member leads its subgroup, first
// live subgroup leader chairs the FedAvg layer (the Raft backend's
// steady-state answer, without running Raft here). fedavg_leader stays
// kNoPeer when no subgroup has a live member.
core::RoundLeadership live_leadership(const core::Topology& topo,
                                      const net::Network& net) {
  core::RoundLeadership lead;
  lead.subgroup_leaders.resize(topo.subgroup_count());
  for (SubgroupId g = 0; g < topo.subgroup_count(); ++g) {
    const std::vector<PeerId>& members = topo.group(g);
    const auto live = std::find_if(members.begin(), members.end(),
                                   [&](PeerId p) { return !net.crashed(p); });
    if (live == members.end()) {
      lead.subgroup_leaders[g] = members.front();  // all dead
      continue;
    }
    lead.subgroup_leaders[g] = *live;
    if (lead.fedavg_leader == kNoPeer) lead.fedavg_leader = *live;
  }
  return lead;
}

// Churn and the partition window; ambient faults come from the bed's
// NetworkConfig. Both end early enough that the tail rounds run on a
// healed network.
ChaosPlan soak_plan(const ChaosSoakConfig& cfg, const core::Topology& topo) {
  ChaosPlan plan;
  const SimTime total = static_cast<SimTime>(cfg.rounds) * cfg.round_interval;
  if (cfg.churn_mttf > 0) {
    ChurnSpec churn;
    churn.start = cfg.round_interval / 2;
    churn.end = std::max<SimTime>(churn.start + 1,
                                  total - 3 * cfg.round_interval);
    churn.mttf = cfg.churn_mttf;
    churn.mttr = cfg.churn_mttr;
    churn.peers = topo.all_peers();
    churn.max_concurrent_down =
        std::max<std::size_t>(1, topo.peer_count() / 3);
    plan.churn(churn);
  }
  if (cfg.partition_at > 0 && cfg.heal_at > cfg.partition_at) {
    std::vector<PeerId> island = topo.group(0);
    std::vector<PeerId> mainland;
    for (PeerId p : topo.all_peers()) {
      if (std::find(island.begin(), island.end(), p) == island.end()) {
        mainland.push_back(p);
      }
    }
    plan.partition_window(cfg.partition_at, cfg.heal_at,
                          {island, mainland});
  }
  return plan;
}

}  // namespace

ChaosSoakResult run_chaos_soak(core::Testbed& bed,
                               const ChaosSoakConfig& cfg) {
  const core::ScenarioSpec& spec = bed.spec();
  P2PFL_CHECK(spec.peers > 0 && spec.groups > 0 && cfg.rounds > 0);
  net::Network& net = bed.net();
  obs::SpanRecorder& spans = net.obs().spans;
  const core::Topology topo = core::Topology::even(spec.peers, spec.groups);

  core::AggregationConfig acfg;
  acfg.sac_dropout_tolerance = kDropoutTolerance;
  // Every started round must resolve (commit or fail) within its slot so
  // the next round never inherits an undecided predecessor.
  acfg.collect_timeout = cfg.round_interval;
  acfg.sac_share_timeout = 150 * kMillisecond;
  acfg.sac_subtotal_timeout = 150 * kMillisecond;
  acfg.sac_share_retry_limit = cfg.sac_share_retries;
  acfg.upload_retry = 300 * kMillisecond;
  core::TwoLayerAggregator agg(topo, acfg, net);

  // Constant per-peer models make the exact global model computable.
  const auto model_of = [&](PeerId id) {
    return secagg::Vector(cfg.dim, static_cast<float>(id + 1));
  };

  // Per-round health sampling + SLO evaluation over the same run.
  std::unique_ptr<core::RoundWatchdog> watchdog;
  if (!cfg.slo_rules.empty()) {
    core::WatchdogConfig wcfg;
    wcfg.rules = cfg.slo_rules;
    wcfg.model_payload_bytes = 4 * static_cast<std::uint64_t>(cfg.dim);
    wcfg.dropout_tolerance = kDropoutTolerance;
    watchdog = std::make_unique<core::RoundWatchdog>(net, topo, wcfg);
    watchdog->on_sample = cfg.on_sample;
  }

  // Until the bed shuts down, `current`, `res` and the watchdog are
  // touched on the protocol thread only.
  ChaosSoakResult res;
  std::optional<RoundOutcome> current;
  agg.on_global_model = [&](std::uint64_t round, const secagg::Vector& g,
                            std::size_t groups_used) {
    if (watchdog) {
      watchdog->round_committed(round, agg.last_contributors().size(),
                                groups_used);
    }
    if (!current || current->round != round) return;
    const std::vector<PeerId>& who = agg.last_contributors();
    double expected = 0.0;
    for (PeerId p : who) expected += static_cast<double>(p + 1);
    expected /= static_cast<double>(who.empty() ? 1 : who.size());
    double err = 0.0;
    for (float v : g) {
      err = std::max(err, std::abs(static_cast<double>(v) - expected));
    }
    current->committed = true;
    current->contributors = who.size();
    current->max_abs_error = err;
  };
  if (spans.enabled()) {
    // Abort flight recorder: dump the round's retained spans the moment
    // the round is torn down (abort_round fires before the next round's
    // spans open, so the dump is the abort-time snapshot).
    agg.on_round_aborted = [&](std::uint64_t round) {
      res.postmortems.push_back(obs::make_postmortem(spans, round));
    };
  }

  ChaosEngine engine(net, soak_plan(cfg, topo));
  bed.start();
  bed.call([&] { engine.start(); });

  for (std::uint64_t r = 1; r <= cfg.rounds; ++r) {
    bed.call([&] {
      const core::RoundLeadership lead = live_leadership(topo, net);
      if (lead.fedavg_leader == kNoPeer) {
        // Even a skipped tick (no live leader candidate anywhere) becomes
        // an uncommitted sample: a crash window shows up in the series
        // as censored round latency, not as a silent gap.
        ++res.rounds_skipped;
        if (watchdog) watchdog->round_started(r);
        return;
      }
      current = RoundOutcome{.round = r};
      ++res.rounds_started;
      if (watchdog) watchdog->round_started(r);
      agg.begin_round(r, lead, model_of);
    });
    bed.run_until([] { return false; }, cfg.round_interval,
                  cfg.round_interval);
    bed.call([&] {
      if (watchdog) watchdog->round_finished(r);
      if (!current) return;  // skipped tick
      if (current->committed) {
        ++res.rounds_committed;
        res.max_abs_error =
            std::max(res.max_abs_error, current->max_abs_error);
        if (current->max_abs_error > kExactTol) {
          res.all_commits_exact = false;
        }
      } else {
        ++res.rounds_aborted;
      }
      res.outcomes.push_back(*current);
      current.reset();
    });
  }

  // Tear down a trailing undecided round so its abort (and post-mortem)
  // is recorded.
  if (spans.enabled()) bed.call([&] { agg.abort_round(); });
  bed.shutdown();

  if (spans.enabled()) {
    for (const RoundOutcome& oc : res.outcomes) {
      if (oc.committed) {
        res.critical_paths.push_back(extract_critical_path(spans, oc.round));
      }
    }
  }
  if (watchdog) {
    res.timeseries_jsonl = watchdog->series().jsonl();
    res.slo_report = watchdog->report();
    res.slo_alerts = watchdog->alerts();
  }

  res.crashes = engine.crashes();
  res.restarts = engine.restarts();
  const std::size_t tail = std::min<std::size_t>(3, res.outcomes.size());
  res.liveness_ok =
      res.rounds_committed > 0 &&
      std::any_of(res.outcomes.end() - static_cast<std::ptrdiff_t>(tail),
                  res.outcomes.end(),
                  [](const RoundOutcome& o) { return o.committed; });
  return res;
}

}  // namespace p2pfl::chaos
