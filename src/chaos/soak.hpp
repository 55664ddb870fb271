// Reusable chaos-soak harness: two-layer aggregation under a fault plan.
//
// Runs N aggregation rounds of the full TwoLayerAggregator stack (SAC
// subgroups + FedAvg layer) on a caller's core::Testbed — the simulator
// or loopback TCP — whose Network config carries the ambient stochastic
// faults (loss / duplication / reordering), while a ChaosEngine injects
// crash-restart churn and an optional partition window. Leadership is
// re-derived each round from liveness (first live member of each
// subgroup), standing in for the Raft backend so the soak isolates the
// aggregation protocol's own retry hardening.
//
// Every peer contributes the constant model (p + 1), so the exact global
// model of any committed round is known in closed form: the mean of
// (p + 1) over the round's contributing peers. The harness checks every
// commit against it — a committed-but-wrong model (double-counted
// duplicate, share from a stale round, missed contributor) is the one
// failure mode a liveness metric cannot see.
//
// Peers, subgroups and seed come from the bed's ScenarioSpec. What the
// run records follows the bed's observability switches: enable
// `bed.net().obs().trace` / `.spans` before the soak, and read the
// trace, spans and traffic from the bed afterwards.
//
// Used by `p2pflctl chaos/explain/watch`, the tier-1 chaos tests and the
// slow soak.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/critical_path.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"

namespace p2pfl::core {
class Testbed;
}  // namespace p2pfl::core

namespace p2pfl::chaos {

struct ChaosSoakConfig {
  std::size_t rounds = 10;
  std::size_t dim = 8;
  SimDuration round_interval = 2 * kSecond;
  /// Crash/restart churn across all peers during the bulk of the run
  /// (0 = none). Churn stops three intervals before the end so the
  /// trailing rounds demonstrate recovery.
  SimDuration churn_mttf = 0;
  SimDuration churn_mttr = 1 * kSecond;
  /// Partition window: subgroup 0 vs the rest (0 = none).
  SimTime partition_at = 0;
  SimTime heal_at = 0;
  /// SAC share-phase retransmission budget (generous: ambient loss).
  std::size_t sac_share_retries = 6;
  /// SLO rules the RoundWatchdog evaluates per round; the watchdog runs
  /// (and fills the time-series fields of the result) exactly when this
  /// is non-empty. Alert post-mortems need spans for evidence.
  std::vector<obs::SloRule> slo_rules;
  /// Fired live after each round's sample is judged (p2pflctl watch).
  std::function<void(const obs::RoundSample&,
                     const std::vector<obs::SloBreach>&)>
      on_sample;
};

struct RoundOutcome {
  std::uint64_t round = 0;
  bool committed = false;
  std::size_t contributors = 0;
  double max_abs_error = 0.0;
};

struct ChaosSoakResult {
  std::size_t rounds_started = 0;
  std::size_t rounds_committed = 0;
  /// Started rounds that closed without a global model.
  std::size_t rounds_aborted = 0;
  /// Ticks skipped outright because no live leader candidate existed.
  std::size_t rounds_skipped = 0;
  bool all_commits_exact = true;
  double max_abs_error = 0.0;
  /// At least one commit, and one within the last three started rounds
  /// (the plan leaves the tail fault-free, so recovery must show there).
  bool liveness_ok = false;
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  std::vector<RoundOutcome> outcomes;
  // --- only when the bed records spans ------------------------------------
  /// Critical path of every committed round, in round order.
  std::vector<obs::CriticalPath> critical_paths;
  /// Flight-recorder dumps, one per aborted round, in abort order.
  std::vector<obs::Postmortem> postmortems;
  // --- only when cfg.slo_rules is non-empty -------------------------------
  /// One RoundSample JSON object per round (obs::RoundSeries::jsonl).
  std::string timeseries_jsonl;
  /// SLO verdict over the whole run.
  obs::SloReport slo_report;
  /// Alert post-mortems, one per breach (bounded), in breach order.
  std::vector<obs::SloAlert> slo_alerts;
};

/// Run the soak on `bed`, which must not be started yet: the soak
/// attaches its own peer hosts, starts the bed and shuts it down before
/// returning (no-ops on the simulator), so afterwards any thread may read
/// bed.net(). Each round is one round_interval of transport time.
ChaosSoakResult run_chaos_soak(core::Testbed& bed,
                               const ChaosSoakConfig& cfg);

}  // namespace p2pfl::chaos
