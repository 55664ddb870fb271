// Cross-backend equivalence: the same protocol code run over the
// deterministic simulator and over real loopback TCP must charge the
// exact same per-kind byte accounting — and both must equal the paper's
// closed forms (Eq. (4)/(5)). This is the cross-validation the TCP
// backend exists for: the simulator's cost experiments are trustworthy
// because a real-socket run reproduces their counters bit-for-bit.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "chaos/soak.hpp"
#include "core/scenario.hpp"
#include "core/two_layer_agg.hpp"
#include "core/wire.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::core {
namespace {

/// Closed-form per-round message count of a fault-free two-layer round.
std::uint64_t expected_round_messages(std::size_t m, std::size_t n,
                                      std::size_t k) {
  return m * n * (n - 1)        // pairwise shares within each subgroup
         + m * (k - 1)          // subtotals to each subgroup leader
         + (m - 1)              // uploads to the FedAvg leader
         + (m - 1) + m * (n - 1);  // result return hop + in-group fan-out
}

/// One fault-free aggregation round on `kind`, run until every
/// closed-form message has been sent and delivered (so the
/// delivered-side counters are final); returns the Network's counters.
net::TrafficStats run_round(TransportKind kind, std::size_t m, std::size_t n,
                            std::size_t tolerance, std::size_t dim) {
  const ScenarioSpec spec{.peers = m * n, .groups = m, .seed = 31};
  Testbed bed(kind, spec);
  const Topology topo = Topology::even(m * n, m);
  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = tolerance;
  TwoLayerAggregator agg(topo, cfg, bed.net());
  bool completed = false;
  agg.on_global_model = [&](std::uint64_t, const secagg::Vector&,
                            std::size_t) { completed = true; };

  bed.start();
  bed.call([&] {
    agg.begin_round(1, RoundLeadership::designated(topo), [dim](PeerId id) {
      return secagg::Vector(dim, static_cast<float>(id + 1));
    });
  });
  const std::size_t k = n > tolerance ? n - tolerance : 1;
  const std::uint64_t want = expected_round_messages(m, n, k);
  const bool done = bed.run_until(
      [&] {
        const net::TrafficStats& st = bed.net().stats();
        return completed && st.sent.messages >= want &&
               st.delivered.messages >= want;
      },
      60 * kSecond);
  // The simulator can also show that nothing more is ever sent: drain it.
  if (bed.sim() != nullptr) bed.sim()->run();
  bed.shutdown();
  EXPECT_TRUE(done) << "round never completed";
  return bed.net().stats();
}

/// Pin one backend's per-kind counters to the framing closed forms and
/// the |w|-unit total to Eq. (4) (tolerance 0) or Eq. (5).
void check_closed_forms(const net::TrafficStats& stats, std::size_t m,
                        std::size_t n, std::size_t tolerance,
                        std::size_t dim) {
  const std::size_t k = n > tolerance ? n - tolerance : 1;
  const std::uint64_t w = 4 * static_cast<std::uint64_t>(dim);
  const std::uint64_t parts = n - k + 1;
  const std::uint64_t share_wire =
      secagg::wire::kShareHeader +
      parts * (secagg::wire::kPerPartHeader + w);
  const std::uint64_t subtotal_wire = secagg::wire::kSubtotalHeader + w;
  const std::uint64_t upload_wire = core::wire::kUploadHeader + w;
  const std::uint64_t result_wire = core::wire::kResultHeader + w;

  std::uint64_t total_payload = 0;
  for (const auto& [kind, c] : stats.sent_by_kind) {
    SCOPED_TRACE(kind);
    total_payload += c.payload;
    if (kind.size() > 6 && kind.compare(kind.size() - 6, 6, "/share") == 0) {
      EXPECT_EQ(c.messages, n * (n - 1));
      EXPECT_EQ(c.bytes, c.messages * share_wire);
      EXPECT_EQ(c.payload, c.messages * parts * w);
    } else if (kind.size() > 9 &&
               kind.compare(kind.size() - 9, 9, "/subtotal") == 0) {
      EXPECT_EQ(c.messages, k - 1);
      EXPECT_EQ(c.bytes, c.messages * subtotal_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else if (kind == "agg/upload") {
      EXPECT_EQ(c.messages, m - 1);
      EXPECT_EQ(c.bytes, c.messages * upload_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else if (kind == "agg/result") {
      EXPECT_EQ(c.messages, (m - 1) + m * (n - 1));
      EXPECT_EQ(c.bytes, c.messages * result_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else {
      ADD_FAILURE() << "unexpected kind in a fault-free round: " << kind;
    }
  }
  EXPECT_EQ(stats.delivered.messages, stats.sent.messages);
  EXPECT_EQ(stats.delivered.bytes, stats.sent.bytes);
  EXPECT_EQ(stats.delivered.payload, stats.sent.payload);

  const double units =
      static_cast<double>(total_payload) / static_cast<double>(w);
  if (tolerance == 0) {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_cost_eq4(m, n));
  } else {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_ft_cost_eq5(m * n, m, n, k));
  }
}

/// The two backends' per-kind sent counters are *identical* — message
/// counts, wire bytes and |w|-unit payload, kind by kind.
void expect_same_sent_by_kind(const net::TrafficStats& sim,
                              const net::TrafficStats& tcp) {
  const auto& a = sim.sent_by_kind;
  const auto& b = tcp.sent_by_kind;
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    SCOPED_TRACE(ia->first);
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.messages, ib->second.messages);
    EXPECT_EQ(ia->second.bytes, ib->second.bytes);
    EXPECT_EQ(ia->second.payload, ib->second.payload);
  }
}

void check_backends_agree(std::size_t m, std::size_t n, std::size_t tolerance,
                          std::size_t dim) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " tol=" + std::to_string(tolerance));
  const net::TrafficStats sim = run_round(TransportKind::kSim, m, n,
                                          tolerance, dim);
  const net::TrafficStats tcp = run_round(TransportKind::kTcp, m, n,
                                          tolerance, dim);
  {
    SCOPED_TRACE("sim backend");
    check_closed_forms(sim, m, n, tolerance, dim);
  }
  {
    SCOPED_TRACE("tcp backend");
    check_closed_forms(tcp, m, n, tolerance, dim);
  }
  expect_same_sent_by_kind(sim, tcp);
}

TEST(TransportEquivalence, FaultFreeRoundIdenticalAcrossBackends) {
  check_backends_agree(5, 4, 0, 6);
}

TEST(TransportEquivalence, FaultTolerantRoundIdenticalAcrossBackends) {
  check_backends_agree(3, 4, 1, 5);
}

// --- the chaos soak on either transport ---------------------------------

/// A fault-free soak on `kind` (12 peers in 3 subgroups, four 1 s rounds:
/// about 4 s of wall time over TCP) stays live and commits only exact
/// models; returns the Network's counters.
net::TrafficStats run_soak(TransportKind kind) {
  SCOPED_TRACE(kind == TransportKind::kSim ? "sim backend" : "tcp backend");
  Testbed bed(kind, {.peers = 12, .groups = 3, .seed = 5});
  chaos::ChaosSoakConfig cfg;
  cfg.rounds = 4;
  cfg.dim = 4;
  cfg.round_interval = 1 * kSecond;
  const chaos::ChaosSoakResult res = chaos::run_chaos_soak(bed, cfg);
  EXPECT_TRUE(res.liveness_ok);
  // Every commit is the exact mean of its contributors' constant models.
  EXPECT_TRUE(res.all_commits_exact) << res.max_abs_error;
  EXPECT_EQ(res.rounds_committed, 4u);
  return bed.net().stats();
}

TEST(TransportEquivalence, ChaosSoakIsLiveExactAndCountsAlikeOnBothTransports) {
  expect_same_sent_by_kind(run_soak(TransportKind::kSim),
                           run_soak(TransportKind::kTcp));
}

// --- full-system FedAvg training over real sockets ----------------------

constexpr std::size_t kPeers = 20;
constexpr std::size_t kGroups = 5;  // m=5 subgroups of n=4

struct SystemRun {
  /// Per-kind sent counters at every round completion.
  std::vector<std::map<std::string, net::TrafficStats::Counter>> snaps;
  std::size_t rounds = 0, aborted = 0, dim = 0;
  double accuracy = 0.0;
};

/// Train on `kind` until `min_rounds` rounds committed, with the
/// real-clock preset on both backends (no retries, no overlapping
/// rounds: see DESIGN.md, "Scenarios and timing presets").
SystemRun run_system(TransportKind kind, std::size_t min_rounds,
                     SimDuration budget) {
  const ScenarioSpec spec{.peers = kPeers, .groups = kGroups, .seed = 3};
  Testbed bed(kind, spec);
  Scenario scenario(spec, SystemConfig::real_clock_profile(), bed.net());
  P2pFlSystem& sys = scenario.sys();
  SystemRun run;
  // Runs on the protocol thread, where stats() is safe to read.
  sys.on_round_complete = [&](std::uint64_t, const secagg::Vector&,
                              std::size_t) {
    run.snaps.push_back(bed.net().stats().sent_by_kind);
  };
  bed.start();
  bed.call([&] { sys.start(); });
  EXPECT_TRUE(bed.run_until(
      [&] { return sys.rounds_completed() >= min_rounds; }, budget,
      1 * kSecond))
      << "failed to complete " << min_rounds << " rounds";
  bed.shutdown();
  run.rounds = sys.rounds_completed();
  run.aborted = sys.rounds_aborted();
  run.dim = sys.global_model_at(0).size();
  run.accuracy = sys.evaluate_global().accuracy;
  return run;
}

/// Between two round-completion snapshots exactly `rounds` whole
/// aggregation rounds of traffic occurred — wherever the callback sits
/// inside a round's send sequence, it sits there every round, so the
/// window is exact. Pin each phase's payload and the total to Eq. (4).
void check_eq4_window(const SystemRun& run, std::size_t rounds) {
  ASSERT_GT(run.snaps.size(), rounds);
  ASSERT_GT(run.dim, 0u);
  const std::uint64_t w = 4 * static_cast<std::uint64_t>(run.dim);
  const auto& first = run.snaps.front();
  const auto& last = run.snaps[rounds];
  std::uint64_t share = 0, subtotal = 0, upload = 0, result = 0, other = 0;
  for (const auto& [kind, c] : last) {
    const auto it = first.find(kind);
    const std::uint64_t delta =
        c.payload - (it != first.end() ? it->second.payload : 0);
    if (kind.size() > 6 && kind.compare(kind.size() - 6, 6, "/share") == 0) {
      share += delta;
    } else if (kind.size() > 9 &&
               kind.compare(kind.size() - 9, 9, "/subtotal") == 0) {
      subtotal += delta;
    } else if (kind == "agg/upload") {
      upload += delta;
    } else if (kind == "agg/result") {
      result += delta;
    } else {
      other += delta;  // raft / control traffic: must carry no payload
    }
  }
  constexpr std::uint64_t m = kGroups;
  constexpr std::uint64_t n = kPeers / kGroups;
  EXPECT_EQ(share, rounds * m * n * (n - 1) * w);
  EXPECT_EQ(subtotal, rounds * m * (n - 1) * w);
  EXPECT_EQ(upload, rounds * (m - 1) * w);
  EXPECT_EQ(result, rounds * ((m - 1) + m * (n - 1)) * w);
  EXPECT_EQ(other, 0u);
  const std::uint64_t total = share + subtotal + upload + result;
  // The headline cross-validation: payload per round is the paper's
  // Eq. (4) closed form, exactly.
  EXPECT_DOUBLE_EQ(
      static_cast<double>(total) / static_cast<double>(w * rounds),
      analysis::two_layer_cost_eq4(m, n));
}

TEST(TransportEquivalence, FullSystemOverTcpMatchesEq4AndLearns) {
  constexpr std::size_t kRounds = 5;        // enclosed rounds we account
  constexpr std::size_t kTrainRounds = 12;  // rounds to run before evaluating

  const SystemRun tcp =
      run_system(TransportKind::kTcp, kTrainRounds, 180 * kSecond);
  // A clean run: every started round completed (an aborted round would
  // leave partial traffic inside the accounting window).
  EXPECT_EQ(tcp.aborted, 0u);
  {
    SCOPED_TRACE("tcp backend");
    check_eq4_window(tcp, kRounds);
  }

  // And the model actually learns over TCP, to within tolerance of the
  // identically-configured simulator run, which charges the same bytes.
  const SystemRun sim =
      run_system(TransportKind::kSim, tcp.rounds, 120 * kSecond);
  {
    SCOPED_TRACE("sim backend");
    check_eq4_window(sim, kRounds);
  }
  ASSERT_GE(sim.rounds, tcp.rounds);
  EXPECT_NEAR(tcp.accuracy, sim.accuracy, 0.2);
  EXPECT_GT(tcp.accuracy, 0.4);
}

}  // namespace
}  // namespace p2pfl::core
