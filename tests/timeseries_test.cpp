// Tests for the round time-series store and the SLO rule engine: ring
// semantics and schema of RoundSeries, golden-JSONL determinism of a
// watched chaos soak, and one firing + one quiet scenario per SLO rule
// kind.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/soak.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"

namespace p2pfl::obs {
namespace {

RoundSample sample(std::uint64_t round, double latency_ms,
                   bool committed = true) {
  RoundSample s;
  s.round = round;
  s.committed = committed;
  s.start = static_cast<SimTime>(round - 1) * kSecond;
  s.end = s.start + static_cast<SimDuration>(latency_ms * 1000.0);
  s.latency_ms = latency_ms;
  return s;
}

TEST(RoundSeries, RingEvictsOldestAndCountsAppends) {
  RoundSeries series(3);
  for (std::uint64_t r = 1; r <= 5; ++r) series.append(sample(r, 50.0));
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.total_appended(), 5u);
  EXPECT_EQ(series.evicted(), 2u);
  EXPECT_EQ(series.samples().front().round, 3u);
  EXPECT_EQ(series.back().round, 5u);
  EXPECT_EQ(series.find(1), nullptr);  // evicted
  ASSERT_NE(series.find(4), nullptr);
  EXPECT_EQ(series.find(4)->round, 4u);
}

TEST(RoundSeries, SampleJsonCarriesSchemaAndNullSentinels) {
  RoundSample s = sample(7, 123.5);
  s.phases.emplace_back("fed_collect", 100 * kMillisecond);
  s.loss = 0.25;  // accuracy stays unevaluated
  const std::string line = RoundSeries::sample_json(s);
  EXPECT_NE(line.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"round\":7"), std::string::npos);
  EXPECT_NE(line.find("\"fed_collect\":100000"), std::string::npos);
  EXPECT_NE(line.find("\"loss\":0.25"), std::string::npos);
  EXPECT_NE(line.find("\"accuracy\":null"), std::string::npos);
}

TEST(RoundSeries, JsonlHasOneLinePerRetainedSample) {
  RoundSeries series(8);
  for (std::uint64_t r = 1; r <= 4; ++r) series.append(sample(r, 10.0));
  const std::string jsonl = series.jsonl();
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
}

// Two identical seeded soak runs must serialize the identical stream —
// the golden-determinism contract every downstream consumer (regress,
// CI artifacts, plots) relies on.
TEST(RoundTimeseries, GoldenJsonlIsDeterministicAcrossRuns) {
  const auto run = [] {
    net::NetworkConfig net;
    net.faults.drop_prob = 0.05;
    core::Testbed bed(core::TransportKind::kSim,
                      {.peers = 12, .groups = 3, .seed = 11}, net);
    bed.net().obs().spans.set_enabled(true);
    chaos::ChaosSoakConfig cfg;
    cfg.rounds = 5;
    cfg.round_interval = 500 * kMillisecond;
    cfg.slo_rules = default_rules(/*max_latency_ms=*/400.0);
    return chaos::run_chaos_soak(bed, cfg);
  };
  const chaos::ChaosSoakResult a = run();
  const chaos::ChaosSoakResult b = run();
  ASSERT_FALSE(a.timeseries_jsonl.empty());
  EXPECT_EQ(a.timeseries_jsonl, b.timeseries_jsonl);
  EXPECT_EQ(a.slo_report.json(), b.slo_report.json());
  // A fault-free-enough run keeps the Eq. (4)/(5) correspondence: the
  // closed form is stamped into every sample.
  EXPECT_NE(a.timeseries_jsonl.find("\"expected_payload_bytes\":"),
            std::string::npos);
}

// --- one firing + one quiet series per rule kind -------------------------

std::vector<SloBreach> feed(SloEngine& engine,
                            const std::vector<RoundSample>& series) {
  std::vector<SloBreach> all;
  for (const RoundSample& s : series) {
    for (SloBreach& b : engine.evaluate(s, nullptr)) {
      all.push_back(std::move(b));
    }
  }
  return all;
}

TEST(SloEngine, ThresholdFiresAboveLimitOnly) {
  SloRule r;
  r.name = "lat";
  r.kind = SloRuleKind::kThreshold;
  r.field = SloField::kLatencyMs;
  r.limit = 100.0;
  SloEngine quiet({r});
  EXPECT_TRUE(feed(quiet, {sample(1, 50), sample(2, 99)}).empty());
  SloEngine loud({r});
  const auto breaches = feed(loud, {sample(1, 50), sample(2, 250)});
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].rule, "lat");
  EXPECT_EQ(breaches[0].round, 2u);
  EXPECT_DOUBLE_EQ(breaches[0].value, 250.0);
}

TEST(SloEngine, EwmaDriftFiresOnSpikeNotOnStableSeries) {
  SloRule r;
  r.name = "drift";
  r.kind = SloRuleKind::kEwmaDrift;
  r.field = SloField::kLatencyMs;
  r.factor = 2.0;
  r.warmup = 2;
  r.limit = 1.0;
  SloEngine quiet({r});
  EXPECT_TRUE(
      feed(quiet, {sample(1, 50), sample(2, 52), sample(3, 48),
                   sample(4, 51)})
          .empty());
  SloEngine loud({r});
  const auto breaches =
      feed(loud, {sample(1, 50), sample(2, 52), sample(3, 300)});
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].round, 3u);
}

TEST(SloEngine, EwmaBaselineExcludesBreachingSamples) {
  SloRule r;
  r.name = "drift";
  r.kind = SloRuleKind::kEwmaDrift;
  r.field = SloField::kLatencyMs;
  r.factor = 2.0;
  r.warmup = 1;
  r.limit = 1.0;
  SloEngine engine({r});
  // A sustained incident must keep breaching: the spike must never be
  // absorbed into its own baseline and silence itself.
  std::vector<RoundSample> series = {sample(1, 50)};
  for (std::uint64_t rnd = 2; rnd <= 6; ++rnd) {
    series.push_back(sample(rnd, 500));
  }
  EXPECT_EQ(feed(engine, series).size(), 5u);
}

TEST(SloEngine, QuantileDriftFiresOnStormNotOnNoise) {
  SloRule r;
  r.name = "retry_storm";
  r.kind = SloRuleKind::kQuantileDrift;
  r.field = SloField::kRetries;
  r.factor = 3.0;
  r.window = 4;
  r.warmup = 3;
  r.limit = 4.0;  // floor: a couple of retries over a zero base is fine
  auto with_retries = [](std::uint64_t round, std::uint64_t n) {
    RoundSample s = sample(round, 50);
    s.retries = n;
    return s;
  };
  SloEngine quiet({r});
  EXPECT_TRUE(feed(quiet, {with_retries(1, 0), with_retries(2, 1),
                           with_retries(3, 0), with_retries(4, 2),
                           with_retries(5, 1)})
                  .empty());
  SloEngine loud({r});
  const auto breaches =
      feed(loud, {with_retries(1, 1), with_retries(2, 2),
                  with_retries(3, 1), with_retries(4, 30)});
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].round, 4u);
}

TEST(SloEngine, ConvergenceStallFiresOnPlateauNotWhileImproving) {
  SloRule r;
  r.name = "stall";
  r.kind = SloRuleKind::kConvergenceStall;
  r.field = SloField::kLoss;
  r.window = 3;
  r.min_delta = 1e-3;
  auto with_loss = [](std::uint64_t round, double loss) {
    RoundSample s = sample(round, 50);
    s.loss = loss;
    return s;
  };
  SloEngine quiet({r});
  EXPECT_TRUE(feed(quiet, {with_loss(1, 1.0), with_loss(2, 0.8),
                           with_loss(3, 0.6), with_loss(4, 0.4),
                           with_loss(5, 0.2)})
                  .empty());
  // Unevaluated samples (sentinel loss) are skipped, not stalled.
  SloEngine skipped({r});
  EXPECT_TRUE(
      feed(skipped, {sample(1, 50), sample(2, 50), sample(3, 50),
                     sample(4, 50), sample(5, 50)})
          .empty());
  SloEngine loud({r});
  const auto breaches =
      feed(loud, {with_loss(1, 1.0), with_loss(2, 1.0), with_loss(3, 1.0),
                  with_loss(4, 1.0)});
  ASSERT_GE(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].round, 4u);
}

TEST(SloEngine, ByteBudgetFiresOverClosedFormOnly) {
  SloRule r;
  r.name = "bytes";
  r.kind = SloRuleKind::kByteBudget;
  r.tolerance = 0.25;
  r.committed_only = true;
  auto with_bytes = [](std::uint64_t round, std::uint64_t payload,
                       double expected, bool committed = true) {
    RoundSample s = sample(round, 50, committed);
    s.payload_bytes = payload;
    s.expected_payload_bytes = expected;
    return s;
  };
  SloEngine quiet({r});
  EXPECT_TRUE(feed(quiet, {with_bytes(1, 1000, 1000.0),
                           with_bytes(2, 1200, 1000.0),
                           // no closed form -> skipped
                           with_bytes(3, 99999, 0.0),
                           // aborted -> skipped (committed_only)
                           with_bytes(4, 99999, 1000.0, false)})
                  .empty());
  SloEngine loud({r});
  const auto breaches = feed(loud, {with_bytes(1, 1400, 1000.0)});
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_DOUBLE_EQ(breaches[0].bound, 1250.0);
}

TEST(SloEngine, BreachBumpsTypedMetricsAndReport) {
  SimTime clock = 0;
  Observability o(&clock);
  SloRule r;
  r.name = "lat";
  r.kind = SloRuleKind::kThreshold;
  r.field = SloField::kLatencyMs;
  r.limit = 100.0;
  SloEngine engine({r});
  engine.register_metrics(o);
  // Registration pre-creates the counters at zero.
  EXPECT_EQ(o.metrics.counter_value("slo.breaches"), 0u);
  EXPECT_EQ(o.metrics.counter_value("slo.breach.lat"), 0u);
  engine.evaluate(sample(1, 50), &o);
  engine.evaluate(sample(2, 200), &o);
  EXPECT_EQ(o.metrics.counter_value("slo.evaluations"), 2u);
  EXPECT_EQ(o.metrics.counter_value("slo.breaches"), 1u);
  EXPECT_EQ(o.metrics.counter_value("slo.breach.lat"), 1u);
  const SloReport report = engine.report();
  EXPECT_FALSE(report.healthy());
  ASSERT_EQ(report.rules.size(), 1u);
  EXPECT_EQ(report.rules[0].breaches, 1u);
  EXPECT_EQ(report.rules[0].first_breach_round, 2u);
  EXPECT_NE(report.json().find("\"lat\""), std::string::npos);
}

TEST(SloEngine, DefaultRulesStayQuietOnHealthySeries) {
  SloEngine engine(default_rules(/*max_latency_ms=*/400.0));
  std::vector<RoundSample> series;
  for (std::uint64_t rnd = 1; rnd <= 12; ++rnd) {
    RoundSample s = sample(rnd, 45.0);
    s.payload_bytes = 3968;
    s.expected_payload_bytes = 3968.0;
    series.push_back(s);
  }
  EXPECT_TRUE(feed(engine, series).empty());
  EXPECT_TRUE(engine.report().healthy());
}

}  // namespace
}  // namespace p2pfl::obs
