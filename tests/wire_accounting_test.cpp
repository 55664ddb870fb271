// Per-kind byte-accounting regression for a full two-layer round.
//
// With no model_wire_bytes override the charged wire size of every
// message equals its real encoded length exactly (modeled_delta = 0),
// and the network's encode-verify mode — on by default here — asserts
// that equality on every single send. On top of that this test pins the
// per-kind message counts and byte totals of a fault-free round to the
// closed forms implied by the framing constants, and the summed |w|-unit
// payload to the paper's Eq. (4) (k = n) and Eq. (5) (k < n).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "analysis/cost_model.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "secagg/wire.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {
namespace {

struct RoundRun {
  sim::Simulator sim;
  net::Network net;
  Topology topo;
  std::optional<TwoLayerAggregator> agg;
  bool completed = false;

  RoundRun(std::size_t m, std::size_t n, std::size_t tolerance,
           std::size_t dim)
      : sim(31),
        net(sim, net::NetworkConfig{.base_latency = 15 * kMillisecond}),
        topo(Topology::even(m * n, m)) {
    AggregationConfig cfg;
    cfg.sac_dropout_tolerance = tolerance;
    // No wire override: real encodings are charged byte-for-byte.
    agg.emplace(topo, cfg, net);
    agg->on_global_model = [this](std::uint64_t, const secagg::Vector&,
                                  std::size_t) { completed = true; };
    agg->begin_round(1, RoundLeadership::designated(topo), [dim](PeerId id) {
      return secagg::Vector(dim, static_cast<float>(id + 1));
    });
    sim.run();
  }
};

void check_round(std::size_t m, std::size_t n, std::size_t tolerance,
                 std::size_t dim) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " tol=" + std::to_string(tolerance));
  RoundRun run(m, n, tolerance, dim);
  ASSERT_TRUE(run.completed);

  const std::size_t k = n > tolerance ? n - tolerance : 1;
  const std::uint64_t w = 4 * static_cast<std::uint64_t>(dim);
  const std::uint64_t parts = n - k + 1;
  const std::uint64_t share_wire =
      secagg::wire::kShareHeader +
      parts * (secagg::wire::kPerPartHeader + w);
  const std::uint64_t subtotal_wire = secagg::wire::kSubtotalHeader + w;
  const std::uint64_t upload_wire = core::wire::kUploadHeader + w;
  const std::uint64_t result_wire = core::wire::kResultHeader + w;

  const auto& by_kind = run.net.stats().sent_by_kind;
  std::uint64_t total_payload = 0;
  for (const auto& [kind, c] : by_kind) {
    SCOPED_TRACE(kind);
    total_payload += c.payload;
    // Every kind this round produced has a registered codec — nothing
    // slipped past encode verification.
    ASSERT_NE(net::CodecRegistry::global().find_kind(kind), nullptr);
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
      // Return hop to (m-1) other leaders + in-group fan-out m(n-1).
      EXPECT_EQ(c.messages, (m - 1) + m * (n - 1));
      EXPECT_EQ(c.bytes, c.messages * result_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else {
      ADD_FAILURE() << "unexpected kind in a fault-free round: " << kind;
    }
  }
  // Delivered matches sent exactly: no chaos, so no copy was lost.
  EXPECT_EQ(run.net.stats().delivered.messages,
            run.net.stats().sent.messages);
  EXPECT_EQ(run.net.stats().delivered.bytes, run.net.stats().sent.bytes);
  EXPECT_EQ(run.net.stats().delivered.payload,
            run.net.stats().sent.payload);

  // The |w|-unit payload total is the paper's closed form.
  const double units =
      static_cast<double>(total_payload) / static_cast<double>(w);
  if (tolerance == 0) {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_cost_eq4(m, n));
  } else {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_ft_cost_eq5(m * n, m, n, k));
  }
}

TEST(WireAccounting, FaultFreeRoundMatchesEq4PerKind) {
  check_round(3, 3, 0, 4);
  check_round(2, 4, 0, 6);
  check_round(4, 5, 0, 3);
}

TEST(WireAccounting, FaultTolerantRoundMatchesEq5PerKind) {
  check_round(3, 4, 1, 4);
  check_round(3, 5, 2, 5);
}

TEST(WireAccounting, ModeledCnnChargesDeclareTheirDelta) {
  // With a model_wire_bytes override the charge exceeds the encoding by
  // the declared delta; encode-verify accepts it and the payload counter
  // carries the modeled |w| while bytes carry the modeled wire size.
  constexpr std::uint64_t kCnn = 5'000'000;
  sim::Simulator sim(32);
  net::Network net(sim, net::NetworkConfig{.base_latency = 15 * kMillisecond});
  const Topology topo = Topology::even(9, 3);
  AggregationConfig cfg;
  cfg.model_wire_bytes = kCnn;
  TwoLayerAggregator agg(topo, cfg, net);
  bool completed = false;
  agg.on_global_model = [&](std::uint64_t, const secagg::Vector&,
                            std::size_t) { completed = true; };
  agg.begin_round(1, RoundLeadership::designated(topo), [](PeerId id) {
    return secagg::Vector(4, static_cast<float>(id + 1));
  });
  sim.run();
  ASSERT_TRUE(completed);
  const auto& st = net.stats();
  // Every transfer models one 5 MB CNN payload: the |w|-unit payload
  // total is Eq. (4) times the modeled size, not the 16-byte vectors.
  EXPECT_EQ(st.sent.payload,
            static_cast<std::uint64_t>(analysis::two_layer_cost_eq4(3, 3)) *
                kCnn);
  EXPECT_GT(st.sent.bytes, st.sent.payload);  // framing rides on top
}

}  // namespace
}  // namespace p2pfl::core
