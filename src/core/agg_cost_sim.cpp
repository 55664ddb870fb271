#include "core/agg_cost_sim.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/two_layer_agg.hpp"
#include "core/topology.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {

AggCostBreakdown simulate_aggregation_cost(
    std::span<const std::size_t> groups, std::size_t dropout_tolerance,
    const AggSimHooks& hooks) {
  // |w| chosen large so control traffic (none in a fault-free round)
  // could never be confused with a model transfer.
  constexpr std::uint64_t kModelWire = kCostSimModelWire;
  constexpr std::size_t kDim = 4;

  sim::Simulator sim(1234);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});

  std::vector<std::vector<PeerId>> assignment(groups.size());
  PeerId next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g]; ++i) {
      assignment[g].push_back(next++);
    }
  }
  Topology topo(std::move(assignment));

  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = dropout_tolerance;
  cfg.model_wire_bytes = kModelWire;
  TwoLayerAggregator agg(topo, cfg, net);

  AggCostBreakdown out;
  agg.on_global_model = [&](TwoLayerAggregator::RoundId,
                            const secagg::Vector&, std::size_t) {
    out.completed = true;
  };

  Rng model_rng(99);
  if (hooks.on_start) hooks.on_start(sim);
  agg.begin_round(1, RoundLeadership::designated(topo), [&](PeerId) {
    secagg::Vector v(kDim);
    for (float& x : v) x = static_cast<float>(model_rng.uniform(-1.0, 1.0));
    return v;
  });
  sim.run();
  if (hooks.on_finish) hooks.on_finish(sim);

  // Count the |w|-unit model payload of each transfer (the quantity the
  // paper's Eqs. (4)/(5) model); real framing bytes ride in counter.bytes.
  const auto& by_kind = net.stats().sent_by_kind;
  auto units_of = [&](const char* prefix) {
    double bytes = 0.0;
    for (const auto& [kind, counter] : by_kind) {
      if (kind.rfind(prefix, 0) == 0) {
        bytes += static_cast<double>(counter.payload);
      }
    }
    return bytes / static_cast<double>(kModelWire);
  };
  out.sac_units = units_of("sac/");
  out.fedavg_units = units_of("agg/upload");
  out.broadcast_units = units_of("agg/result");
  // agg/result covers both the FedAvg return hop and the in-subgroup
  // fan-out; split them: the return hop is (live leaders - 1) transfers.
  const double return_hop = static_cast<double>(groups.size()) - 1.0;
  out.fedavg_units += return_hop;
  out.broadcast_units -= return_hop;
  out.total_units = units_of("");
  return out;
}

AggLatency simulate_two_layer_latency(std::span<const std::size_t> groups,
                                      std::size_t dropout_tolerance,
                                      std::uint64_t model_wire_bytes,
                                      std::uint64_t egress_bytes_per_sec,
                                      const AggSimHooks& hooks) {
  constexpr std::size_t kDim = 4;
  sim::Simulator sim(77);
  net::NetworkConfig ncfg;
  ncfg.base_latency = 15 * kMillisecond;
  ncfg.egress_bytes_per_sec = egress_bytes_per_sec;
  net::Network net(sim, ncfg);

  std::vector<std::vector<PeerId>> assignment(groups.size());
  PeerId next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g]; ++i) assignment[g].push_back(next++);
  }
  Topology topo(std::move(assignment));
  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = dropout_tolerance;
  cfg.model_wire_bytes = model_wire_bytes;
  cfg.collect_timeout = 3600 * kSecond;      // latency study: never give up
  cfg.sac_share_timeout = 3600 * kSecond;
  cfg.sac_subtotal_timeout = 3600 * kSecond;
  cfg.upload_retry = 3600 * kSecond;  // big models serialize slowly; a
                                      // retry would distort the byte study
  TwoLayerAggregator agg(topo, cfg, net);

  AggLatency out;
  std::size_t received = 0;
  agg.on_global_model = [&](TwoLayerAggregator::RoundId,
                            const secagg::Vector&, std::size_t) {
    out.completed = true;
    out.aggregate_ms = to_ms(sim.now());
  };
  agg.on_model_received = [&](TwoLayerAggregator::RoundId, PeerId,
                              const secagg::Vector&) {
    if (++received == topo.peer_count()) {
      out.all_received_ms = to_ms(sim.now());
      sim.stop();
    }
  };

  if (hooks.on_start) hooks.on_start(sim);
  agg.begin_round(1, RoundLeadership::designated(topo),
                  [&](PeerId) { return secagg::Vector(kDim, 1.0f); });
  sim.run();
  if (hooks.on_finish) hooks.on_finish(sim);
  return out;
}

AggLatency simulate_one_layer_latency(std::size_t peers,
                                      std::uint64_t model_wire_bytes,
                                      std::uint64_t egress_bytes_per_sec) {
  constexpr std::size_t kDim = 4;
  sim::Simulator sim(78);
  net::NetworkConfig ncfg;
  ncfg.base_latency = 15 * kMillisecond;
  ncfg.egress_bytes_per_sec = egress_bytes_per_sec;
  net::Network net(sim, ncfg);

  std::vector<PeerId> group;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::vector<std::unique_ptr<secagg::SacPeer>> actors;
  secagg::SacActorOptions opts;
  opts.broadcast_subtotals = true;  // Alg. 2
  opts.wire_bytes_per_share = model_wire_bytes;
  opts.share_timeout = 3600 * kSecond;
  opts.subtotal_timeout = 3600 * kSecond;
  for (PeerId id = 0; id < peers; ++id) {
    group.push_back(id);
    hosts.push_back(std::make_unique<net::PeerHost>());
    net.attach(id, hosts.back().get());
    actors.push_back(std::make_unique<secagg::SacPeer>(
        id, "sac/1l", opts, net, *hosts.back()));
  }
  AggLatency out;
  std::size_t done = 0;
  for (auto& a : actors) {
    a->on_complete = [&](secagg::RoundId, const secagg::Vector&) {
      if (++done == peers) {
        out.completed = true;
        out.aggregate_ms = to_ms(sim.now());
        out.all_received_ms = out.aggregate_ms;
        sim.stop();
      }
    };
  }
  for (PeerId id = 0; id < peers; ++id) {
    actors[id]->begin_round(1, secagg::Vector(kDim, 1.0f), group, 0);
  }
  sim.run();
  return out;
}

double simulate_aggregation_cost_units(std::span<const std::size_t> groups,
                                       std::size_t dropout_tolerance) {
  return simulate_aggregation_cost(groups, dropout_tolerance).total_units;
}

}  // namespace p2pfl::core
