// Two-layer Raft failover walkthrough (§V, Figs. 10-12 narrated).
//
// Nine peers in three subgroups bootstrap the two-layer Raft backend,
// then we crash first a subgroup leader and then the FedAvg leader, and
// watch the system repair itself: subgroup election, the post-election
// callback joining the new leader into the FedAvg layer, and the double
// election after a FedAvg-leader crash.
#include <cstdio>

#include "core/two_layer_raft.hpp"

using namespace p2pfl;
using namespace p2pfl::core;

namespace {

void print_state(const TwoLayerRaftSystem& sys, sim::Simulator& sim) {
  std::printf("[%7.0fms] state:", to_ms(sim.now()));
  for (SubgroupId g = 0; g < sys.topology().subgroup_count(); ++g) {
    std::printf(" sg%u->", g);
    const PeerId l = sys.subgroup_leader(g);
    if (l == kNoPeer) {
      std::printf("??");
    } else {
      std::printf("%u", l);
    }
  }
  std::printf(" | FedAvg leader %d, members:",
              static_cast<int>(sys.fedavg_leader()));
  for (PeerId m : sys.fedavg_members()) std::printf(" %u", m);
  std::printf("\n");
}

void settle(TwoLayerRaftSystem& sys, sim::Simulator& sim) {
  const SimTime deadline = sim.now() + 30 * kSecond;
  while (sim.now() < deadline && !sys.stabilized()) {
    sim.run_for(20 * kMillisecond);
  }
}

}  // namespace

int main() {
  sim::Simulator sim(2024);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 150 * kMillisecond;
  opts.raft.election_timeout_max = 300 * kMillisecond;
  TwoLayerRaftSystem sys(Topology::even(9, 3), opts, net);

  sys.on_subgroup_leader = [&](SubgroupId g, PeerId p) {
    std::printf("[%7.0fms] peer %u elected leader of subgroup %u\n",
                to_ms(sim.now()), p, g);
  };
  sys.on_fedavg_leader = [&](PeerId p) {
    std::printf("[%7.0fms] peer %u elected FedAvg-layer leader\n",
                to_ms(sim.now()), p);
  };
  sys.on_fedavg_joined = [&](PeerId p) {
    std::printf("[%7.0fms] peer %u confirmed as a FedAvg-layer member\n",
                to_ms(sim.now()), p);
  };

  std::printf("== bootstrap ==\n");
  sys.start_all();
  settle(sys, sim);
  print_state(sys, sim);

  std::printf("\n== crash a subgroup leader (Figs. 10-11 case) ==\n");
  const PeerId victim = sys.fedavg_followers().at(0);
  std::printf("[%7.0fms] *** peer %u (subgroup leader) crashes ***\n",
              to_ms(sim.now()), victim);
  sys.crash_peer(victim);
  settle(sys, sim);
  print_state(sys, sim);

  std::printf("\n== crash the FedAvg leader (Fig. 12 case) ==\n");
  const PeerId fed2 = sys.fedavg_leader();
  std::printf("[%7.0fms] *** peer %u (FedAvg leader) crashes ***\n",
              to_ms(sim.now()), fed2);
  sys.crash_peer(fed2);
  settle(sys, sim);
  print_state(sys, sim);

  std::printf("\n== restart the first victim: it rejoins as a follower ==\n");
  sys.restart_peer(victim);
  sim.run_for(3 * kSecond);
  print_state(sys, sim);
  std::printf("peer %u role: %s (old leaders return as followers)\n", victim,
              raft::role_name(sys.subgroup_node(victim).role()));
  return 0;
}
