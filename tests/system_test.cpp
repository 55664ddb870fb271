#include <gtest/gtest.h>

#include "sim_system.hpp"

namespace p2pfl::core {
namespace {

TEST(FullSystem, CompletesRoundsAndLearns) {
  SimSystem f({.peers = 6, .groups = 2, .seed = 3});
  f.sys.start();
  f.sim.run_for(20 * kSecond);
  EXPECT_GE(f.sys.rounds_completed(), 10u);
  const auto ev = f.sys.evaluate_global();
  EXPECT_GT(ev.accuracy, 0.5);
}

TEST(FullSystem, EveryPeerReceivesTheGlobalModel) {
  SimSystem f({.peers = 6, .groups = 2, .seed = 3});
  f.sys.start();
  f.sim.run_for(10 * kSecond);
  ASSERT_GE(f.sys.rounds_completed(), 1u);
  // All peers' latest globals agree (they all got the same broadcast).
  const auto& reference = f.sys.global_model_at(0);
  ASSERT_FALSE(reference.empty());
  for (PeerId p = 1; p < 6; ++p) {
    EXPECT_EQ(f.sys.global_model_at(p), reference) << "peer " << p;
  }
}

TEST(FullSystem, SurvivesSubgroupLeaderCrash) {
  SimSystem f({.peers = 9, .groups = 3, .seed = 3});
  f.sys.start();
  f.sim.run_for(8 * kSecond);
  const std::size_t before = f.sys.rounds_completed();
  ASSERT_GE(before, 1u);
  // Crash a subgroup leader that is not the FedAvg leader.
  const PeerId fed = f.sys.raft().fedavg_leader();
  PeerId victim = kNoPeer;
  for (SubgroupId g = 0; g < 3; ++g) {
    const PeerId l = f.sys.raft().subgroup_leader(g);
    if (l != fed) victim = l;
  }
  ASSERT_NE(victim, kNoPeer);
  f.sys.crash_peer(victim);
  f.sim.run_for(15 * kSecond);
  EXPECT_GT(f.sys.rounds_completed(), before + 3)
      << "rounds must keep completing after the crash";
}

TEST(FullSystem, SurvivesFedAvgLeaderCrash) {
  SimSystem f({.peers = 9, .groups = 3, .seed = 11});
  f.sys.start();
  f.sim.run_for(8 * kSecond);
  const std::size_t before = f.sys.rounds_completed();
  ASSERT_GE(before, 1u);
  const PeerId fed = f.sys.raft().fedavg_leader();
  ASSERT_NE(fed, kNoPeer);
  f.sys.crash_peer(fed);
  f.sim.run_for(20 * kSecond);
  EXPECT_GT(f.sys.rounds_completed(), before + 3);
  EXPECT_NE(f.sys.raft().fedavg_leader(), fed);
}

TEST(FullSystem, CrashedPeerExcludedThenRejoinsAfterRestart) {
  SimSystem f({.peers = 6, .groups = 2, .seed = 5});
  f.sys.start();
  f.sim.run_for(6 * kSecond);
  // Crash a pure follower.
  const PeerId victim = f.sys.raft().pure_followers().at(0);
  f.sys.crash_peer(victim);
  f.sim.run_for(6 * kSecond);
  const std::size_t rounds_mid = f.sys.rounds_completed();
  EXPECT_GE(rounds_mid, 5u);  // aggregation continued without it
  f.sys.restart_peer(victim);
  f.sim.run_for(6 * kSecond);
  // After restart the peer receives globals again.
  EXPECT_EQ(f.sys.global_model_at(victim),
            f.sys.global_model_at(f.sys.raft().fedavg_leader()));
}

TEST(FullSystem, RoundCompletionCallbackReportsGroupCounts) {
  SimSystem f({.peers = 6, .groups = 2, .seed = 9});
  std::vector<std::size_t> group_counts;
  f.sys.on_round_complete = [&](std::uint64_t, const secagg::Vector&,
                                 std::size_t groups) {
    group_counts.push_back(groups);
  };
  f.sys.start();
  f.sim.run_for(10 * kSecond);
  ASSERT_FALSE(group_counts.empty());
  for (std::size_t g : group_counts) EXPECT_EQ(g, 2u);
}

TEST(FullSystem, SlowerLinksStillCompleteRounds) {
  // Uniformly slower links (extra 10 ms per hop — still respecting
  // Raft's "broadcast time << election timeout" requirement): transfers
  // take longer, rounds still complete steadily.
  SimSystem f({.peers = 6, .groups = 2, .seed = 21});
  for (PeerId p = 0; p < 6; ++p) {
    for (PeerId q = 0; q < 6; ++q) {
      if (p != q) f.net.set_link_delay(p, q, 10 * kMillisecond);
    }
  }
  f.sys.start();
  f.sim.run_for(20 * kSecond);
  EXPECT_GE(f.sys.rounds_completed(), 5u);
  EXPECT_GT(f.sys.evaluate_global().accuracy, 0.4);
}

TEST(FullSystem, CombinedFollowerCrashAndSlowLinksKeepLearning) {
  SimSystem f({.peers = 9, .groups = 3, .seed = 23});
  f.sys.start();
  f.sim.run_for(6 * kSecond);
  // Slow down one subgroup's leader (late uploads) and crash a follower
  // elsewhere.
  const PeerId fed = f.sys.raft().fedavg_leader();
  ASSERT_NE(fed, kNoPeer);
  PeerId slow_leader = kNoPeer;
  for (SubgroupId g = 0; g < 3; ++g) {
    const PeerId l = f.sys.raft().subgroup_leader(g);
    if (l != fed) slow_leader = l;
  }
  ASSERT_NE(slow_leader, kNoPeer);
  f.net.set_link_delay(slow_leader, fed, 400 * kMillisecond);
  f.sys.crash_peer(f.sys.raft().pure_followers().at(0));
  const std::size_t before = f.sys.rounds_completed();
  f.sim.run_for(15 * kSecond);
  EXPECT_GT(f.sys.rounds_completed(), before + 3);
}

}  // namespace
}  // namespace p2pfl::core
