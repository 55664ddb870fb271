#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "net/mux.hpp"
#include "net/network.hpp"
#include "raft/node.hpp"

namespace p2pfl::raft {
namespace {

// A simulated Raft cluster with per-node applied-command recording.
struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 42,
                   RaftOptions opts = {})
      : sim(seed), net(sim, {.base_latency = 15 * kMillisecond}) {
    std::vector<PeerId> members;
    for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<PeerId>(i));
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<net::PeerHost>());
      net.attach(static_cast<PeerId>(i), hosts.back().get());
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<RaftNode>(
          static_cast<PeerId>(i), "raft/test", members, opts, net,
          *hosts[i]));
      RaftNode* node = nodes.back().get();
      node->on_apply = [this, i](Index idx, const LogEntry& e) {
        applied[i].emplace_back(idx, e.data);
      };
      node->on_become_leader = [this, node] {
        leaders_by_term[node->current_term()].insert(node->id());
      };
    }
  }

  void start_all() {
    for (auto& n : nodes) n->start();
  }

  void run_for(SimDuration d) { sim.run_for(d); }

  /// The unique live leader, or nullptr.
  RaftNode* leader() {
    RaftNode* best = nullptr;
    for (auto& n : nodes) {
      if (!n->is_leader() || net.crashed(n->id())) continue;
      if (best == nullptr || n->current_term() > best->current_term()) {
        best = n.get();
      }
    }
    return best;
  }

  void crash(PeerId id) {
    net.crash(id);
    nodes[id]->stop();
  }

  void restart(PeerId id) {
    net.restore(id);
    nodes[id]->restart();
  }

  /// Election Safety: at most one leader was ever elected per term.
  void expect_election_safety() const {
    for (const auto& [term, ids] : leaders_by_term) {
      EXPECT_LE(ids.size(), 1u) << "two leaders in term " << term;
    }
  }

  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::vector<std::unique_ptr<RaftNode>> nodes;
  std::map<std::size_t, std::vector<std::pair<Index, Bytes>>> applied;
  std::map<Term, std::set<PeerId>> leaders_by_term;
};

Bytes cmd(std::uint8_t x) { return Bytes{x}; }

TEST(Raft, ElectsExactlyOneLeader) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  int leaders = 0;
  for (auto& n : c.nodes) {
    if (n->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  c.expect_election_safety();
}

TEST(Raft, ElectionHappensWithinExpectedWindow) {
  // First election: some follower times out in U(T,2T) and wins within a
  // couple of RTTs. With T = 150 ms the leader must exist well before 1 s.
  Cluster c(5);
  c.start_all();
  c.run_for(1 * kSecond);
  EXPECT_NE(c.leader(), nullptr);
}

TEST(Raft, SingleNodeClusterElectsItself) {
  Cluster c(1);
  c.start_all();
  c.run_for(1 * kSecond);
  ASSERT_NE(c.leader(), nullptr);
  EXPECT_EQ(c.leader()->id(), 0u);
  // And commits immediately without peers.
  auto idx = c.leader()->propose(cmd(9));
  ASSERT_TRUE(idx.has_value());
  c.run_for(100 * kMillisecond);
  ASSERT_EQ(c.applied[0].size(), 1u);
}

TEST(Raft, LeaderCrashTriggersReelection) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* first = c.leader();
  ASSERT_NE(first, nullptr);
  const PeerId old_id = first->id();
  const Term old_term = first->current_term();
  c.crash(old_id);
  c.run_for(2 * kSecond);
  RaftNode* second = c.leader();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second->id(), old_id);
  EXPECT_GT(second->current_term(), old_term);
  c.expect_election_safety();
}

TEST(Raft, OldLeaderRejoinsAsFollower) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  const PeerId old_id = c.leader()->id();
  c.crash(old_id);
  c.run_for(2 * kSecond);
  ASSERT_NE(c.leader(), nullptr);
  c.restart(old_id);
  c.run_for(1 * kSecond);
  EXPECT_FALSE(c.nodes[old_id]->is_leader());
  EXPECT_EQ(c.nodes[old_id]->role(), Role::kFollower);
  EXPECT_EQ(c.nodes[old_id]->current_term(), c.leader()->current_term());
  c.expect_election_safety();
}

TEST(Raft, ReplicatesAndAppliesInOrderEverywhere) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(leader->propose(cmd(i)).has_value());
    c.run_for(40 * kMillisecond);
  }
  c.run_for(1 * kSecond);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(c.applied[i].size(), 10u) << "node " << i;
    for (std::uint8_t j = 0; j < 10; ++j) {
      EXPECT_EQ(c.applied[i][j].second, cmd(j));
    }
  }
}

TEST(Raft, ProposeOnFollowerIsRejected) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  for (auto& n : c.nodes) {
    if (n.get() != leader) {
      EXPECT_FALSE(n->propose(cmd(1)).has_value());
    }
  }
}

TEST(Raft, MinorityCrashDoesNotBlockCommit) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  // Crash two followers (minority).
  int crashed = 0;
  for (auto& n : c.nodes) {
    if (n.get() != leader && crashed < 2) {
      c.crash(n->id());
      ++crashed;
    }
  }
  ASSERT_TRUE(leader->propose(cmd(42)).has_value());
  c.run_for(1 * kSecond);
  EXPECT_GE(leader->commit_index(), 1u);
  EXPECT_EQ(c.applied[leader->id()].back().second, cmd(42));
}

TEST(Raft, MajorityCrashBlocksCommit) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  int crashed = 0;
  for (auto& n : c.nodes) {
    if (n.get() != leader && crashed < 3) {
      c.crash(n->id());
      ++crashed;
    }
  }
  const Index before = leader->commit_index();
  leader->propose(cmd(7));
  c.run_for(2 * kSecond);
  EXPECT_EQ(leader->commit_index(), before);
}

TEST(Raft, ConflictingUncommittedEntriesAreOverwritten) {
  Cluster c(5);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* old_leader = c.leader();
  ASSERT_NE(old_leader, nullptr);
  const PeerId old_id = old_leader->id();

  // Isolate the leader, let it append entries nobody receives.
  for (auto& n : c.nodes) {
    if (n->id() != old_id) {
      c.net.block_link(old_id, n->id());
      c.net.block_link(n->id(), old_id);
    }
  }
  old_leader->propose(cmd(100));
  old_leader->propose(cmd(101));
  c.run_for(2 * kSecond);

  // A new leader emerges and commits different entries.
  RaftNode* new_leader = nullptr;
  for (auto& n : c.nodes) {
    if (n->id() != old_id && n->is_leader()) new_leader = n.get();
  }
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(new_leader->propose(cmd(200)).has_value());
  c.run_for(1 * kSecond);

  // Heal the partition: the old leader's uncommitted tail is replaced.
  for (auto& n : c.nodes) {
    if (n->id() != old_id) {
      c.net.unblock_link(old_id, n->id());
      c.net.unblock_link(n->id(), old_id);
    }
  }
  c.run_for(2 * kSecond);
  EXPECT_FALSE(c.nodes[old_id]->is_leader());
  ASSERT_FALSE(c.applied[old_id].empty());
  EXPECT_EQ(c.applied[old_id].back().second, cmd(200));
  // State-Machine Safety: all nodes applied the same sequence.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(c.applied[i], c.applied[0]) << "node " << i;
  }
  c.expect_election_safety();
}

TEST(Raft, RestartedNodeCatchesUpAndReplays) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  PeerId follower = kNoPeer;
  for (auto& n : c.nodes) {
    if (n.get() != leader) follower = n->id();
  }
  c.crash(follower);
  for (std::uint8_t i = 0; i < 5; ++i) {
    leader->propose(cmd(i));
    c.run_for(40 * kMillisecond);
  }
  c.run_for(500 * kMillisecond);
  c.applied[follower].clear();  // observe the replay after restart
  c.restart(follower);
  c.run_for(2 * kSecond);
  ASSERT_EQ(c.applied[follower].size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c.applied[follower][i].second, cmd(i));
  }
}

TEST(Raft, AddServerExtendsClusterAndReplicates) {
  Cluster c(3);
  // Attach a fourth node that is not in the initial configuration.
  c.hosts.push_back(std::make_unique<net::PeerHost>());
  c.net.attach(3, c.hosts.back().get());
  std::vector<PeerId> members{0, 1, 2};
  RaftOptions opts;
  c.nodes.push_back(std::make_unique<RaftNode>(
      3, "raft/test", members, opts, c.net, *c.hosts[3]));
  c.nodes[3]->on_apply = [&c](Index idx, const LogEntry& e) {
    c.applied[3].emplace_back(idx, e.data);
  };
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  leader->propose(cmd(1));
  c.run_for(200 * kMillisecond);
  EXPECT_FALSE(c.nodes[3]->in_config());
  ASSERT_TRUE(leader->propose_add_server(3).has_value());
  c.run_for(1 * kSecond);
  EXPECT_TRUE(c.nodes[3]->in_config());
  EXPECT_EQ(leader->members().size(), 4u);
  // The new member received the full log.
  ASSERT_EQ(c.applied[3].size(), 1u);
  EXPECT_EQ(c.applied[3][0].second, cmd(1));
  // And participates in commitment.
  leader->propose(cmd(2));
  c.run_for(500 * kMillisecond);
  EXPECT_EQ(c.applied[3].back().second, cmd(2));
}

TEST(Raft, RemoveCrashedServerRestoresProgressWithSmallerQuorum) {
  Cluster c(4);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  // Crash two followers: 2 of 4 alive, no quorum.
  std::vector<PeerId> dead;
  for (auto& n : c.nodes) {
    if (n.get() != leader && dead.size() < 2) {
      dead.push_back(n->id());
      c.crash(n->id());
    }
  }
  leader->propose(cmd(1));
  c.run_for(1 * kSecond);
  const Index stuck = leader->commit_index();
  // Remove one dead server: quorum becomes 2 of 3, which is met.
  ASSERT_TRUE(leader->propose_remove_server(dead[0]).has_value());
  c.run_for(1 * kSecond);
  EXPECT_GT(leader->commit_index(), stuck);
  EXPECT_EQ(leader->members().size(), 3u);
}

TEST(Raft, OnlyOneConfigChangeInFlight) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  // Block one follower so the change cannot commit instantly... quorum of
  // 3 is 2, so block both followers to hold the config change open.
  for (auto& n : c.nodes) {
    if (n.get() != leader) {
      c.net.block_link(leader->id(), n->id());
      c.net.block_link(n->id(), leader->id());
    }
  }
  ASSERT_TRUE(leader->propose_add_server(7).has_value());
  EXPECT_FALSE(leader->propose_add_server(8).has_value());
  EXPECT_FALSE(leader->propose_remove_server(7).has_value());
}

TEST(Raft, AddOfPresentMemberAndRemoveOfStrangerAreRejected) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  // Both proposals are vacuous; accepting them would burn the one
  // change-in-flight slot on a config entry that changes nothing.
  EXPECT_FALSE(leader->propose_add_server(leader->id()).has_value());
  EXPECT_FALSE(leader->propose_add_server(1).has_value());
  EXPECT_FALSE(leader->propose_remove_server(42).has_value());
  EXPECT_EQ(leader->members().size(), 3u);
  // The slot stays free for a real change.
  EXPECT_TRUE(leader->propose_remove_server(
                        leader->id() == 2 ? 1 : 2).has_value());
}

TEST(Raft, RemovingCurrentLeaderMakesItStepDownAfterCommit) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* old_leader = c.leader();
  ASSERT_NE(old_leader, nullptr);
  const PeerId removed = old_leader->id();
  // §4.2.2: the leader may commit a configuration that excludes itself;
  // it keeps leading until the entry commits, then steps down.
  ASSERT_TRUE(old_leader->propose_remove_server(removed).has_value());
  c.run_for(2 * kSecond);
  EXPECT_FALSE(old_leader->is_leader());
  EXPECT_FALSE(old_leader->in_config());
  // The surviving pair elects a successor and still commits.
  RaftNode* next = c.leader();
  ASSERT_NE(next, nullptr);
  EXPECT_NE(next->id(), removed);
  EXPECT_EQ(next->members().size(), 2u);
  ASSERT_TRUE(next->propose(cmd(5)).has_value());
  c.run_for(500 * kMillisecond);
  EXPECT_EQ(c.applied[next->id()].back().second, cmd(5));
  // The removed server never applies past its own removal entry.
  c.expect_election_safety();
}

TEST(Raft, NonMemberNeverCampaigns) {
  // A node whose configuration does not include itself stays follower.
  sim::Simulator sim(1);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  net::PeerHost host;
  net.attach(9, &host);
  RaftNode node(9, "raft/x", {0, 1, 2}, {}, net, host);
  node.start();
  sim.run_for(5 * kSecond);
  EXPECT_EQ(node.role(), Role::kFollower);
  EXPECT_EQ(node.current_term(), 0u);
}

TEST(Raft, LeaderStickinessIgnoresVoteRequestsFromOutsideTheCluster) {
  // §4.2.3: a server outside the configuration (one just removed, say)
  // campaigns with an inflated term and the most up-to-date log. A
  // follower that heard from the leader within the minimum election
  // timeout, and a leader with quorum contact, drop the request without
  // adopting its term, so the healthy cluster is not disrupted.
  Cluster c(3);
  constexpr PeerId kOutsider = 7;
  net::PeerHost outsider;
  std::size_t replies = 0;
  outsider.route("raft/test/rvr", [&](const net::Envelope&) { ++replies; });
  c.net.attach(kOutsider, &outsider);
  c.start_all();
  c.run_for(2 * kSecond);
  RaftNode* leader = c.leader();
  ASSERT_NE(leader, nullptr);
  RaftNode* follower = c.nodes[leader->id() == 0 ? 1 : 0].get();
  const Term term = leader->current_term();
  ASSERT_GE(follower->last_leader_contact(), 0);
  ASSERT_LT(c.sim.now() - follower->last_leader_contact(),
            150 * kMillisecond);
  ASSERT_TRUE(leader->quorum_contact_recent());

  RequestVoteArgs rv;
  rv.term = term + 3;
  rv.candidate = kOutsider;
  rv.last_log_index = 1000;
  rv.last_log_term = term + 3;
  for (const RaftNode* target : {follower, leader}) {
    c.net.send(kOutsider, target->id(), "raft/test/rv", rv,
               RequestVoteArgs::kWireSize);
  }
  c.run_for(100 * kMillisecond);

  EXPECT_EQ(replies, 0u);
  for (const auto& n : c.nodes) EXPECT_EQ(n->current_term(), term);
  EXPECT_EQ(c.leader(), leader);
  EXPECT_EQ(leader->role(), Role::kLeader);
  c.expect_election_safety();
}

TEST(Raft, MetricsCountElections) {
  Cluster c(3);
  c.start_all();
  c.run_for(2 * kSecond);
  std::uint64_t started = 0, elected = 0;
  for (auto& n : c.nodes) {
    started += n->metrics().elections_started;
    elected += n->metrics().times_elected;
  }
  EXPECT_GE(started, 1u);
  EXPECT_EQ(elected, 1u);
}

TEST(Raft, LeaderCompletenessAfterSequentialCrashes) {
  // Commit, crash the leader, let a new one emerge, repeat: committed
  // entries must survive every transition (Leader Completeness). A
  // 7-node cluster keeps quorum (4) through three crashes.
  Cluster c(7, 7);
  c.start_all();
  c.run_for(2 * kSecond);
  std::vector<Bytes> committed;
  for (std::uint8_t wave = 0; wave < 3; ++wave) {
    RaftNode* leader = c.leader();
    ASSERT_NE(leader, nullptr) << "wave " << int(wave);
    ASSERT_TRUE(leader->propose(cmd(wave)).has_value());
    committed.push_back(cmd(wave));
    c.run_for(1 * kSecond);  // commit settles
    c.crash(leader->id());
    c.run_for(3 * kSecond);  // next leader emerges
  }
  RaftNode* final_leader = c.leader();
  ASSERT_NE(final_leader, nullptr);
  const auto& seq = c.applied[final_leader->id()];
  ASSERT_GE(seq.size(), committed.size());
  std::size_t found = 0;
  for (const auto& [idx, data] : seq) {
    if (found < committed.size() && data == committed[found]) ++found;
  }
  EXPECT_EQ(found, committed.size());
  c.expect_election_safety();
}

}  // namespace
}  // namespace p2pfl::raft
