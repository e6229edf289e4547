// Unit tests for src/consensus/rotation: the leader-rotation election and
// replicated-log state machine (DESIGN.md §15), driven entirely in-memory —
// the Node is transport- and clock-agnostic, so a tiny message bus with a
// hand-advanced clock exercises elections, replication, commit, failover and
// the single-change-at-a-time membership rule deterministically.  The wire
// round-trips of the four consensus frame kinds live here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "consensus/rotation.hpp"
#include "net/wire.hpp"

namespace abdhfl::consensus::rotation {
namespace {

using net::NodeId;

std::vector<float> test_params(std::size_t n, float phase = 0.0f) {
  std::vector<float> params(n);
  for (std::size_t i = 0; i < n; ++i) {
    params[i] = std::sin(phase + 0.1f * static_cast<float>(i)) * 2.0f - 0.5f;
  }
  return params;
}

// In-memory committee: synchronous delivery of every outbox each step, a
// hand-advanced clock, and kill() for failover drills.
struct Bus {
  explicit Bus(std::size_t n, std::uint64_t seed = 7) {
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < n; ++i) members.push_back(100 + static_cast<NodeId>(i));
    for (std::size_t i = 0; i < n; ++i) {
      Config config;
      config.self = members[i];
      config.members = members;
      config.seed = seed;
      config.heartbeat_s = 0.01;
      config.election_min_s = 0.05;
      config.election_max_s = 0.10;
      nodes.push_back(std::make_unique<Node>(config));
      ids.push_back(members[i]);
      auto* node = nodes.back().get();
      node->on_commit = [this, i](const net::RaftLogEntry& entry) {
        applied[ids[i]].push_back(entry);
      };
    }
  }

  Node* find(NodeId id) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id && dead.find(id) == dead.end()) return nodes[i].get();
    }
    return nullptr;
  }

  void start() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dead.find(ids[i]) == dead.end()) nodes[i]->start(now);
    }
    deliver();
  }

  void kill(NodeId id) {
    dead.insert(id);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dead.find(ids[i]) == dead.end()) nodes[i]->on_peer_loss(id, now);
    }
    deliver();
  }

  void step(double dt) {
    now += dt;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dead.find(ids[i]) == dead.end()) nodes[i]->tick(now);
    }
    deliver();
  }

  void deliver() {
    bool moved = true;
    while (moved) {
      moved = false;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (dead.find(ids[i]) != dead.end()) continue;
        for (Outgoing& out : nodes[i]->take_outbox()) {
          Node* to = find(out.to);
          if (to == nullptr) continue;
          moved = true;
          if (auto* vr = std::get_if<net::VoteRequest>(&out.payload)) {
            to->on_vote_request(*vr, now);
          } else if (auto* vy = std::get_if<net::VoteReply>(&out.payload)) {
            to->on_vote_reply(*vy, now);
          } else if (auto* ae = std::get_if<net::AppendEntries>(&out.payload)) {
            to->on_append_entries(*ae, now);
          } else if (auto* hb = std::get_if<net::Heartbeat>(&out.payload)) {
            to->on_heartbeat(*hb, now);
          } else {
            FAIL() << "unexpected payload kind on the consensus bus";
          }
        }
      }
    }
  }

  Node* leader() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dead.find(ids[i]) == dead.end() && nodes[i]->is_leader()) {
        return nodes[i].get();
      }
    }
    return nullptr;
  }

  // Advance time in heartbeat-sized steps until a leader exists.
  Node* elect(double limit_s = 5.0) {
    for (double t = 0.0; t < limit_s; t += 0.01) {
      if (Node* l = leader()) return l;
      step(0.01);
    }
    return leader();
  }

  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<NodeId> ids;
  std::set<NodeId> dead;
  std::map<NodeId, std::vector<net::RaftLogEntry>> applied;
  double now = 0.0;
};

TEST(Rotation, SingleMemberCommitteeElectsAndCommitsInstantly) {
  Bus bus(1);
  bus.start();
  bus.step(0.0);
  ASSERT_TRUE(bus.nodes[0]->is_leader());
  EXPECT_EQ(bus.nodes[0]->term(), 1u);
  EXPECT_EQ(bus.nodes[0]->leader(), 100u);

  const auto params = test_params(16);
  const std::uint64_t index =
      bus.nodes[0]->append_model_commit(0, params, 3);
  EXPECT_EQ(index, 2u);  // after the view no-op
  EXPECT_EQ(bus.nodes[0]->commit_index(), 2u);
  ASSERT_EQ(bus.applied[100].size(), 2u);
  EXPECT_EQ(static_cast<EntryType>(bus.applied[100][0].type), EntryType::kView);
  const net::RaftLogEntry& model = bus.applied[100][1];
  EXPECT_EQ(static_cast<EntryType>(model.type), EntryType::kModelCommit);
  EXPECT_EQ(model.samples, 3u);
  ASSERT_EQ(model.params.size(), params.size());
  EXPECT_EQ(std::memcmp(model.params.data(), params.data(),
                        params.size() * sizeof(float)),
            0);
}

TEST(Rotation, QuietClusterElectsRankZeroDeterministically) {
  Bus bus(3);
  bus.start();
  Node* leader = bus.elect();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->leader(), 100u);  // rank-staggered first-term timeout
  EXPECT_EQ(leader->term(), 1u);
  for (const auto& node : bus.nodes) {
    EXPECT_EQ(node->leader(), 100u);
    EXPECT_EQ(node->term(), 1u);
    EXPECT_GE(node->elections_seen(), 1u);
  }
}

TEST(Rotation, LeaderReplicatesModelCommitsToEveryMemberInOrder) {
  Bus bus(3);
  bus.start();
  Node* leader = bus.elect();
  ASSERT_NE(leader, nullptr);

  const auto round0 = test_params(24, 0.0f);
  const auto round1 = test_params(24, 1.0f);
  leader->append_model_commit(0, round0, 3);
  bus.step(0.01);
  leader->append_model_commit(1, round1, 3);
  for (int i = 0; i < 10; ++i) bus.step(0.01);

  for (const auto& node : bus.nodes) {
    EXPECT_EQ(node->commit_index(), 3u);  // view + two models
  }
  for (const NodeId id : bus.ids) {
    ASSERT_EQ(bus.applied[id].size(), 3u) << "member " << id;
    EXPECT_EQ(static_cast<EntryType>(bus.applied[id][0].type), EntryType::kView);
    EXPECT_EQ(bus.applied[id][1].round, 0u);
    EXPECT_EQ(bus.applied[id][2].round, 1u);
    ASSERT_EQ(bus.applied[id][2].params.size(), round1.size());
    EXPECT_EQ(std::memcmp(bus.applied[id][2].params.data(), round1.data(),
                          round1.size() * sizeof(float)),
              0)
        << "member " << id << " model not bitwise";
  }
}

TEST(Rotation, LeaderDeathTriggersReelectionAndCommitsSurvive) {
  Bus bus(3);
  bus.start();
  Node* first = bus.elect();
  ASSERT_NE(first, nullptr);
  const auto committed = test_params(24, 2.0f);
  first->append_model_commit(0, committed, 3);
  for (int i = 0; i < 5; ++i) bus.step(0.01);
  ASSERT_EQ(bus.nodes[1]->commit_index(), 2u);

  bus.kill(100);
  Node* second = bus.elect();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second->leader(), 100u);
  EXPECT_GE(second->term(), 2u);

  // The committed model survives on the new leader, bitwise.
  bool found = false;
  for (const net::RaftLogEntry& entry : second->log()) {
    if (static_cast<EntryType>(entry.type) != EntryType::kModelCommit) continue;
    found = true;
    ASSERT_EQ(entry.params.size(), committed.size());
    EXPECT_EQ(std::memcmp(entry.params.data(), committed.data(),
                          committed.size() * sizeof(float)),
              0);
  }
  EXPECT_TRUE(found);

  // And the surviving pair still commits new entries (majority 2 of 3).
  second->append_model_commit(1, test_params(24, 3.0f), 2);
  for (int i = 0; i < 10; ++i) bus.step(0.01);
  EXPECT_EQ(second->commit_index(), second->last_index());
}

TEST(Rotation, VoteRestrictionRejectsStaleLogs) {
  Bus bus(3);
  bus.start();
  Node* leader = bus.elect();
  ASSERT_NE(leader, nullptr);
  leader->append_model_commit(0, test_params(8), 3);
  for (int i = 0; i < 5; ++i) bus.step(0.01);

  Node* follower = bus.nodes[1].get();
  ASSERT_EQ(follower->commit_index(), 2u);

  // A candidate with an empty log must not win over this follower.
  net::VoteRequest stale;
  stale.term = follower->term() + 1;
  stale.candidate = 102;
  stale.last_log_index = 0;
  stale.last_log_term = 0;
  follower->on_vote_request(stale, bus.now);
  auto out = follower->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& nay = std::get<net::VoteReply>(out[0].payload);
  EXPECT_EQ(nay.granted, 0u);

  // The same candidate with a log at least as complete is electable.
  net::VoteRequest fresh;
  fresh.term = follower->term() + 1;
  fresh.candidate = 102;
  fresh.last_log_index = follower->last_index();
  fresh.last_log_term = follower->log().back().term;
  follower->on_vote_request(fresh, bus.now);
  out = follower->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& yea = std::get<net::VoteReply>(out[0].payload);
  EXPECT_EQ(yea.granted, 1u);
}

TEST(Rotation, MembershipChangesAreSingleChangeAtATime) {
  Bus bus(3);
  bus.start();
  Node* leader = bus.elect();
  ASSERT_NE(leader, nullptr);
  const std::uint64_t base = leader->last_index();

  for (NodeId worker = 1; worker <= 3; ++worker) {
    net::RaftLogEntry entry;
    entry.type = static_cast<std::uint16_t>(EntryType::kMemberJoin);
    entry.subject = worker;
    entry.samples = 10 * worker;
    leader->propose_membership(std::move(entry));
  }
  // Only ONE may enter the log before it commits.
  EXPECT_EQ(leader->last_index(), base + 1);
  EXPECT_TRUE(leader->membership_in_flight());

  for (int i = 0; i < 20; ++i) bus.step(0.01);
  EXPECT_EQ(leader->last_index(), base + 3);
  EXPECT_EQ(leader->commit_index(), base + 3);
  EXPECT_FALSE(leader->membership_in_flight());
  for (const NodeId id : bus.ids) {
    const auto& seen = bus.applied[id];
    ASSERT_EQ(seen.size(), 4u) << "member " << id;  // view + three joins
    EXPECT_EQ(seen[1].subject, 1u);
    EXPECT_EQ(seen[2].subject, 2u);
    EXPECT_EQ(seen[3].subject, 3u);
  }
  EXPECT_EQ(leader->last_view_reason(), ViewReason::kMemberJoin);
}

TEST(Rotation, LeaderLinkLossShortCircuitsElectionTimeout) {
  Bus bus(3);
  bus.start();
  ASSERT_NE(bus.elect(), nullptr);
  std::vector<ViewReason> reasons;
  bus.nodes[1]->on_leader_change = [&](std::uint64_t, NodeId, ViewReason reason) {
    reasons.push_back(reason);
  };
  bus.kill(100);
  bus.step(0.001);  // far below election_min_s: the loss short-circuits it
  Node* next = bus.elect(1.0);
  ASSERT_NE(next, nullptr);
  ASSERT_GE(reasons.size(), 2u);
  EXPECT_EQ(reasons.front(), ViewReason::kLeaderLost);
  EXPECT_EQ(reasons.back(), ViewReason::kElected);
}

// ---------------------------------------------------------------------------
// Wire round-trips of the consensus frames (wire v4).

TEST(RotationWire, VoteRequestAndReplyRoundTrip) {
  net::VoteRequest req;
  req.term = 9;
  req.candidate = 101;
  req.last_log_index = 42;
  req.last_log_term = 8;
  auto decoded = net::decode_frame(net::encode_frame({101, 102, 3}, req));
  ASSERT_EQ(decoded.kind, net::MsgKind::kVoteRequest);
  const auto& out = std::get<net::VoteRequest>(decoded.payload);
  EXPECT_EQ(out.term, 9u);
  EXPECT_EQ(out.candidate, 101u);
  EXPECT_EQ(out.last_log_index, 42u);
  EXPECT_EQ(out.last_log_term, 8u);

  net::VoteReply reply;
  reply.term = 9;
  reply.voter = 102;
  reply.granted = 1;
  decoded = net::decode_frame(net::encode_frame({102, 101, 3}, reply));
  ASSERT_EQ(decoded.kind, net::MsgKind::kVoteReply);
  const auto& rout = std::get<net::VoteReply>(decoded.payload);
  EXPECT_EQ(rout.term, 9u);
  EXPECT_EQ(rout.voter, 102u);
  EXPECT_EQ(rout.granted, 1u);
}

TEST(RotationWire, AppendEntriesRoundTripBitwise) {
  net::AppendEntries append;
  append.term = 4;
  append.leader = 100;
  append.prev_log_index = 7;
  append.prev_log_term = 3;
  append.commit_index = 6;

  net::RaftLogEntry view;
  view.term = 4;
  view.index = 8;
  view.type = static_cast<std::uint16_t>(EntryType::kView);
  view.round = 4;
  append.entries.push_back(view);

  net::RaftLogEntry model;
  model.term = 4;
  model.index = 9;
  model.type = static_cast<std::uint16_t>(EntryType::kModelCommit);
  model.round = 2;
  model.samples = 5;
  model.params = test_params(33);
  append.entries.push_back(model);

  net::RaftLogEntry join;
  join.term = 4;
  join.index = 10;
  join.type = static_cast<std::uint16_t>(EntryType::kMemberJoin);
  join.round = 2;
  join.subject = 3;
  join.samples = 120;
  join.quantize_bits = 6;
  join.topk = 16;
  join.delta = 1;
  join.trace = 1;
  append.entries.push_back(join);

  const auto decoded = net::decode_frame(net::encode_frame({100, 101, 2}, append));
  ASSERT_EQ(decoded.kind, net::MsgKind::kAppendEntries);
  const auto& out = std::get<net::AppendEntries>(decoded.payload);
  EXPECT_EQ(out.term, 4u);
  EXPECT_EQ(out.leader, 100u);
  EXPECT_EQ(out.prev_log_index, 7u);
  EXPECT_EQ(out.prev_log_term, 3u);
  EXPECT_EQ(out.commit_index, 6u);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].type, view.type);
  EXPECT_EQ(out.entries[1].samples, 5u);
  ASSERT_EQ(out.entries[1].params.size(), model.params.size());
  EXPECT_EQ(std::memcmp(out.entries[1].params.data(), model.params.data(),
                        model.params.size() * sizeof(float)),
            0);
  EXPECT_EQ(out.entries[2].subject, 3u);
  EXPECT_EQ(out.entries[2].quantize_bits, 6u);
  EXPECT_EQ(out.entries[2].topk, 16u);
  EXPECT_EQ(out.entries[2].delta, 1u);
  EXPECT_EQ(out.entries[2].trace, 1u);
}

TEST(RotationWire, HeartbeatRoundTrip) {
  net::Heartbeat beat;
  beat.term = 12;
  beat.node = 102;
  beat.ack = 1;
  beat.success = 1;
  beat.commit_index = 40;
  beat.match_index = 41;
  const auto decoded = net::decode_frame(net::encode_frame({102, 100, 5}, beat));
  ASSERT_EQ(decoded.kind, net::MsgKind::kHeartbeat);
  const auto& out = std::get<net::Heartbeat>(decoded.payload);
  EXPECT_EQ(out.term, 12u);
  EXPECT_EQ(out.node, 102u);
  EXPECT_EQ(out.ack, 1u);
  EXPECT_EQ(out.success, 1u);
  EXPECT_EQ(out.commit_index, 40u);
  EXPECT_EQ(out.match_index, 41u);
}

TEST(RotationWire, StatusReplyCarriesConsensusColumns) {
  net::StatusReply reply;
  reply.node = 100;
  reply.round = 6;
  reply.term = 3;
  reply.leader = 101;
  reply.commit_index = 15;
  reply.view_reason = static_cast<std::uint8_t>(ViewReason::kElected);
  const auto decoded = net::decode_frame(net::encode_frame({100, 900, 6}, reply));
  ASSERT_EQ(decoded.kind, net::MsgKind::kStatusReply);
  const auto& out = std::get<net::StatusReply>(decoded.payload);
  EXPECT_EQ(out.term, 3u);
  EXPECT_EQ(out.leader, 101u);
  EXPECT_EQ(out.commit_index, 15u);
  EXPECT_EQ(out.view_reason, static_cast<std::uint8_t>(ViewReason::kElected));
}

}  // namespace
}  // namespace abdhfl::consensus::rotation
