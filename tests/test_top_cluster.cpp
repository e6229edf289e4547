// Integration tests for the leader-rotating top cluster (DESIGN.md §15):
// a loopback federation under a 3-member committee must be bitwise the
// transport-free reference; killing the leader mid-round must re-elect and
// finish the SAME run bitwise; and a sustained-churn drill (one leave + one
// join per round, twenty rounds) must lose no round, log every membership
// event, and replay bitwise from the committed log alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.hpp"
#include "consensus/rotation.hpp"
#include "net/hier/reference.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/top_cluster.hpp"
#include "net/wire.hpp"

namespace abdhfl::net {
namespace {

namespace rot = consensus::rotation;

FederationConfig small_config() {
  FederationConfig config;
  config.workers = 3;
  config.devices_per_worker = 1;
  config.rounds = 3;
  config.local_iters = 2;
  config.batch = 4;
  config.hidden = {4};
  config.samples_per_class = 2;
  config.test_samples_per_class = 1;
  config.cluster_rule = "mean";
  config.root_rule = "mean";
  config.top_cluster = 3;
  // Loopback runs everything on ONE thread, so a worker-training burst
  // inside a poll drain delays the leader's keepalives by the burst length.
  // The election timeout must comfortably exceed that, or followers call
  // spurious elections mid-round.
  config.heartbeat_s = 0.01;
  config.election_min_s = 0.25;
  config.election_max_s = 0.40;
  config.join_timeout_s = 10.0;
  config.round_timeout_s = 10.0;
  return config;
}

// Transport-free reference for a FIXED worker set: the hier runner on the
// flat "W,D" spec, worker updates folded in id order.
std::vector<float> reference_global(const FederationConfig& config) {
  FederationConfig flat = config;
  flat.tree = std::to_string(config.workers) + "," +
              std::to_string(config.devices_per_worker);
  return hier::run_hier_reference(flat).global_model;
}

// Loopback with SIGKILL semantics: kill(id) silences a node — its queued
// frames are dropped, later sends from/to it fail, its handler is gone, and
// every survivor gets the peer-loss event — without destroying the C++
// object (exactly what a killed process looks like from the outside).
class ChaosLoopback : public Transport {
 public:
  ChaosLoopback() : Transport("chaos-loopback") {}

  void register_node(NodeId id, MessageHandler handler) override {
    handlers_[id] = std::move(handler);
  }

  SendStatus send(const Envelope& env, const Payload& payload,
                  std::uint32_t link_class) override {
    if (dead_.count(env.from) != 0 || dead_.count(env.to) != 0) {
      return SendStatus::kPeerLost;
    }
    if (handlers_.find(env.to) == handlers_.end()) return SendStatus::kNoRoute;
    queue_.emplace_back(encode_frame(env, payload), link_class);
    return SendStatus::kOk;
  }

  std::size_t poll(double timeout_s) override {
    (void)timeout_s;
    std::size_t delivered = 0;
    // Snapshot the backlog: handlers send more, which lands next poll —
    // mirrors the real transports' no-reentrant-delivery guarantee.
    std::size_t batch = queue_.size();
    while (batch-- > 0) {
      auto [frame, link_class] = std::move(queue_.front());
      queue_.pop_front();
      WireMessage msg = decode_frame(frame);
      if (dead_.count(msg.env.from) != 0 || dead_.count(msg.env.to) != 0) continue;
      const auto it = handlers_.find(msg.env.to);
      if (it == handlers_.end()) continue;
      it->second(msg);
      ++delivered;
    }
    return delivered;
  }

  void kill(NodeId id) {
    dead_.insert(id);
    handlers_.erase(id);
    note_peer_loss(id);
  }

 private:
  std::map<NodeId, MessageHandler> handlers_;
  std::deque<std::pair<std::vector<std::uint8_t>, std::uint32_t>> queue_;
  std::set<NodeId> dead_;
};

struct Cluster {
  explicit Cluster(const FederationConfig& config, Transport& transport) {
    for (std::size_t t = 0; t < config.top_cluster; ++t) {
      tops.push_back(std::make_unique<TopClusterNode>(config, t, transport));
    }
    for (std::size_t w = 0; w < config.workers; ++w) {
      workers.push_back(std::make_unique<WorkerNode>(config, w, transport));
    }
  }
  void start_all() {
    for (auto& top : tops) top->start();
    for (auto& worker : workers) worker->start();
  }
  std::vector<std::unique_ptr<TopClusterNode>> tops;
  std::vector<std::unique_ptr<WorkerNode>> workers;
};

TEST(TopCluster, LoopbackFederationMatchesTransportFreeReference) {
  const FederationConfig config = small_config();
  const std::vector<float> expected = reference_global(config);

  LoopbackTransport transport;
  Cluster cluster(config, transport);
  cluster.start_all();
  ASSERT_TRUE(pump_until(transport, [&] {
    for (auto& top : cluster.tops) top->on_idle();
    return std::all_of(cluster.tops.begin(), cluster.tops.end(),
                       [](const auto& top) { return top->done(); });
  }, 60.0, 0.002));

  // Rank 0 won the quiet first election and ran the whole federation.
  EXPECT_EQ(cluster.tops[0]->term(), 1u);
  EXPECT_TRUE(cluster.tops[0]->is_leader());
  // EVERY member holds the same committed result, bitwise.
  for (auto& top : cluster.tops) {
    EXPECT_EQ(top->result().rounds_run, config.rounds);
    const auto& got = top->result().global_model;
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0);
    EXPECT_EQ(top->commit_index(), cluster.tops[0]->commit_index());
  }
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->done());
    EXPECT_FALSE(worker->failed());
  }
}

TEST(TopCluster, LeaderKilledMidRoundFailsOverBitwise) {
  const FederationConfig config = small_config();
  const std::vector<float> expected = reference_global(config);

  ChaosLoopback transport;
  Cluster cluster(config, transport);
  cluster.start_all();

  // Kill the elected leader the moment the first round has committed —
  // mid-run, with rounds still to collect under the successor.
  bool killed = false;
  ASSERT_TRUE(pump_until(transport, [&] {
    for (std::size_t t = 0; t < cluster.tops.size(); ++t) {
      if (killed && t == 0) continue;  // its "process" is gone: never driven
      cluster.tops[t]->on_idle();
    }
    if (!killed && cluster.tops[0]->rounds_run() >= 1) {
      transport.kill(top_node_id(0));
      killed = true;
    }
    return std::all_of(cluster.tops.begin() + 1, cluster.tops.end(),
                       [](const auto& top) { return top->done(); });
  }, 60.0, 0.002));
  ASSERT_TRUE(killed);

  // A survivor won a later term and finished the SAME run bitwise.
  for (std::size_t t = 1; t < cluster.tops.size(); ++t) {
    auto& top = cluster.tops[t];
    EXPECT_GE(top->term(), 2u);
    EXPECT_NE(top->leader(), top_node_id(0));
    EXPECT_GE(top->elections_seen(), 2u);
    EXPECT_EQ(top->result().rounds_run, config.rounds);
    const auto& got = top->result().global_model;
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0)
        << "survivor " << t << " diverged from the unfailed reference";
  }
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->done());
    EXPECT_FALSE(worker->failed());
  }
}

TEST(TopCluster, SustainedChurnLosesNoRoundAndReplaysFromLog) {
  // One leave + one join EVERY round for twenty rounds: the pool is sized so
  // four workers are live at any instant and every joiner is a fresh id.
  FederationConfig config = small_config();
  config.rounds = 20;
  config.workers = 24;          // shard layout for the whole pool
  config.initial_workers = 4;   // join gate: the first four
  const std::size_t kInitial = 4;

  LoopbackTransport transport;
  std::vector<std::unique_ptr<TopClusterNode>> tops;
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    tops.push_back(std::make_unique<TopClusterNode>(config, t, transport));
  }
  std::vector<std::unique_ptr<WorkerNode>> pool;
  for (std::size_t w = 0; w < config.workers; ++w) {
    pool.push_back(std::make_unique<WorkerNode>(config, w, transport));
  }
  for (auto& top : tops) top->start();
  std::deque<std::size_t> live;  // worker indices, join order
  for (std::size_t w = 0; w < kInitial; ++w) {
    pool[w]->start();
    live.push_back(w);
  }

  std::size_t next_join = kInitial;
  std::size_t churned_round = 0;  // rounds whose churn we already injected
  std::size_t leaves_injected = 0;
  TopClusterNode* leader = tops[0].get();
  ASSERT_TRUE(pump_until(transport, [&] {
    for (auto& top : tops) top->on_idle();
    // After round r commits (rounds_run moves past r), one member leaves
    // and one fresh member joins — churn sustained across the whole run.
    if (leader->rounds_run() > churned_round && churned_round + 1 < config.rounds) {
      ++churned_round;
      pool[live.front()]->leave();
      live.pop_front();
      ++leaves_injected;
      pool[next_join]->start();
      live.push_back(next_join);
      ++next_join;
    }
    return std::all_of(tops.begin(), tops.end(),
                       [](const auto& top) { return top->done(); });
  }, 120.0, 0.002));

  // No round lost: all twenty committed.
  EXPECT_EQ(leader->result().rounds_run, config.rounds);
  ASSERT_EQ(leader->result().round_accuracy.size(), config.rounds);

  // The membership log records EVERY event: all joins (initial + churned-in)
  // and all leaves (churned-out + the survivors' goodbyes), no evictions.
  const std::size_t total_joins = next_join;
  const std::size_t total_leaves = leaves_injected + live.size();
  std::size_t logged_joins = 0, logged_leaves = 0, logged_evicts = 0;
  std::size_t logged_models = 0;
  for (const RaftLogEntry& entry : leader->log()) {
    switch (static_cast<rot::EntryType>(entry.type)) {
      case rot::EntryType::kMemberJoin: ++logged_joins; break;
      case rot::EntryType::kMemberLeave: ++logged_leaves; break;
      case rot::EntryType::kMemberEvict: ++logged_evicts; break;
      case rot::EntryType::kModelCommit: ++logged_models; break;
      case rot::EntryType::kView: break;
    }
  }
  EXPECT_EQ(logged_joins, total_joins);
  EXPECT_EQ(logged_leaves, total_leaves);
  EXPECT_EQ(logged_evicts, 0u);
  EXPECT_EQ(logged_models, config.rounds);
  EXPECT_EQ(leader->result().workers_lost, 0u);

  // Replay the run from the committed log ALONE — the log's membership
  // entries define each round's quorum, so the replay is the "no-churn
  // reference with the same surviving set" for every individual round.
  // Every committed model must match bitwise.
  const FederationData data = build_federation_data(config);
  std::map<NodeId, std::vector<core::LocalTrainer>> trainers;
  std::map<NodeId, std::unique_ptr<agg::Aggregator>> cluster_rules;
  std::map<NodeId, std::vector<float>> current;
  std::map<NodeId, std::vector<float>> last;
  std::set<NodeId> members;
  auto root_rule = agg::make_aggregator(config.root_rule);
  std::vector<float> global = data.init_params;
  for (const RaftLogEntry& entry : leader->log()) {
    switch (static_cast<rot::EntryType>(entry.type)) {
      case rot::EntryType::kMemberJoin: {
        const NodeId w = entry.subject;
        const std::size_t index = static_cast<std::size_t>(w) - 1;
        members.insert(w);
        trainers[w].clear();
        for (std::size_t k = 0; k < config.devices_per_worker; ++k) {
          trainers[w].push_back(make_device_trainer(
              config, data, index * config.devices_per_worker + k));
        }
        cluster_rules[w] = agg::make_aggregator(config.cluster_rule);
        current[w] = data.init_params;
        break;
      }
      case rot::EntryType::kMemberLeave:
      case rot::EntryType::kMemberEvict:
        members.erase(entry.subject);
        break;
      case rot::EntryType::kModelCommit: {
        std::vector<agg::ModelVec> updates;
        for (const NodeId w : members) {  // ascending id — the leader's order
          last[w] = cluster_round(config, trainers[w], *cluster_rules[w], current[w]);
          updates.push_back(last[w]);
        }
        ASSERT_EQ(updates.size(), entry.samples)
            << "round " << entry.round << " quorum drifted from the log";
        root_rule->set_reference(global);
        global = root_rule->aggregate(updates);
        ASSERT_EQ(global.size(), entry.params.size());
        EXPECT_EQ(std::memcmp(global.data(), entry.params.data(),
                              global.size() * sizeof(float)),
                  0)
            << "round " << entry.round << " model not bitwise";
        for (const NodeId w : members) {
          current[w] = merge_models(global, last[w], config.alpha);
        }
        break;
      }
      case rot::EntryType::kView: break;
    }
  }
  // The final committed model is the published result on every member.
  for (auto& top : tops) {
    const auto& got = top->result().global_model;
    ASSERT_EQ(got.size(), global.size());
    EXPECT_EQ(std::memcmp(got.data(), global.data(), global.size() * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace abdhfl::net
