// The N-level distributed hierarchy (DESIGN.md §14): HierSpec/HierPlan
// arithmetic, the transport-free reference runner, virtual-device
// multiplexing, a full 4-level tree over loopback checked bitwise against
// the reference, and the mid-tier kill + --resume path over real TCP.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agg/aggregator.hpp"
#include "ckpt/store.hpp"
#include "core/trainer.hpp"
#include "net/hier/aggregator.hpp"
#include "net/hier/reference.hpp"
#include "net/hier/vdev.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "net/transport.hpp"
#include "topology/plan.hpp"

namespace abdhfl {
namespace {

using net::FederationConfig;
using net::hier::AggregatorNode;

FederationConfig tiny_config(const std::string& tree, std::size_t rounds = 3) {
  FederationConfig config;
  config.tree = tree;
  config.rounds = rounds;
  config.local_iters = 2;
  config.batch = 4;
  config.hidden = {4};
  config.samples_per_class = 2;
  config.test_samples_per_class = 1;
  config.join_timeout_s = 10.0;
  config.round_timeout_s = 30.0;
  return config;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(HierPlan, SpecParsingAndBfsArithmetic) {
  topology::HierSpec spec;
  ASSERT_TRUE(topology::parse_tree_spec("5,20,100", spec));
  EXPECT_EQ(spec.process_levels(), 3u);
  EXPECT_EQ(spec.nodes_at(0), 1u);
  EXPECT_EQ(spec.nodes_at(1), 5u);
  EXPECT_EQ(spec.nodes_at(2), 100u);
  EXPECT_EQ(spec.leaf_heads(), 100u);
  EXPECT_EQ(spec.devices_per_leaf(), 100u);
  EXPECT_EQ(spec.total_devices(), 10000u);
  EXPECT_EQ(spec.total_processes(), 106u);

  const topology::HierPlan plan(spec);
  // BFS ids: root 0, level 1 = [1, 6), level 2 = [6, 106).
  EXPECT_EQ(plan.node_id(0, 0), 0u);
  EXPECT_EQ(plan.node_id(1, 0), 1u);
  EXPECT_EQ(plan.node_id(1, 4), 5u);
  EXPECT_EQ(plan.node_id(2, 0), 6u);
  EXPECT_EQ(plan.node_id(2, 99), 105u);
  EXPECT_EQ(plan.level_of(105), 2u);
  EXPECT_EQ(plan.index_of(105), 99u);
  EXPECT_EQ(plan.parent_of(6), 1u);
  EXPECT_EQ(plan.parent_of(105), 5u);
  EXPECT_EQ(plan.first_child_of(0), 1u);
  EXPECT_EQ(plan.children_of(0), 5u);
  EXPECT_EQ(plan.first_child_of(5), plan.node_id(2, 80));
  EXPECT_EQ(plan.children_of(5), 20u);
  EXPECT_EQ(plan.first_device_of(plan.node_id(2, 3)), 300u);
  EXPECT_THROW((void)plan.parent_of(0), std::out_of_range);
  EXPECT_THROW((void)plan.level_of(999), std::out_of_range);

  // Malformed or id-colliding specs are rejected, spec untouched.
  topology::HierSpec reject;
  EXPECT_FALSE(topology::parse_tree_spec("", reject));
  EXPECT_FALSE(topology::parse_tree_spec("0,3", reject));
  EXPECT_FALSE(topology::parse_tree_spec("a,b", reject));
  EXPECT_FALSE(topology::parse_tree_spec("5,", reject));
  // 1000 level-1 processes would cross kObserverIdBase.
  EXPECT_FALSE(topology::parse_tree_spec("1000,2", reject));
  EXPECT_TRUE(reject.branching.empty());
}

// ---------------------------------------------------------------------------
// Collector contract (DESIGN.md §14.1): membership and per-round collection
// on a bare collector, no node around it.

using net::hier::Collector;

Collector::Options collector_opts() {
  Collector::Options opts;
  opts.self = net::kRootId;
  opts.expected_children = 3;
  return opts;
}

void join(Collector& collector, net::NodeId child) {
  net::Membership member;
  member.event = net::Membership::Event::kJoin;
  member.subtree_samples = 1;
  collector.on_join(child, member, 0);
}

/// The model dimension every collector test federates.
constexpr std::size_t kDim = 2;

/// Offer `params` from `child` for round 0 of a kDim-parameter model.
bool offer(Collector& collector, net::NodeId child, std::vector<float> params) {
  net::ModelUpdate update;
  update.sender = child;
  update.level = 1;
  update.samples = 1;
  update.params = std::move(params);
  return collector.accept_update({child, net::kRootId, 0}, update, 0, kDim);
}

std::vector<float> finish_mean(Collector& collector, agg::Aggregator& rule,
                               std::size_t& n_inputs) {
  const std::vector<float> reference(kDim, 0.0f);
  return collector.finish(rule, reference, n_inputs);
}

TEST(HierCollector, FirstUpdateWins) {
  net::LoopbackTransport transport;
  Collector collector(transport, collector_opts());
  join(collector, 1);
  join(collector, 2);
  const auto rule = agg::make_aggregator("mean");
  collector.arm();

  EXPECT_TRUE(offer(collector, 2, {4.0f, 4.0f}));
  EXPECT_FALSE(offer(collector, 2, {100.0f, 100.0f}));
  EXPECT_TRUE(offer(collector, 1, {2.0f, 2.0f}));
  EXPECT_FALSE(offer(collector, 1, {100.0f, 100.0f}));
  ASSERT_TRUE(collector.quorum_complete(0.0));

  std::size_t n_inputs = 0;
  const std::vector<float> out = finish_mean(collector, *rule, n_inputs);
  EXPECT_EQ(n_inputs, 2u);
  EXPECT_EQ(out, (std::vector<float>{3.0f, 3.0f}));
}

TEST(HierCollector, WrongDimensionUpdateIsNotDelivered) {
  // A well-framed update of the wrong length must not reach the fold, where
  // it would throw out of the owner's poll() and stop the collector: it is
  // refused, the child counts as not delivered, and the round deadline
  // evicts it so the honest quorum completes.
  for (const char* name : {"median", "trimmed_mean", "mean"}) {
    SCOPED_TRACE(name);
    net::LoopbackTransport transport;
    Collector collector(transport, collector_opts());
    for (net::NodeId child = 1; child <= 4; ++child) join(collector, child);
    const auto rule = agg::make_aggregator(name);
    collector.arm();

    EXPECT_FALSE(offer(collector, 1, {9.0f, 9.0f, 9.0f}));  // d + 1
    EXPECT_TRUE(offer(collector, 2, {2.0f, 2.0f}));
    EXPECT_FALSE(offer(collector, 3, {9.0f}));  // d - 1
    EXPECT_TRUE(offer(collector, 4, {4.0f, 4.0f}));
    EXPECT_FALSE(collector.has_update(1));
    EXPECT_FALSE(collector.has_update(3));

    // The owners' round deadline: every live child without an update is lost.
    for (const net::NodeId child : std::set<net::NodeId>(collector.live())) {
      if (!collector.has_update(child)) collector.evict(child, 0, 0.0);
    }
    EXPECT_EQ(collector.live(), (std::set<net::NodeId>{2, 4}));
    ASSERT_TRUE(collector.quorum_complete(0.0));
    std::size_t n_inputs = 0;
    EXPECT_EQ(finish_mean(collector, *rule, n_inputs), (std::vector<float>{3.0f, 3.0f}));
    EXPECT_EQ(n_inputs, 2u);
  }
}

TEST(HierCollector, LeaveDropsMemberAndItsBufferedUpdate) {
  net::LoopbackTransport transport;
  Collector collector(transport, collector_opts());
  for (net::NodeId child = 1; child <= 3; ++child) join(collector, child);
  const auto rule = agg::make_aggregator("mean");
  collector.arm();
  EXPECT_TRUE(offer(collector, 1, {2.0f, 2.0f}));
  EXPECT_TRUE(offer(collector, 2, {100.0f, 100.0f}));

  collector.on_leave(2, 0);
  EXPECT_EQ(collector.live(), (std::set<net::NodeId>{1, 3}));
  EXPECT_EQ(collector.left(), (std::set<net::NodeId>{2}));
  EXPECT_FALSE(collector.has_update(2));
  EXPECT_FALSE(offer(collector, 2, {100.0f, 100.0f}));  // no longer a member
  // A member that said goodbye closing its link is not churn.
  EXPECT_FALSE(collector.evict(2, 0, 0.0));

  EXPECT_FALSE(collector.quorum_complete(0.0));
  EXPECT_TRUE(offer(collector, 3, {4.0f, 4.0f}));
  ASSERT_TRUE(collector.quorum_complete(0.0));
  std::size_t n_inputs = 0;
  EXPECT_EQ(finish_mean(collector, *rule, n_inputs), (std::vector<float>{3.0f, 3.0f}));
  EXPECT_EQ(n_inputs, 2u);

  // An eviction after delivery drops the update too, whatever the rule.
  Collector evicting(transport, collector_opts());
  for (net::NodeId child = 1; child <= 3; ++child) join(evicting, child);
  evicting.arm();
  EXPECT_TRUE(offer(evicting, 1, {2.0f, 2.0f}));
  EXPECT_TRUE(offer(evicting, 2, {100.0f, 100.0f}));
  ASSERT_TRUE(evicting.evict(2, 0, 0.0));
  EXPECT_FALSE(evicting.has_update(2));
  EXPECT_FALSE(evicting.quorum_complete(0.0));
  EXPECT_TRUE(offer(evicting, 3, {4.0f, 4.0f}));
  ASSERT_TRUE(evicting.quorum_complete(0.0));
  EXPECT_EQ(finish_mean(evicting, *rule, n_inputs), (std::vector<float>{3.0f, 3.0f}));
  EXPECT_EQ(n_inputs, 2u);
}

TEST(HierCollector, JoinAfterLeaveReadmits) {
  net::LoopbackTransport transport;
  Collector collector(transport, collector_opts());
  join(collector, 1);
  join(collector, 2);
  collector.on_leave(2, 0);
  EXPECT_FALSE(collector.readmit(2, 0));  // a goodbye is not a transient drop

  join(collector, 2);
  EXPECT_EQ(collector.live(), (std::set<net::NodeId>{1, 2}));
  EXPECT_TRUE(collector.left().empty());
  collector.arm();
  EXPECT_TRUE(offer(collector, 2, {1.0f, 1.0f}));
  // Live again, so losing its link is churn again.
  EXPECT_TRUE(collector.evict(2, 0, 0.0));
  EXPECT_FALSE(collector.has_update(2));
}

TEST(HierCollector, JoinAfterGraceEvictionReleasesTheHold) {
  // A child evicted under a grace window holds the round open; its
  // committed (re)join releases the hold at once instead of at expiry.
  net::LoopbackTransport transport;
  Collector::Options opts = collector_opts();
  opts.rejoin_grace_s = 20.0;
  Collector collector(transport, opts);
  join(collector, 1);
  join(collector, 2);
  collector.arm();
  ASSERT_TRUE(collector.evict(2, 0, 0.0));
  EXPECT_TRUE(offer(collector, 1, {1.0f, 1.0f}));
  EXPECT_FALSE(collector.quorum_complete(1.0));  // held: 2 may come back
  EXPECT_TRUE(collector.grace_pending());

  join(collector, 2);
  EXPECT_FALSE(collector.grace_pending());
  EXPECT_FALSE(collector.quorum_complete(1.0));  // live again, no update yet
  EXPECT_TRUE(offer(collector, 2, {3.0f, 3.0f}));
  EXPECT_TRUE(collector.quorum_complete(1.0));
}

TEST(HierCollector, ArmStartsAnEmptyRound) {
  net::LoopbackTransport transport;
  Collector collector(transport, collector_opts());
  join(collector, 1);
  join(collector, 2);
  collector.arm();
  EXPECT_TRUE(offer(collector, 1, {1.0f, 1.0f}));
  EXPECT_TRUE(offer(collector, 2, {1.0f, 1.0f}));
  ASSERT_TRUE(collector.quorum_complete(0.0));

  collector.arm();
  EXPECT_FALSE(collector.has_update(1));
  EXPECT_FALSE(collector.has_update(2));
  EXPECT_FALSE(collector.quorum_complete(0.0));
  EXPECT_TRUE(offer(collector, 1, {5.0f, 5.0f}));  // the new round's first
}

TEST(HierCollector, FanOutReachesEveryLiveChild) {
  net::LoopbackTransport transport;
  std::vector<net::WireMessage> got;
  for (net::NodeId child = 1; child <= 3; ++child) {
    transport.register_node(child, [&](net::WireMessage& msg) { got.push_back(msg); });
  }
  Collector collector(transport, collector_opts());
  for (net::NodeId child = 1; child <= 3; ++child) join(collector, child);
  collector.on_leave(2, 0);

  net::Payload payload(std::in_place_type<net::PartialModel>);
  std::get<net::PartialModel>(payload).params = {1.0f, 2.0f};
  collector.fan_out(payload, 7);
  net::Payload ping(std::in_place_type<net::StatusRequest>);
  collector.fan_out(ping, 7);
  transport.poll(0.0);

  ASSERT_EQ(got.size(), 4u);
  std::multiset<net::NodeId> to;
  for (const auto& msg : got) {
    EXPECT_EQ(msg.env.from, net::kRootId);
    EXPECT_EQ(msg.env.round, 7u);
    to.insert(msg.env.to);
    if (msg.kind == net::MsgKind::kStatusRequest) {
      EXPECT_NE(std::get<net::StatusRequest>(msg.payload).wall_ns, 0);  // stamped
    } else {
      EXPECT_EQ(std::get<net::PartialModel>(msg.payload).params,
                (std::vector<float>{1.0f, 2.0f}));
    }
  }
  EXPECT_EQ(to, (std::multiset<net::NodeId>{1, 1, 3, 3}));
}

/// Loopback whose sends to `dead` fail the way a TCP send to a crashed peer
/// does: the peer-loss handlers run inside send().
class DeadPeerLoopback : public net::LoopbackTransport {
 public:
  net::NodeId dead = 0;
  net::SendStatus send(const net::Envelope& env, const net::Payload& payload,
                       std::uint32_t link_class) override {
    if (env.to != dead) return LoopbackTransport::send(env, payload, link_class);
    note_peer_loss(env.to);
    return net::SendStatus::kPeerLost;
  }
};

TEST(HierCollector, FanOutSurvivesAnEvictionInsideASend) {
  // The owner's peer-loss handler evicts the dead child while fan_out is
  // still walking the children: the walk must not trip over the erased
  // member, and every other child still gets the payload.
  DeadPeerLoopback transport;
  std::vector<net::NodeId> got;
  for (net::NodeId child = 1; child <= 4; ++child) {
    transport.register_node(child,
                            [&](net::WireMessage& msg) { got.push_back(msg.env.to); });
  }
  Collector collector(transport, collector_opts());
  for (net::NodeId child = 1; child <= 4; ++child) join(collector, child);
  transport.add_peer_loss_handler(
      [&](net::NodeId peer) { (void)collector.evict(peer, 0, 0.0); });
  transport.dead = 2;

  net::Payload payload(std::in_place_type<net::PartialModel>);
  collector.fan_out(payload, 0);
  transport.poll(0.0);
  EXPECT_EQ(collector.live(), (std::set<net::NodeId>{1, 3, 4}));
  EXPECT_EQ(got, (std::vector<net::NodeId>{1, 3, 4}));
}

// ---------------------------------------------------------------------------

TEST(HierReference, FlatSpecMatchesTwoLevelReference) {
  // A {W, D} tree IS the classic 2-level federation; the N-level reference
  // runner must reproduce the 2-level reference loop bitwise.
  auto config = tiny_config("3,2", 2);
  const auto hier = net::hier::run_hier_reference(config);

  FederationConfig flat = config;
  flat.tree.clear();
  flat.workers = 3;
  flat.devices_per_worker = 2;
  auto data = net::build_federation_data(flat);
  std::vector<std::vector<core::LocalTrainer>> trainers(flat.workers);
  std::vector<std::unique_ptr<agg::Aggregator>> cluster_rules;
  std::vector<std::vector<float>> current(flat.workers, data.init_params);
  for (std::size_t w = 0; w < flat.workers; ++w) {
    for (std::size_t k = 0; k < flat.devices_per_worker; ++k) {
      trainers[w].push_back(net::make_device_trainer(
          flat, data, w * flat.devices_per_worker + k));
    }
    cluster_rules.push_back(agg::make_aggregator(flat.cluster_rule));
  }
  auto root_rule = agg::make_aggregator(flat.root_rule);
  std::vector<float> global = data.init_params;
  for (std::size_t r = 0; r < flat.rounds; ++r) {
    std::vector<agg::ModelVec> updates;
    std::vector<std::vector<float>> last(flat.workers);
    for (std::size_t w = 0; w < flat.workers; ++w) {
      last[w] = net::cluster_round(flat, trainers[w], *cluster_rules[w], current[w]);
      updates.push_back(last[w]);
    }
    root_rule->set_reference(global);
    global = root_rule->aggregate(updates);
    for (std::size_t w = 0; w < flat.workers; ++w) {
      current[w] = net::merge_models(global, last[w], flat.alpha);
    }
  }

  EXPECT_TRUE(bitwise_equal(hier.global_model, global));
  ASSERT_EQ(hier.leaf_models.size(), flat.workers);
  for (std::size_t w = 0; w < flat.workers; ++w) {
    EXPECT_TRUE(bitwise_equal(hier.leaf_models[w], current[w])) << "leaf " << w;
  }
  EXPECT_EQ(hier.round_accuracy.size(), flat.rounds);
}

TEST(HierVdev, HostedDevicesMatchLocalTrainers) {
  // A virtual device's reply to a PartialModel must be bitwise the update a
  // LocalTrainer for the same global device index would produce — same RNG
  // derivation, same shared-workspace arithmetic.
  auto config = tiny_config("2,2", 1);
  config.tree.clear();
  config.workers = 2;
  config.devices_per_worker = 2;
  const auto data = net::build_federation_data(config);

  net::LoopbackTransport transport;
  // Host devices [2, 4) — the second leaf head's slice.
  const net::NodeId head = 77;
  net::hier::VirtualDeviceHost host(config, data, head, 2, 2, transport, 1);
  EXPECT_EQ(host.count(), 2u);
  EXPECT_EQ(host.total_samples(), data.shards[2].size() + data.shards[3].size());

  std::size_t joins = 0;
  std::vector<net::ModelUpdate> updates;
  transport.register_node(head, [&](net::WireMessage& msg) {
    if (msg.kind == net::MsgKind::kMembership) ++joins;
    if (msg.kind == net::MsgKind::kModelUpdate) {
      updates.push_back(std::get<net::ModelUpdate>(msg.payload));
    }
  });
  host.start();
  transport.poll(0.0);
  EXPECT_EQ(joins, 2u);

  net::PartialModel partial;
  partial.params = data.init_params;
  for (std::size_t k = 0; k < 2; ++k) {
    const auto id = topology::device_node_id(2 + k);
    transport.send({head, id, 0}, partial, 1);
  }
  transport.poll(0.0);
  transport.poll(0.0);  // the replies were enqueued during the first drain
  ASSERT_EQ(updates.size(), 2u);

  for (std::size_t k = 0; k < 2; ++k) {
    auto trainer = net::make_device_trainer(config, data, 2 + k);
    const auto expected = trainer.train_round(
        data.init_params, config.local_iters, config.batch, config.learning_rate,
        std::nullopt);
    EXPECT_EQ(updates[k].sender, topology::device_node_id(2 + k));
    EXPECT_EQ(updates[k].samples, data.shards[2 + k].size());
    EXPECT_TRUE(bitwise_equal(updates[k].params, expected)) << "device " << 2 + k;
  }

  // Shutdown retires every device.
  net::Membership bye;
  bye.event = net::Membership::Event::kShutdown;
  for (std::size_t k = 0; k < 2; ++k) {
    transport.send({head, topology::device_node_id(2 + k), 0}, bye, 1);
  }
  transport.poll(0.0);
  EXPECT_TRUE(host.done());
}

TEST(HierTree, LoopbackFourLevelTreeIsBitwiseTheReference) {
  // The tentpole acceptance shape in miniature: root + 2 mid aggregators +
  // 4 leaf heads x 2 virtual devices, all on one loopback transport.  The
  // final global model — and every leaf head's merged model — must be
  // bitwise what the transport-free reference runner computes.
  auto config = tiny_config("2,2,2", 3);
  const auto reference = net::hier::run_hier_reference(config);

  net::LoopbackTransport transport;
  net::RootNode root(config, transport);
  std::vector<std::unique_ptr<AggregatorNode>> aggs;
  for (std::size_t i = 0; i < 2; ++i) {
    aggs.push_back(std::make_unique<AggregatorNode>(config, 1, i, transport, transport));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    aggs.push_back(std::make_unique<AggregatorNode>(config, 2, i, transport, transport));
  }
  root.start();
  for (auto& agg : aggs) agg->start();
  ASSERT_TRUE(net::pump_until(transport, [&] {
    root.on_idle();
    for (auto& agg : aggs) agg->on_idle();
    bool all_done = root.done();
    for (auto& agg : aggs) all_done = all_done && agg->done();
    return all_done;
  }, 60.0, config.poll_interval_s));

  for (auto& agg : aggs) EXPECT_FALSE(agg->failed());
  EXPECT_EQ(root.result().rounds_run, config.rounds);
  EXPECT_EQ(root.result().workers_joined, 2u);
  EXPECT_TRUE(bitwise_equal(root.result().global_model, reference.global_model));
  ASSERT_EQ(reference.leaf_models.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    auto& leaf = *aggs[2 + i];
    ASSERT_TRUE(leaf.leaf_head());
    EXPECT_EQ(leaf.rounds_run(), config.rounds);
    EXPECT_TRUE(bitwise_equal(leaf.model(), reference.leaf_models[i])) << "leaf " << i;
  }
  // Round accuracies match the reference run exactly, too.
  EXPECT_EQ(root.result().round_accuracy, reference.round_accuracy);
}

TEST(HierTree, CompressedRootLinksLeaveDeviceLinksDense) {
  // One loopback hosts the root, the leaf heads and their virtual devices.
  // The codec the root negotiates with a head belongs to that directed link
  // alone: a device's frames to the same head stay dense, so every round
  // completes with no decode error and no eviction.
  for (const std::string spec : {"delta", "topk:50"}) {
    SCOPED_TRACE(spec);
    auto config = tiny_config("2,2", 3);
    config.round_timeout_s = 2.0;
    ASSERT_TRUE(net::apply_compress_spec(spec, config));

    net::LoopbackTransport transport;
    net::RootNode root(config, transport);
    std::vector<std::unique_ptr<AggregatorNode>> aggs;
    for (std::size_t i = 0; i < 2; ++i) {
      aggs.push_back(std::make_unique<AggregatorNode>(config, 1, i, transport, transport));
    }
    root.start();
    for (auto& agg : aggs) agg->start();
    ASSERT_TRUE(net::pump_until(transport, [&] {
      root.on_idle();
      for (auto& agg : aggs) agg->on_idle();
      bool all_done = root.done();
      for (auto& agg : aggs) all_done = all_done && agg->done();
      return all_done;
    }, 60.0, config.poll_interval_s));

    for (auto& agg : aggs) EXPECT_FALSE(agg->failed());
    EXPECT_EQ(root.result().rounds_run, config.rounds);
    EXPECT_EQ(root.result().workers_lost, 0u);
    EXPECT_EQ(transport.stats().decode_errors, 0u);
    // Link class 2 is head <-> device traffic.
    const net::TransportStats device = transport.class_stats(2);
    EXPECT_GT(device.bytes_sent, 0u);
    EXPECT_EQ(device.bytes_sent, device.bytes_sent_raw);
  }
}

TEST(HierTree, MidAggregatorKilledAndResumedIsBitwiseIdentical) {
  // The mid-tier restart path over real TCP (DESIGN.md §14.4): a 4-level
  // chain root <- agg <- leaf head (x2 devices); the middle aggregator is
  // killed after completing a round — sockets closed unannounced, all
  // in-memory state destroyed — and restarted with --resume on the same
  // snapshot directory.  With rejoin_grace_s the root holds the round open,
  // the leaf resends its cached fold instead of retraining, and the final
  // global model is bitwise identical to an uninterrupted run.
  auto config = tiny_config("1,1,2", 4);
  config.rejoin_grace_s = 20.0;
  const auto reference = net::hier::run_hier_reference(config);

  net::RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  fast.send_timeout_s = 2.0;
  fast.connect_timeout_s = 1.0;

  net::TcpTransport root_transport(net::kRootId, fast);
  const auto root_port = root_transport.listen(0);
  ASSERT_GT(root_port, 0);
  net::RootNode root(config, root_transport);
  root.start();

  const auto agg_dir = std::filesystem::temp_directory_path() / "abdhfl_hier_agg_ckpt";
  std::filesystem::remove_all(agg_dir);

  auto agg_store = std::make_unique<ckpt::Store>(agg_dir.string(), 3);
  auto agg_transport = std::make_unique<net::TcpTransport>(1, fast);
  const auto agg_port = agg_transport->listen(0);
  ASSERT_GT(agg_port, 0);
  ASSERT_TRUE(agg_transport->connect_peer(net::kRootId, "127.0.0.1", root_port));
  auto agg = std::make_unique<AggregatorNode>(config, 1, 0, *agg_transport,
                                              *agg_transport, nullptr,
                                              agg_store.get(), 1, false);
  agg->start();

  net::TcpTransport leaf_transport(2, fast);
  ASSERT_TRUE(leaf_transport.connect_peer(1, "127.0.0.1", agg_port));
  net::LoopbackTransport leaf_loopback;
  AggregatorNode leaf(config, 2, 0, leaf_transport, leaf_loopback);
  leaf.start();

  auto pump = [&](const std::function<bool()>& done, int max_iters = 20000) {
    for (int i = 0; i < max_iters && !done(); ++i) {
      root_transport.poll(0.005);
      root.on_idle();
      if (agg_transport) agg_transport->poll(0.005);
      if (agg) agg->on_idle();
      leaf_transport.poll(0.005);
      leaf_loopback.poll(0.0);
      leaf.on_idle();
    }
    return done();
  };

  // Let the middle aggregator forward (and snapshot) one completed round,
  // then kill it.
  ASSERT_TRUE(pump([&] { return agg->rounds_run() >= 1; }));
  agg_transport->close();
  agg.reset();
  agg_transport.reset();
  agg_store.reset();

  // The root notices the loss but holds the round under the grace window.
  ASSERT_TRUE(pump([&] { return root.result().workers_lost == 1; }));
  EXPECT_FALSE(root.done());

  // Restart: same node id, same listen port (the leaf redials it), same
  // snapshot directory, resume on.
  ckpt::Store revived_store(agg_dir.string(), 3);
  net::TcpTransport revived_transport(1, fast);
  ASSERT_EQ(revived_transport.listen(agg_port), agg_port);
  ASSERT_TRUE(revived_transport.connect_peer(net::kRootId, "127.0.0.1", root_port));
  AggregatorNode revived(config, 1, 0, revived_transport, revived_transport,
                         nullptr, &revived_store, 1, true);
  EXPECT_GE(revived.resume_round(), 1u);  // no round-0 replay
  revived.start();

  ASSERT_TRUE(pump([&] {
    revived_transport.poll(0.005);
    revived.on_idle();
    return root.done();
  }));

  EXPECT_TRUE(revived.done());
  EXPECT_TRUE(leaf.done());
  EXPECT_FALSE(revived.failed());
  EXPECT_FALSE(leaf.failed());
  EXPECT_EQ(root.result().rounds_run, config.rounds);
  EXPECT_EQ(root.result().workers_lost, 1u);
  EXPECT_EQ(root.result().workers_rejoined, 1u);

  // The whole point: bitwise identical to the uninterrupted reference.
  EXPECT_TRUE(bitwise_equal(root.result().global_model, reference.global_model));
  EXPECT_TRUE(bitwise_equal(leaf.model(), reference.leaf_models[0]));
  EXPECT_EQ(root.result().round_accuracy, reference.round_accuracy);

  root_transport.close();
  leaf_transport.close();
  revived_transport.close();
  std::filesystem::remove_all(agg_dir);
}

}  // namespace
}  // namespace abdhfl
