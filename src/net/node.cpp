#include "net/node.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/state.hpp"
#include "ckpt/store.hpp"
#include "data/partition.hpp"
#include "data/synth_digits.hpp"
#include "obs/blackbox.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "topology/plan.hpp"
#include "util/rng.hpp"

namespace abdhfl::net {

namespace bb = obs::blackbox;

using hier::wall_now;

namespace {

hier::Uplink::Options worker_uplink_opts(const FederationConfig& config, NodeId id,
                                         std::size_t index) {
  hier::Uplink::Options opts;
  opts.self = id;
  // Top-cluster mode: the deterministic first leader is committee rank 0;
  // the first join echo re-targets the uplink if another member won.
  opts.parent = config.top_cluster > 0 ? top_node_id(0) : kRootId;
  opts.cluster = static_cast<std::uint32_t>(index);
  opts.link_class = kLeaderLinkClass;
  opts.level = 1;
  opts.codec = codec_from_config(config);
  opts.trace = config.trace;
  return opts;
}

}  // namespace

bool apply_compress_spec(const std::string& spec, FederationConfig& config) {
  FederationConfig parsed = config;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string token = spec.substr(pos, comma - pos);
    if (token == "delta") {
      parsed.delta = true;
    } else if (token.rfind("topk:", 0) == 0) {
      const std::string num = token.substr(5);
      if (num.empty() || num.size() > 9 ||
          num.find_first_not_of("0123456789") != std::string::npos) {
        return false;
      }
      const unsigned long k = std::stoul(num);
      if (k == 0) return false;
      parsed.topk = static_cast<std::uint32_t>(k);
    } else if (!token.empty()) {
      return false;
    }
    if (comma >= spec.size()) break;
    pos = comma + 1;
  }
  config = parsed;
  return true;
}

Codec codec_from_config(const FederationConfig& config) noexcept {
  Codec codec;
  codec.quantize_bits = config.quantize_bits;
  codec.topk = config.topk;
  codec.delta = config.delta;
  return codec;
}

FederationData build_federation_data(const FederationConfig& config) {
  if (!config.tree.empty()) {
    // Tree mode: the data layout is the flat 2-level layout with one
    // "worker" per leaf-head process and one device per virtual leaf, so an
    // N-level run and the reference loop shard identically.
    topology::HierSpec spec;
    if (!topology::parse_tree_spec(config.tree, spec)) {
      throw std::invalid_argument("invalid tree spec: " + config.tree);
    }
    FederationConfig flat = config;
    flat.tree.clear();
    flat.workers = spec.leaf_heads();
    flat.devices_per_worker = spec.devices_per_leaf();
    return build_federation_data(flat);
  }
  if (config.workers == 0 || config.devices_per_worker == 0) {
    throw std::invalid_argument("federation needs at least one worker and device");
  }
  FederationData out;
  util::Rng rng(config.seed);

  data::SynthConfig synth;
  synth.side = config.image_side;
  synth.samples_per_class = config.samples_per_class;
  const data::Dataset train_pool = data::generate_synth_digits(synth, rng);
  synth.samples_per_class = config.test_samples_per_class;
  out.test_set = data::generate_synth_digits(synth, rng);
  out.input_dim = train_pool.dim();

  out.shards = data::partition_iid(train_pool, config.workers * config.devices_per_worker,
                                   rng);

  auto model_rng = rng.split();
  out.prototype = nn::make_mlp(out.input_dim, config.hidden, 10, model_rng);
  out.init_params = out.prototype.flatten();
  return out;
}

core::LocalTrainer make_device_trainer(const FederationConfig& config,
                                       const FederationData& data, std::size_t device) {
  if (device >= data.shards.size()) {
    throw std::out_of_range("make_device_trainer: device index out of range");
  }
  // Seed derivation is a pure function of (federation seed, device index):
  // any process can rebuild any device's SGD stream.
  util::Rng rng(config.seed ^
                (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(device + 1)));
  return core::LocalTrainer(data.shards[device], data.prototype.clone(), rng);
}

void merge_models_into(std::span<const float> global, std::span<const float> local,
                       double alpha, std::vector<float>& out) {
  if (global.size() != local.size()) {
    throw std::invalid_argument("merge_models: dimension mismatch");
  }
  const float a = static_cast<float>(alpha);
  out.resize(global.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a * global[i] + (1.0f - a) * local[i];
  }
}

std::vector<float> merge_models(std::span<const float> global,
                                std::span<const float> local, double alpha) {
  std::vector<float> merged;
  merge_models_into(global, local, alpha, merged);
  return merged;
}

std::vector<float> cluster_round(const FederationConfig& config,
                                 std::vector<core::LocalTrainer>& trainers,
                                 agg::Aggregator& rule, std::span<const float> start) {
  std::vector<agg::ModelVec> updates;
  updates.reserve(trainers.size());
  for (auto& trainer : trainers) {
    updates.push_back(trainer.train_round(start, config.local_iters, config.batch,
                                          config.learning_rate, std::nullopt));
  }
  rule.set_reference(start);
  return rule.aggregate(updates);
}

// ---------------------------------------------------------------------------
// WorkerNode

WorkerNode::WorkerNode(FederationConfig config, std::size_t worker_index,
                       Transport& transport, obs::Recorder* recorder,
                       ckpt::Store* checkpoint, std::size_t checkpoint_every,
                       bool resume)
    : config_(std::move(config)),
      index_(worker_index),
      id_(worker_node_id(worker_index)),
      transport_(transport),
      recorder_(recorder),
      checkpoint_(checkpoint),
      checkpoint_every_(checkpoint_every),
      uplink_(transport, worker_uplink_opts(config_, id_, index_)) {
  const FederationData data = build_federation_data(config_);
  trainers_.reserve(config_.devices_per_worker);
  for (std::size_t k = 0; k < config_.devices_per_worker; ++k) {
    const std::size_t device = index_ * config_.devices_per_worker + k;
    trainers_.push_back(make_device_trainer(config_, data, device));
    subtree_samples_ += trainers_.back().shard_size();
  }
  rule_ = agg::make_aggregator(config_.cluster_rule);
  current_ = data.init_params;
  if (checkpoint_ != nullptr && resume) restore_checkpoint();

  transport_.register_node(id_, [this](WireMessage& msg) { on_message(msg); });
  transport_.add_peer_loss_handler([this](NodeId peer) {
    if (done_) return;
    // Top-cluster mode: a dead top — even the current leader — is
    // survivable; the worker idles until the elected successor's join echo
    // re-targets it.  Only the classic single root is fatal to lose.
    if (top_mode()) return;
    if (peer == kRootId) finish(/*failed=*/true);
  });
  if (config_.trace) transport_.set_tracing(true);
}

void WorkerNode::start() {
  bb::set_phase(0, round_);  // joining
  bb::record(bb::EventType::kPhase, 0, id_, round_);
  if (top_mode()) {
    // Join EVERY committee member: whichever one is (or becomes) the leader
    // already holds this worker's advertisement and can propose the
    // membership entry without another handshake.
    bool any = false;
    for (std::size_t t = 0; t < config_.top_cluster; ++t) {
      if (uplink_.send_join_to(top_node_id(t), subtree_samples_) == SendStatus::kOk) {
        any = true;
      }
    }
    if (!any) finish(/*failed=*/true);
    return;
  }
  if (uplink_.send_join(subtree_samples_) != SendStatus::kOk) {
    finish(/*failed=*/true);
  }
}

void WorkerNode::leave() {
  if (done_) return;
  uplink_.send_leave(round_);
  finish(/*failed=*/false);
}

void WorkerNode::on_idle() {}

void WorkerNode::on_message(WireMessage& msg) {
  // Introspection works in every state — a probe must never be able to
  // perturb training, and a late reply is still a valid RTT sample.
  if (msg.kind == MsgKind::kStatusRequest) {
    reply_status(std::get<StatusRequest>(msg.payload), msg.env.from);
    return;
  }
  if (msg.kind == MsgKind::kStatusReply) {
    uplink_.on_status_reply(msg);
    return;
  }
  if (done_) return;
  if (msg.kind == MsgKind::kMembership) {
    const auto& member = std::get<Membership>(msg.payload);
    if (member.event == Membership::Event::kJoin) {
      switch (uplink_.on_join_echo(msg, round_)) {
        case hier::Uplink::EchoAction::kStart:
          // Join echo: the root confirmed us and fixed the link codec.  The
          // envelope round is the round the root is collecting — 0 for a
          // fresh federation, later when this process restarted from a
          // checkpoint mid-run (the reconnect resync path) or the root
          // itself resumed.  Adopting it keeps the restored model and the
          // live quorum aligned.
          round_ = static_cast<std::size_t>(msg.env.round);
          if (round_ >= config_.rounds) {
            // Admitted after the final round closed: there is nothing left
            // to train toward — say goodbye instead of waiting forever.
            uplink_.send_leave(round_);
            finish(/*failed=*/false);
            break;
          }
          bb::set_phase(1, round_);  // training
          bb::record(bb::EventType::kPhase, 1, id_, round_);
          bb::set_peer(uplink_.parent(), 0, round_);
          train_and_send();
          break;
        case hier::Uplink::EchoAction::kResync:
          // Resync echo after the root re-admitted us mid-run: adopt the
          // round the root is collecting and rejoin its quorum from our
          // current model.
          round_ = static_cast<std::size_t>(msg.env.round);
          train_and_send();
          break;
        case hier::Uplink::EchoAction::kResend:
          // A newly elected leader echoing the round we already trained:
          // the update we sent died with its predecessor, so resend it —
          // bitwise the same bytes, never retrained.
          resend_update();
          break;
        case hier::Uplink::EchoAction::kNone:
          // Our own round echoed back: the update we retried over the
          // reconnect already covers it — nothing to redo.
          break;
      }
    } else if (member.event == Membership::Event::kShutdown) {
      finish(/*failed=*/false);
    }
    return;
  }
  if (msg.kind == MsgKind::kPartialModel) {
    const auto& partial = std::get<PartialModel>(msg.payload);
    // Top-cluster mode: partials only ever come from the current leader, so
    // the sender IS the coordinator every subsequent send should target —
    // this catches a leader change even before the new leader's join echo.
    if (top_mode() && is_top(msg.env.from)) uplink_.retarget(msg.env.from);
    if (msg.env.round != round_) return;  // stale frame from a dropped round
    {
      // Nests under the delivering net_recv span — the cross-process edge
      // back to the root's broadcast.
      obs::Span merge_span(transport_.trace_sink(), "merge", round_, id_);
      merge_models_into(partial.params, last_cluster_, partial.alpha, current_);
    }
    ++round_;
    bb::record(bb::EventType::kRound, 0, id_, round_ - 1);
    bb::note_progress(round_);
    bb::set_peer(uplink_.parent(), 0, round_);
    if (recorder_ != nullptr) {
      obs::RoundRecord& rec = recorder_->begin_round("dist_worker", round_ - 1);
      rec.set("worker", static_cast<double>(index_));
      rec.set("alpha", partial.alpha);
      rec.set("is_global", partial.is_global ? 1.0 : 0.0);
    }
    if (checkpoint_ != nullptr &&
        (round_ % std::max<std::size_t>(checkpoint_every_, 1) == 0 ||
         round_ >= config_.rounds)) {
      save_checkpoint();
    }
    if (round_ >= config_.rounds) {
      uplink_.send_leave(round_);
      finish(/*failed=*/false);
    } else {
      uplink_.send_status_ping(round_);  // refresh RTT/offset on live traffic
      train_and_send();
    }
  }
}

void WorkerNode::reply_status(const StatusRequest& request, NodeId to) {
  // An observer's link teardown is expected — never churn, never a loss.
  if (is_observer(to)) transport_.mark_transient(to);
  StatusReply reply;
  reply.node = id_;
  reply.probe = request.probe;
  reply.round = round_;
  reply.phase = done_ ? 3 : (uplink_.started() ? 1 : 0);
  reply.level = 1;
  reply.parent = uplink_.parent();
  reply.wall_ns = obs::wall_clock_ns();
  reply.echo_wall_ns = request.wall_ns;
  StatusPeer up;
  up.node = uplink_.parent();
  up.state = 0;
  const LinkTelemetry link = transport_.peer_telemetry(uplink_.parent());
  up.rtt_ms = static_cast<float>(link.rtt_ms);
  up.bytes_sent = link.bytes_sent;
  up.bytes_received = link.bytes_received;
  reply.peers.push_back(up);
  if (request.detail != 0 && obs::enabled()) {
    reply.metrics = obs::to_prometheus(obs::global_registry().scrape());
  }
  transport_.send({id_, to, round_}, reply, kLeaderLinkClass);
}

void WorkerNode::train_and_send() {
  obs::TraceBuffer* trace = transport_.trace_sink();
  const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round_);
  if (trace != nullptr) trace->set_trace_id(trace_id);
  // Round-root span: explicitly parentless (has_parent with parent 0), since
  // this runs inside the *previous* round's net_recv span — stack parenting
  // would chain round r+1 under round r's trace.
  obs::Span round_span(trace, "worker_round", obs::SpanContext{trace_id, 0, true},
                       round_, id_);
  {
    obs::Span train_span(trace, "train", round_, id_);
    last_cluster_ = cluster_round(config_, trainers_, *rule_, current_);
  }
  const SendStatus status = uplink_.send_update(last_cluster_, subtree_samples_, round_);
  // Top-cluster mode: a failed send means the leader just died; the model is
  // safe in last_cluster_ and the elected successor's echo triggers a
  // resend.  Classic mode has nobody else to deliver to.
  if (status != SendStatus::kOk && !top_mode()) finish(/*failed=*/true);
}

void WorkerNode::resend_update() {
  if (last_cluster_.empty()) {
    // Nothing trained yet for this round (a restored process whose snapshot
    // predates any training): training IS the correct first step.
    train_and_send();
    return;
  }
  // Delivery failure here is survivable for the same reason as above: the
  // next leader's echo will ask again.
  (void)uplink_.send_update(last_cluster_, subtree_samples_, round_);
}

void WorkerNode::finish(bool failed) {
  done_ = true;
  failed_ = failed;
  bb::record(bb::EventType::kPhase, 3, id_, round_, failed ? 1 : 0);
  bb::set_phase(3, round_);  // done: the watchdog stands down
}

void WorkerNode::save_checkpoint() {
  // save_now, not save: a worker is exactly the process a SIGKILL targets,
  // so the snapshot must be on disk before this round's state is observable
  // anywhere else.  round_ already counts the merge this snapshot captures.
  ckpt::Container c;
  c.producer = "worker";
  c.round = round_ - 1;
  {
    ckpt::PayloadWriter w;
    w.f32vec(current_);
    c.chunks.push_back({ckpt::kTagParams, w.take()});
  }
  {
    ckpt::PayloadWriter w;
    w.u64(static_cast<std::uint64_t>(index_));
    w.f32vec(last_cluster_);
    c.chunks.push_back({ckpt::kTagExtra, w.take()});
  }
  {
    std::vector<ckpt::RngState> states;
    states.reserve(trainers_.size());
    for (const auto& t : trainers_) states.push_back(t.rng_state());
    c.chunks.push_back({ckpt::kTagRngStates, ckpt::encode_rng_states(states)});
  }
  {
    ckpt::PayloadWriter w;
    std::vector<double> losses;
    losses.reserve(trainers_.size());
    for (const auto& t : trainers_) losses.push_back(t.last_loss());
    w.f64vec(losses);
    c.chunks.push_back({ckpt::kTagLosses, w.take()});
  }
  checkpoint_->save_now(c.round, ckpt::encode_container(c));
}

void WorkerNode::restore_checkpoint() {
  auto snap = checkpoint_->load_latest();
  if (!snap.has_value()) return;  // nothing yet: fresh start
  if (snap->producer != "worker") {
    throw ckpt::CkptError("checkpoint produced by \"" + snap->producer +
                          "\", expected \"worker\"");
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagParams).payload);
    auto params = r.f32vec();
    r.expect_done();
    if (params.size() != current_.size()) {
      throw ckpt::CkptError("PARM chunk dimension mismatch: resume with the "
                            "same federation configuration");
    }
    current_ = std::move(params);
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagExtra).payload);
    const auto saved_index = static_cast<std::size_t>(r.u64());
    if (saved_index != index_) {
      throw ckpt::CkptError("snapshot belongs to worker " +
                            std::to_string(saved_index));
    }
    last_cluster_ = r.f32vec();
    r.expect_done();
  }
  const auto states = ckpt::decode_rng_states(snap->require(ckpt::kTagRngStates).payload);
  if (states.size() != trainers_.size()) {
    throw ckpt::CkptError("RNGS chunk stream count mismatch");
  }
  for (std::size_t k = 0; k < trainers_.size(); ++k) {
    trainers_[k].set_rng_state(states[k]);
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagLosses).payload);
    const auto losses = r.f64vec();
    r.expect_done();
    if (losses.size() != trainers_.size()) {
      throw ckpt::CkptError("LOSS chunk trainer count mismatch");
    }
    for (std::size_t k = 0; k < trainers_.size(); ++k) {
      trainers_[k].set_last_loss(losses[k]);
    }
  }
  round_ = static_cast<std::size_t>(snap->round) + 1;
  resume_round_ = round_;
  if (recorder_ != nullptr) {
    obs::RoundRecord& rec = recorder_->begin_round("dist_resume", round_);
    rec.set("worker", static_cast<double>(index_));
  }
}

// ---------------------------------------------------------------------------

bool pump_until(Transport& transport, const std::function<bool()>& done,
                double deadline_s, double poll_s) {
  const double deadline = wall_now() + deadline_s;
  while (!done()) {
    if (wall_now() >= deadline) return false;
    transport.poll(poll_s);
  }
  return true;
}

}  // namespace abdhfl::net
