#pragma once
// Federation node logic over the transport layer (DESIGN.md §9.3, §14).
//
// A two-level ABD-HFL deployment as communicating nodes: a root (global
// aggregator) and W WorkerNodes (cluster leaders, each training a fixed set
// of bottom devices).  The root is the top cluster — a TopClusterNode
// committee (net/top_cluster.hpp), of one member under kRootId in the
// classic deployment (`RootNode` is an alias).  Nodes are poll-driven state
// machines — the owning process pumps its Transport and the handlers
// advance the protocol — so the same classes run single-process over a
// LoopbackTransport or as separate OS processes over TcpTransport,
// exchanging byte-identical frames.
//
// The protocol mechanics shared with the N-level AggregatorNode
// (src/net/hier) and the root live in the hier::Collector / hier::Uplink
// roles: WorkerNode is an Uplink plus training, the root a Collector plus
// the rotation log and evaluation, and an interior aggregator is both at
// once.  This file keeps the worker's phase machine, records and
// checkpoints, plus what every process derives from the config.
//
// Protocol per run:
//   worker -> root   Membership kJoin (subtree samples + advertised codec)
//   root   -> worker Membership kJoin echo (negotiated codec) once every
//                    expected worker joined (or the join deadline passed)
//   per round r:
//     worker trains its devices from its current model, BRA-aggregates them
//       (cluster rule), sends ModelUpdate{level=1} to the root;
//     root BRA-aggregates the live workers' updates (root rule, inputs
//       sorted by node id for determinism), commits the result to its log,
//       evaluates, answers every live worker with PartialModel{is_global,
//       alpha};
//     worker merges: current = alpha * global + (1-alpha) * cluster model.
//   worker -> root   Membership kLeave after the final round; the root exits
//                    once every live worker said goodbye (clean TCP shutdown
//                    — no RST can clip the last global model in flight).
//
// Degradation: a worker that dies mid-run surfaces as a transport peer loss
// at the root, which commits its eviction and finishes the round with the
// remaining quorum; a transient drop the worker's send-retry machinery
// repairs is re-admitted through the root's log (top_cluster.hpp).
// Determinism: every process rebuilds identical data and
// models from FederationConfig::seed (build_federation_data), and device
// RNGs are derived from the global device index, so a loopback run is
// bitwise equal to the transport-free reference loop and a lossless TCP run
// matches it too.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "agg/aggregator.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "net/hier/roles.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"

namespace abdhfl::obs {
class Recorder;
}
namespace abdhfl::ckpt {
class Store;
}

namespace abdhfl::net {

struct FederationConfig {
  std::uint64_t seed = 17;
  std::size_t workers = 3;            // cluster leaders under the root
  std::size_t devices_per_worker = 2; // bottom devices each worker trains
  std::size_t rounds = 4;
  std::size_t local_iters = 8;
  std::size_t batch = 16;
  double learning_rate = 0.05;
  double alpha = 0.5;                 // Eq. 1 correction factor
  std::vector<std::size_t> hidden = {16};
  std::size_t image_side = 8;         // synth-digit image side
  std::size_t samples_per_class = 12;
  std::size_t test_samples_per_class = 6;
  std::string cluster_rule = "trimmed_mean";  // BRA at each worker
  std::string root_rule = "median";           // BRA at the root
  std::uint8_t quantize_bits = 0;     // codec workers advertise (0 = raw)
  std::uint32_t topk = 0;             // top-k sparsification (0 = dense)
  bool delta = false;                 // delta-vs-last-round encoding
  double join_timeout_s = 20.0;       // root's wait for worker joins
  double round_timeout_s = 60.0;      // root's wait for a round's updates
  bool trace = false;                 // stamp trace contexts onto frames
  // N-level tree spec "A,B,...,V" (topology::parse_tree_spec): process
  // levels below the root, the last entry counting virtual leaf devices per
  // leaf-head process.  Empty = the classic 2-level federation.  When set,
  // build_federation_data derives the SAME shard layout as a flat 2-level
  // run with workers = leaf heads and devices_per_worker = leaves per head,
  // so every process of the tree — and the transport-free reference — holds
  // identical data.
  std::string tree;
  // Grace window (seconds) a collector holds a round open for an evicted
  // child before aggregating without it.  0 = aggregate as soon as the
  // surviving quorum is complete (the historical behaviour).
  double rejoin_grace_s = 0.0;
  // Idle poll tick for pump loops (--poll-interval).  Under the epoll
  // reactor this is only the UPPER BOUND on how long a quiet poll() sleeps —
  // readiness wakes it immediately — so it trades idle wakeup rate against
  // on_idle() deadline granularity, not against latency.
  double poll_interval_s = 0.05;
  // Leader-rotation mode (DESIGN.md §15): N > 0 runs N co-equal top nodes
  // (ids top_node_id(0..N-1)) that elect a leader; workers join every top
  // and follow the current leader.  0 = the classic single root, the same
  // committee with one member under kRootId.
  std::size_t top_cluster = 0;
  // Flat (no tree) federation: workers the root — the committee leader —
  // waits for before starting round 0 (the join gate).  0 = config.workers.
  // Lets a churn scenario start with a subset of the worker pool the shard
  // layout is built for.
  std::size_t initial_workers = 0;
  // Top-cluster election timing (consensus::rotation::Config); tests tighten
  // these to keep failover drills fast.
  double election_min_s = 0.25;
  double election_max_s = 0.5;
  double heartbeat_s = 0.05;
};

/// Parse a --compress spec — a comma list of "topk:K" (sparsify updates to
/// the K largest-magnitude entries) and "delta" (encode against the link's
/// previous model) — into the config's codec fields.  Returns false on a
/// malformed spec, leaving `config` untouched.  An empty spec is valid and
/// changes nothing.
[[nodiscard]] bool apply_compress_spec(const std::string& spec, FederationConfig& config);

/// The codec this node advertises / negotiates against, straight from the
/// config's compression knobs.
[[nodiscard]] Codec codec_from_config(const FederationConfig& config) noexcept;

inline constexpr NodeId kRootId = 0;
[[nodiscard]] inline NodeId worker_node_id(std::size_t worker_index) noexcept {
  return static_cast<NodeId>(worker_index + 1);
}
/// Ids at or above this are reserved for observers (abdhfl_top probes):
/// never members, so their link teardown is not churn and must not tick the
/// peer-loss counters operators alert on.
inline constexpr NodeId kObserverIdBase = 900;
[[nodiscard]] inline bool is_observer(NodeId id) noexcept {
  return id >= kObserverIdBase;
}
/// Ids of the leader-rotation top-cluster members (FederationConfig::
/// top_cluster mode): kTopIdBase + committee rank.  Between the worker range
/// and the observer range, so neither collides.
inline constexpr NodeId kTopIdBase = 100;
[[nodiscard]] inline NodeId top_node_id(std::size_t top_index) noexcept {
  return kTopIdBase + static_cast<NodeId>(top_index);
}
[[nodiscard]] inline bool is_top(NodeId id) noexcept {
  return id >= kTopIdBase && id < kObserverIdBase;
}
/// Tree level of the root<->worker links, used as the traffic link class.
inline constexpr std::uint32_t kLeaderLinkClass = 1;
/// Link class of top-cluster committee traffic (level 0: above the
/// kLeaderLinkClass root<->worker links).
inline constexpr std::uint32_t kTopLinkClass = 0;

/// Everything a process derives from the seed alone — identical in every
/// process of a federation, which is what makes the runs comparable.
struct FederationData {
  std::vector<data::Dataset> shards;  // one per device: worker*dpw + k
  data::Dataset test_set;             // root's reporting set
  std::size_t input_dim = 0;
  std::vector<float> init_params;     // round-0 model
  nn::Mlp prototype;                  // scratch architecture for evaluation
};

[[nodiscard]] FederationData build_federation_data(const FederationConfig& config);

/// Trainer for one global device index, with its RNG derived from the seed
/// and the index so every process reproduces the same SGD stream.
[[nodiscard]] core::LocalTrainer make_device_trainer(const FederationConfig& config,
                                                     const FederationData& data,
                                                     std::size_t device);

/// Eq. 1 merge: alpha * global + (1 - alpha) * local, elementwise.
[[nodiscard]] std::vector<float> merge_models(std::span<const float> global,
                                              std::span<const float> local, double alpha);

/// Allocation-free variant: writes the merge into `out` (resized to match).
/// `out` must not alias either input.  Same arithmetic as merge_models —
/// the bitwise-equivalence check depends on it.
void merge_models_into(std::span<const float> global, std::span<const float> local,
                       double alpha, std::vector<float>& out);

/// One worker-local round: train every trainer from `start`, aggregate with
/// `rule`.  Exposed so the transport-free reference loop and WorkerNode
/// share the exact arithmetic (the bitwise-equivalence check depends on it).
[[nodiscard]] std::vector<float> cluster_round(const FederationConfig& config,
                                               std::vector<core::LocalTrainer>& trainers,
                                               agg::Aggregator& rule,
                                               std::span<const float> start);

// ---------------------------------------------------------------------------

class WorkerNode {
 public:
  /// `transport` must outlive the node; the node registers itself under
  /// worker_node_id(worker_index) and expects a link to kRootId.
  /// `checkpoint` (optional, not owned) persists the worker's merged model,
  /// trainer RNG streams and round counter after every `checkpoint_every`-th
  /// merge (save_now: the snapshot is durable before the next frame is
  /// touched, so a SIGKILL at any instant loses at most the current round).
  /// With `resume` the latest snapshot is restored in the constructor; the
  /// join echo then tells the worker which round the root is collecting, so
  /// a restarted process rejoins mid-training instead of retraining from
  /// round 0.
  WorkerNode(FederationConfig config, std::size_t worker_index, Transport& transport,
             obs::Recorder* recorder = nullptr, ckpt::Store* checkpoint = nullptr,
             std::size_t checkpoint_every = 1, bool resume = false);

  /// Send the join; training starts when the root echoes it.  In top-cluster
  /// mode (config.top_cluster > 0) the join is broadcast to EVERY top node,
  /// so whichever member wins the election already holds it.
  void start();
  /// Deadline bookkeeping; call between poll()s.
  void on_idle();

  /// Leave the federation now (churn scenarios): say goodbye to the current
  /// parent and stop processing frames.  The committed membership log is how
  /// the departure becomes part of the agreed view.
  void leave();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// The worker's final merged model (valid once done() && !failed()).
  [[nodiscard]] const std::vector<float>& model() const noexcept { return current_; }
  [[nodiscard]] std::size_t rounds_run() const noexcept { return round_; }
  /// First round this process will train (> 0 iff a snapshot was restored).
  [[nodiscard]] std::size_t resume_round() const noexcept { return resume_round_; }

 private:
  void on_message(WireMessage& msg);
  void train_and_send();
  /// Re-send the already-trained cluster model for the current round to the
  /// (possibly re-targeted) parent — the leader-failover path.  Never
  /// retrains: retraining would advance the device RNG streams and break
  /// bitwise identity with the unfailed run.
  void resend_update();
  [[nodiscard]] bool top_mode() const noexcept { return config_.top_cluster > 0; }
  void finish(bool failed);
  void save_checkpoint();
  void restore_checkpoint();
  void reply_status(const StatusRequest& request, NodeId to);

  FederationConfig config_;
  std::size_t index_;
  NodeId id_;
  Transport& transport_;
  obs::Recorder* recorder_;
  ckpt::Store* checkpoint_;
  std::size_t checkpoint_every_;
  hier::Uplink uplink_;  // the up-facing protocol mechanics toward the root
  std::vector<core::LocalTrainer> trainers_;
  std::unique_ptr<agg::Aggregator> rule_;
  std::uint64_t subtree_samples_ = 0;
  std::vector<float> current_;       // model the next round trains from
  std::vector<float> last_cluster_;  // this worker's latest BRA output
  std::size_t round_ = 0;
  std::size_t resume_round_ = 0;
  bool done_ = false;
  bool failed_ = false;
};

struct RootResult {
  std::vector<float> global_model;
  std::vector<double> round_accuracy;  // one entry per completed round
  double final_accuracy = 0.0;
  std::size_t rounds_run = 0;
  std::size_t workers_joined = 0;
  std::size_t workers_lost = 0;
  std::size_t workers_rejoined = 0;  // re-admitted after a transient drop
};

/// Pump `transport` until `done()` returns true (it may advance node state,
/// e.g. call on_idle) or `deadline_s` of wall clock elapses.  Returns
/// whether `done` fired.  `poll_s` is FederationConfig::poll_interval_s —
/// the idle tick, not a latency floor (see that field's comment).
bool pump_until(Transport& transport, const std::function<bool()>& done,
                double deadline_s, double poll_s = 0.05);

}  // namespace abdhfl::net
