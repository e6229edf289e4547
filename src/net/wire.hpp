#pragma once
// Wire codec for federation traffic (DESIGN.md §9, §11).
//
// Every message that crosses a link — in-process loopback or a real socket —
// is one length-framed, versioned, checksummed frame:
//
//   offset size  field
//   0      4    magic 0xABDF4E71
//   4      2    codec version (kWireVersion)
//   6      2    message kind (MsgKind)
//   8      2    flags (bit 0: quantized, bit 1: top-k, bit 2: delta, bit 3: traced)
//   10     2    reserved, must be 0
//   12     4    sender node id
//   16     4    receiver node id
//   20     8    round number
//   28     4    body length in bytes
//   32     ...  body (kind-specific, see the payload structs)
//   ...    32   optional trace-context tail (kFlagTraced): trace id, span id,
//               parent span id, sender wall_ns — counted in the body length
//               and covered by the digest, sliced off before payload decode
//   32+n   8    frame digest (FrameDigest) over bytes [0, 32+n)
//
// All integers are little-endian (the codec refuses byte-swapped frames with
// a clear error instead of mis-decoding them).  A parameter section inside a
// body is the composition of up to three negotiated stages (Codec):
//
//   delta     values are v = params - last reconstructed model on this link
//             (kFlagDelta; dense fallback when the link has no cached base);
//   top-k     only the k largest-|v| entries travel, as a sparse section:
//             k (u32), d (u64), k strictly-increasing u32 indices, values
//             (kFlagTopK; absent entries are 0, or the base under delta);
//   quantize  the transmitted values ride the nn/quantize block format
//             instead of raw float32 (kFlagQuantized).
//
// Raw dense parameters are a count (u64) followed by the floats — the same
// section a replicated log entry carries its model in.  The frame digest is
// the one integrity check over those bytes, and the float bytes of an
// encoded frame ARE the in-memory representation: the zero-copy receive
// path (FrameView / model_update_params) hands aggregation a span into the
// frame without decoding.
//
// The four payload kinds cover everything the federation exchanges: trained
// model updates going up, flag/global partial models (with their Eq. 1
// correction factor) going down, consensus votes, and membership/churn
// events.  encoded_size()/the *_wire_size() helpers are the codec-computed
// byte accounting the runners report (replacing the hand-estimated
// nn::wire_size arithmetic); estimated_model_bytes() preserves the old
// estimate so tests can assert the two agree up to the frame overhead.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace abdhfl::net {

using NodeId = std::uint32_t;

inline constexpr std::uint32_t kWireMagic = 0xABDF4E71U;
inline constexpr std::uint16_t kWireVersion = 5;  // v5: count-prefixed dense
                                                  // sections, no model digests,
                                                  // multi-lane frame digest

/// Header bytes before the body; the trailing digest adds 8 more.
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kDigestSize = 8;

/// Frame flags.
inline constexpr std::uint16_t kFlagQuantized = 1u << 0;
inline constexpr std::uint16_t kFlagTopK = 1u << 1;
inline constexpr std::uint16_t kFlagDelta = 1u << 2;
inline constexpr std::uint16_t kFlagTraced = 1u << 3;
inline constexpr std::uint16_t kKnownFlags =
    kFlagQuantized | kFlagTopK | kFlagDelta | kFlagTraced;

/// Hard ceiling on any wire-supplied dense parameter count (64M floats =
/// 256MB).  The sparse section carries its dense size d out-of-band of the
/// value bytes, so unlike a dense section it cannot be bounded by the bytes
/// present — this cap is what stops a forged d from sizing the allocation.
inline constexpr std::uint64_t kMaxWireParams = std::uint64_t{1} << 26;

enum class MsgKind : std::uint16_t {
  kModelUpdate = 1,    // device/cluster update going up the tree
  kPartialModel = 2,   // flag or global model going down (+ correction factor)
  kConsensusVote = 3,  // vote/commit-ack on a candidate model
  kMembership = 4,     // join / leave / crash / shutdown
  kStatusRequest = 5,  // live introspection probe / RTT heartbeat
  kStatusReply = 6,    // round, peer table, Prometheus metrics
  kVoteRequest = 7,    // leader rotation: candidate solicits a term vote
  kVoteReply = 8,      // leader rotation: grant / refusal for a term
  kAppendEntries = 9,  // leader rotation: replicated-log entries (may be empty)
  kHeartbeat = 10,     // leader keepalive / follower replication ack
};

[[nodiscard]] const char* to_string(MsgKind kind) noexcept;

struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Distributed-tracing context riding an optional fixed-size tail section at
/// the end of the body (kFlagTraced; DESIGN.md §12).  Old peers that never
/// negotiate tracing simply never see the flag — frames stay byte-identical
/// to the untraced layout.  `span_id` is the sender's net_send span; the
/// receiver parents its net_recv span to it, which is the causal edge
/// tools/trace_merge joins processes on.
struct TraceContext {
  std::uint64_t trace_id = 0;        // obs::make_trace_id(seed, round)
  std::uint64_t span_id = 0;         // sending span (0 = invalid context)
  std::uint64_t parent_span_id = 0;  // sending span's parent, for tree repair
  std::int64_t wall_ns = 0;          // sender's system_clock at encode

  [[nodiscard]] bool valid() const noexcept { return span_id != 0; }
};

/// Encoded byte size of the trace tail (four 64-bit fields).
inline constexpr std::size_t kTraceContextSize = 32;

/// Per-link parameter compression, negotiated by the membership handshake:
/// a joining node advertises the strongest codec it accepts and the parent
/// echoes its choice back; both sides then encode with the agreed setting.
struct Codec {
  std::uint8_t quantize_bits = 0;  // 0 = raw float32, 1..8 = nn/quantize
  std::uint32_t block = 256;       // values per quantization block
  std::uint32_t topk = 0;          // 0 = dense, else keep the k largest |v|
  bool delta = false;              // encode vs the link's last model

  [[nodiscard]] bool quantized() const noexcept { return quantize_bits != 0; }
  [[nodiscard]] bool compressed() const noexcept {
    return quantized() || topk != 0 || delta;
  }
};

/// Per-link delta-codec state: the last *reconstructed* parameter vector per
/// parameter-carrying kind.  Both ends of a link update their copy from the
/// same post-lossy reconstruction (the sender decodes its own encoding), so
/// the bases stay bitwise-synchronized as long as frames arrive in order.
/// Cleared on any link reset (drop, reconnect, redial) — the next frame then
/// falls back to dense and re-seeds both sides.
struct CodecState {
  std::vector<float> model_update;
  std::vector<float> partial_model;

  [[nodiscard]] std::vector<float>& slot(MsgKind kind);
  void clear() noexcept {
    model_update.clear();
    partial_model.clear();
  }
};

// ---------------------------------------------------------------------------
// Payload kinds.  Each carries its MsgKind as kMessageKind so checked casts
// (sim::payload_cast, the transport dispatch) can validate tag vs type.

/// A trained model going up: bottom device -> leader, or leader -> parent.
struct ModelUpdate {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kModelUpdate);
  std::uint32_t sender = 0;   // originating device id
  std::uint32_t level = 0;    // tree level the update leaves from
  std::uint64_t samples = 0;  // training samples behind the update
  std::vector<float> params;
};

/// A flag or global partial model going down, with the Eq. 1 correction
/// factor the receiver should merge it with.
struct PartialModel {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kPartialModel);
  std::uint32_t origin = 0;      // aggregating node id
  std::uint32_t flag_level = 0;  // level the model was formed at
  bool is_global = false;        // true for θ_G, false for a flag model
  float alpha = 0.0f;            // correction factor α (Eq. 1)
  double flag_fraction = 0.0;    // |D_F| / |D_G| of the originating cluster
  std::vector<float> params;
};

/// A vote on a candidate model (CBA protocols, commit acknowledgements).
struct ConsensusVote {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kConsensusVote);
  std::uint32_t voter = 0;
  std::uint32_t candidate = 0;  // candidate index / round the vote refers to
  float score = 0.0f;           // voter's validation score (0 when unused)
  bool accept = false;
};

/// Membership and churn events (Assumption 3 dynamics over a real link).
struct Membership {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kMembership);
  enum class Event : std::uint8_t {
    kJoin = 0,      // hello: node joins, advertises its codec capability
    kLeave = 1,     // graceful departure
    kCrash = 2,     // peer loss detected by the transport, relayed upward
    kShutdown = 3,  // coordinator tells the subtree to finish
  };
  Event event = Event::kJoin;
  std::uint32_t device = 0;
  std::uint32_t cluster = 0;
  std::uint64_t subtree_samples = 0;  // join: samples behind this subtree
  Codec codec;                        // join: advertised / echoed codec
  bool trace = false;                 // join: sender emits/accepts trace tails
  std::int64_t wall_ns = 0;           // sender's system_clock at send
  std::int64_t echo_wall_ns = 0;      // echo: the request's wall_ns, for RTT
};

/// One replicated-log entry of the leader-rotation protocol (DESIGN.md §15).
/// Entries are term-stamped; kModelCommit entries carry the full committed
/// global model so ANY member that wins an election can serve the last agreed
/// model bitwise-identically, and membership entries carry everything a new
/// leader needs to adopt the worker (samples, negotiated codec, tracing).
struct RaftLogEntry {
  std::uint64_t term = 0;
  std::uint64_t index = 0;   // 1-based log position
  std::uint16_t type = 0;    // consensus::rotation::EntryType
  std::uint64_t round = 0;   // model round / membership view round
  std::uint32_t subject = 0; // member node id (membership entries)
  std::uint64_t samples = 0; // join: the member's subtree sample count
  std::uint8_t quantize_bits = 0;  // join: the link's negotiated codec
  std::uint32_t topk = 0;
  std::uint8_t delta = 0;
  std::uint8_t trace = 0;
  std::vector<float> params;     // model commit: the committed global model
};

/// Election: a candidate for `term` solicits a vote.  The last-log fields
/// carry Raft's up-to-dateness restriction — a voter refuses a candidate
/// whose log is behind its own, which is what keeps committed model entries
/// from being lost across leader changes.
struct VoteRequest {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kVoteRequest);
  std::uint64_t term = 0;
  std::uint32_t candidate = 0;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

/// Election: grant or refusal.  `term` is the voter's current term so a
/// stale candidate steps down immediately.
struct VoteReply {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kVoteReply);
  std::uint64_t term = 0;
  std::uint32_t voter = 0;
  std::uint8_t granted = 0;
};

/// Log replication: entries [prev_log_index+1 ...] plus the leader's commit
/// index.  An empty entry list is a consistency probe.
struct AppendEntries {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kAppendEntries);
  std::uint64_t term = 0;
  std::uint32_t leader = 0;
  std::uint64_t prev_log_index = 0;
  std::uint64_t prev_log_term = 0;
  std::uint64_t commit_index = 0;
  std::vector<RaftLogEntry> entries;
};

/// Dual-purpose heartbeat: ack == 0 is the leader's keepalive (failure
/// detection + commit-index propagation); ack == 1 is a follower's reply to
/// an AppendEntries or keepalive, reporting how far its log matches.
struct Heartbeat {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kHeartbeat);
  std::uint64_t term = 0;
  std::uint32_t node = 0;         // sender (leader or acking follower)
  std::uint8_t ack = 0;           // 0 = leader keepalive, 1 = follower ack
  std::uint8_t success = 0;       // ack: prev-entry consistency check passed
  std::uint64_t commit_index = 0; // keepalive: leader's commit index
  std::uint64_t match_index = 0;  // ack: highest log index known replicated
};

/// Live introspection probe (tools/abdhfl_top) doubling as the per-round RTT
/// heartbeat: the replier echoes `wall_ns` back so the requester can compute
/// rtt = t3 - t0 and the NTP-style midpoint clock offset.
struct StatusRequest {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kStatusRequest);
  std::uint32_t probe = 0;     // requester-chosen correlation id
  std::uint8_t detail = 0;     // 0 = timestamps only, 1 = peers + metrics
  std::int64_t wall_ns = 0;    // requester's system_clock at send
};

/// One row of a StatusReply peer table.
struct StatusPeer {
  std::uint32_t node = 0;
  std::uint8_t state = 0;      // 0 = live, 1 = lost, 2 = left
  float rtt_ms = -1.0f;        // last estimated RTT to the peer (-1 = unknown)
  double suspicion = 0.0;      // replier's churn-suspicion score for the peer
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Sentinel for StatusReply::parent when the replier has no parent (a root).
inline constexpr std::uint32_t kStatusNoParent = 0xFFFFFFFFu;

/// Live status of a running node, served mid-training without pausing it.
struct StatusReply {
  static constexpr std::uint32_t kMessageKind = static_cast<std::uint32_t>(MsgKind::kStatusReply);
  std::uint32_t node = 0;
  std::uint32_t probe = 0;        // echoed from the request
  std::uint64_t round = 0;
  std::uint8_t phase = 0;         // node-defined (TopClusterNode::Phase for roots)
  std::uint32_t live_workers = 0;
  std::uint32_t level = 0;        // replier's tree level (0 = root)
  std::uint32_t parent = kStatusNoParent;  // parent node id, or kStatusNoParent
  std::int64_t wall_ns = 0;       // replier's system_clock at send
  std::int64_t echo_wall_ns = 0;  // the request's wall_ns, echoed
  // Leader-rotation consensus state (zero / kStatusNoParent on nodes that
  // run no consensus — the classic single root, workers, aggregators).
  std::uint64_t term = 0;          // current consensus term
  std::uint32_t leader = kStatusNoParent;  // known leader, or kStatusNoParent
  std::uint64_t commit_index = 0;  // highest committed log index
  std::uint8_t view_reason = 0;    // consensus::rotation::ViewReason of the
                                   // last view change (0 = none yet)
  std::vector<StatusPeer> peers;  // detail != 0 only
  std::string metrics;            // Prometheus exposition blob (detail != 0)
};

using Payload = std::variant<ModelUpdate, PartialModel, ConsensusVote, Membership,
                             StatusRequest, StatusReply, VoteRequest, VoteReply,
                             AppendEntries, Heartbeat>;

/// An already-encoded frame travelling as an opaque sim::Message payload
/// (the loopback-over-simulator bridge).  Tagged like every other payload so
/// receivers use the checked sim::payload_cast instead of a blind cast.
struct EncodedFrame {
  static constexpr std::uint32_t kMessageKind = 0xF7A3;
  std::vector<std::uint8_t> bytes;
  std::uint32_t link_class = 0;
};

/// Addressing common to every frame.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t round = 0;
};

/// A fully decoded frame.
struct WireMessage {
  Envelope env;
  MsgKind kind = MsgKind::kModelUpdate;
  bool quantized = false;
  bool topk = false;
  bool delta = false;
  Payload payload;
};

// ---------------------------------------------------------------------------
// Frame digest.

/// The digest every frame ends with: 64-bit FNV-1a over little-endian words,
/// dealt round-robin to kLanes independent lanes so their multiply chains
/// overlap, then the lanes and the total byte count folded into one value.
/// A streaming state: the digest of (head, inline payload, tail) fed in any
/// split equals the digest of the concatenated bytes.  A trailing partial
/// stripe is zero-padded; the folded length tells a zero byte from no byte.
/// An integrity check against corruption, not a MAC.
class FrameDigest {
 public:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kStripe = kLanes * sizeof(std::uint64_t);

  FrameDigest() noexcept;
  void update(std::span<const std::uint8_t> bytes) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  std::array<std::uint64_t, kLanes> lanes_;
  std::array<std::uint8_t, kStripe> pending_{};  // partial stripe, < kStripe bytes
  std::size_t pending_len_ = 0;
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Zero-copy receive: a validated, non-owning view over one complete frame.

/// A bounds-checked span over a complete encoded frame.  parse() validates
/// everything that does not require touching the body semantics — magic,
/// version, length framing, digest, reserved field, known flags — so every
/// accessor afterwards is a plain offset read.  The view does NOT own the
/// bytes: it is valid only while the backing buffer (an rx ring, a queued
/// frame) is alive and unmodified.  Lifecycle rules: DESIGN.md §11.
class FrameView {
 public:
  FrameView() = default;

  /// Wrap and fully validate `frame` (which must be exactly one frame).
  /// Throws WireError on any corruption.
  [[nodiscard]] static FrameView parse(std::span<const std::uint8_t> frame);

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return frame_; }
  [[nodiscard]] MsgKind kind() const noexcept;
  [[nodiscard]] std::uint16_t flags() const noexcept;
  [[nodiscard]] Envelope env() const noexcept;
  [[nodiscard]] bool quantized() const noexcept { return (flags() & kFlagQuantized) != 0; }
  [[nodiscard]] bool topk() const noexcept { return (flags() & kFlagTopK) != 0; }
  [[nodiscard]] bool delta() const noexcept { return (flags() & kFlagDelta) != 0; }
  [[nodiscard]] bool traced() const noexcept { return (flags() & kFlagTraced) != 0; }
  [[nodiscard]] std::span<const std::uint8_t> body() const noexcept;

  /// The body minus the trace tail (== body() for untraced frames): what the
  /// payload decoders consume.  Throws WireError when kFlagTraced is set but
  /// the body cannot hold the tail — checked before anything is allocated.
  [[nodiscard]] std::span<const std::uint8_t> payload_body() const;

  /// The trace tail, or an invalid (all-zero) context for untraced frames.
  /// Same truncation check as payload_body().
  [[nodiscard]] TraceContext trace_context() const;

  /// Materialize the frame into an owned WireMessage.  `rx_state` (optional)
  /// is the link's delta base: required to decode kFlagDelta frames, and
  /// updated with the reconstructed parameters of every parameter-carrying
  /// frame when non-null (pass it iff the link negotiated delta).
  [[nodiscard]] WireMessage decode(CodecState* rx_state = nullptr) const;

 private:
  std::span<const std::uint8_t> frame_;
};

/// The fixed fields of a ModelUpdate frame, read without materializing the
/// parameter vector.
struct ModelUpdateHead {
  std::uint32_t sender = 0;
  std::uint32_t level = 0;
  std::uint64_t samples = 0;
  std::size_t param_count = 0;  // dense dimension after reconstruction
};

/// Throws WireError if `view` is not a ModelUpdate or its parameter header
/// is malformed.
[[nodiscard]] ModelUpdateHead peek_model_update(const FrameView& view);

/// The reconstructed dense parameters of a ModelUpdate frame, read without
/// decoding a WireMessage.  Raw dense frames whose float bytes
/// are suitably aligned return a span INTO THE FRAME — zero copy, zero
/// allocation; every other path (quantized / top-k / delta / unaligned)
/// reconstructs into `scratch` and returns a span over it.  `rx_state`
/// follows the same contract as FrameView::decode.  The returned span dies
/// with the frame bytes or the next reuse of `scratch`, whichever is first.
[[nodiscard]] std::span<const float> model_update_params(const FrameView& view,
                                                         CodecState* rx_state,
                                                         std::vector<float>& scratch);

// ---------------------------------------------------------------------------
// Scatter-gather encode.

/// One encoded frame as up to three segments, so the raw-dense hot path
/// never copies the float payload: `inline_payload` aliases either the
/// caller's parameter vector or `scratch_values` (delta/top-k transforms).
/// Send with writev(head, inline_payload, tail) or flatten with concat().
/// The caller must keep the aliased payload alive until the bytes are on
/// the wire.  Reusable: encode_frame_parts() clears and refills, keeping
/// the vectors' capacity across rounds (no per-round staging allocation).
struct EncodedParts {
  std::vector<std::uint8_t> head;                  // header + fixed fields + section prefix
  std::span<const std::uint8_t> inline_payload{};  // raw float bytes (may be empty)
  std::vector<std::uint8_t> tail;                  // trace tail (if any) + frame digest
  std::vector<float> scratch_values;               // backing store for transformed values

  // Delta bookkeeping: the reconstruction to install into the sender's
  // CodecState once the frame is actually on the wire (commit-after-send, so
  // a failed write cannot desynchronize the two ends' bases).
  bool has_recon = false;
  MsgKind recon_kind = MsgKind::kModelUpdate;
  std::vector<float> recon;

  [[nodiscard]] std::size_t size() const noexcept {
    return head.size() + inline_payload.size() + tail.size();
  }
  [[nodiscard]] std::vector<std::uint8_t> concat() const;
  /// Install `recon` as the link's new tx base (no-op without one).
  void commit_tx(CodecState& state);
};

/// Encode one frame into `out` (cleared first; capacity is reused).  `codec`
/// applies to payloads that carry parameters (ModelUpdate, PartialModel);
/// other kinds ignore it.  `tx_state` (optional) is the link's delta base:
/// with codec.delta set, a matching base turns the frame into a delta and
/// out.recon carries the reconstruction to commit_tx() after the send.
/// A valid `trace` context appends the kFlagTraced tail to the body.
void encode_frame_parts(const Envelope& env, const Payload& payload, const Codec& codec,
                        const CodecState* tx_state, EncodedParts& out,
                        const TraceContext* trace = nullptr);

/// Encode one frame into a single contiguous buffer (parts + concat).  The
/// stateless overload cannot produce delta frames; the stateful one commits
/// the tx base immediately (delivery assumed — loopback, tests).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Envelope& env,
                                                     const Payload& payload,
                                                     const Codec& codec = {});
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Envelope& env,
                                                     const Payload& payload,
                                                     const Codec& codec,
                                                     CodecState* tx_state);

/// Decode a complete frame; throws WireError on any corruption (bad magic,
/// byte-swapped magic, version/kind mismatch, truncation, digest failure).
/// Equivalent to FrameView::parse(frame).decode(rx_state).
[[nodiscard]] WireMessage decode_frame(std::span<const std::uint8_t> frame);
[[nodiscard]] WireMessage decode_frame(std::span<const std::uint8_t> frame,
                                       CodecState* rx_state);

/// Stream-parsing helper: given at least kHeaderSize buffered bytes, returns
/// the total frame length (header + body + digest) after validating magic and
/// version.  Throws WireError on a bad header so a socket reader can drop the
/// connection instead of resynchronizing on garbage.
[[nodiscard]] std::size_t peek_frame_size(std::span<const std::uint8_t> prefix);

// ---------------------------------------------------------------------------
// Wire-size accounting (what the runners report as communication cost).

/// Header + digest bytes around any body.
[[nodiscard]] constexpr std::size_t frame_overhead() noexcept {
  return kHeaderSize + kDigestSize;
}

/// Exact encoded frame size of a payload under a codec.  Delta does not
/// change the size (it only changes the transmitted values), so this is
/// exact whether or not the link's cache is warm.
[[nodiscard]] std::size_t encoded_size(const Payload& payload, const Codec& codec = {});

/// Exact frame size of a ModelUpdate carrying `param_count` raw floats.
[[nodiscard]] std::size_t model_update_wire_size(std::size_t param_count) noexcept;

/// Exact frame size of a PartialModel carrying `param_count` raw floats.
[[nodiscard]] std::size_t partial_model_wire_size(std::size_t param_count) noexcept;

/// Exact frame size of a ConsensusVote / Membership frame.
[[nodiscard]] std::size_t vote_wire_size() noexcept;
[[nodiscard]] std::size_t membership_wire_size() noexcept;

/// Exact frame sizes of the status message pair.
[[nodiscard]] std::size_t status_request_wire_size() noexcept;
[[nodiscard]] std::size_t status_reply_wire_size(std::size_t peer_count,
                                                 std::size_t metrics_bytes) noexcept;

/// The pre-codec estimate callers used to hand-compute (nn::wire_size): the
/// parameter blob alone, no frame.  Kept as the documented fallback so tests
/// can assert estimate + frame_overhead + fixed fields == codec size.
[[nodiscard]] std::size_t estimated_model_bytes(std::size_t param_count) noexcept;

/// The same estimate for an arbitrary payload (0 for kinds that carry no
/// parameters) — what sim::Message::bytes_estimated is populated with when a
/// frame rides the simulated network.
[[nodiscard]] std::size_t estimated_payload_bytes(const Payload& payload) noexcept;

}  // namespace abdhfl::net
