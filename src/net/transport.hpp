#pragma once
// Pluggable message transport (DESIGN.md §9, §11).
//
// A Transport moves encoded wire frames between federation nodes and hands
// them to registered handlers.  Two backends ship:
//
//   * LoopbackTransport (loopback.hpp) — in-process delivery, optionally
//     riding sim::Network so the discrete-event experiments meter the real
//     encoded byte count of every frame;
//   * TcpTransport (tcp.hpp) — real sockets with connect/send retry,
//     exponential backoff, per-message timeouts, and graceful peer-loss
//     degradation (the hook the churn layer consumes).
//
// The interface is deliberately poll-driven and single-threaded: a node owns
// its transport and pumps it (`poll`) from its event loop, exactly like the
// simulator pumps sim::Network.  Handlers run inside poll() on the calling
// thread, so no cross-thread synchronization is needed anywhere in the
// protocol logic.
//
// Receive path: both backends funnel every validated frame through
// deliver_frame(), which decodes the FrameView (a span into the backend's rx
// buffer) into an owned WireMessage.  The decoded message is passed by
// mutable reference so a terminal consumer can move the parameter vector out
// instead of copying it.
//
// Codec state: links that negotiated the delta codec carry per-direction
// base models.  The transport owns one tx and one rx CodecState per directed
// link, keyed (from, to); they are deliberately separate maps so a transport
// hosting both ends of a link (loopback) cannot read a base its own send
// just updated.  Any link reset (drop, redial, reconnect) must call
// reset_codec_state() so the next frame falls back to dense and re-seeds
// both sides.
//
// Observability: every send/receive/retry/timeout/peer-loss bumps both the
// per-transport TransportStats and (while obs::enabled()) the global
// registry counters net_frames_*_total{transport=...}; an attached
// obs::TraceBuffer receives one span per send and per delivered frame.
// Byte accounting is kept twice per direction: the bytes that actually
// crossed the link and the dense-equivalent ("raw") bytes the same payloads
// would have cost uncompressed — the pair is what makes compression ratios
// visible per link class.  record_traffic() flushes per-link-class traffic
// plus the retry/loss event counters into an obs::Recorder using the
// "net_link"/"net_events" JSONL schema that tools/validate_jsonl --group net
// checks.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "net/wire.hpp"

namespace abdhfl::obs {
class Counter;
class Recorder;
class TraceBuffer;
}

namespace abdhfl::net {

/// Outcome of one send() call.
enum class SendStatus {
  kOk,        // frame handed to the backend (loopback: queued; tcp: written)
  kNoRoute,   // no link to the destination and no address to dial
  kTimeout,   // per-message deadline expired with the link still congested
  kPeerLost,  // link died and could not be re-established within the policy
};

[[nodiscard]] const char* to_string(SendStatus status) noexcept;

/// Retry/backoff policy shared by connect and send paths.  attempt k (0-based
/// retry index) sleeps min(initial * factor^k, max) before trying again.
struct RetryPolicy {
  std::size_t max_attempts = 5;   // total tries per operation (>= 1)
  double initial_backoff_s = 0.05;
  double backoff_factor = 2.0;
  double max_backoff_s = 1.0;
  double send_timeout_s = 5.0;    // per-message write deadline
  double connect_timeout_s = 2.0; // per connect attempt (nonblocking + poll)

  [[nodiscard]] double backoff_for(std::size_t retry) const noexcept;
};

struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_sent_raw = 0;      // dense-equivalent cost of the same frames
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_received_raw = 0;  // dense-equivalent cost of the same frames
  std::uint64_t retries = 0;        // send or connect re-attempts
  std::uint64_t reconnects = 0;     // links re-established after a failure
  std::uint64_t timeouts = 0;       // sends abandoned on the deadline
  std::uint64_t peer_losses = 0;    // links declared dead
  std::uint64_t decode_errors = 0;  // frames rejected by the codec
  // Link telemetry (note_rtt): last and mean RTT over the class's links.
  double rtt_ms = -1.0;             // most recent sample (-1 = none yet)
  double rtt_ms_mean = 0.0;
  std::uint64_t rtt_samples = 0;
};

/// Per-peer link telemetry accumulated from echoed-timestamp exchanges
/// (membership join/echo, status heartbeats): last RTT and the NTP-style
/// midpoint clock-offset estimate (peer_wall ≈ local_wall + offset).
struct LinkTelemetry {
  double rtt_ms = -1.0;
  double clock_offset_ns = 0.0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
};

class Transport {
 public:
  /// Owned-message handler.  The message is mutable so a terminal consumer
  /// can std::move the parameter vector out instead of copying O(d) floats.
  using MessageHandler = std::function<void(WireMessage&)>;
  using PeerLossHandler = std::function<void(NodeId peer)>;
  using PeerReconnectHandler = std::function<void(NodeId peer)>;

  virtual ~Transport() = default;

  /// Attach the handler for a local node id.  Loopback hosts any number of
  /// local nodes; TCP hosts exactly the id it was constructed with.
  virtual void register_node(NodeId id, MessageHandler handler) = 0;

  /// Encode and send one message.  `link_class` buckets the traffic
  /// accounting (the federation uses the tree level of the link).
  virtual SendStatus send(const Envelope& env, const Payload& payload,
                          std::uint32_t link_class = 0) = 0;

  /// Deliver pending frames to handlers, waiting up to `timeout_s` for
  /// activity.  Returns the number of frames delivered.
  virtual std::size_t poll(double timeout_s) = 0;

  /// Invoked (from poll()/send()) when a link is declared dead — the churn
  /// feed: the federation turns this into a membership event.  Additive, so
  /// several nodes sharing one loopback transport can all subscribe.
  void add_peer_loss_handler(PeerLossHandler handler) {
    on_peer_loss_.push_back(std::move(handler));
  }

  /// Invoked when a peer that already had a link re-establishes one (TCP: an
  /// accepted socket re-identifies as a known node).  Fired before the new
  /// link's frames are delivered, so a parent that evicted the peer on the
  /// earlier loss can re-admit it first — a transient drop the peer's own
  /// retry machinery repaired must not permanently remove a member.
  void add_peer_reconnect_handler(PeerReconnectHandler handler) {
    on_peer_reconnect_.push_back(std::move(handler));
  }

  /// Announce that `peer` is about to close its link on purpose (it sent a
  /// graceful leave): the backend must not report the upcoming EOF as a
  /// peer loss.  Default: nothing to suppress.
  virtual void expect_close(NodeId peer) { (void)peer; }

  /// Mark `peer` as a transient link (a status-probe observer, never a
  /// member): it stays fully usable — unlike expect_close, further sends
  /// succeed, so a polling probe can hold its connection open — but its
  /// eventual EOF is not reported as a peer loss.  Default: nothing to mark.
  virtual void mark_transient(NodeId peer) { (void)peer; }

  /// Try to resurrect a link the loss path closed for good (sends to a lost
  /// peer fail fast).  An AggregatorNode that outlives its parent calls this
  /// on its rejoin timer: the peer's process may be a restart listening on
  /// the same address.  Returns true when the link is usable again (or never
  /// died); false when the backend cannot redial (no dial-out address, or
  /// the address still refuses).  Default: links cannot be revived.
  virtual bool revive_peer(NodeId peer) {
    (void)peer;
    return false;
  }

  /// Parameter compression negotiated for the directed link self -> peer:
  /// frames `self` sends to `peer` and frames arriving from `peer` at
  /// `self`.  Keyed by both ends because one transport may host several
  /// nodes, each negotiating its own links to the same peer.
  void set_peer_codec(NodeId self, NodeId peer, Codec codec) {
    peer_codec_[{self, peer}] = codec;
  }
  [[nodiscard]] Codec codec_for(NodeId self, NodeId peer) const;

  /// Forget every delta base on links touching `peer` (both directions, both
  /// roles).  Called by the backends on any link reset.
  void reset_codec_state(NodeId peer);

  /// Span sink for send/deliver tracing (not owned; nullptr disables).
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceBuffer* trace_sink() const noexcept { return trace_; }

  /// Arm distributed tracing: frames to peers that negotiated it (see
  /// set_peer_tracing) carry the kFlagTraced context tail.  Requires an
  /// attached TraceBuffer to have any effect.
  void set_tracing(bool on) noexcept { tracing_ = on; }
  /// Record the membership negotiation outcome for one peer.
  void set_peer_tracing(NodeId peer, bool on) { peer_tracing_[peer] = on; }
  /// True when frames to `peer` should carry a trace tail.
  [[nodiscard]] bool tracing_to(NodeId peer) const noexcept;

  /// Feed one echoed-timestamp RTT/offset sample for the link to `peer`
  /// (computed by the node layer from join/heartbeat traffic).  Updates the
  /// per-peer telemetry, the per-class stats, and — while obs is enabled —
  /// the net_rtt_ms histogram.
  void note_rtt(NodeId peer, std::uint32_t link_class, double rtt_ms,
                double clock_offset_ns);
  /// Telemetry for the link to `peer` (zeros/unknowns when never seen).
  [[nodiscard]] LinkTelemetry peer_telemetry(NodeId peer) const;

  /// Bytes buffered but not yet dispatched on links of `link_class` (rx
  /// backlog) — the queue-depth signal in the net_link records.  Backends
  /// that buffer override this; default: nothing queues.
  [[nodiscard]] virtual std::uint64_t backlog_bytes(std::uint32_t link_class) const {
    (void)link_class;
    return 0;
  }

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] TransportStats class_stats(std::uint32_t link_class) const;

  /// Tag this transport's traffic records with the hosting node's position
  /// in the hierarchy.  Until set, net_link/net_events records carry no
  /// level/parent_id fields — exactly the pre-hier schema, which is what
  /// keeps old 2-level fixtures validating (the keys are optional in the
  /// net schema group).  `parent` = kStatusNoParent marks a root.
  void set_identity(std::uint32_t level, NodeId parent) noexcept {
    identity_level_ = level;
    identity_parent_ = parent;
    has_identity_ = true;
  }

  /// Flush per-link-class traffic ("net_link" records: one per class seen)
  /// and the event counters ("net_events") into `recorder` under the given
  /// round tag.  Schema: see tools/validate_jsonl --group net.
  void record_traffic(obs::Recorder& recorder, std::uint64_t round) const;

 protected:
  explicit Transport(std::string name);

  /// The shared receive tail both backends funnel validated frames through:
  /// account + trace the frame, decode it (against the link's rx delta base
  /// when `from` negotiated delta) and invoke `handler`.  Body-level
  /// corruption throws WireError to the backend, which owns the
  /// drop-the-link policy.
  void deliver_frame(const FrameView& view, std::uint32_t link_class,
                     const MessageHandler& handler);

  /// Delta-codec base models for the directed link from -> to.  tx is what
  /// the local sender encodes against; rx is what frames arriving on that
  /// direction decode against.
  [[nodiscard]] CodecState& tx_codec_state(NodeId from, NodeId to) {
    return tx_state_[{from, to}];
  }
  [[nodiscard]] CodecState& rx_codec_state(NodeId from, NodeId to) {
    return rx_state_[{from, to}];
  }

  // Stats + obs plumbing shared by the backends.  All of these also bump the
  // registry counters while obs::enabled().  `raw_bytes` is the
  // dense-equivalent size of the same frame (== bytes on uncompressed links).
  void note_sent(std::size_t bytes, std::size_t raw_bytes, std::uint32_t link_class,
                 NodeId peer);
  void note_received(std::size_t bytes, std::size_t raw_bytes, std::uint32_t link_class,
                     NodeId peer);
  void note_retry();
  void note_reconnect();
  void note_timeout();
  void note_peer_loss(NodeId peer);       // also fires the peer-loss handlers
  void note_peer_reconnect(NodeId peer);  // also fires the reconnect handlers
  void note_decode_error();

  [[nodiscard]] obs::TraceBuffer* trace() const noexcept { return trace_; }

 private:
  struct ObsCounters {
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_sent_raw = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* bytes_received_raw = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* peer_losses = nullptr;
  };
  ObsCounters& obs_counters();

  std::string name_;
  bool has_identity_ = false;
  std::uint32_t identity_level_ = 0;
  NodeId identity_parent_ = 0;
  TransportStats stats_;
  std::map<std::uint32_t, TransportStats> per_class_;
  std::map<std::pair<NodeId, NodeId>, Codec> peer_codec_;
  std::map<std::pair<NodeId, NodeId>, CodecState> tx_state_;
  std::map<std::pair<NodeId, NodeId>, CodecState> rx_state_;
  std::vector<PeerLossHandler> on_peer_loss_;
  std::vector<PeerReconnectHandler> on_peer_reconnect_;
  bool tracing_ = false;
  std::map<NodeId, bool> peer_tracing_;
  std::map<NodeId, LinkTelemetry> link_telemetry_;
  obs::TraceBuffer* trace_ = nullptr;
  ObsCounters obs_counters_;
  bool obs_ready_ = false;
};

}  // namespace abdhfl::net
