#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <variant>

#include "obs/blackbox.hpp"
#include "obs/trace.hpp"

namespace abdhfl::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRecvChunk = 64 * 1024;

void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void tune_stream(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  make_nonblocking(fd);
}

bool resolve(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  const char* addr = host == "localhost" || host.empty() ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, addr, &out.sin_addr) == 1;
}

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

TcpTransport::TcpTransport(NodeId self, RetryPolicy policy)
    : Transport("tcp"), self_(self), policy_(policy) {}

TcpTransport::~TcpTransport() { close(); }

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  if (listen_fd_ >= 0) throw std::logic_error("TcpTransport: already listening");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 32) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  make_nonblocking(listen_fd_);
  reactor_.add(listen_fd_);
  return port_;
}

void TcpTransport::track_peer_fd(NodeId id, int fd) {
  reactor_.add(fd);
  fd_peer_[fd] = id;
}

void TcpTransport::untrack_fd(int fd) {
  if (fd < 0) return;
  reactor_.remove(fd);
  fd_peer_.erase(fd);
}

bool TcpTransport::dial(NodeId id, Peer& peer) {
  sockaddr_in addr{};
  if (!resolve(peer.host, peer.port, addr)) return false;
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      note_retry();
      sleep_seconds(policy_.backoff_for(attempt - 1));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    // Connect nonblocking and bound the wait ourselves: a blocking connect
    // to a host that drops packets would stall the single-threaded poll
    // loop for the OS SYN timeout (minutes), far past anything RetryPolicy
    // promises.
    try {
      make_nonblocking(fd);
    } catch (...) {
      ::close(fd);
      throw;
    }
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (rc < 0 && (errno == EINPROGRESS || errno == EINTR)) {
      pollfd waiter{fd, POLLOUT, 0};
      const int timeout_ms = static_cast<int>(
          std::max(policy_.connect_timeout_s, 0.001) * 1000.0);
      rc = -1;
      if (::poll(&waiter, 1, timeout_ms) > 0) {
        int err = 0;
        socklen_t len = sizeof err;
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
          rc = 0;
        }
      }
    }
    if (rc == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      peer.fd = fd;
      track_peer_fd(id, fd);
      return true;
    }
    ::close(fd);
  }
  return false;
}

bool TcpTransport::connect_peer(NodeId peer_id, const std::string& host, std::uint16_t port) {
  Peer& peer = peers_[peer_id];
  peer.host = host;
  peer.port = port;
  if (peer.fd >= 0) {
    untrack_fd(peer.fd);
    ::close(peer.fd);
    peer.fd = -1;
  }
  peer.lost = false;
  peer.rx.clear();
  reset_codec_state(peer_id);  // fresh link: no delta bases on either side
  if (dial(peer_id, peer)) return true;
  drop_peer(peer_id, peer, /*report=*/true);
  return false;
}

void TcpTransport::set_peer_link_class(NodeId peer, std::uint32_t link_class) {
  peers_[peer].link_class = link_class;
}

void TcpTransport::expect_close(NodeId peer_id) {
  const auto it = peers_.find(peer_id);
  // Marking the peer lost without reporting makes the upcoming EOF silent
  // (drop_peer only reports the first transition) and fails further sends
  // fast — both correct after a goodbye.
  if (it != peers_.end()) it->second.lost = true;
}

void TcpTransport::mark_transient(NodeId peer_id) {
  const auto it = peers_.find(peer_id);
  if (it != peers_.end()) it->second.transient = true;
}

bool TcpTransport::revive_peer(NodeId peer_id) {
  const auto it = peers_.find(peer_id);
  if (it == peers_.end()) return false;
  Peer& peer = it->second;
  if (!peer.lost && peer.fd >= 0) return true;
  if (peer.host.empty()) return false;  // inbound link: nothing to redial
  // Copies: connect_peer writes through peers_[peer_id] and must not read
  // the fields it is overwriting.
  const std::string host = peer.host;
  const std::uint16_t port = peer.port;
  return connect_peer(peer_id, host, port);
}

void TcpTransport::register_node(NodeId id, MessageHandler handler) {
  if (id != self_) {
    throw std::invalid_argument("TcpTransport hosts node " + std::to_string(self_) +
                                ", cannot register node " + std::to_string(id));
  }
  if (!handler) throw std::invalid_argument("TcpTransport: null handler");
  handler_ = std::move(handler);
}

SendStatus TcpTransport::send(const Envelope& env, const Payload& payload,
                              std::uint32_t link_class) {
  const auto it = peers_.find(env.to);
  if (it == peers_.end()) return SendStatus::kNoRoute;
  Peer& peer = it->second;
  if (peer.lost) return SendStatus::kPeerLost;

  obs::Span span(trace(), "net_send", static_cast<std::size_t>(env.round), env.to);
  const Codec codec = codec_for(env.from, env.to);
  TraceContext trace_ctx;
  if (tracing_to(env.to)) {
    trace_ctx = {span.trace_id(), span.id(), span.parent_id(), obs::wall_clock_ns()};
  }
  const auto encode = [&] {
    const CodecState* tx =
        codec.delta ? &tx_codec_state(self_, env.to) : nullptr;
    encode_frame_parts(env, payload, codec, tx, tx_parts_,
                       trace_ctx.valid() ? &trace_ctx : nullptr);
  };
  encode();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(policy_.send_timeout_s);
  std::size_t attempts_left = policy_.max_attempts;

  while (true) {
    if (peer.fd < 0) {
      if (peer.host.empty() || !dial(env.to, peer)) {
        drop_peer(env.to, peer, /*report=*/true);
        return SendStatus::kPeerLost;
      }
      note_reconnect();
      // The receiver treats the new socket as a reconnect and forgets its
      // delta bases; re-encode so a delta frame never rides a fresh link.
      reset_codec_state(env.to);
      encode();
    }
    const std::size_t frame_size = tx_parts_.size();
    std::size_t offset = 0;
    bool link_failed = false;
    while (offset < frame_size) {
      // Scatter-gather: up to three segments (header+prefix, in-place float
      // payload, digests), re-sliced past the bytes already written.
      iovec iov[3];
      int n_iov = 0;
      std::size_t skip = offset;
      const auto add = [&](const std::uint8_t* p, std::size_t len) {
        if (len == 0) return;
        if (skip >= len) {
          skip -= len;
          return;
        }
        iov[n_iov].iov_base = const_cast<std::uint8_t*>(p) + skip;
        iov[n_iov].iov_len = len - skip;
        ++n_iov;
        skip = 0;
      };
      add(tx_parts_.head.data(), tx_parts_.head.size());
      add(tx_parts_.inline_payload.data(), tx_parts_.inline_payload.size());
      add(tx_parts_.tail.data(), tx_parts_.tail.size());
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<std::size_t>(n_iov);
      const ssize_t n = ::sendmsg(peer.fd, &mh, MSG_NOSIGNAL);
      if (n > 0) {
        offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const auto now = Clock::now();
        if (now >= deadline) {
          note_timeout();
          return SendStatus::kTimeout;
        }
        pollfd waiter{peer.fd, POLLOUT, 0};
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
        ::poll(&waiter, 1, static_cast<int>(std::max<std::int64_t>(remaining.count(), 1)));
        continue;
      }
      link_failed = true;
      break;
    }
    if (!link_failed) {
      if (codec.delta) tx_parts_.commit_tx(tx_codec_state(self_, env.to));
      note_sent(frame_size, encoded_size(payload), link_class, env.to);
      obs::blackbox::record(
          obs::blackbox::EventType::kFrameTx,
          static_cast<std::uint16_t>(std::visit(
              [](const auto& p) { return std::decay_t<decltype(p)>::kMessageKind; },
              payload)),
          env.from, env.round, env.to, frame_size);
      return SendStatus::kOk;
    }
    untrack_fd(peer.fd);
    ::close(peer.fd);
    peer.fd = -1;
    peer.rx.clear();
    reset_codec_state(env.to);
    if (--attempts_left == 0 || peer.host.empty()) {
      drop_peer(env.to, peer, /*report=*/true);
      return SendStatus::kPeerLost;
    }
    note_retry();
    sleep_seconds(policy_.backoff_for(policy_.max_attempts - attempts_left - 1));
  }
}

std::size_t TcpTransport::poll(double timeout_s) {
  obs::blackbox::note_poll_tick();
  // Prune pending connections that died outside this call.
  std::erase_if(pending_, [](const PendingConn& conn) { return conn.fd < 0; });

  const int timeout_ms =
      timeout_s <= 0.0 ? 0 : static_cast<int>(timeout_s * 1000.0);
  // The kernel already holds the interest set; with nothing registered
  // epoll_wait degenerates to a plain sleep, matching the old empty-set
  // ::poll.  Only the ready descriptors come back — no O(peers) scan.
  if (reactor_.wait(timeout_ms, ready_fds_) == 0) return 0;

  // Partition the ready set to preserve the dispatch order the protocol
  // depends on: accept first, then pending conns (a reconnecting peer must
  // re-identify before its stale link is read), then peers in ascending
  // node id — the same order the old peers_-map walk produced, so one
  // tick's frames reach the handlers in an order that does not depend on
  // the order epoll reported readiness in.
  bool listen_ready = false;
  ready_pending_.clear();
  ready_peers_.clear();
  for (const int fd : ready_fds_) {
    if (listen_fd_ >= 0 && fd == listen_fd_) {
      listen_ready = true;
      continue;
    }
    const auto it = fd_peer_.find(fd);
    if (it != fd_peer_.end()) {
      ready_peers_.emplace_back(it->second, fd);
    } else {
      ready_pending_.push_back(fd);  // validated against pending_ below
    }
  }
  std::sort(ready_peers_.begin(), ready_peers_.end());

  std::size_t delivered = 0;
  if (listen_ready) accept_pending();
  // Index walk over pending_: read_pending never erases entries (it only
  // blanks fds), so indices stay stable, and walking in insertion order
  // keeps multi-conn identification deterministic whatever order epoll
  // reported readiness in.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const int fd = pending_[i].fd;
    if (fd < 0) continue;
    if (std::find(ready_pending_.begin(), ready_pending_.end(), fd) ==
        ready_pending_.end()) {
      continue;
    }
    delivered += read_pending(i);
  }
  std::erase_if(pending_, [](const PendingConn& conn) { return conn.fd < 0; });
  for (const auto& [id, fd] : ready_peers_) {
    const auto it = peers_.find(id);
    if (it == peers_.end() || it->second.fd != fd) continue;  // replaced mid-poll
    delivered += read_peer(it->first, it->second);
  }
  return delivered;
}

void TcpTransport::accept_pending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient error; retry next poll
    }
    tune_stream(fd);
    reactor_.add(fd);
    pending_.push_back({fd, {}});
  }
}

std::size_t TcpTransport::read_peer(NodeId id, Peer& peer) {
  bool eof = false;
  while (true) {
    // recv() straight into the ring: no intermediate stack buffer, no
    // insert-and-erase churn on a growable vector.
    const auto room = peer.rx.writable(kRecvChunk);
    const ssize_t n = ::recv(peer.fd, room.data(), room.size(), 0);
    if (n > 0) {
      peer.rx.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard error: treat like a dead link
    break;
  }
  bool framing_ok = true;
  const std::size_t delivered = drain_ring(peer, framing_ok);
  if (eof || !framing_ok) drop_peer(id, peer, /*report=*/true);
  return delivered;
}

std::size_t TcpTransport::read_pending(std::size_t index) {
  PendingConn& conn = pending_[index];
  std::uint8_t buf[kRecvChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.rx.insert(conn.rx.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {  // closed before identifying itself: nothing to report
      reactor_.remove(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
      return 0;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    reactor_.remove(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    return 0;
  }
  if (conn.rx.size() < kHeaderSize) return 0;

  // Wait for — and fully verify — the first frame before trusting its sender
  // id; a frame that fails the digest must not map this socket to a node.
  FrameView first;
  try {
    const std::size_t total = peek_frame_size({conn.rx.data(), kHeaderSize});
    if (conn.rx.size() < total) return 0;
    first = FrameView::parse({conn.rx.data(), total});
  } catch (const WireError&) {
    note_decode_error();
    reactor_.remove(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    return 0;
  }

  const NodeId from = first.env().from;
  const bool known = peers_.find(from) != peers_.end();
  Peer& peer = peers_[from];
  if (peer.fd >= 0) {  // reconnect replaces the stale link
    untrack_fd(peer.fd);
    ::close(peer.fd);
  }
  peer.fd = conn.fd;
  fd_peer_[conn.fd] = from;  // already in the reactor since accept
  peer.lost = false;
  peer.rx.clear();
  const auto room = peer.rx.writable(conn.rx.size());
  std::memcpy(room.data(), conn.rx.data(), conn.rx.size());
  peer.rx.commit(conn.rx.size());
  conn.rx.clear();
  conn.fd = -1;
  // A new connection means any delta base from the previous incarnation of
  // this link is gone on the peer's side too.
  reset_codec_state(from);
  // A known peer coming back on a fresh socket is a reconnect.  Announce it
  // BEFORE draining the buffered frames: a parent that evicted the peer on
  // the earlier loss re-admits it first, so the frames riding the new
  // connection (typically the retried model update) land in restored state.
  if (known && !peer.transient) note_peer_reconnect(from);
  bool framing_ok = true;
  const std::size_t delivered = drain_ring(peer, framing_ok);
  if (!framing_ok) drop_peer(from, peer, /*report=*/true);
  return delivered;
}

std::size_t TcpTransport::drain_ring(Peer& peer, bool& framing_ok) {
  framing_ok = true;
  // Stage 1: validate every complete frame in the ring BEFORE running any
  // handler, capturing non-owning views.  FrameView::parse checks framing,
  // digest, reserved bits and flags, so nothing semantically unvalidated is
  // ever handed to stage 2.
  std::vector<FrameView> batch;
  const auto data = peer.rx.readable();
  std::size_t pos = 0;
  while (pos + kHeaderSize <= data.size()) {
    try {
      const std::size_t total = peek_frame_size(data.subspan(pos, kHeaderSize));
      if (data.size() - pos < total) break;
      batch.push_back(FrameView::parse(data.subspan(pos, total)));
      pos += total;
    } catch (const WireError&) {
      // A stream cannot resynchronize after a framing error; the caller
      // drops the connection.
      note_decode_error();
      framing_ok = false;
      break;
    }
  }
  // Stage 2: dispatch.  A handler may reentrantly send()/connect_peer()/
  // drop this same peer; every such path clear()s the ring, which keeps the
  // memory alive (the captured views stay dereferenceable) but bumps its
  // generation — in that case the buffered bytes are gone and the final
  // consume must not run against stale offsets.
  const std::uint64_t generation = peer.rx.generation();
  std::size_t delivered = 0;
  for (const FrameView& view : batch) {
    try {
      deliver_frame(view, peer.link_class, handler_);
    } catch (const WireError&) {
      note_decode_error();
      framing_ok = false;
      break;
    }
    ++delivered;
  }
  if (peer.rx.generation() == generation) peer.rx.consume(pos);
  return delivered;
}

void TcpTransport::drop_peer(NodeId id, Peer& peer, bool report) {
  if (peer.fd >= 0) {
    untrack_fd(peer.fd);
    ::close(peer.fd);
    peer.fd = -1;
  }
  peer.rx.clear();
  reset_codec_state(id);
  if (report && !peer.lost && !peer.transient) {
    peer.lost = true;
    note_peer_loss(id);
  }
}

std::uint64_t TcpTransport::backlog_bytes(std::uint32_t link_class) const {
  std::uint64_t total = 0;
  for (const auto& [id, peer] : peers_) {
    if (peer.link_class == link_class) total += peer.rx.size();
  }
  return total;
}

void TcpTransport::close() {
  if (listen_fd_ >= 0) {
    reactor_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, peer] : peers_) {
    if (peer.fd >= 0) {
      untrack_fd(peer.fd);
      ::close(peer.fd);
      peer.fd = -1;
    }
  }
  for (PendingConn& conn : pending_) {
    if (conn.fd >= 0) {
      reactor_.remove(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  pending_.clear();
  fd_peer_.clear();
}

}  // namespace abdhfl::net
