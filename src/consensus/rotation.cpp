#include "consensus/rotation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace abdhfl::consensus::rotation {

namespace {

/// splitmix64: the deterministic hash behind the election-timeout draw.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(Role role) noexcept {
  switch (role) {
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
    case Role::kLeader: return "leader";
  }
  return "unknown";
}

const char* to_string(EntryType type) noexcept {
  switch (type) {
    case EntryType::kView: return "view";
    case EntryType::kModelCommit: return "model_commit";
    case EntryType::kMemberJoin: return "member_join";
    case EntryType::kMemberLeave: return "member_leave";
    case EntryType::kMemberEvict: return "member_evict";
  }
  return "unknown";
}

const char* to_string(ViewReason reason) noexcept {
  switch (reason) {
    case ViewReason::kNone: return "none";
    case ViewReason::kElected: return "elected";
    case ViewReason::kLeaderLost: return "leader_lost";
    case ViewReason::kMemberJoin: return "member_join";
    case ViewReason::kMemberLeave: return "member_leave";
    case ViewReason::kMemberEvict: return "member_evict";
  }
  return "unknown";
}

Node::Node(Config config) : config_(std::move(config)) {
  if (config_.members.empty()) {
    throw std::invalid_argument("rotation: empty committee");
  }
  std::sort(config_.members.begin(), config_.members.end());
  if (std::find(config_.members.begin(), config_.members.end(), config_.self) ==
      config_.members.end()) {
    throw std::invalid_argument("rotation: self is not a committee member");
  }
  if (config_.election_max_s <= config_.election_min_s) {
    config_.election_max_s = config_.election_min_s + config_.heartbeat_s;
  }
  next_index_.assign(config_.members.size(), 1);
  match_index_.assign(config_.members.size(), 0);
}

std::size_t Node::majority() const noexcept { return config_.members.size() / 2 + 1; }

std::uint64_t Node::term_at(std::uint64_t index) const noexcept {
  if (index == 0 || index > log_.size()) return 0;
  return log_[static_cast<std::size_t>(index) - 1].term;
}

double Node::draw_timeout(double now) const {
  const double span = config_.election_max_s - config_.election_min_s;
  double u;
  if (term_ == 0) {
    // First election: rank-staggered, so a quiet cluster deterministically
    // elects the lowest-ranked member (it times out strictly first).
    const auto rank = static_cast<double>(
        std::find(config_.members.begin(), config_.members.end(), config_.self) -
        config_.members.begin());
    u = rank / static_cast<double>(config_.members.size());
  } else {
    u = static_cast<double>(mix64(config_.seed ^ (config_.self * 0x51ED2701ULL) ^
                                  (term_ + 1)) >>
                            11) /
        static_cast<double>(1ULL << 53);
  }
  return now + config_.election_min_s + u * span;
}

void Node::reset_election_timer(double now) { election_deadline_ = draw_timeout(now); }

void Node::start(double now) {
  reset_election_timer(now);
  // A committee of one has nobody to wait for.
  if (config_.members.size() == 1) election_deadline_ = now;
}

void Node::send(NodeId to, net::Payload payload) {
  outbox_.push_back({to, std::move(payload)});
}

std::vector<Outgoing> Node::take_outbox() {
  std::vector<Outgoing> out;
  out.swap(outbox_);
  return out;
}

void Node::tick(double now) {
  if (role_ != Role::kLeader && now >= election_deadline_) {
    if (leader_ != kNoLeader) adopt_leader(kNoLeader, ViewReason::kLeaderLost);
    start_election(now);
  }
  if (role_ == Role::kLeader) {
    maybe_append_queued_membership();
    if (now >= heartbeat_at_) replicate(now, /*force=*/true);
  }
}

void Node::start_election(double now) {
  ++term_;
  role_ = Role::kCandidate;
  voted_for_ = config_.self;
  votes_.clear();
  votes_.insert(config_.self);
  reset_election_timer(now);
  if (votes_.size() >= majority()) {  // single-member committee
    become_leader(now);
    return;
  }
  net::VoteRequest req;
  req.term = term_;
  req.candidate = config_.self;
  req.last_log_index = last_index();
  req.last_log_term = term_at(last_index());
  for (const NodeId peer : config_.members) {
    if (peer != config_.self) send(peer, req);
  }
}

void Node::step_down(std::uint64_t term, double now) {
  term_ = term;
  role_ = Role::kFollower;
  voted_for_ = kNoLeader;
  votes_.clear();
  reset_election_timer(now);
}

void Node::adopt_leader(NodeId leader, ViewReason reason) {
  if (leader_ == leader) return;
  leader_ = leader;
  view_reason_ = reason;
  if (reason == ViewReason::kElected) ++elections_;
  if (on_leader_change) on_leader_change(term_, leader_, reason);
}

void Node::become_leader(double now) {
  role_ = Role::kLeader;
  // Proposals queued during an earlier leadership stint are stale — the
  // owner re-derives pending membership from its own buffers on election.
  membership_queue_.clear();
  for (std::size_t i = 0; i < config_.members.size(); ++i) {
    next_index_[i] = last_index() + 1;
    match_index_[i] = config_.members[i] == config_.self ? last_index() : 0;
  }
  adopt_leader(config_.self, ViewReason::kElected);
  // The no-op view entry: committing it (at this term) commits every
  // prior-term entry beneath it — Raft's rule that a leader never counts
  // replicas of old-term entries directly.
  net::RaftLogEntry view;
  view.term = term_;
  view.index = last_index() + 1;
  view.type = static_cast<std::uint16_t>(EntryType::kView);
  view.round = term_;
  log_.push_back(std::move(view));
  advance_commit();  // single-member committee commits instantly
  heartbeat_at_ = now;
  replicate(now, /*force=*/true);
}

void Node::on_vote_request(const net::VoteRequest& m, double now) {
  if (m.term > term_) step_down(m.term, now);
  bool grant = false;
  if (m.term == term_ && role_ != Role::kLeader &&
      (voted_for_ == kNoLeader || voted_for_ == m.candidate)) {
    // Up-to-dateness restriction: never elect a log that is behind ours —
    // this is what keeps committed model entries alive across failovers.
    const std::uint64_t our_last_term = term_at(last_index());
    grant = m.last_log_term > our_last_term ||
            (m.last_log_term == our_last_term && m.last_log_index >= last_index());
  }
  if (grant) {
    voted_for_ = m.candidate;
    reset_election_timer(now);
  }
  net::VoteReply reply;
  reply.term = term_;
  reply.voter = config_.self;
  reply.granted = grant ? 1 : 0;
  send(m.candidate, reply);
}

void Node::on_vote_reply(const net::VoteReply& m, double now) {
  if (m.term > term_) {
    step_down(m.term, now);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || m.granted == 0) return;
  votes_.insert(m.voter);
  if (votes_.size() >= majority()) become_leader(now);
}

void Node::on_append_entries(net::AppendEntries& m, double now) {
  if (m.term < term_) {
    net::Heartbeat nack;
    nack.term = term_;
    nack.node = config_.self;
    nack.ack = 1;
    nack.success = 0;
    nack.commit_index = commit_;
    nack.match_index = last_index();
    send(m.leader, nack);
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) step_down(m.term, now);
  reset_election_timer(now);
  adopt_leader(m.leader, ViewReason::kElected);

  net::Heartbeat reply;
  reply.term = term_;
  reply.node = config_.self;
  reply.ack = 1;
  if (m.prev_log_index > last_index() ||
      term_at(m.prev_log_index) != m.prev_log_term) {
    reply.success = 0;
    reply.commit_index = commit_;
    reply.match_index = std::min(last_index(), m.prev_log_index);
    send(m.leader, reply);
    return;
  }
  std::uint64_t index = m.prev_log_index;
  for (net::RaftLogEntry& entry : m.entries) {
    ++index;
    if (index <= last_index()) {
      if (term_at(index) == entry.term) continue;  // already have it
      // Conflicting suffix from a deposed leader: truncate, then append.
      log_.resize(static_cast<std::size_t>(index) - 1);
    }
    entry.index = index;
    log_.push_back(std::move(entry));
  }
  if (m.commit_index > commit_) {
    commit_ = std::min(m.commit_index, last_index());
    apply_committed();
  }
  reply.success = 1;
  reply.commit_index = commit_;
  reply.match_index = index;
  send(m.leader, reply);
}

void Node::on_heartbeat(const net::Heartbeat& m, double now) {
  if (m.term > term_) step_down(m.term, now);
  if (m.ack == 0) {
    // Leader keepalive.  Keepalives only flow to fully-matched followers
    // (the leader probes with AppendEntries until match == last), so
    // advancing commit from one is safe.
    if (m.term != term_ || role_ == Role::kLeader) return;
    if (role_ == Role::kCandidate) step_down(m.term, now);
    reset_election_timer(now);
    adopt_leader(m.node, ViewReason::kElected);
    if (m.commit_index > commit_) {
      commit_ = std::min(m.commit_index, last_index());
      apply_committed();
    }
    // Ack the keepalive so the leader can see how far this follower has
    // committed — what lets it hold its own shutdown until the final commit
    // index has propagated to every live member.
    net::Heartbeat ack;
    ack.term = term_;
    ack.node = config_.self;
    ack.ack = 1;
    ack.success = 1;
    ack.commit_index = commit_;
    ack.match_index = last_index();
    send(m.node, ack);
    return;
  }
  // Follower ack.
  if (role_ != Role::kLeader || m.term != term_) return;
  const auto it =
      std::find(config_.members.begin(), config_.members.end(), m.node);
  if (it == config_.members.end()) return;
  const auto i = static_cast<std::size_t>(it - config_.members.begin());
  if (m.success != 0) {
    match_index_[i] = std::max(match_index_[i], m.match_index);
    next_index_[i] = match_index_[i] + 1;
    advance_commit();
  } else {
    // Fast log backoff: jump straight behind the follower's last index.
    next_index_[i] = std::max<std::uint64_t>(
        1, std::min(next_index_[i] > 1 ? next_index_[i] - 1 : 1, m.match_index + 1));
    send_to_peer(m.node, now);
  }
}

void Node::on_peer_loss(NodeId peer, double now) {
  if (role_ != Role::kLeader && peer == leader_ && leader_ != kNoLeader) {
    // The leader's link died: no reason to sit out the remaining timeout.
    adopt_leader(kNoLeader, ViewReason::kLeaderLost);
    election_deadline_ = now;
  }
}

void Node::send_to_peer(NodeId peer, double now) {
  const auto it = std::find(config_.members.begin(), config_.members.end(), peer);
  if (it == config_.members.end() || peer == config_.self) return;
  const auto i = static_cast<std::size_t>(it - config_.members.begin());
  if (match_index_[i] >= last_index()) {
    net::Heartbeat beat;
    beat.term = term_;
    beat.node = config_.self;
    beat.ack = 0;
    beat.commit_index = commit_;
    send(peer, beat);
    return;
  }
  net::AppendEntries append;
  append.term = term_;
  append.leader = config_.self;
  append.prev_log_index = next_index_[i] - 1;
  append.prev_log_term = term_at(append.prev_log_index);
  append.commit_index = commit_;
  const auto first = static_cast<std::size_t>(next_index_[i]) - 1;
  const std::size_t count =
      std::min(config_.max_batch, log_.size() - std::min(first, log_.size()));
  append.entries.assign(log_.begin() + static_cast<std::ptrdiff_t>(first),
                        log_.begin() + static_cast<std::ptrdiff_t>(first + count));
  send(peer, std::move(append));
  (void)now;
}

void Node::replicate(double now, bool force) {
  if (role_ != Role::kLeader) return;
  if (!force && now < heartbeat_at_) return;
  for (const NodeId peer : config_.members) {
    if (peer != config_.self) send_to_peer(peer, now);
  }
  heartbeat_at_ = now + config_.heartbeat_s;
}

std::uint64_t Node::append_model_commit(std::uint64_t round, std::vector<float> params,
                                        std::uint64_t inputs) {
  if (role_ != Role::kLeader) return 0;
  net::RaftLogEntry entry;
  entry.term = term_;
  entry.index = last_index() + 1;
  entry.type = static_cast<std::uint16_t>(EntryType::kModelCommit);
  entry.round = round;
  entry.samples = inputs;
  entry.params = std::move(params);
  log_.push_back(std::move(entry));
  advance_commit();  // single-member committee commits instantly
  return last_index();
}

void Node::propose_membership(net::RaftLogEntry entry) {
  if (role_ != Role::kLeader) return;
  membership_queue_.push_back(std::move(entry));
  maybe_append_queued_membership();
}

bool Node::membership_in_flight() const noexcept {
  // A QUEUED change counts too: the caller must not close a quorum between
  // one view change committing and the next entering the log, or a joiner
  // whose admission is already accepted would silently miss the round.
  return !membership_queue_.empty() || membership_uncommitted();
}

bool Node::membership_uncommitted() const noexcept {
  for (std::uint64_t i = commit_ + 1; i <= last_index(); ++i) {
    const auto type =
        static_cast<EntryType>(log_[static_cast<std::size_t>(i) - 1].type);
    if (type == EntryType::kMemberJoin || type == EntryType::kMemberLeave ||
        type == EntryType::kMemberEvict) {
      return true;
    }
  }
  return false;
}

void Node::maybe_append_queued_membership() {
  if (role_ != Role::kLeader) return;
  // Single-change-at-a-time view changes: the next queued membership entry
  // enters the log only after every previous one committed, so no two view
  // changes are ever concurrently in flight across a leader change.
  while (!membership_queue_.empty() && !membership_uncommitted()) {
    net::RaftLogEntry entry = std::move(membership_queue_.front());
    membership_queue_.pop_front();
    entry.term = term_;
    entry.index = last_index() + 1;
    log_.push_back(std::move(entry));
    advance_commit();  // single-member committee commits instantly
  }
}

void Node::advance_commit() {
  if (role_ != Role::kLeader) return;
  const auto self_it =
      std::find(config_.members.begin(), config_.members.end(), config_.self);
  match_index_[static_cast<std::size_t>(self_it - config_.members.begin())] =
      last_index();
  for (std::uint64_t n = last_index(); n > commit_; --n) {
    if (term_at(n) != term_) break;  // only own-term entries commit by count
    std::size_t replicas = 0;
    for (const std::uint64_t match : match_index_) {
      if (match >= n) ++replicas;
    }
    if (replicas >= majority()) {
      commit_ = n;
      break;
    }
  }
  apply_committed();
  // The commit may have been the membership change the queue was waiting
  // on: admit the next one NOW.  Waiting for the next tick would leave a
  // window where nothing is in flight and a round could close without a
  // joiner that is already accepted.
  maybe_append_queued_membership();
}

void Node::apply_committed() {
  while (applied_ < commit_) {
    ++applied_;
    const net::RaftLogEntry& entry = log_[static_cast<std::size_t>(applied_) - 1];
    switch (static_cast<EntryType>(entry.type)) {
      case EntryType::kMemberJoin: view_reason_ = ViewReason::kMemberJoin; break;
      case EntryType::kMemberLeave: view_reason_ = ViewReason::kMemberLeave; break;
      case EntryType::kMemberEvict: view_reason_ = ViewReason::kMemberEvict; break;
      default: break;
    }
    if (on_commit) on_commit(entry);
  }
}

}  // namespace abdhfl::consensus::rotation
