// Unit tests for src/net: wire codec round-trips (every message kind,
// bitwise parameter fidelity, quantized links), corruption rejection,
// stream framing (peek_frame_size), the wire-size accounting helpers and
// their agreement with the legacy nn::wire_size estimate, the loopback
// transport in both delivery modes, the retry/backoff policy, and a real
// TCP link exchanging frames on localhost.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/hier/reference.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace abdhfl::net {
namespace {

std::vector<float> test_params(std::size_t n) {
  std::vector<float> params(n);
  for (std::size_t i = 0; i < n; ++i) {
    params[i] = std::sin(0.1f * static_cast<float>(i)) * 3.0f - 1.0f;
  }
  return params;
}

// Drive two transports until `done` or the iteration cap — the TCP tests run
// both endpoints on one thread, so frames move only while both sides poll.
bool pump(Transport& a, Transport& b, const std::function<bool()>& done,
          int max_iters = 400) {
  for (int i = 0; i < max_iters && !done(); ++i) {
    a.poll(0.01);
    b.poll(0.01);
  }
  return done();
}

TEST(Wire, RoundTripModelUpdateBitwise) {
  ModelUpdate update;
  update.sender = 7;
  update.level = 2;
  update.samples = 1234;
  update.params = test_params(33);

  const Envelope env{3, 9, 42};
  const auto frame = encode_frame(env, update);
  const auto decoded = decode_frame(frame);

  EXPECT_EQ(decoded.env.from, 3u);
  EXPECT_EQ(decoded.env.to, 9u);
  EXPECT_EQ(decoded.env.round, 42u);
  EXPECT_EQ(decoded.kind, MsgKind::kModelUpdate);
  EXPECT_FALSE(decoded.quantized);
  const auto& out = std::get<ModelUpdate>(decoded.payload);
  EXPECT_EQ(out.sender, 7u);
  EXPECT_EQ(out.level, 2u);
  EXPECT_EQ(out.samples, 1234u);
  ASSERT_EQ(out.params.size(), update.params.size());
  EXPECT_EQ(std::memcmp(out.params.data(), update.params.data(),
                        update.params.size() * sizeof(float)),
            0);
}

TEST(Wire, RoundTripPartialModelBitwise) {
  PartialModel partial;
  partial.origin = 11;
  partial.flag_level = 1;
  partial.is_global = true;
  partial.alpha = 0.625f;
  partial.flag_fraction = 0.375;
  partial.params = test_params(17);

  const auto frame = encode_frame({11, 5, 3}, partial);
  const auto decoded = decode_frame(frame);

  EXPECT_EQ(decoded.kind, MsgKind::kPartialModel);
  const auto& out = std::get<PartialModel>(decoded.payload);
  EXPECT_EQ(out.origin, 11u);
  EXPECT_EQ(out.flag_level, 1u);
  EXPECT_TRUE(out.is_global);
  EXPECT_EQ(out.alpha, 0.625f);
  EXPECT_EQ(out.flag_fraction, 0.375);
  ASSERT_EQ(out.params.size(), partial.params.size());
  EXPECT_EQ(std::memcmp(out.params.data(), partial.params.data(),
                        partial.params.size() * sizeof(float)),
            0);
}

TEST(Wire, RoundTripConsensusVote) {
  ConsensusVote vote;
  vote.voter = 4;
  vote.candidate = 2;
  vote.score = 0.875f;
  vote.accept = true;

  const auto frame = encode_frame({4, 0, 6}, vote);
  EXPECT_EQ(frame.size(), vote_wire_size());
  const auto decoded = decode_frame(frame);

  EXPECT_EQ(decoded.kind, MsgKind::kConsensusVote);
  const auto& out = std::get<ConsensusVote>(decoded.payload);
  EXPECT_EQ(out.voter, 4u);
  EXPECT_EQ(out.candidate, 2u);
  EXPECT_EQ(out.score, 0.875f);
  EXPECT_TRUE(out.accept);
}

TEST(Wire, RoundTripMembership) {
  Membership member;
  member.event = Membership::Event::kJoin;
  member.device = 9;
  member.cluster = 3;
  member.subtree_samples = 480;
  member.codec.quantize_bits = 8;
  member.codec.block = 128;

  const auto frame = encode_frame({9, 0, 0}, member);
  EXPECT_EQ(frame.size(), membership_wire_size());
  const auto decoded = decode_frame(frame);

  EXPECT_EQ(decoded.kind, MsgKind::kMembership);
  const auto& out = std::get<Membership>(decoded.payload);
  EXPECT_EQ(out.event, Membership::Event::kJoin);
  EXPECT_EQ(out.device, 9u);
  EXPECT_EQ(out.cluster, 3u);
  EXPECT_EQ(out.subtree_samples, 480u);
  EXPECT_EQ(out.codec.quantize_bits, 8);
  EXPECT_EQ(out.codec.block, 128u);
}

TEST(Wire, QuantizedLinkShrinksModelFrames) {
  ModelUpdate update;
  update.params = test_params(512);

  Codec codec;
  codec.quantize_bits = 8;
  const auto raw = encode_frame({1, 2, 0}, update);
  const auto packed = encode_frame({1, 2, 0}, update, codec);
  EXPECT_LT(packed.size(), raw.size() / 2);  // ~4x for 8-bit blocks

  const auto decoded = decode_frame(packed);
  EXPECT_TRUE(decoded.quantized);
  const auto& out = std::get<ModelUpdate>(decoded.payload);
  ASSERT_EQ(out.params.size(), update.params.size());
  for (std::size_t i = 0; i < out.params.size(); ++i) {
    EXPECT_NEAR(out.params[i], update.params[i], 0.05f) << "i=" << i;
  }
}

TEST(Wire, SizeHelpersMatchEncodedFrames) {
  ModelUpdate update;
  update.params = test_params(29);
  PartialModel partial;
  partial.params = test_params(29);
  const ConsensusVote vote;
  const Membership member;

  EXPECT_EQ(encode_frame({1, 2, 0}, update).size(), model_update_wire_size(29));
  EXPECT_EQ(encode_frame({1, 2, 0}, partial).size(), partial_model_wire_size(29));
  EXPECT_EQ(encode_frame({1, 2, 0}, vote).size(), vote_wire_size());
  EXPECT_EQ(encode_frame({1, 2, 0}, member).size(), membership_wire_size());

  EXPECT_EQ(encoded_size(Payload{update}), model_update_wire_size(29));
  EXPECT_EQ(encoded_size(Payload{partial}), partial_model_wire_size(29));
  EXPECT_EQ(encoded_size(Payload{vote}), vote_wire_size());
  EXPECT_EQ(encoded_size(Payload{member}), membership_wire_size());
}

TEST(Wire, CodecSizesAgreeWithLegacyEstimate) {
  // The old accounting hand-computed nn::wire_size(n) per transfer; the codec
  // size is that estimate plus the frame overhead and the kind's fixed body
  // fields, minus the 16 bytes of blob magic, version and digest a dense
  // section does not carry.  The estimate must stay available (and
  // consistent) as the documented fallback.
  for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{1000}}) {
    EXPECT_EQ(estimated_model_bytes(n), nn::wire_size(n));
    EXPECT_EQ(model_update_wire_size(n),
              estimated_model_bytes(n) + frame_overhead() + 16 - 16);
    EXPECT_EQ(partial_model_wire_size(n),
              estimated_model_bytes(n) + frame_overhead() + 21 - 16);
  }
  ModelUpdate update;
  update.params = test_params(64);
  EXPECT_EQ(estimated_payload_bytes(Payload{update}), nn::wire_size(64));
  EXPECT_EQ(estimated_payload_bytes(Payload{ConsensusVote{}}), 0u);
}

TEST(Wire, RejectsCorruptFrames) {
  ModelUpdate update;
  update.params = test_params(8);
  const auto good = encode_frame({1, 2, 3}, update);

  // Truncation anywhere: header, body, digest.
  for (std::size_t keep : {std::size_t{0}, std::size_t{10}, kHeaderSize,
                           good.size() - kDigestSize, good.size() - 1}) {
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)decode_frame(cut), WireError) << "keep=" << keep;
  }

  auto bad = good;
  bad.back() ^= 0x01;  // digest trailer
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;
  bad[kHeaderSize] ^= 0xFF;  // body byte (caught by the digest)
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;
  bad[4] += 1;  // version
  EXPECT_THROW((void)decode_frame(bad), WireError);

  // Byte-swapped (big-endian) magic gets a distinct, explanatory error.
  bad = good;
  std::reverse(bad.begin(), bad.begin() + 4);
  try {
    (void)decode_frame(bad);
    FAIL() << "byte-swapped frame accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos);
  }
}

TEST(Wire, PeekFrameSizeFramesAStream) {
  ModelUpdate update;
  update.params = test_params(5);
  const auto frame = encode_frame({1, 2, 3}, update);

  EXPECT_EQ(peek_frame_size(frame), frame.size());
  EXPECT_EQ(peek_frame_size(std::span(frame.data(), kHeaderSize)), frame.size());
  EXPECT_THROW((void)peek_frame_size(std::span(frame.data(), kHeaderSize - 1)),
               WireError);

  auto bad = frame;
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)peek_frame_size(bad), WireError);
}

TEST(Loopback, FifoDeliveryAndStats) {
  LoopbackTransport transport;
  std::vector<std::uint32_t> seen_by_2;
  bool seen_by_1 = false;
  transport.register_node(1, [&](const WireMessage& msg) {
    seen_by_1 = true;
    EXPECT_EQ(msg.kind, MsgKind::kPartialModel);
  });
  transport.register_node(2, [&](const WireMessage& msg) {
    seen_by_2.push_back(std::get<ModelUpdate>(msg.payload).sender);
  });

  ModelUpdate update;
  update.params = test_params(4);
  update.sender = 10;
  EXPECT_EQ(transport.send({1, 2, 0}, update), SendStatus::kOk);
  update.sender = 11;
  EXPECT_EQ(transport.send({1, 2, 0}, update), SendStatus::kOk);
  PartialModel partial;
  partial.params = test_params(4);
  EXPECT_EQ(transport.send({2, 1, 0}, partial), SendStatus::kOk);
  EXPECT_EQ(transport.send({1, 99, 0}, update), SendStatus::kNoRoute);

  EXPECT_EQ(transport.poll(0.0), 3u);
  ASSERT_EQ(seen_by_2.size(), 2u);
  EXPECT_EQ(seen_by_2[0], 10u);  // FIFO order
  EXPECT_EQ(seen_by_2[1], 11u);
  EXPECT_TRUE(seen_by_1);

  const auto& stats = transport.stats();
  EXPECT_EQ(stats.frames_sent, 3u);
  EXPECT_EQ(stats.frames_received, 3u);
  EXPECT_EQ(stats.bytes_sent, 2 * model_update_wire_size(4) + partial_model_wire_size(4));
  EXPECT_EQ(stats.bytes_sent, stats.bytes_received);
}

TEST(Loopback, NegotiatedCodecAppliesPerPeer) {
  LoopbackTransport transport;
  bool got_quantized = false;
  transport.register_node(2, [&](const WireMessage& msg) {
    got_quantized = msg.quantized;
  });
  transport.set_peer_codec(1, 2, Codec{8, 256});

  ModelUpdate update;
  update.params = test_params(300);
  transport.send({1, 2, 0}, update);
  transport.poll(0.0);
  EXPECT_TRUE(got_quantized);
  EXPECT_LT(transport.stats().bytes_sent, model_update_wire_size(300) / 2);
}

TEST(Loopback, SimBackedFramesCarryRealAndEstimatedBytes) {
  sim::Simulator simulator;
  util::Rng rng(3);
  sim::Network network(simulator, rng);
  network.set_default_latency(std::make_unique<sim::FixedLatency>(0.1));

  LoopbackTransport transport(simulator, network);
  std::size_t delivered_params = 0;
  transport.register_node(2, [&](const WireMessage& msg) {
    delivered_params = std::get<ModelUpdate>(msg.payload).params.size();
  });

  // Observe the raw sim::Message the bridge emits: `bytes` must be the real
  // encoded frame size and `bytes_estimated` the legacy caller estimate.
  sim::Message seen;
  network.register_node(2, [&](const sim::Message& msg) { seen = msg; });

  ModelUpdate update;
  update.params = test_params(50);
  EXPECT_EQ(transport.send({1, 2, 7}, update, /*link_class=*/1), SendStatus::kOk);
  simulator.run();

  EXPECT_EQ(seen.kind, EncodedFrame::kMessageKind);
  EXPECT_EQ(seen.bytes, model_update_wire_size(50));
  EXPECT_EQ(seen.bytes_estimated, nn::wire_size(50));
  EXPECT_EQ(seen.bytes, seen.bytes_estimated + frame_overhead() + 16 - 16);
  EXPECT_EQ(network.totals().bytes, model_update_wire_size(50));
  EXPECT_EQ(network.class_totals(1).messages, 1u);

  // And the bridged handler path still decodes frames end to end.
  const auto& frame = sim::payload_cast<EncodedFrame>(seen);
  const auto decoded = decode_frame(frame.bytes);
  EXPECT_EQ(std::get<ModelUpdate>(decoded.payload).params.size(), 50u);
}

TEST(Transport, RetryPolicyBackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.05;
  policy.backoff_factor = 2.0;
  policy.max_backoff_s = 0.3;
  EXPECT_DOUBLE_EQ(policy.backoff_for(0), 0.05);
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 0.1);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3), 0.3);   // capped
  EXPECT_DOUBLE_EQ(policy.backoff_for(10), 0.3);  // stays capped
}

TEST(Tcp, LocalhostExchangeAndPeerLoss) {
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  fast.send_timeout_s = 2.0;

  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  ASSERT_GT(port, 0);

  bool root_got_join = false;
  bool worker_got_echo = false;
  NodeId lost_peer = 999;
  root.register_node(0, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kMembership) root_got_join = true;
  });
  root.add_peer_loss_handler([&](NodeId peer) { lost_peer = peer; });

  TcpTransport worker(5, fast);
  worker.register_node(5, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kMembership) worker_got_echo = true;
  });
  ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));

  // The root learns the worker's id from its first verified frame.
  Membership join;
  join.event = Membership::Event::kJoin;
  join.device = 5;
  EXPECT_EQ(worker.send({5, 0, 0}, join), SendStatus::kOk);
  ASSERT_TRUE(pump(root, worker, [&] { return root_got_join; }));

  Membership echo = join;
  EXPECT_EQ(root.send({0, 5, 0}, echo), SendStatus::kOk);
  ASSERT_TRUE(pump(root, worker, [&] { return worker_got_echo; }));

  EXPECT_GE(root.stats().frames_received, 1u);
  EXPECT_GE(root.stats().bytes_sent, membership_wire_size());
  EXPECT_EQ(root.stats().decode_errors, 0u);

  // Unannounced close = crash: the root must report the peer loss.
  worker.close();
  ASSERT_TRUE(pump(root, worker, [&] { return lost_peer != 999; }));
  EXPECT_EQ(lost_peer, 5u);
  EXPECT_EQ(root.stats().peer_losses, 1u);
  root.close();
}

TEST(Tcp, ExpectedCloseIsNotChurn) {
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;

  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  bool got_leave = false;
  NodeId lost_peer = 999;
  root.register_node(0, [&](const WireMessage& msg) {
    const auto& member = std::get<Membership>(msg.payload);
    if (member.event == Membership::Event::kLeave) {
      got_leave = true;
      root.expect_close(msg.env.from);  // graceful: suppress the EOF report
    }
  });
  root.add_peer_loss_handler([&](NodeId peer) { lost_peer = peer; });

  TcpTransport worker(7, fast);
  worker.register_node(7, [](const WireMessage&) {});
  ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));

  Membership leave;
  leave.event = Membership::Event::kLeave;
  leave.device = 7;
  EXPECT_EQ(worker.send({7, 0, 0}, leave), SendStatus::kOk);
  ASSERT_TRUE(pump(root, worker, [&] { return got_leave; }));

  worker.close();
  pump(root, worker, [] { return false; }, 50);  // drain the EOF
  EXPECT_EQ(lost_peer, 999u);  // no loss reported
  EXPECT_EQ(root.stats().peer_losses, 0u);
  root.close();
}

TEST(Tcp, NoRouteWithoutLink) {
  TcpTransport node(3);
  node.register_node(3, [](const WireMessage&) {});
  EXPECT_EQ(node.send({3, 4, 0}, ConsensusVote{}), SendStatus::kNoRoute);
}

// The wire v5 frame digest, reimplemented independently of the codec: FNV-1a
// 64 over little-endian words, word i into lane i % 8, the zero-padded
// partial stripe folded last, then the eight lanes and the byte count folded
// into one value.  The digest is an integrity check, not a MAC, so a
// connected peer can forge it — these tests do.
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t forge_frame_digest(const std::uint8_t* data, std::size_t n) {
  constexpr std::size_t kLanes = 8;
  std::uint64_t lanes[kLanes];
  std::fill(std::begin(lanes), std::end(lanes), kFnvOffset);
  const std::size_t padded = (n + 8 * kLanes - 1) / (8 * kLanes) * (8 * kLanes);
  for (std::size_t i = 0; i < padded; i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
      word |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    }
    std::uint64_t& lane = lanes[(i / 8) % kLanes];
    lane = (lane ^ word) * kFnvPrime;
  }
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t lane : lanes) h = (h ^ lane) * kFnvPrime;
  return (h ^ static_cast<std::uint64_t>(n)) * kFnvPrime;
}

// The wire v2-v4 frame digest: one serial chain of full words, then the
// partial tail word and its length.  Only forges previous-version frames.
std::uint64_t forge_v4_frame_digest(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    h ^= word;
    h *= kFnvPrime;
  }
  std::uint64_t pending = 0;
  for (std::size_t b = 0; i < n; ++i, ++b) {
    pending |= static_cast<std::uint64_t>(data[i]) << (8 * b);
  }
  h ^= pending;
  h *= kFnvPrime;
  h ^= static_cast<std::uint64_t>(n % 8);
  h *= kFnvPrime;
  return h;
}

void refresh_digest(std::vector<std::uint8_t>& frame) {
  const std::uint64_t digest =
      forge_frame_digest(frame.data(), frame.size() - kDigestSize);
  std::memcpy(frame.data() + frame.size() - kDigestSize, &digest, sizeof digest);
}

TEST(Wire, ForgedParamCountCannotDriveAllocation) {
  // A forged parameter count must be rejected against the bytes actually
  // present before it sizes any allocation: std::length_error/bad_alloc are
  // not WireError and would escape the transports' decode-error handling.
  ModelUpdate update;
  update.params = test_params(64);

  // Raw path: the dense count lives right after the fixed fields, at body
  // offset 16.  1<<62 makes the naive count*4 size check wrap to 0.
  auto raw = encode_frame({1, 2, 0}, update);
  std::uint64_t huge = std::uint64_t{1} << 62;
  std::memcpy(raw.data() + kHeaderSize + 16, &huge, sizeof huge);
  refresh_digest(raw);
  EXPECT_THROW((void)decode_frame(raw), WireError);

  // Quantized path: count lives after bits(1)+block(4) at body offset 21.
  // 1<<61 would resize the per-block scale/min vectors to ~2^55 entries.
  Codec codec;
  codec.quantize_bits = 8;
  codec.block = 64;
  auto packed = encode_frame({1, 2, 0}, update, codec);
  huge = std::uint64_t{1} << 61;
  std::memcpy(packed.data() + kHeaderSize + 21, &huge, sizeof huge);
  refresh_digest(packed);
  EXPECT_THROW((void)decode_frame(packed), WireError);
}

TEST(Wire, FrameDigestChainsAcrossPartSplits) {
  // 33 floats: a 196-byte frame whose 188 digested bytes end in a partial
  // stripe, so the zero-padded tail is exercised too.
  ModelUpdate update;
  update.sender = 3;
  update.params = test_params(33);
  const auto frame = encode_frame({1, 2, 5}, update);
  ASSERT_EQ(frame.size(), 196u);
  const std::span<const std::uint8_t> covered(frame.data(), frame.size() - kDigestSize);
  std::uint64_t trailer;
  std::memcpy(&trailer, frame.data() + covered.size(), sizeof trailer);
  EXPECT_EQ(forge_frame_digest(covered.data(), covered.size()), trailer);

  // Head / inline payload / tail split at every pair of offsets in 0..96.
  for (std::size_t a = 0; a <= 96; ++a) {
    for (std::size_t b = a; b <= 96; ++b) {
      FrameDigest digest;
      digest.update(covered.first(a));
      digest.update(covered.subspan(a, b - a));
      digest.update(covered.subspan(b));
      ASSERT_EQ(digest.value(), trailer) << "split at " << a << ", " << b;
    }
  }

  // One flipped bit at any byte offset — header, body or digest — is refused.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_THROW((void)FrameView::parse(bad), WireError) << "offset " << i;
  }
}

TEST(Wire, EmptyParamSectionsRoundTrip) {
  // A 0-param dense section is just its count; every reader hands back an
  // empty vector without copying from or into a null pointer.
  ModelUpdate update;
  update.sender = 4;
  update.samples = 9;
  const auto frame = encode_frame({4, 0, 1}, update);
  EXPECT_EQ(frame.size(), model_update_wire_size(0));
  const auto decoded = std::get<ModelUpdate>(decode_frame(frame).payload);
  EXPECT_EQ(decoded.sender, 4u);
  EXPECT_EQ(decoded.samples, 9u);
  EXPECT_TRUE(decoded.params.empty());
  const FrameView view = FrameView::parse(frame);
  EXPECT_EQ(peek_model_update(view).param_count, 0u);
  std::vector<float> scratch;
  EXPECT_TRUE(model_update_params(view, nullptr, scratch).empty());

  PartialModel partial;
  partial.is_global = true;
  const auto partial_frame = encode_frame({0, 4, 1}, partial);
  EXPECT_EQ(partial_frame.size(), partial_model_wire_size(0));
  EXPECT_TRUE(std::get<PartialModel>(decode_frame(partial_frame).payload).params.empty());

  // A membership log entry carries no model.
  AppendEntries append;
  append.term = 2;
  append.leader = 100;
  RaftLogEntry join;
  join.term = 2;
  join.index = 1;
  join.type = 2;
  join.subject = 7;
  join.samples = 40;
  append.entries.push_back(join);
  const auto out = std::get<AppendEntries>(decode_frame(encode_frame({100, 101, 0}, append)).payload);
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].subject, 7u);
  EXPECT_EQ(out.entries[0].samples, 40u);
  EXPECT_TRUE(out.entries[0].params.empty());
}

TEST(Wire, PreviousVersionFrameRefused) {
  // A v4 join, hand-built with a valid v4 digest (the body layout of a
  // membership frame did not change in v5, only the version and digest).
  Membership join;
  join.event = Membership::Event::kJoin;
  join.device = 5;
  auto v4 = encode_frame({5, 0, 0}, join);
  const std::uint16_t version = 4;
  std::memcpy(v4.data() + 4, &version, sizeof version);
  const std::uint64_t v4_digest = forge_v4_frame_digest(v4.data(), v4.size() - kDigestSize);
  std::memcpy(v4.data() + v4.size() - kDigestSize, &v4_digest, sizeof v4_digest);
  try {
    (void)FrameView::parse(v4);
    FAIL() << "v4 frame accepted";
  } catch (const WireError& e) {
    EXPECT_STREQ(e.what(), "unsupported wire version 4");
  }

  // Loopback: one decode error, no handler call; a v5 join still lands.
  {
    sim::Simulator simulator;
    util::Rng rng(5);
    sim::Network network(simulator, rng);
    network.set_default_latency(std::make_unique<sim::FixedLatency>(0.1));
    LoopbackTransport transport(simulator, network);
    int joins = 0;
    transport.register_node(0, [&](const WireMessage&) { ++joins; });
    sim::Message msg;
    msg.from = 5;
    msg.to = 0;
    msg.kind = EncodedFrame::kMessageKind;
    msg.bytes = v4.size();
    msg.payload = std::make_shared<const EncodedFrame>(EncodedFrame{v4, 0});
    network.send(std::move(msg), 0);
    simulator.run();
    EXPECT_EQ(transport.stats().decode_errors, 1u);
    EXPECT_EQ(joins, 0);
    EXPECT_EQ(transport.send({5, 0, 0}, join), SendStatus::kOk);
    simulator.run();
    EXPECT_EQ(joins, 1);
    EXPECT_EQ(transport.stats().decode_errors, 1u);
  }

  // TCP: the listener drops the v4 connection and keeps serving v5 peers.
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  ASSERT_GT(port, 0);
  int joins = 0;
  root.register_node(0, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kMembership) ++joins;
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::send(fd, v4.data(), v4.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(v4.size()));
  for (int i = 0; i < 400 && root.stats().decode_errors == 0; ++i) root.poll(0.01);
  EXPECT_EQ(root.stats().decode_errors, 1u);
  EXPECT_EQ(joins, 0);
  timeval timeout{2, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  char byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET)) << "connection not dropped";
  ::close(fd);

  TcpTransport worker(6, fast);
  worker.register_node(6, [](const WireMessage&) {});
  ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));
  join.device = 6;
  EXPECT_EQ(worker.send({6, 0, 0}, join), SendStatus::kOk);
  ASSERT_TRUE(pump(root, worker, [&] { return joins == 1; }));
  EXPECT_EQ(root.stats().decode_errors, 1u);
}

TEST(Tcp, HandlerReentrantLinkMutationDoesNotCorruptDrain) {
  // Handlers run inside the frame drain and may reentrantly kill the very
  // link being drained (send() failure or an explicit redial both clear the
  // peer's receive buffer).  Every frame already buffered must still be
  // delivered, without touching freed memory.
  RetryPolicy fast;
  fast.max_attempts = 1;
  fast.initial_backoff_s = 0.005;
  fast.max_backoff_s = 0.01;
  fast.connect_timeout_s = 0.5;

  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  int delivered = 0;
  root.register_node(0, [&](const WireMessage& msg) {
    ++delivered;
    if (delivered == 1) {
      // Redial the sender at a dead port: fails fast, drops the peer, and
      // clears its rx buffer while the second frame is still in flight.
      (void)root.connect_peer(msg.env.from, "127.0.0.1", 1);
    }
  });

  TcpTransport worker(5, fast);
  worker.register_node(5, [](const WireMessage&) {});
  ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));
  ConsensusVote vote;
  vote.voter = 5;
  EXPECT_EQ(worker.send({5, 0, 0}, vote), SendStatus::kOk);
  EXPECT_EQ(worker.send({5, 0, 1}, vote), SendStatus::kOk);

  ASSERT_TRUE(pump(root, worker, [&] { return delivered >= 2; }));
  EXPECT_EQ(delivered, 2);
  root.close();
  worker.close();
}

TEST(Tcp, ReidentifiedPeerFiresReconnectHandler) {
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  fast.send_timeout_s = 2.0;

  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  int joins = 0;
  NodeId lost_peer = 999;
  NodeId reconnected = 999;
  root.register_node(0, [&](const WireMessage& msg) {
    if (msg.kind != MsgKind::kMembership) return;
    ++joins;
    if (joins == 2) {
      // Ordering contract: the reconnect event precedes the frames that
      // rode the new connection.
      EXPECT_EQ(reconnected, 5u);
    }
  });
  root.add_peer_loss_handler([&](NodeId peer) { lost_peer = peer; });
  root.add_peer_reconnect_handler([&](NodeId peer) { reconnected = peer; });

  Membership join;
  join.event = Membership::Event::kJoin;
  join.device = 5;
  {
    TcpTransport worker(5, fast);
    worker.register_node(5, [](const WireMessage&) {});
    ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));
    EXPECT_EQ(worker.send({5, 0, 0}, join), SendStatus::kOk);
    ASSERT_TRUE(pump(root, worker, [&] { return joins == 1; }));
    EXPECT_EQ(reconnected, 999u);  // first contact is not a reconnect
    worker.close();
    ASSERT_TRUE(pump(root, worker, [&] { return lost_peer == 5; }));
  }

  // The same node id coming back on a fresh socket is a reconnect.
  TcpTransport revived(5, fast);
  revived.register_node(5, [](const WireMessage&) {});
  ASSERT_TRUE(revived.connect_peer(0, "127.0.0.1", port));
  EXPECT_EQ(revived.send({5, 0, 1}, join), SendStatus::kOk);
  ASSERT_TRUE(pump(root, revived, [&] { return joins == 2; }));
  EXPECT_EQ(reconnected, 5u);
  EXPECT_GE(root.stats().reconnects, 1u);
  root.close();
  revived.close();
}

TEST(Tcp, ConnectToDeadAddressFailsAfterRetries) {
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 0.005;
  fast.max_backoff_s = 0.01;

  TcpTransport node(3, fast);
  node.register_node(3, [](const WireMessage&) {});
  NodeId lost_peer = 999;
  node.add_peer_loss_handler([&](NodeId peer) { lost_peer = peer; });

  // Port 1 on localhost: reserved, nothing listens there in the test env.
  EXPECT_FALSE(node.connect_peer(8, "127.0.0.1", 1));
  EXPECT_EQ(lost_peer, 8u);
  EXPECT_GE(node.stats().retries, 1u);
  EXPECT_EQ(node.send({3, 8, 0}, ConsensusVote{}), SendStatus::kPeerLost);
}

// A worker scripted by the test: lets the rejoin scenario control exactly
// when each protocol step happens, which RootNode+WorkerNode pumping can't.
struct ScriptedWorker {
  TcpTransport transport;
  std::vector<WireMessage> partials;
  std::vector<WireMessage> echoes;

  ScriptedWorker(NodeId id, const RetryPolicy& policy) : transport(id, policy) {
    transport.register_node(id, [this](const WireMessage& msg) {
      if (msg.kind == MsgKind::kPartialModel) partials.push_back(msg);
      if (msg.kind == MsgKind::kMembership) echoes.push_back(msg);
    });
  }
};

TEST(Node, RootReadmitsWorkerAfterTransientDrop) {
  FederationConfig config;
  config.workers = 2;
  config.devices_per_worker = 1;
  config.rounds = 2;
  config.local_iters = 1;
  config.batch = 4;
  config.hidden = {4};
  config.samples_per_class = 2;
  config.test_samples_per_class = 1;
  const FederationData data = build_federation_data(config);

  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 0.005;
  fast.max_backoff_s = 0.02;
  fast.send_timeout_s = 2.0;
  fast.connect_timeout_s = 1.0;

  TcpTransport root_transport(kRootId, fast);
  const auto port = root_transport.listen(0);
  RootNode root(config, root_transport);
  root.start();

  auto pump_all = [&](std::initializer_list<TcpTransport*> transports,
                      const std::function<bool()>& done, int max_iters = 1000) {
    for (int i = 0; i < max_iters && !done(); ++i) {
      root_transport.poll(0.005);
      for (TcpTransport* t : transports) t->poll(0.005);
    }
    return done();
  };

  const NodeId w1 = worker_node_id(0);
  const NodeId w2 = worker_node_id(1);
  Membership join;
  join.event = Membership::Event::kJoin;
  join.subtree_samples = 20;

  ModelUpdate update;
  update.level = 1;
  update.samples = 20;
  update.params = data.init_params;

  auto scripted_join = [&](ScriptedWorker& w, NodeId id, std::uint64_t round) {
    ASSERT_TRUE(w.transport.connect_peer(kRootId, "127.0.0.1", port));
    join.device = id;
    join.cluster = id - 1;
    ASSERT_EQ(w.transport.send({id, kRootId, round}, join), SendStatus::kOk);
  };

  ScriptedWorker worker1(w1, fast);
  ScriptedWorker worker2(w2, fast);
  scripted_join(worker1, w1, 0);
  scripted_join(worker2, w2, 0);
  ASSERT_TRUE(pump_all({&worker1.transport, &worker2.transport}, [&] {
    return !worker1.echoes.empty() && !worker2.echoes.empty();
  }));

  // Round 0: both updates arrive, both get the global partial back.
  update.sender = w1;
  ASSERT_EQ(worker1.transport.send({w1, kRootId, 0}, update), SendStatus::kOk);
  update.sender = w2;
  ASSERT_EQ(worker2.transport.send({w2, kRootId, 0}, update), SendStatus::kOk);
  ASSERT_TRUE(pump_all({&worker1.transport, &worker2.transport}, [&] {
    return !worker1.partials.empty() && !worker2.partials.empty();
  }));

  // Worker 1 "crashes": unannounced close; the root must evict it.
  worker1.transport.close();
  ASSERT_TRUE(pump_all({&worker2.transport},
                       [&] { return root.result().workers_lost == 1; }));

  // ... and comes back on a fresh socket, retrying its round-1 update: the
  // root re-admits it and answers with a resync echo naming round 1.
  ScriptedWorker revived(w1, fast);
  ASSERT_TRUE(revived.transport.connect_peer(kRootId, "127.0.0.1", port));
  update.sender = w1;
  ASSERT_EQ(revived.transport.send({w1, kRootId, 1}, update), SendStatus::kOk);
  ASSERT_TRUE(pump_all({&revived.transport, &worker2.transport}, [&] {
    return root.result().workers_rejoined == 1 && !revived.echoes.empty();
  }));
  EXPECT_EQ(revived.echoes.front().env.round, 1u);

  // Round 1 completes with the re-admitted worker in the quorum.
  update.sender = w2;
  ASSERT_EQ(worker2.transport.send({w2, kRootId, 1}, update), SendStatus::kOk);
  ASSERT_TRUE(pump_all({&revived.transport, &worker2.transport}, [&] {
    return !revived.partials.empty() && worker2.partials.size() == 2;
  }));
  EXPECT_EQ(revived.partials.front().env.round, 1u);

  // Goodbyes end the run cleanly.
  Membership leave;
  leave.event = Membership::Event::kLeave;
  leave.device = w1;
  ASSERT_EQ(revived.transport.send({w1, kRootId, 2}, leave), SendStatus::kOk);
  leave.device = w2;
  ASSERT_EQ(worker2.transport.send({w2, kRootId, 2}, leave), SendStatus::kOk);
  ASSERT_TRUE(pump_all({&revived.transport, &worker2.transport},
                       [&] { return root.done(); }));

  EXPECT_EQ(root.result().rounds_run, 2u);
  EXPECT_EQ(root.result().workers_joined, 2u);
  EXPECT_EQ(root.result().workers_lost, 1u);
  EXPECT_EQ(root.result().workers_rejoined, 1u);
  EXPECT_EQ(root.result().round_accuracy.size(), 2u);
}

// ---------------------------------------------------------------------------
// Top-k / delta codecs and the zero-copy receive path (DESIGN.md §11).

TEST(Wire, TopKRoundTripKeepsLargestEntries) {
  ModelUpdate update;
  update.sender = 3;
  update.params = test_params(32);
  Codec codec;
  codec.topk = 4;

  const auto dense = encode_frame({1, 2, 0}, update);
  const auto sparse = encode_frame({1, 2, 0}, update, codec);
  EXPECT_LT(sparse.size(), dense.size());
  EXPECT_EQ(sparse.size(), encoded_size(Payload{update}, codec));

  const auto decoded = decode_frame(sparse);
  EXPECT_TRUE(decoded.topk);
  const auto& out = std::get<ModelUpdate>(decoded.payload).params;
  ASSERT_EQ(out.size(), update.params.size());
  // The kept entries are the 4 largest magnitudes, bitwise; everything else
  // decodes to zero.
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const float fa = std::abs(update.params[a]);
    const float fb = std::abs(update.params[b]);
    return fa != fb ? fa > fb : a < b;
  });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 0.0f) ++kept;
  }
  EXPECT_EQ(kept, 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out[order[j]], update.params[order[j]]) << "rank " << j;
  }
}

TEST(Wire, TopKWithKAtLeastDimKeepsEverything) {
  ModelUpdate update;
  update.params = test_params(10);
  Codec codec;
  codec.topk = 64;  // k >= d: every entry survives (k is clamped to d)
  const auto decoded = decode_frame(encode_frame({1, 2, 0}, update, codec));
  const auto& out = std::get<ModelUpdate>(decoded.payload).params;
  ASSERT_EQ(out.size(), update.params.size());
  EXPECT_EQ(std::memcmp(out.data(), update.params.data(), out.size() * sizeof(float)),
            0);
}

TEST(Wire, TopKComposesWithQuantization) {
  ModelUpdate update;
  update.params = test_params(128);
  Codec codec;
  codec.topk = 8;
  codec.quantize_bits = 8;
  const auto frame = encode_frame({1, 2, 0}, update, codec);
  EXPECT_LT(frame.size(), encode_frame({1, 2, 0}, update).size());
  EXPECT_EQ(frame.size(), encoded_size(Payload{update}, codec));
  const auto decoded = decode_frame(frame);
  EXPECT_TRUE(decoded.topk);
  EXPECT_TRUE(decoded.quantized);
  const auto& out = std::get<ModelUpdate>(decoded.payload).params;
  ASSERT_EQ(out.size(), update.params.size());
  // Quantization perturbs the values but not the support: at most k nonzero,
  // each within a quantization step of the original.
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 0.0f) {
      ++nonzero;
      EXPECT_NEAR(out[i], update.params[i], 0.1f) << i;
    }
  }
  EXPECT_LE(nonzero, 8u);
  EXPECT_GE(nonzero, 1u);
}

TEST(Wire, DeltaRoundTripTracksLinkState) {
  Codec codec;
  codec.delta = true;
  CodecState tx, rx;

  ModelUpdate update;
  update.params = test_params(33);
  const auto cold = encode_frame({1, 2, 0}, update, codec, &tx);
  const auto first = decode_frame(cold, &rx);
  // Cold cache: the frame goes out dense and seeds both bases.
  EXPECT_FALSE(first.delta);
  EXPECT_EQ(std::memcmp(std::get<ModelUpdate>(first.payload).params.data(),
                        update.params.data(), 33 * sizeof(float)),
            0);
  ASSERT_EQ(tx.model_update.size(), 33u);
  EXPECT_EQ(std::memcmp(tx.model_update.data(), rx.model_update.data(),
                        33 * sizeof(float)),
            0);

  // Warm cache: the next frame is a delta, and both ends reconstruct the
  // SAME next base — base + (p2 - base) in float, which is not always p2.
  const std::vector<float> base = update.params;
  ModelUpdate next;
  next.params = test_params(33);
  for (auto& v : next.params) v += 0.25f;
  const auto warm = encode_frame({1, 2, 1}, next, codec, &tx);
  EXPECT_EQ(warm.size(), encoded_size(Payload{next}, codec));  // size is delta-blind
  const auto second = decode_frame(warm, &rx);
  EXPECT_TRUE(second.delta);
  std::vector<float> expected(33);
  for (std::size_t i = 0; i < 33; ++i) {
    expected[i] = base[i] + (next.params[i] - base[i]);
  }
  const auto& out = std::get<ModelUpdate>(second.payload).params;
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), 33 * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(tx.model_update.data(), rx.model_update.data(),
                        33 * sizeof(float)),
            0);

  // Each parameter-carrying kind tracks its own base: a PartialModel on the
  // same link starts cold.
  PartialModel partial;
  partial.params = test_params(21);
  const auto pm = decode_frame(encode_frame({1, 2, 1}, partial, codec, &tx), &rx);
  EXPECT_FALSE(pm.delta);
}

TEST(Wire, DeltaFrameWithoutBaseIsRejected) {
  Codec codec;
  codec.delta = true;
  CodecState tx;
  ModelUpdate update;
  update.params = test_params(16);
  (void)encode_frame({1, 2, 0}, update, codec, &tx);  // seed the tx base
  const auto delta_frame = encode_frame({1, 2, 1}, update, codec, &tx);

  CodecState cold_rx;
  EXPECT_THROW((void)decode_frame(delta_frame, &cold_rx), WireError);
  EXPECT_THROW((void)decode_frame(delta_frame), WireError);  // no state at all
}

TEST(Wire, ForgedSparseHeaderCannotDriveAllocation) {
  // Sparse section layout: k(u32) at body+16, d(u64) at body+20, then k
  // ascending u32 indices.  Every forged field must be rejected against the
  // bytes actually present before it sizes an allocation.
  ModelUpdate update;
  update.params = test_params(64);
  Codec codec;
  codec.topk = 8;
  const auto good = encode_frame({1, 2, 0}, update, codec);

  auto bad = good;  // k far beyond the frame's actual index bytes
  const std::uint32_t huge_k = 0x7FFFFFFFu;
  std::memcpy(bad.data() + kHeaderSize + 16, &huge_k, sizeof huge_k);
  refresh_digest(bad);
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;  // d beyond the global parameter cap: dense buffer never sized
  const std::uint64_t huge_d = std::uint64_t{1} << 62;
  std::memcpy(bad.data() + kHeaderSize + 20, &huge_d, sizeof huge_d);
  refresh_digest(bad);
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;  // duplicate index: breaks the strictly-increasing invariant
  std::memcpy(bad.data() + kHeaderSize + 32, bad.data() + kHeaderSize + 28, 4);
  refresh_digest(bad);
  EXPECT_THROW((void)decode_frame(bad), WireError);

  bad = good;  // last index pushed out of [0, d)
  const std::uint32_t oob = 64;
  std::memcpy(bad.data() + kHeaderSize + 28 + 7 * 4, &oob, sizeof oob);
  refresh_digest(bad);
  EXPECT_THROW((void)decode_frame(bad), WireError);
}

// Both model-update decoders: the materializing decode_frame and the
// FrameView + model_update_params path.  Returns how many threw WireError;
// any other exception escapes and fails the test.
int decode_both(const std::vector<std::uint8_t>& frame) {
  int rejected = 0;
  try {
    (void)decode_frame(frame);
  } catch (const WireError&) {
    ++rejected;
  }
  try {
    const FrameView view = FrameView::parse(frame);
    std::vector<float> scratch;
    (void)model_update_params(view, nullptr, scratch);
  } catch (const WireError&) {
    ++rejected;
  }
  return rejected;
}

// The first `body_len` body bytes of `frame`, re-framed with a matching
// length field and a fresh digest so the truncation reaches the body parser.
std::vector<std::uint8_t> reseal_prefix(const std::vector<std::uint8_t>& frame,
                                        std::size_t body_len) {
  std::vector<std::uint8_t> out(frame.begin(),
                                frame.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + body_len));
  const auto len = static_cast<std::uint32_t>(body_len);
  std::memcpy(out.data() + 28, &len, sizeof len);
  out.resize(out.size() + kDigestSize);
  refresh_digest(out);
  return out;
}

TEST(Wire, QuantizedFrameMutationSweepDecodesOrThrowsWireError) {
  // The quantized section is dequantized in place out of the frame, so every
  // truncation and every forged header / block-table byte must end in a
  // clean decode or a WireError — never an out-of-bounds read.
  ModelUpdate update;
  update.sender = 3;
  update.level = 1;
  update.samples = 50;
  update.params = test_params(300);
  Codec q8;
  q8.quantize_bits = 8;
  q8.block = 32;
  Codec q4 = q8;
  q4.quantize_bits = 4;
  Codec q8_topk = q8;
  q8_topk.topk = 40;
  struct Case {
    const char* name;
    Codec codec;
    std::size_t values;    // values in the quantized section
    std::size_t quant_at;  // body offset of its bits/block/count header
  };
  const Case cases[] = {
      {"q8", q8, 300, 16},
      {"q4", q4, 300, 16},
      {"q8_topk", q8_topk, 40, 16 + 4 + 8 + 40 * 4},  // after k, d, indices
  };
  constexpr std::size_t kQuantHeader = 1 + 4 + 8;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto good = encode_frame({1, 2, 0}, update, c.codec);
    ASSERT_EQ(decode_both(good), 0);
    ASSERT_EQ(good[kHeaderSize + c.quant_at], c.codec.quantize_bits);
    const std::size_t body_len = good.size() - kHeaderSize - kDigestSize;

    for (std::size_t len = 0; len < body_len; ++len) {
      ASSERT_EQ(decode_both(reseal_prefix(good, len)), 2) << "prefix " << len;
    }

    const std::size_t lo = c.quant_at;
    const std::size_t hi = lo + kQuantHeader +
                           nn::block_count(c.values, c.codec.block) * nn::kBlockEntryBytes;
    util::Rng rng(17);
    for (std::size_t pos = lo; pos < hi; ++pos) {
      for (int trial = 0; trial < 8; ++trial) {
        auto bad = good;
        bad[kHeaderSize + pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        if (trial % 2 == 1) {  // and a second byte anywhere in the range
          bad[kHeaderSize + lo + rng.below(hi - lo)] ^= static_cast<std::uint8_t>(rng());
        }
        refresh_digest(bad);
        (void)decode_both(bad);
      }
    }
  }
}

TEST(Wire, ModelUpdateParamsIsZeroCopyForRawDense) {
  ModelUpdate update;
  update.sender = 9;
  update.level = 1;
  update.samples = 77;
  update.params = test_params(64);
  const auto frame = encode_frame({1, 2, 5}, update);

  const FrameView view = FrameView::parse(frame);
  const ModelUpdateHead head = peek_model_update(view);
  EXPECT_EQ(head.sender, 9u);
  EXPECT_EQ(head.samples, 77u);
  EXPECT_EQ(head.param_count, 64u);

  std::vector<float> scratch;
  const auto params = model_update_params(view, nullptr, scratch);
  ASSERT_EQ(params.size(), 64u);
  EXPECT_EQ(std::memcmp(params.data(), update.params.data(), 64 * sizeof(float)), 0);
  // Raw dense: the span aliases the frame bytes themselves — no copy.
  const auto* lo = reinterpret_cast<const std::uint8_t*>(params.data());
  EXPECT_GE(lo, frame.data());
  EXPECT_LT(lo, frame.data() + frame.size());
  EXPECT_TRUE(scratch.empty());

  // A transformed frame (quantized here) must reconstruct into scratch.
  Codec codec;
  codec.quantize_bits = 8;
  const auto packed = encode_frame({1, 2, 5}, update, codec);
  const FrameView qview = FrameView::parse(packed);
  EXPECT_EQ(peek_model_update(qview).param_count, 64u);
  const auto qparams = model_update_params(qview, nullptr, scratch);
  ASSERT_EQ(qparams.size(), 64u);
  EXPECT_EQ(qparams.data(), scratch.data());
}

TEST(Wire, CompressSpecParsing) {
  FederationConfig config;
  EXPECT_TRUE(apply_compress_spec("", config));
  EXPECT_EQ(config.topk, 0u);
  EXPECT_FALSE(config.delta);
  EXPECT_TRUE(apply_compress_spec("topk:128", config));
  EXPECT_EQ(config.topk, 128u);
  EXPECT_TRUE(apply_compress_spec("delta", config));
  EXPECT_TRUE(config.delta);
  config = {};
  EXPECT_TRUE(apply_compress_spec("topk:64,delta", config));
  EXPECT_EQ(config.topk, 64u);
  EXPECT_TRUE(config.delta);
  for (const char* bad : {"topk:", "topk:0", "topk:abc", "gzip", "topk:1x"}) {
    FederationConfig untouched;
    EXPECT_FALSE(apply_compress_spec(bad, untouched)) << bad;
    EXPECT_EQ(untouched.topk, 0u) << bad;
    EXPECT_FALSE(untouched.delta) << bad;
  }
}

TEST(Loopback, CompressedLinkAccountsRawAndWireBytes) {
  LoopbackTransport transport;
  std::size_t received = 0;
  transport.register_node(1, [](const WireMessage&) {});
  transport.register_node(2, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kModelUpdate) ++received;
  });
  Codec codec;
  codec.topk = 16;
  transport.set_peer_codec(1, 2, codec);

  ModelUpdate update;
  update.params = test_params(256);
  ASSERT_EQ(transport.send({1, 2, 0}, update), SendStatus::kOk);
  transport.poll(0.0);
  ASSERT_EQ(received, 1u);

  const TransportStats& stats = transport.stats();
  // Wire bytes shrank; raw accounting still reports the dense model cost.
  EXPECT_EQ(stats.bytes_sent, encoded_size(Payload{update}, codec));
  EXPECT_EQ(stats.bytes_sent_raw, encoded_size(Payload{update}, Codec{}));
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  EXPECT_EQ(stats.bytes_received_raw, stats.bytes_sent_raw);
  EXPECT_LT(stats.bytes_sent, stats.bytes_sent_raw);
}

TEST(Tcp, ReconnectInvalidatesDeltaCache) {
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  fast.send_timeout_s = 2.0;

  Codec codec;
  codec.delta = true;

  TcpTransport root(0, fast);
  const auto port = root.listen(0);
  root.set_peer_codec(0, 5, codec);
  std::vector<WireMessage> updates;
  root.register_node(0, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kModelUpdate) updates.push_back(msg);
  });

  ModelUpdate update;
  update.params = test_params(48);
  {
    TcpTransport worker(5, fast);
    worker.register_node(5, [](const WireMessage&) {});
    worker.set_peer_codec(5, 0, codec);
    ASSERT_TRUE(worker.connect_peer(0, "127.0.0.1", port));
    ASSERT_EQ(worker.send({5, 0, 0}, update), SendStatus::kOk);
    ASSERT_EQ(worker.send({5, 0, 1}, update), SendStatus::kOk);
    ASSERT_TRUE(pump(root, worker, [&] { return updates.size() == 2; }));
    EXPECT_FALSE(updates[0].delta);  // cold link seeds dense
    EXPECT_TRUE(updates[1].delta);   // warm link sends a delta
    worker.close();
  }

  // A fresh socket for the same node id: the root's reconnect path must have
  // dropped the link's bases, and the revived sender starts cold too — the
  // first frame after a reconnect is dense, never a delta against a base the
  // other end no longer has.
  TcpTransport revived(5, fast);
  revived.register_node(5, [](const WireMessage&) {});
  revived.set_peer_codec(5, 0, codec);
  ASSERT_TRUE(revived.connect_peer(0, "127.0.0.1", port));
  ASSERT_EQ(revived.send({5, 0, 2}, update), SendStatus::kOk);
  ASSERT_TRUE(pump(root, revived, [&] { return updates.size() == 3; }));
  EXPECT_FALSE(updates[2].delta);
  EXPECT_EQ(std::memcmp(std::get<ModelUpdate>(updates[2].payload).params.data(),
                        update.params.data(), 48 * sizeof(float)),
            0);
  root.close();
  revived.close();
}

TEST(Node, MeanRootRuleMatchesTransportFreeReference) {
  // A mean root (the pinned drills run median) over a loopback federation:
  // the result must be bitwise the transport-free reference loop.
  FederationConfig config;
  config.workers = 3;
  config.devices_per_worker = 1;
  config.rounds = 2;
  config.local_iters = 2;
  config.batch = 4;
  config.hidden = {4};
  config.samples_per_class = 2;
  config.test_samples_per_class = 1;
  config.cluster_rule = "mean";
  config.root_rule = "mean";

  // Transport-free reference (inputs in worker-id order):
  // the hier runner on the flat "W,D" spec of the same federation.
  FederationConfig flat = config;
  flat.tree = std::to_string(config.workers) + "," +
              std::to_string(config.devices_per_worker);
  const std::vector<float> global = hier::run_hier_reference(flat).global_model;

  LoopbackTransport transport;
  RootNode root(config, transport);
  std::vector<std::unique_ptr<WorkerNode>> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    workers.push_back(std::make_unique<WorkerNode>(config, w, transport));
  }
  root.start();
  for (auto& worker : workers) worker->start();
  ASSERT_TRUE(pump_until(transport, [&] {
    root.on_idle();
    return root.done();
  }, 60.0));

  const auto& distributed = root.result().global_model;
  ASSERT_EQ(distributed.size(), global.size());
  EXPECT_EQ(
      std::memcmp(distributed.data(), global.data(), global.size() * sizeof(float)), 0);
  EXPECT_EQ(root.result().rounds_run, config.rounds);
}

// ---------------------------------------------------------------------------
// Distributed tracing and live introspection (DESIGN.md §12).

TEST(Wire, TraceTailRoundTrip) {
  ModelUpdate update;
  update.sender = 7;
  update.level = 1;
  update.samples = 10;
  update.params = test_params(24);

  TraceContext trace;
  trace.trace_id = obs::make_trace_id(17, 3);
  trace.span_id = (std::uint64_t{2} << 40) | 5;
  trace.parent_span_id = (std::uint64_t{2} << 40) | 4;
  trace.wall_ns = 1754650000123456789LL;

  // The zero-copy inline_payload span aliases the variant passed in, so the
  // variant must outlive concat() (the §11 lifecycle rule).
  const Payload payload = update;
  EncodedParts parts;
  encode_frame_parts({1, 0, 3}, payload, Codec{}, nullptr, parts, &trace);
  const auto frame = parts.concat();

  const auto view = FrameView::parse(frame);
  EXPECT_TRUE(view.traced());
  const TraceContext out = view.trace_context();
  EXPECT_TRUE(out.valid());
  EXPECT_EQ(out.trace_id, trace.trace_id);
  EXPECT_EQ(out.span_id, trace.span_id);
  EXPECT_EQ(out.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(out.wall_ns, trace.wall_ns);
  EXPECT_EQ(view.payload_body().size(), view.body().size() - kTraceContextSize);

  // The tail rides outside the payload: decode still matches bitwise.
  const auto decoded = decode_frame(frame);
  const auto& got = std::get<ModelUpdate>(decoded.payload);
  ASSERT_EQ(got.params.size(), update.params.size());
  EXPECT_EQ(std::memcmp(got.params.data(), update.params.data(),
                        update.params.size() * sizeof(float)),
            0);

  // Untraced frames expose an invalid (all-zero) context and stay
  // byte-identical to the pre-tracing layout.
  const auto plain_frame = encode_frame({1, 0, 3}, update);
  EXPECT_EQ(plain_frame.size(), frame.size() - kTraceContextSize);
  const auto plain = FrameView::parse(plain_frame);
  EXPECT_FALSE(plain.traced());
  EXPECT_FALSE(plain.trace_context().valid());
}

TEST(Wire, ForgedTraceFlagCannotTruncateDecode) {
  // kFlagTraced forged onto a frame whose body cannot hold the 32-byte tail
  // must fail the bounds check (WireError), before anything is allocated.
  ConsensusVote vote;
  vote.voter = 1;
  auto small = encode_frame({1, 0, 0}, vote);
  std::uint16_t flags = 0;
  std::memcpy(&flags, small.data() + 8, sizeof flags);
  flags |= kFlagTraced;
  std::memcpy(small.data() + 8, &flags, sizeof flags);
  refresh_digest(small);
  EXPECT_THROW((void)decode_frame(small), WireError);
  EXPECT_THROW((void)FrameView::parse(small).payload_body(), WireError);
  EXPECT_THROW((void)FrameView::parse(small).trace_context(), WireError);

  // On a frame large enough to "hold" a tail, the forged flag slices 32
  // payload bytes off — the dense section's count must catch the truncation.
  ModelUpdate update;
  update.params = test_params(16);
  auto big = encode_frame({1, 0, 0}, update);
  std::memcpy(&flags, big.data() + 8, sizeof flags);
  flags |= kFlagTraced;
  std::memcpy(big.data() + 8, &flags, sizeof flags);
  refresh_digest(big);
  EXPECT_THROW((void)decode_frame(big), WireError);
}

TEST(Wire, RoundTripStatusMessages) {
  StatusRequest request;
  request.probe = 42;
  request.detail = 1;
  request.wall_ns = 1754650000000000123LL;
  const auto req_frame = encode_frame({999, 0, 7}, request);
  EXPECT_EQ(req_frame.size(), status_request_wire_size());
  const auto req = decode_frame(req_frame);
  EXPECT_EQ(req.kind, MsgKind::kStatusRequest);
  const auto& rq = std::get<StatusRequest>(req.payload);
  EXPECT_EQ(rq.probe, 42u);
  EXPECT_EQ(rq.detail, 1);
  EXPECT_EQ(rq.wall_ns, request.wall_ns);

  StatusReply reply;
  reply.node = 0;
  reply.probe = 42;
  reply.round = 5;
  reply.phase = 1;
  reply.live_workers = 2;
  reply.wall_ns = 1754650000000001000LL;
  reply.echo_wall_ns = request.wall_ns;
  reply.peers.push_back({1, 0, 3.5f, 0.25, 100, 200});
  reply.peers.push_back({2, 1, -1.0f, 0.875, 0, 0});
  reply.metrics = "abdhfl_rounds_total 5\n";
  const auto frame = encode_frame({0, 999, 7}, reply);
  EXPECT_EQ(frame.size(), status_reply_wire_size(2, reply.metrics.size()));
  const auto decoded = decode_frame(frame);
  EXPECT_EQ(decoded.kind, MsgKind::kStatusReply);
  const auto& out = std::get<StatusReply>(decoded.payload);
  EXPECT_EQ(out.node, 0u);
  EXPECT_EQ(out.probe, 42u);
  EXPECT_EQ(out.round, 5u);
  EXPECT_EQ(out.phase, 1);
  EXPECT_EQ(out.live_workers, 2u);
  EXPECT_EQ(out.wall_ns, reply.wall_ns);
  EXPECT_EQ(out.echo_wall_ns, request.wall_ns);
  ASSERT_EQ(out.peers.size(), 2u);
  EXPECT_EQ(out.peers[0].node, 1u);
  EXPECT_EQ(out.peers[0].state, 0);
  EXPECT_EQ(out.peers[0].rtt_ms, 3.5f);
  EXPECT_EQ(out.peers[0].suspicion, 0.25);
  EXPECT_EQ(out.peers[0].bytes_sent, 100u);
  EXPECT_EQ(out.peers[0].bytes_received, 200u);
  EXPECT_EQ(out.peers[1].state, 1);
  EXPECT_EQ(out.peers[1].rtt_ms, -1.0f);
  EXPECT_EQ(out.metrics, reply.metrics);

  // Empty peer table / metrics blob round-trips too (detail = 0 replies).
  StatusReply bare;
  bare.node = 3;
  const auto bare_msg = decode_frame(encode_frame({3, 999, 0}, bare));
  const auto& b = std::get<StatusReply>(bare_msg.payload);
  EXPECT_EQ(b.node, 3u);
  EXPECT_TRUE(b.peers.empty());
  EXPECT_TRUE(b.metrics.empty());
}

TEST(Wire, ForgedStatusCountsCannotDriveAllocation) {
  // Both counts come straight off the wire: a forged value must be bounded
  // by the bytes actually present BEFORE it sizes any allocation.
  StatusReply reply;
  reply.peers.push_back({1, 0, 1.0f, 0.0, 10, 20});
  reply.metrics = "x";

  // peer_count lives after the 66 fixed body bytes (45 pre-consensus, plus
  // term u64 + leader u32 + commit_index u64 + view_reason u8).
  auto frame = encode_frame({0, 999, 1}, reply);
  std::uint32_t huge = 0x40000000u;
  std::memcpy(frame.data() + kHeaderSize + 66, &huge, sizeof huge);
  refresh_digest(frame);
  EXPECT_THROW((void)decode_frame(frame), WireError);

  // metrics_len follows the count and one 33-byte peer row.
  frame = encode_frame({0, 999, 1}, reply);
  std::memcpy(frame.data() + kHeaderSize + 103, &huge, sizeof huge);
  refresh_digest(frame);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

TEST(Tcp, TracedFederationJoinsOneTreePerRound) {
  // Three real TCP endpoints with three separate trace buffers: after a full
  // run, the spans — pooled exactly as trace_merge pools the per-process
  // files — must form one causal tree per round (every round's trace id sees
  // all 3 nodes, every nonzero parent resolves within its own trace).
  FederationConfig config;
  config.workers = 2;
  config.devices_per_worker = 1;
  config.rounds = 3;
  config.local_iters = 1;
  config.batch = 4;
  config.hidden = {4};
  config.samples_per_class = 2;
  config.test_samples_per_class = 1;
  config.seed = 17;
  config.trace = true;

  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 0.005;
  fast.max_backoff_s = 0.02;
  fast.send_timeout_s = 2.0;
  fast.connect_timeout_s = 1.0;

  TcpTransport root_transport(kRootId, fast);
  obs::TraceBuffer root_trace;
  root_trace.set_node(kRootId);
  root_transport.set_trace(&root_trace);
  const auto port = root_transport.listen(0);
  RootNode root(config, root_transport);

  std::vector<std::unique_ptr<TcpTransport>> worker_transports;
  std::vector<std::unique_ptr<obs::TraceBuffer>> worker_traces;
  std::vector<std::unique_ptr<WorkerNode>> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    worker_traces.push_back(std::make_unique<obs::TraceBuffer>());
    worker_traces.back()->set_node(worker_node_id(w));
    worker_transports.push_back(
        std::make_unique<TcpTransport>(worker_node_id(w), fast));
    worker_transports.back()->set_trace(worker_traces.back().get());
    worker_transports.back()->set_peer_link_class(kRootId, kLeaderLinkClass);
    ASSERT_TRUE(worker_transports.back()->connect_peer(kRootId, "127.0.0.1", port));
    workers.push_back(
        std::make_unique<WorkerNode>(config, w, *worker_transports.back()));
  }

  root.start();
  for (auto& worker : workers) worker->start();
  auto pump_all = [&](const std::function<bool()>& done, int max_iters = 4000) {
    for (int i = 0; i < max_iters && !done(); ++i) {
      root_transport.poll(0.005);
      for (auto& t : worker_transports) t->poll(0.005);
      root.on_idle();
    }
    return done();
  };
  ASSERT_TRUE(pump_all([&] { return root.done(); }));
  EXPECT_EQ(root.result().rounds_run, config.rounds);

  // Pool every process's spans, keyed like trace_merge: drop unlinked spans
  // (trace id or span id 0 — pre-negotiation traffic), then check the trees.
  struct PoolSpan {
    std::uint64_t trace_id, span_id, parent;
    std::uint32_t node;
  };
  std::vector<PoolSpan> pool;
  std::map<std::uint64_t, std::set<std::uint64_t>> ids_by_trace;
  std::map<std::uint64_t, std::set<std::uint32_t>> nodes_by_trace;
  auto drain = [&](const obs::TraceBuffer& buffer) {
    EXPECT_EQ(buffer.dropped(), 0u);
    for (const auto& ev : buffer.snapshot()) {
      if (ev.trace_id == 0 || ev.span_id == 0) continue;
      pool.push_back({ev.trace_id, ev.span_id, ev.parent_span_id, ev.node});
      ids_by_trace[ev.trace_id].insert(ev.span_id);
      nodes_by_trace[ev.trace_id].insert(ev.node);
    }
  };
  drain(root_trace);
  for (const auto& buffer : worker_traces) drain(*buffer);

  for (std::size_t r = 0; r < config.rounds; ++r) {
    const std::uint64_t tid = obs::make_trace_id(config.seed, r);
    EXPECT_EQ(nodes_by_trace[tid].size(), 3u) << "round " << r;
    EXPECT_GE(ids_by_trace[tid].size(), 6u) << "round " << r;
  }
  std::size_t orphans = 0;
  for (const auto& span : pool) {
    if (span.parent != 0 && ids_by_trace[span.trace_id].count(span.parent) == 0) {
      ++orphans;
    }
  }
  EXPECT_EQ(orphans, 0u);

  // Per-round RTT heartbeats ran in both directions.
  EXPECT_GT(root_transport.stats().rtt_samples, 0u);
  EXPECT_GT(worker_transports[0]->stats().rtt_samples, 0u);

  // The status path answers in ANY phase — here after the run finished — so
  // abdhfl_top can inspect a node without perturbing it.
  TcpTransport observer(999, fast);
  observer.set_peer_link_class(kRootId, kLeaderLinkClass);
  ASSERT_TRUE(observer.connect_peer(kRootId, "127.0.0.1", port));
  std::optional<StatusReply> status;
  observer.register_node(999, [&](const WireMessage& msg) {
    if (msg.kind == MsgKind::kStatusReply) {
      status = std::get<StatusReply>(msg.payload);
    }
  });
  StatusRequest probe;
  probe.probe = 9;
  probe.detail = 1;
  probe.wall_ns = obs::wall_clock_ns();
  ASSERT_EQ(observer.send({999, kRootId, 0}, probe), SendStatus::kOk);
  ASSERT_TRUE(pump(root_transport, observer, [&] { return status.has_value(); }));
  EXPECT_EQ(status->node, kRootId);
  EXPECT_EQ(status->probe, 9u);
  EXPECT_EQ(status->phase, 3);  // done
  EXPECT_EQ(status->round, config.rounds);
  EXPECT_EQ(status->echo_wall_ns, probe.wall_ns);
  EXPECT_EQ(status->peers.size(), 2u);  // both workers in the peer table

  // The observer hanging up is not churn: answering the probe marked its
  // link transient, so the EOF must not tick the peer-loss counter (the
  // federation run itself lost nobody).
  const auto losses_before = root_transport.stats().peer_losses;
  EXPECT_EQ(losses_before, 0u);
  observer.close();
  pump(root_transport, observer, [] { return false; }, 50);  // drain the EOF
  EXPECT_EQ(root_transport.stats().peer_losses, losses_before);
}

}  // namespace
}  // namespace abdhfl::net
