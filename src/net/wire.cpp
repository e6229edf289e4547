#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "nn/quantize.hpp"
#include "nn/serialize.hpp"

namespace abdhfl::net {

namespace {

static_assert(std::endian::native == std::endian::little,
              "wire codec assumes a little-endian host");

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

constexpr std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * kFnvPrime;
}

/// Fold whole stripes, word j of each stripe into lane j.  The lanes are
/// copied into locals and the lane loop is unrolled so the independent
/// chains stay in registers: GCC -O2 keeps a rolled loop's lanes in memory,
/// which doubles the cost.
void fold_stripes(std::array<std::uint64_t, FrameDigest::kLanes>& lanes,
                  const std::uint8_t* data, std::size_t stripes) noexcept {
  auto l = lanes;
  for (std::size_t s = 0; s < stripes; ++s, data += FrameDigest::kStripe) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < FrameDigest::kLanes; ++j) {
      std::uint64_t word = 0;
      std::memcpy(&word, data + j * sizeof(word), sizeof(word));
      l[j] = fnv_fold(l[j], word);
    }
  }
  lanes = l;
}

template <class T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <class T>
T read_pod(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  if (offset + sizeof(T) > bytes.size()) throw WireError("truncated frame body");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

// --- parameter sections ----------------------------------------------------
// Raw dense params are a u64 count followed by the floats.  Quantized params
// carry the nn/quantize block format: bits, block, count, per-block
// (scale, min) pairs, packed codes — exactly QuantizedVec::wire_size()
// bytes, encoded into and decoded out of the frame by the nn span kernels.
// Top-k sections prefix either value encoding with k, d and the sorted
// index list; delta only changes the transmitted values and sets a flag,
// never the layout.

std::size_t dense_section_size(std::size_t count) noexcept {
  return sizeof(std::uint64_t) + count * sizeof(float);
}

/// The float bytes of a raw dense section, in place; advances `offset` past
/// them.  The count comes straight off the wire (and the frame digest is not
/// a MAC): it is bounded by the limit and by the bytes actually present
/// before anything is sized from it.
std::span<const std::uint8_t> read_dense_section(std::span<const std::uint8_t> body,
                                                 std::size_t& offset) {
  const auto count = read_pod<std::uint64_t>(body, offset);
  if (count > kMaxWireParams) throw WireError("parameter count exceeds limit");
  if (count > (body.size() - offset) / sizeof(float)) {
    throw WireError("truncated parameter section");
  }
  const auto floats = body.subspan(offset, static_cast<std::size_t>(count) * sizeof(float));
  offset += floats.size();
  return floats;
}

/// Copy `bytes` (already bounds-checked) out into a vector of T.
template <class T>
std::vector<T> copy_out(std::span<const std::uint8_t> bytes) {
  std::vector<T> out(bytes.size() / sizeof(T));
  // An empty vector's data() may be null, which memcpy must never see.
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  return out;
}

std::vector<float> read_quantized(std::span<const std::uint8_t> body,
                                  std::size_t& offset) {
  const auto bits = read_pod<std::uint8_t>(body, offset);
  const auto block = read_pod<std::uint32_t>(body, offset);
  const auto count = read_pod<std::uint64_t>(body, offset);
  if (bits == 0 || bits > 8 || block == 0) {
    throw WireError("corrupt quantized parameter header");
  }
  // Bound the wire-supplied count against the bytes actually present BEFORE
  // any allocation: the packed codes alone need ceil(count*bits/8) bytes and
  // each block carries a (scale, min) pair.  Without this, a forged count
  // drives the output allocation into std::length_error/bad_alloc, which are
  // not WireError and would escape the transports' decode-error handling.
  const std::size_t remaining = body.size() - offset;
  if (count > static_cast<std::uint64_t>(remaining) * 8 / bits) {
    throw WireError("truncated quantized payload");
  }
  const std::size_t table_bytes =
      nn::block_count(static_cast<std::size_t>(count), block) * nn::kBlockEntryBytes;
  const std::size_t data_bytes = nn::code_bytes(static_cast<std::size_t>(count), bits);
  if (table_bytes + data_bytes > remaining) {
    throw WireError("truncated quantized payload");
  }
  // Dequantize straight out of the frame: every span bound the kernel checks
  // was established above, so it cannot throw.
  const auto table = body.subspan(offset, table_bytes);
  const auto codes = body.subspan(offset + table_bytes, data_bytes);
  offset += table_bytes + data_bytes;
  std::vector<float> out(static_cast<std::size_t>(count));
  nn::dequantize_into(table, codes, bits, block, out);
  return out;
}

/// Reconstruct the dense parameter vector of one section under `flags`,
/// using `base` (the link's last model) for kFlagDelta frames.
std::vector<float> read_params(std::span<const std::uint8_t> body, std::size_t& offset,
                               std::uint16_t flags, const std::vector<float>* base) {
  const bool delta = (flags & kFlagDelta) != 0;
  if (delta && (base == nullptr || base->empty())) {
    throw WireError("delta frame without a cached base model");
  }
  if ((flags & kFlagTopK) != 0) {
    const auto k = read_pod<std::uint32_t>(body, offset);
    const auto d = read_pod<std::uint64_t>(body, offset);
    if (d > kMaxWireParams) throw WireError("sparse dense size exceeds limit");
    if (k > d) throw WireError("sparse entry count exceeds dense size");
    // Bound k by the bytes actually present BEFORE it sizes anything (the
    // same discipline as the dense blob / quantized readers above); d is
    // bounded by kMaxWireParams since its bytes never travel.
    const std::size_t remaining = body.size() - offset;
    if (k > remaining / sizeof(std::uint32_t)) {
      throw WireError("truncated sparse index list");
    }
    if (delta && base->size() != d) throw WireError("delta base dimension mismatch");
    const auto idx = copy_out<std::uint32_t>(body.subspan(offset, k * sizeof(std::uint32_t)));
    offset += k * sizeof(std::uint32_t);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (idx[j] >= d || (j > 0 && idx[j] <= idx[j - 1])) {
        throw WireError("corrupt sparse index list");
      }
    }
    std::vector<float> vals;
    if ((flags & kFlagQuantized) != 0) {
      vals = read_quantized(body, offset);
      if (vals.size() != k) throw WireError("sparse value count mismatch");
    } else {
      if (static_cast<std::size_t>(k) * sizeof(float) > body.size() - offset) {
        throw WireError("truncated sparse values");
      }
      vals = copy_out<float>(body.subspan(offset, k * sizeof(float)));
      offset += k * sizeof(float);
    }
    std::vector<float> out =
        delta ? *base : std::vector<float>(static_cast<std::size_t>(d), 0.0f);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      out[idx[j]] = delta ? (*base)[idx[j]] + vals[j] : vals[j];
    }
    return out;
  }
  auto vals = (flags & kFlagQuantized) != 0
                  ? read_quantized(body, offset)
                  : copy_out<float>(read_dense_section(body, offset));
  if (!delta) return vals;
  if (vals.size() != base->size()) throw WireError("delta base dimension mismatch");
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = (*base)[i] + vals[i];
  return vals;
}

std::size_t quant_section_size(std::size_t count, std::uint8_t bits,
                               std::uint32_t block) noexcept {
  return sizeof(std::uint8_t) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
         nn::block_count(count, block) * nn::kBlockEntryBytes + nn::code_bytes(count, bits);
}

std::size_t params_body_size(std::size_t count, const Codec& codec) noexcept {
  if (codec.topk != 0) {
    const std::size_t k = std::min<std::size_t>(codec.topk, count);
    const std::size_t values =
        codec.quantized() ? quant_section_size(k, codec.quantize_bits, codec.block)
                          : k * sizeof(float);
    return sizeof(std::uint32_t) + sizeof(std::uint64_t) +
           k * sizeof(std::uint32_t) + values;
  }
  if (!codec.quantized()) return dense_section_size(count);
  return quant_section_size(count, codec.quantize_bits, codec.block);
}

// --- per-kind bodies -------------------------------------------------------

/// Append the parameter section of `params` under `codec` to `out`,
/// recording the flags it chose and (when delta tracking is on) the
/// reconstruction both ends must install as the link's next base.
void encode_params(EncodedParts& out, std::span<const float> params, const Codec& codec,
                   const std::vector<float>* base, std::uint16_t& flags, MsgKind kind) {
  const bool track = codec.delta;
  const bool use_delta =
      track && base != nullptr && base->size() == params.size() && !params.empty();
  if (use_delta) flags |= kFlagDelta;

  // Stage 1: delta against the link's last reconstructed model.  The dense
  // raw case lands directly in scratch_values so the float bytes can go out
  // in place; with top-k on top, a local buffer holds the intermediate.
  std::span<const float> work = params;
  std::vector<float> delta_local;
  if (use_delta) {
    std::vector<float>& dst = codec.topk != 0 ? delta_local : out.scratch_values;
    dst.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) dst[i] = params[i] - (*base)[i];
    work = dst;
  }

  // Stage 2: top-k selection (largest |value|; ties broken by lower index so
  // every process picks the same entries).
  std::vector<std::uint32_t> indices;
  if (codec.topk != 0) {
    flags |= kFlagTopK;
    const std::size_t d = work.size();
    const std::size_t k = std::min<std::size_t>(codec.topk, d);
    indices.resize(d);
    std::iota(indices.begin(), indices.end(), 0u);
    const auto more_salient = [&work](std::uint32_t a, std::uint32_t b) {
      const float fa = std::abs(work[a]);
      const float fb = std::abs(work[b]);
      return fa != fb ? fa > fb : a < b;
    };
    if (k < d) {
      std::nth_element(indices.begin(),
                       indices.begin() + static_cast<std::ptrdiff_t>(k),
                       indices.end(), more_salient);
      indices.resize(k);
    }
    std::sort(indices.begin(), indices.end());
    append_pod(out.head, static_cast<std::uint32_t>(k));
    append_pod(out.head, static_cast<std::uint64_t>(d));
    for (const std::uint32_t i : indices) append_pod(out.head, i);
    std::vector<float> gathered(k);
    for (std::size_t j = 0; j < k; ++j) gathered[j] = work[indices[j]];
    out.scratch_values = std::move(gathered);
    work = out.scratch_values;
  }

  // Stage 3: emit the transmitted values.  `transmitted` is what the
  // receiver will reconstruct with — after quantization that is the
  // dequantized values, so both ends' delta bases stay bitwise-identical.
  std::span<const float> transmitted = work;
  std::vector<float> dequant_local;
  if (codec.quantized()) {
    flags |= kFlagQuantized;
    // Header, block table and packed codes are written straight into the
    // head buffer; with delta tracking the reconstruction is read back out
    // of those same bytes, exactly as the receiver will.
    const std::uint8_t bits = codec.quantize_bits;
    const std::uint32_t block = codec.block;
    append_pod(out.head, bits);
    append_pod(out.head, block);
    append_pod(out.head, static_cast<std::uint64_t>(work.size()));
    const std::size_t at = out.head.size();
    const std::size_t table_bytes = nn::block_count(work.size(), block) * nn::kBlockEntryBytes;
    const std::size_t data_bytes = nn::code_bytes(work.size(), bits);
    out.head.resize(at + table_bytes + data_bytes);
    const std::span<std::uint8_t> table(out.head.data() + at, table_bytes);
    const std::span<std::uint8_t> codes(out.head.data() + at + table_bytes, data_bytes);
    nn::quantize_into(work, bits, block, table, codes);
    if (track) {
      dequant_local.resize(work.size());
      nn::dequantize_into(table, codes, bits, block, dequant_local);
      transmitted = dequant_local;
    }
  } else {
    // Raw values go out in place — the in-memory vector IS the wire
    // representation, nothing is copied.  A sparse section's values follow
    // its index list; a dense section's follow their count.
    if ((flags & kFlagTopK) == 0) append_pod(out.head, static_cast<std::uint64_t>(work.size()));
    out.inline_payload = {reinterpret_cast<const std::uint8_t*>(work.data()),
                          work.size() * sizeof(float)};
  }

  if (!track) return;
  out.has_recon = true;
  out.recon_kind = kind;
  if ((flags & kFlagTopK) != 0) {
    if (use_delta) {
      out.recon = *base;
      for (std::size_t j = 0; j < indices.size(); ++j) {
        out.recon[indices[j]] = (*base)[indices[j]] + transmitted[j];
      }
    } else {
      out.recon.assign(params.size(), 0.0f);
      for (std::size_t j = 0; j < indices.size(); ++j) {
        out.recon[indices[j]] = transmitted[j];
      }
    }
  } else {
    out.recon.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      out.recon[i] = use_delta ? (*base)[i] + transmitted[i] : transmitted[i];
    }
  }
}

void encode_body(EncodedParts& out, const ModelUpdate& m, const Codec& codec,
                 const std::vector<float>* base, std::uint16_t& flags) {
  append_pod(out.head, m.sender);
  append_pod(out.head, m.level);
  append_pod(out.head, m.samples);
  encode_params(out, m.params, codec, base, flags, MsgKind::kModelUpdate);
}

void encode_body(EncodedParts& out, const PartialModel& m, const Codec& codec,
                 const std::vector<float>* base, std::uint16_t& flags) {
  append_pod(out.head, m.origin);
  append_pod(out.head, m.flag_level);
  append_pod(out.head, static_cast<std::uint8_t>(m.is_global ? 1 : 0));
  append_pod(out.head, m.alpha);
  append_pod(out.head, m.flag_fraction);
  encode_params(out, m.params, codec, base, flags, MsgKind::kPartialModel);
}

void encode_body(EncodedParts& out, const ConsensusVote& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.voter);
  append_pod(out.head, m.candidate);
  append_pod(out.head, m.score);
  append_pod(out.head, static_cast<std::uint8_t>(m.accept ? 1 : 0));
}

void encode_body(EncodedParts& out, const Membership& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, static_cast<std::uint8_t>(m.event));
  append_pod(out.head, m.device);
  append_pod(out.head, m.cluster);
  append_pod(out.head, m.subtree_samples);
  append_pod(out.head, m.codec.quantize_bits);
  append_pod(out.head, m.codec.block);
  append_pod(out.head, m.codec.topk);
  append_pod(out.head, static_cast<std::uint8_t>(m.codec.delta ? 1 : 0));
  append_pod(out.head, static_cast<std::uint8_t>(m.trace ? 1 : 0));
  append_pod(out.head, m.wall_ns);
  append_pod(out.head, m.echo_wall_ns);
}

void encode_body(EncodedParts& out, const StatusRequest& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.probe);
  append_pod(out.head, m.detail);
  append_pod(out.head, m.wall_ns);
}

void encode_body(EncodedParts& out, const VoteRequest& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.term);
  append_pod(out.head, m.candidate);
  append_pod(out.head, m.last_log_index);
  append_pod(out.head, m.last_log_term);
}

void encode_body(EncodedParts& out, const VoteReply& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.term);
  append_pod(out.head, m.voter);
  append_pod(out.head, m.granted);
}

void encode_body(EncodedParts& out, const AppendEntries& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.term);
  append_pod(out.head, m.leader);
  append_pod(out.head, m.prev_log_index);
  append_pod(out.head, m.prev_log_term);
  append_pod(out.head, m.commit_index);
  append_pod(out.head, static_cast<std::uint32_t>(m.entries.size()));
  for (const RaftLogEntry& e : m.entries) {
    append_pod(out.head, e.term);
    append_pod(out.head, e.index);
    append_pod(out.head, e.type);
    append_pod(out.head, e.round);
    append_pod(out.head, e.subject);
    append_pod(out.head, e.samples);
    append_pod(out.head, e.quantize_bits);
    append_pod(out.head, e.topk);
    append_pod(out.head, e.delta);
    append_pod(out.head, e.trace);
    // The committed model travels as a raw dense section (count + floats):
    // replication is a top-cluster-only path where the negotiated per-link
    // compression does not apply — the log must hold the exact bytes.
    append_pod(out.head, static_cast<std::uint64_t>(e.params.size()));
    const auto* raw = reinterpret_cast<const std::uint8_t*>(e.params.data());
    out.head.insert(out.head.end(), raw, raw + e.params.size() * sizeof(float));
  }
}

void encode_body(EncodedParts& out, const Heartbeat& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.term);
  append_pod(out.head, m.node);
  append_pod(out.head, m.ack);
  append_pod(out.head, m.success);
  append_pod(out.head, m.commit_index);
  append_pod(out.head, m.match_index);
}

void encode_body(EncodedParts& out, const StatusReply& m, const Codec&,
                 const std::vector<float>*, std::uint16_t&) {
  append_pod(out.head, m.node);
  append_pod(out.head, m.probe);
  append_pod(out.head, m.round);
  append_pod(out.head, m.phase);
  append_pod(out.head, m.live_workers);
  append_pod(out.head, m.level);
  append_pod(out.head, m.parent);
  append_pod(out.head, m.wall_ns);
  append_pod(out.head, m.echo_wall_ns);
  append_pod(out.head, m.term);
  append_pod(out.head, m.leader);
  append_pod(out.head, m.commit_index);
  append_pod(out.head, m.view_reason);
  append_pod(out.head, static_cast<std::uint32_t>(m.peers.size()));
  for (const StatusPeer& peer : m.peers) {
    append_pod(out.head, peer.node);
    append_pod(out.head, peer.state);
    append_pod(out.head, peer.rtt_ms);
    append_pod(out.head, peer.suspicion);
    append_pod(out.head, peer.bytes_sent);
    append_pod(out.head, peer.bytes_received);
  }
  append_pod(out.head, static_cast<std::uint32_t>(m.metrics.size()));
  out.head.insert(out.head.end(), m.metrics.begin(), m.metrics.end());
}

/// Fixed bytes of one RaftLogEntry on the wire (everything but the floats).
constexpr std::size_t kRaftEntryFixed =
    sizeof(std::uint64_t) * 2 + sizeof(std::uint16_t) + sizeof(std::uint64_t) +
    sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint8_t) +
    sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t) + sizeof(std::uint64_t);

Payload decode_body(MsgKind kind, std::span<const std::uint8_t> body,
                    std::uint16_t flags, const std::vector<float>* base) {
  std::size_t offset = 0;
  switch (kind) {
    case MsgKind::kModelUpdate: {
      ModelUpdate m;
      m.sender = read_pod<std::uint32_t>(body, offset);
      m.level = read_pod<std::uint32_t>(body, offset);
      m.samples = read_pod<std::uint64_t>(body, offset);
      m.params = read_params(body, offset, flags, base);
      if (offset != body.size()) throw WireError("trailing bytes after model update");
      return m;
    }
    case MsgKind::kPartialModel: {
      PartialModel m;
      m.origin = read_pod<std::uint32_t>(body, offset);
      m.flag_level = read_pod<std::uint32_t>(body, offset);
      m.is_global = read_pod<std::uint8_t>(body, offset) != 0;
      m.alpha = read_pod<float>(body, offset);
      m.flag_fraction = read_pod<double>(body, offset);
      m.params = read_params(body, offset, flags, base);
      if (offset != body.size()) throw WireError("trailing bytes after partial model");
      return m;
    }
    case MsgKind::kConsensusVote: {
      ConsensusVote m;
      m.voter = read_pod<std::uint32_t>(body, offset);
      m.candidate = read_pod<std::uint32_t>(body, offset);
      m.score = read_pod<float>(body, offset);
      m.accept = read_pod<std::uint8_t>(body, offset) != 0;
      if (offset != body.size()) throw WireError("trailing bytes after vote");
      return m;
    }
    case MsgKind::kMembership: {
      Membership m;
      const auto event = read_pod<std::uint8_t>(body, offset);
      if (event > static_cast<std::uint8_t>(Membership::Event::kShutdown)) {
        throw WireError("unknown membership event");
      }
      m.event = static_cast<Membership::Event>(event);
      m.device = read_pod<std::uint32_t>(body, offset);
      m.cluster = read_pod<std::uint32_t>(body, offset);
      m.subtree_samples = read_pod<std::uint64_t>(body, offset);
      m.codec.quantize_bits = read_pod<std::uint8_t>(body, offset);
      m.codec.block = read_pod<std::uint32_t>(body, offset);
      m.codec.topk = read_pod<std::uint32_t>(body, offset);
      m.codec.delta = read_pod<std::uint8_t>(body, offset) != 0;
      m.trace = read_pod<std::uint8_t>(body, offset) != 0;
      m.wall_ns = read_pod<std::int64_t>(body, offset);
      m.echo_wall_ns = read_pod<std::int64_t>(body, offset);
      if (offset != body.size()) throw WireError("trailing bytes after membership");
      return m;
    }
    case MsgKind::kStatusRequest: {
      StatusRequest m;
      m.probe = read_pod<std::uint32_t>(body, offset);
      m.detail = read_pod<std::uint8_t>(body, offset);
      m.wall_ns = read_pod<std::int64_t>(body, offset);
      if (offset != body.size()) throw WireError("trailing bytes after status request");
      return m;
    }
    case MsgKind::kStatusReply: {
      StatusReply m;
      m.node = read_pod<std::uint32_t>(body, offset);
      m.probe = read_pod<std::uint32_t>(body, offset);
      m.round = read_pod<std::uint64_t>(body, offset);
      m.phase = read_pod<std::uint8_t>(body, offset);
      m.live_workers = read_pod<std::uint32_t>(body, offset);
      m.level = read_pod<std::uint32_t>(body, offset);
      m.parent = read_pod<std::uint32_t>(body, offset);
      m.wall_ns = read_pod<std::int64_t>(body, offset);
      m.echo_wall_ns = read_pod<std::int64_t>(body, offset);
      m.term = read_pod<std::uint64_t>(body, offset);
      m.leader = read_pod<std::uint32_t>(body, offset);
      m.commit_index = read_pod<std::uint64_t>(body, offset);
      m.view_reason = read_pod<std::uint8_t>(body, offset);
      // Both counts come straight off the wire: bound them by the bytes
      // actually present BEFORE any allocation (the PR 4 discipline), so a
      // forged count throws WireError instead of length_error/bad_alloc.
      const auto peer_count = read_pod<std::uint32_t>(body, offset);
      constexpr std::size_t kPeerWire = sizeof(std::uint32_t) + sizeof(std::uint8_t) +
                                        sizeof(float) + sizeof(double) +
                                        2 * sizeof(std::uint64_t);
      if (peer_count > (body.size() - offset) / kPeerWire) {
        throw WireError("truncated status peer table");
      }
      m.peers.resize(peer_count);
      for (StatusPeer& peer : m.peers) {
        peer.node = read_pod<std::uint32_t>(body, offset);
        peer.state = read_pod<std::uint8_t>(body, offset);
        peer.rtt_ms = read_pod<float>(body, offset);
        peer.suspicion = read_pod<double>(body, offset);
        peer.bytes_sent = read_pod<std::uint64_t>(body, offset);
        peer.bytes_received = read_pod<std::uint64_t>(body, offset);
      }
      const auto metrics_len = read_pod<std::uint32_t>(body, offset);
      if (metrics_len > body.size() - offset) {
        throw WireError("truncated status metrics blob");
      }
      m.metrics.assign(reinterpret_cast<const char*>(body.data()) + offset,
                       metrics_len);
      offset += metrics_len;
      if (offset != body.size()) throw WireError("trailing bytes after status reply");
      return m;
    }
    case MsgKind::kVoteRequest: {
      VoteRequest m;
      m.term = read_pod<std::uint64_t>(body, offset);
      m.candidate = read_pod<std::uint32_t>(body, offset);
      m.last_log_index = read_pod<std::uint64_t>(body, offset);
      m.last_log_term = read_pod<std::uint64_t>(body, offset);
      if (offset != body.size()) throw WireError("trailing bytes after vote request");
      return m;
    }
    case MsgKind::kVoteReply: {
      VoteReply m;
      m.term = read_pod<std::uint64_t>(body, offset);
      m.voter = read_pod<std::uint32_t>(body, offset);
      m.granted = read_pod<std::uint8_t>(body, offset);
      if (offset != body.size()) throw WireError("trailing bytes after vote reply");
      return m;
    }
    case MsgKind::kAppendEntries: {
      AppendEntries m;
      m.term = read_pod<std::uint64_t>(body, offset);
      m.leader = read_pod<std::uint32_t>(body, offset);
      m.prev_log_index = read_pod<std::uint64_t>(body, offset);
      m.prev_log_term = read_pod<std::uint64_t>(body, offset);
      m.commit_index = read_pod<std::uint64_t>(body, offset);
      // Bounds before any allocation (the PR 4 discipline): the entry count
      // and every per-entry parameter count are checked against the bytes
      // actually present, so a forged header is a WireError, never a
      // bad_alloc.  kRaftEntryFixed is the smallest possible entry.
      const auto entry_count = read_pod<std::uint32_t>(body, offset);
      if (entry_count > (body.size() - offset) / kRaftEntryFixed) {
        throw WireError("truncated append-entries batch");
      }
      m.entries.resize(entry_count);
      for (RaftLogEntry& e : m.entries) {
        e.term = read_pod<std::uint64_t>(body, offset);
        e.index = read_pod<std::uint64_t>(body, offset);
        e.type = read_pod<std::uint16_t>(body, offset);
        e.round = read_pod<std::uint64_t>(body, offset);
        e.subject = read_pod<std::uint32_t>(body, offset);
        e.samples = read_pod<std::uint64_t>(body, offset);
        e.quantize_bits = read_pod<std::uint8_t>(body, offset);
        e.topk = read_pod<std::uint32_t>(body, offset);
        e.delta = read_pod<std::uint8_t>(body, offset);
        e.trace = read_pod<std::uint8_t>(body, offset);
        e.params = copy_out<float>(read_dense_section(body, offset));
      }
      if (offset != body.size()) throw WireError("trailing bytes after append entries");
      return m;
    }
    case MsgKind::kHeartbeat: {
      Heartbeat m;
      m.term = read_pod<std::uint64_t>(body, offset);
      m.node = read_pod<std::uint32_t>(body, offset);
      m.ack = read_pod<std::uint8_t>(body, offset);
      m.success = read_pod<std::uint8_t>(body, offset);
      m.commit_index = read_pod<std::uint64_t>(body, offset);
      m.match_index = read_pod<std::uint64_t>(body, offset);
      if (offset != body.size()) throw WireError("trailing bytes after heartbeat");
      return m;
    }
  }
  throw WireError("unknown message kind " +
                  std::to_string(static_cast<unsigned>(kind)));
}

constexpr std::size_t kModelUpdateFixed =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);
constexpr std::size_t kPartialModelFixed = sizeof(std::uint32_t) * 2 +
                                           sizeof(std::uint8_t) + sizeof(float) +
                                           sizeof(double);
constexpr std::size_t kVoteFixed =
    sizeof(std::uint32_t) * 2 + sizeof(float) + sizeof(std::uint8_t);
constexpr std::size_t kMembershipFixed = sizeof(std::uint8_t) + sizeof(std::uint32_t) * 2 +
                                         sizeof(std::uint64_t) + sizeof(std::uint8_t) +
                                         sizeof(std::uint32_t) + sizeof(std::uint32_t) +
                                         sizeof(std::uint8_t) + sizeof(std::uint8_t) +
                                         2 * sizeof(std::int64_t);
constexpr std::size_t kStatusRequestFixed =
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::int64_t);
constexpr std::size_t kStatusPeerWire = sizeof(std::uint32_t) + sizeof(std::uint8_t) +
                                        sizeof(float) + sizeof(double) +
                                        2 * sizeof(std::uint64_t);
constexpr std::size_t kStatusReplyFixed = 2 * sizeof(std::uint32_t) +
                                          sizeof(std::uint64_t) + sizeof(std::uint8_t) +
                                          3 * sizeof(std::uint32_t) + 2 * sizeof(std::int64_t) +
                                          sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                                          sizeof(std::uint64_t) + sizeof(std::uint8_t) +
                                          2 * sizeof(std::uint32_t);
constexpr std::size_t kVoteRequestFixed =
    sizeof(std::uint64_t) + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
constexpr std::size_t kVoteReplyFixed =
    sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint8_t);
constexpr std::size_t kAppendEntriesFixed = sizeof(std::uint64_t) +
                                            sizeof(std::uint32_t) +
                                            3 * sizeof(std::uint64_t) +
                                            sizeof(std::uint32_t);
constexpr std::size_t kHeartbeatFixed = sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                                        2 * sizeof(std::uint8_t) +
                                        2 * sizeof(std::uint64_t);

bool carries_params(const Payload& payload) noexcept {
  return std::holds_alternative<ModelUpdate>(payload) ||
         std::holds_alternative<PartialModel>(payload);
}

const std::vector<float>* params_of(const Payload& payload) noexcept {
  if (const auto* update = std::get_if<ModelUpdate>(&payload)) return &update->params;
  if (const auto* partial = std::get_if<PartialModel>(&payload)) return &partial->params;
  return nullptr;
}

}  // namespace

FrameDigest::FrameDigest() noexcept { lanes_.fill(kFnvOffset); }

void FrameDigest::update(std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.empty()) return;
  total_ += bytes.size();
  if (pending_len_ != 0) {
    const std::size_t take = std::min(bytes.size(), kStripe - pending_len_);
    std::memcpy(pending_.data() + pending_len_, bytes.data(), take);
    pending_len_ += take;
    bytes = bytes.subspan(take);
    if (pending_len_ < kStripe) return;
    fold_stripes(lanes_, pending_.data(), 1);
    pending_len_ = 0;
  }
  const std::size_t stripes = bytes.size() / kStripe;
  fold_stripes(lanes_, bytes.data(), stripes);
  bytes = bytes.subspan(stripes * kStripe);
  if (!bytes.empty()) std::memcpy(pending_.data(), bytes.data(), bytes.size());
  pending_len_ = bytes.size();
}

std::uint64_t FrameDigest::value() const noexcept {
  auto lanes = lanes_;
  if (pending_len_ != 0) {
    std::array<std::uint8_t, kStripe> last{};
    std::memcpy(last.data(), pending_.data(), pending_len_);
    fold_stripes(lanes, last.data(), 1);
  }
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t lane : lanes) h = fnv_fold(h, lane);
  return fnv_fold(h, total_);
}

const char* to_string(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kModelUpdate: return "model_update";
    case MsgKind::kPartialModel: return "partial_model";
    case MsgKind::kConsensusVote: return "consensus_vote";
    case MsgKind::kMembership: return "membership";
    case MsgKind::kStatusRequest: return "status_request";
    case MsgKind::kStatusReply: return "status_reply";
    case MsgKind::kVoteRequest: return "vote_request";
    case MsgKind::kVoteReply: return "vote_reply";
    case MsgKind::kAppendEntries: return "append_entries";
    case MsgKind::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

std::vector<float>& CodecState::slot(MsgKind kind) {
  switch (kind) {
    case MsgKind::kModelUpdate: return model_update;
    case MsgKind::kPartialModel: return partial_model;
    default: break;
  }
  throw std::logic_error("CodecState::slot: kind carries no parameters");
}

std::vector<std::uint8_t> EncodedParts::concat() const {
  std::vector<std::uint8_t> out;
  out.reserve(size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), inline_payload.begin(), inline_payload.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void EncodedParts::commit_tx(CodecState& state) {
  if (!has_recon) return;
  state.slot(recon_kind) = std::move(recon);
  has_recon = false;
  recon.clear();
}

void encode_frame_parts(const Envelope& env, const Payload& payload, const Codec& codec,
                        const CodecState* tx_state, EncodedParts& out,
                        const TraceContext* trace) {
  out.head.clear();
  out.tail.clear();
  out.inline_payload = {};
  out.scratch_values.clear();
  out.has_recon = false;
  out.recon.clear();

  const MsgKind kind = static_cast<MsgKind>(
      std::visit([](const auto& p) { return p.kMessageKind; }, payload));
  const Codec effective = carries_params(payload) ? codec : Codec{};
  const std::vector<float>* base = nullptr;
  if (effective.delta && tx_state != nullptr && carries_params(payload)) {
    // const_cast-free: slot() is non-const only because decoders write it.
    base = kind == MsgKind::kModelUpdate ? &tx_state->model_update
                                         : &tx_state->partial_model;
  }

  std::uint16_t flags = 0;
  append_pod(out.head, kWireMagic);
  append_pod(out.head, kWireVersion);
  append_pod(out.head, static_cast<std::uint16_t>(kind));
  append_pod(out.head, flags);                       // patched below
  append_pod(out.head, static_cast<std::uint16_t>(0));  // reserved
  append_pod(out.head, env.from);
  append_pod(out.head, env.to);
  append_pod(out.head, env.round);
  append_pod(out.head, static_cast<std::uint32_t>(0));  // body_len patched below

  std::visit([&](const auto& p) { encode_body(out, p, effective, base, flags); },
             payload);

  if (trace != nullptr && trace->valid()) {
    // The trace tail rides the END of the body (after any inline payload),
    // so the zero-copy raw-dense layout is untouched and the
    // payload decoders can slice it off with one subtraction.
    flags |= kFlagTraced;
    append_pod(out.tail, trace->trace_id);
    append_pod(out.tail, trace->span_id);
    append_pod(out.tail, trace->parent_span_id);
    append_pod(out.tail, trace->wall_ns);
  }

  const auto body_len = static_cast<std::uint32_t>(
      out.head.size() - kHeaderSize + out.inline_payload.size() + out.tail.size());
  std::memcpy(out.head.data() + kHeaderSize - sizeof(std::uint32_t), &body_len,
              sizeof(body_len));
  std::memcpy(out.head.data() + 8, &flags, sizeof(flags));

  FrameDigest digest;
  digest.update(out.head);
  digest.update(out.inline_payload);
  digest.update(out.tail);
  append_pod(out.tail, digest.value());
}

std::vector<std::uint8_t> encode_frame(const Envelope& env, const Payload& payload,
                                       const Codec& codec) {
  EncodedParts parts;
  encode_frame_parts(env, payload, codec, nullptr, parts);
  return parts.concat();
}

std::vector<std::uint8_t> encode_frame(const Envelope& env, const Payload& payload,
                                       const Codec& codec, CodecState* tx_state) {
  EncodedParts parts;
  encode_frame_parts(env, payload, codec, tx_state, parts);
  auto frame = parts.concat();
  if (tx_state != nullptr) parts.commit_tx(*tx_state);
  return frame;
}

std::size_t peek_frame_size(std::span<const std::uint8_t> prefix) {
  if (prefix.size() < kHeaderSize) throw WireError("header underrun");
  std::size_t offset = 0;
  const auto magic = read_pod<std::uint32_t>(prefix, offset);
  if (magic != kWireMagic) {
    if (magic == __builtin_bswap32(kWireMagic)) {
      throw WireError("byte-swapped frame magic (big-endian sender unsupported)");
    }
    throw WireError("bad frame magic");
  }
  const auto version = read_pod<std::uint16_t>(prefix, offset);
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  std::uint32_t body_len;
  std::memcpy(&body_len, prefix.data() + kHeaderSize - sizeof(body_len), sizeof(body_len));
  return frame_overhead() + body_len;
}

FrameView FrameView::parse(std::span<const std::uint8_t> frame) {
  const std::size_t total = peek_frame_size(frame);
  if (frame.size() < total) throw WireError("truncated frame");
  if (frame.size() > total) throw WireError("trailing bytes after frame");

  std::uint64_t digest;
  std::memcpy(&digest, frame.data() + total - kDigestSize, sizeof(digest));
  FrameDigest expected;
  expected.update(frame.first(total - kDigestSize));
  if (digest != expected.value()) {
    throw WireError("frame digest mismatch");
  }

  std::uint16_t reserved;
  std::memcpy(&reserved, frame.data() + 10, sizeof(reserved));
  if (reserved != 0) throw WireError("nonzero reserved header field");
  std::uint16_t flags;
  std::memcpy(&flags, frame.data() + 8, sizeof(flags));
  if ((flags & ~kKnownFlags) != 0) throw WireError("unknown frame flags");

  FrameView view;
  view.frame_ = frame.first(total);
  return view;
}

MsgKind FrameView::kind() const noexcept {
  std::uint16_t raw;
  std::memcpy(&raw, frame_.data() + 6, sizeof(raw));
  return static_cast<MsgKind>(raw);
}

std::uint16_t FrameView::flags() const noexcept {
  std::uint16_t raw;
  std::memcpy(&raw, frame_.data() + 8, sizeof(raw));
  return raw;
}

Envelope FrameView::env() const noexcept {
  Envelope env;
  std::memcpy(&env.from, frame_.data() + 12, sizeof(env.from));
  std::memcpy(&env.to, frame_.data() + 16, sizeof(env.to));
  std::memcpy(&env.round, frame_.data() + 20, sizeof(env.round));
  return env;
}

std::span<const std::uint8_t> FrameView::body() const noexcept {
  return frame_.subspan(kHeaderSize, frame_.size() - frame_overhead());
}

std::span<const std::uint8_t> FrameView::payload_body() const {
  const auto full = body();
  if (!traced()) return full;
  // Bounds before anything downstream allocates: a forged kFlagTraced bit on
  // a short body must be a WireError, never a misparse of payload bytes.
  if (full.size() < kTraceContextSize) throw WireError("truncated trace context");
  return full.first(full.size() - kTraceContextSize);
}

TraceContext FrameView::trace_context() const {
  TraceContext ctx;
  if (!traced()) return ctx;
  const auto full = body();
  if (full.size() < kTraceContextSize) throw WireError("truncated trace context");
  std::size_t offset = full.size() - kTraceContextSize;
  ctx.trace_id = read_pod<std::uint64_t>(full, offset);
  ctx.span_id = read_pod<std::uint64_t>(full, offset);
  ctx.parent_span_id = read_pod<std::uint64_t>(full, offset);
  ctx.wall_ns = read_pod<std::int64_t>(full, offset);
  return ctx;
}

WireMessage FrameView::decode(CodecState* rx_state) const {
  WireMessage msg;
  msg.kind = kind();
  const std::uint16_t f = flags();
  msg.quantized = (f & kFlagQuantized) != 0;
  msg.topk = (f & kFlagTopK) != 0;
  msg.delta = (f & kFlagDelta) != 0;
  msg.env = env();

  std::vector<float>* slot = nullptr;
  if (rx_state != nullptr &&
      (msg.kind == MsgKind::kModelUpdate || msg.kind == MsgKind::kPartialModel)) {
    slot = &rx_state->slot(msg.kind);
  }
  msg.payload = decode_body(msg.kind, payload_body(), f, slot);
  if (slot != nullptr) {
    if (const auto* params = params_of(msg.payload)) *slot = *params;
  }
  return msg;
}

WireMessage decode_frame(std::span<const std::uint8_t> frame) {
  return FrameView::parse(frame).decode(nullptr);
}

WireMessage decode_frame(std::span<const std::uint8_t> frame, CodecState* rx_state) {
  return FrameView::parse(frame).decode(rx_state);
}

ModelUpdateHead peek_model_update(const FrameView& view) {
  if (view.kind() != MsgKind::kModelUpdate) {
    throw WireError("not a model update frame");
  }
  const auto body = view.payload_body();
  std::size_t offset = 0;
  ModelUpdateHead head;
  head.sender = read_pod<std::uint32_t>(body, offset);
  head.level = read_pod<std::uint32_t>(body, offset);
  head.samples = read_pod<std::uint64_t>(body, offset);
  std::uint64_t count = 0;
  if (view.topk()) {
    offset += sizeof(std::uint32_t);  // k
    count = read_pod<std::uint64_t>(body, offset);
    if (count > kMaxWireParams) throw WireError("sparse dense size exceeds limit");
  } else if (view.quantized()) {
    offset += sizeof(std::uint8_t) + sizeof(std::uint32_t);  // bits, block
    count = read_pod<std::uint64_t>(body, offset);
  } else {
    // Bound before any caller sizes a buffer from it (mirrors decode).
    count = read_dense_section(body, offset).size() / sizeof(float);
  }
  if (count > kMaxWireParams) throw WireError("parameter count exceeds limit");
  head.param_count = static_cast<std::size_t>(count);
  return head;
}

std::span<const float> model_update_params(const FrameView& view, CodecState* rx_state,
                                           std::vector<float>& scratch) {
  if (view.kind() != MsgKind::kModelUpdate) {
    throw WireError("not a model update frame");
  }
  const auto body = view.payload_body();
  std::size_t offset = kModelUpdateFixed;
  if (!view.quantized() && !view.topk() && !view.delta()) {
    // Raw dense: hand out a span into the frame — no allocation, no copy,
    // and no hash pass (the frame digest verified in FrameView::parse
    // already covered every byte).
    const auto raw = read_dense_section(body, offset);
    if (offset != body.size()) throw WireError("trailing bytes after model update");
    std::span<const float> out;
    if (reinterpret_cast<std::uintptr_t>(raw.data()) % alignof(float) == 0) {
      out = {reinterpret_cast<const float*>(raw.data()), raw.size() / sizeof(float)};
    } else {
      scratch = copy_out<float>(raw);
      out = scratch;
    }
    if (rx_state != nullptr) rx_state->model_update.assign(out.begin(), out.end());
    return out;
  }
  const std::vector<float>* base = rx_state != nullptr ? &rx_state->model_update : nullptr;
  scratch = read_params(body, offset, view.flags(), base);
  if (offset != body.size()) throw WireError("trailing bytes after model update");
  if (rx_state != nullptr) rx_state->model_update = scratch;
  return scratch;
}

std::size_t encoded_size(const Payload& payload, const Codec& codec) {
  const Codec effective = carries_params(payload) ? codec : Codec{};
  std::size_t body = 0;
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, ModelUpdate>) {
          body = kModelUpdateFixed + params_body_size(p.params.size(), effective);
        } else if constexpr (std::is_same_v<T, PartialModel>) {
          body = kPartialModelFixed + params_body_size(p.params.size(), effective);
        } else if constexpr (std::is_same_v<T, ConsensusVote>) {
          body = kVoteFixed;
        } else if constexpr (std::is_same_v<T, StatusRequest>) {
          body = kStatusRequestFixed;
        } else if constexpr (std::is_same_v<T, StatusReply>) {
          body = kStatusReplyFixed + p.peers.size() * kStatusPeerWire +
                 p.metrics.size();
        } else if constexpr (std::is_same_v<T, VoteRequest>) {
          body = kVoteRequestFixed;
        } else if constexpr (std::is_same_v<T, VoteReply>) {
          body = kVoteReplyFixed;
        } else if constexpr (std::is_same_v<T, AppendEntries>) {
          body = kAppendEntriesFixed;
          for (const RaftLogEntry& e : p.entries) {
            body += kRaftEntryFixed + e.params.size() * sizeof(float);
          }
        } else if constexpr (std::is_same_v<T, Heartbeat>) {
          body = kHeartbeatFixed;
        } else {
          body = kMembershipFixed;
        }
      },
      payload);
  return frame_overhead() + body;
}

std::size_t model_update_wire_size(std::size_t param_count) noexcept {
  return frame_overhead() + kModelUpdateFixed + dense_section_size(param_count);
}

std::size_t partial_model_wire_size(std::size_t param_count) noexcept {
  return frame_overhead() + kPartialModelFixed + dense_section_size(param_count);
}

std::size_t vote_wire_size() noexcept { return frame_overhead() + kVoteFixed; }

std::size_t membership_wire_size() noexcept {
  return frame_overhead() + kMembershipFixed;
}

std::size_t status_request_wire_size() noexcept {
  return frame_overhead() + kStatusRequestFixed;
}

std::size_t status_reply_wire_size(std::size_t peer_count,
                                   std::size_t metrics_bytes) noexcept {
  return frame_overhead() + kStatusReplyFixed + peer_count * kStatusPeerWire +
         metrics_bytes;
}

std::size_t estimated_model_bytes(std::size_t param_count) noexcept {
  return nn::wire_size(param_count);
}

std::size_t estimated_payload_bytes(const Payload& payload) noexcept {
  if (const auto* update = std::get_if<ModelUpdate>(&payload)) {
    return estimated_model_bytes(update->params.size());
  }
  if (const auto* partial = std::get_if<PartialModel>(&payload)) {
    return estimated_model_bytes(partial->params.size());
  }
  return 0;
}

}  // namespace abdhfl::net
