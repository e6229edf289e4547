#include "ckpt/container.hpp"

#include <array>
#include <cstring>

namespace abdhfl::ckpt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

template <class T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <class T>
T read_pod(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  if (sizeof(T) > bytes.size() - offset) throw CkptError("truncated checkpoint");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string tag_name(std::uint32_t tag) {
  std::string out(4, '.');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFFu);
    if (c >= 0x20 && c < 0x7F) out[static_cast<std::size_t>(i)] = c;
  }
  return out;
}

const Chunk* Container::find(std::uint32_t tag) const noexcept {
  for (const Chunk& c : chunks) {
    if (c.tag == tag) return &c;
  }
  return nullptr;
}

const Chunk& Container::require(std::uint32_t tag) const {
  const Chunk* c = find(tag);
  if (c == nullptr) throw CkptError("checkpoint missing chunk " + tag_name(tag));
  return *c;
}

std::vector<std::uint8_t> encode_container(const Container& c) {
  if (c.chunks.size() > kMaxChunks) throw CkptError("too many chunks to encode");
  if (c.producer.size() > kMaxProducer) throw CkptError("producer string too long");
  std::size_t total = 4 + 4 + 4 + c.producer.size() + 8 + 4 + 4;
  for (const Chunk& ch : c.chunks) total += 4 + 8 + 4 + ch.payload.size();

  std::vector<std::uint8_t> out;
  out.reserve(total);
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint32_t>(c.producer.size()));
  out.insert(out.end(), c.producer.begin(), c.producer.end());
  append_pod(out, c.round);
  append_pod(out, static_cast<std::uint32_t>(c.chunks.size()));
  for (const Chunk& ch : c.chunks) {
    append_pod(out, ch.tag);
    append_pod(out, static_cast<std::uint64_t>(ch.payload.size()));
    append_pod(out, crc32(ch.payload));
    out.insert(out.end(), ch.payload.begin(), ch.payload.end());
  }
  append_pod(out, crc32(out));
  return out;
}

Container decode_container(std::span<const std::uint8_t> bytes) {
  // Whole-file CRC first: a flipped byte anywhere (header, chunk table, or
  // footer itself) fails here before any field is trusted.
  if (bytes.size() < 4) throw CkptError("truncated checkpoint");
  std::uint32_t footer = 0;
  std::memcpy(&footer, bytes.data() + bytes.size() - 4, 4);
  if (footer != crc32(bytes.first(bytes.size() - 4))) {
    throw CkptError("checkpoint file CRC mismatch");
  }
  const auto body = bytes.first(bytes.size() - 4);

  std::size_t offset = 0;
  const auto magic = read_pod<std::uint32_t>(body, offset);
  if (magic != kMagic) {
    if (magic == __builtin_bswap32(kMagic)) {
      throw CkptError("big-endian checkpoint: the format is little-endian only");
    }
    throw CkptError("bad checkpoint magic");
  }
  Container c;
  c.version = read_pod<std::uint32_t>(body, offset);
  if (c.version != kVersion) throw CkptError("unsupported checkpoint version");
  const auto producer_len = read_pod<std::uint32_t>(body, offset);
  if (producer_len > kMaxProducer || producer_len > body.size() - offset) {
    throw CkptError("checkpoint producer length out of range");
  }
  c.producer.assign(reinterpret_cast<const char*>(body.data() + offset), producer_len);
  offset += producer_len;
  c.round = read_pod<std::uint64_t>(body, offset);
  const auto count = read_pod<std::uint32_t>(body, offset);
  if (count > kMaxChunks) throw CkptError("checkpoint chunk count out of range");
  c.chunks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Chunk ch;
    ch.tag = read_pod<std::uint32_t>(body, offset);
    const auto size = read_pod<std::uint64_t>(body, offset);
    const auto chunk_crc = read_pod<std::uint32_t>(body, offset);
    // Bound BEFORE the allocation: a forged size near 2^64 must throw here,
    // not surface as bad_alloc or wrap a later arithmetic check.
    if (size > body.size() - offset) throw CkptError("checkpoint chunk overruns file");
    ch.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(offset),
                      body.begin() + static_cast<std::ptrdiff_t>(offset + size));
    offset += size;
    if (chunk_crc != crc32(ch.payload)) {
      throw CkptError("chunk " + tag_name(ch.tag) + " CRC mismatch");
    }
    c.chunks.push_back(std::move(ch));
  }
  if (offset != body.size()) throw CkptError("trailing bytes after checkpoint chunks");
  return c;
}

// ---------------------------------------------------------------------------

void PayloadWriter::f32vec(std::span<const float> v) {
  u64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(float));
}

void PayloadWriter::f64vec(std::span<const double> v) {
  u64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(double));
}

void PayloadWriter::u64vec(std::span<const std::uint64_t> v) {
  u64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(std::uint64_t));
}

void PayloadWriter::u32vec(std::span<const std::uint32_t> v) {
  u64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(std::uint32_t));
}

void PayloadWriter::str(std::string_view s) {
  u64(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

template <class T>
T PayloadReader::pod() {
  if (sizeof(T) > remaining()) throw CkptError("truncated chunk payload");
  T value;
  std::memcpy(&value, bytes_.data() + off_, sizeof(T));
  off_ += sizeof(T);
  return value;
}

template <class T>
std::vector<T> PayloadReader::vec() {
  const auto count = pod<std::uint64_t>();
  if (count > remaining() / sizeof(T)) throw CkptError("truncated chunk payload");
  std::vector<T> out(count);
  // An empty vector's data() may be null, which memcpy must never see.
  if (count != 0) std::memcpy(out.data(), bytes_.data() + off_, count * sizeof(T));
  off_ += count * sizeof(T);
  return out;
}

std::uint8_t PayloadReader::u8() { return pod<std::uint8_t>(); }
std::uint32_t PayloadReader::u32() { return pod<std::uint32_t>(); }
std::uint64_t PayloadReader::u64() { return pod<std::uint64_t>(); }
float PayloadReader::f32() { return pod<float>(); }
double PayloadReader::f64() { return pod<double>(); }

std::vector<float> PayloadReader::f32vec() { return vec<float>(); }
std::vector<double> PayloadReader::f64vec() { return vec<double>(); }
std::vector<std::uint64_t> PayloadReader::u64vec() { return vec<std::uint64_t>(); }
std::vector<std::uint32_t> PayloadReader::u32vec() { return vec<std::uint32_t>(); }

std::string PayloadReader::str() {
  const auto count = pod<std::uint64_t>();
  if (count > remaining()) throw CkptError("truncated chunk payload");
  std::string out(reinterpret_cast<const char*>(bytes_.data() + off_), count);
  off_ += count;
  return out;
}

void PayloadReader::expect_done() const {
  if (off_ != bytes_.size()) throw CkptError("trailing bytes in chunk payload");
}

}  // namespace abdhfl::ckpt
