// Little-endian byte codec: the one rule for how integers sit in bytes in
// every binary format of the project — Driver-Kernel messages (paper §4.2),
// worker frames, WorkerConfig, WorkerObsReport, NCKP checkpoints and NTRC
// trace snapshots.
//
//  * load_le* / store_le*: unchecked primitives for callers that check
//    bounds themselves (the worker frame peek, instruction fetch, packet
//    serialisation); each folds into one load or store.
//  * read_le / write_le: 1..4-byte fields with checked preconditions.
//  * ByteWriter appends; ByteReader checks bounds once per field and throws
//    RuntimeError naming the structure being decoded on truncation or on a
//    count the remaining bytes cannot hold.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nisc::util {

inline std::uint16_t load_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return load_le32(p) | (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

inline void store_le16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  store_le16(p, static_cast<std::uint16_t>(v));
  store_le16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/// Reads a little-endian value of `width` (1..4) bytes from `bytes` (must
/// have at least `width` elements).
inline std::uint32_t read_le(std::span<const std::uint8_t> bytes, unsigned width) {
  require(width >= 1 && width <= 4, "read_le: width must be 1..4");
  require(bytes.size() >= width, "read_le: span too small");
  std::uint32_t v = 0;
  for (unsigned i = 0; i < width; ++i) v |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  return v;
}

/// Writes the low `width` (1..4) bytes of `value` little-endian into `bytes`.
inline void write_le(std::span<std::uint8_t> bytes, unsigned width, std::uint32_t value) {
  require(width >= 1 && width <= 4, "write_le: width must be 1..4");
  require(bytes.size() >= width, "write_le: span too small");
  for (unsigned i = 0; i < width; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/// Views the characters of `s` as bytes.
inline std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { store_le16(grow(2), v); }
  void u32(std::uint32_t v) { store_le32(grow(4), v); }
  void u64(std::uint64_t v) { store_le64(grow(8), v); }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  /// Length-prefixed (u32) byte blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }
  /// Length-prefixed (u16) string.
  void str(std::string_view s) {
    require(s.size() <= 0xFFFF, "byte codec: string too long");
    u16(static_cast<std::uint16_t>(s.size()));
    bytes(as_bytes(s));
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& data() const { return out_; }

 private:
  std::uint8_t* grow(std::size_t n) {
    out_.resize(out_.size() + n);
    return out_.data() + out_.size() - n;
  }

  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, const char* what) : data_(data), what_(what) {}

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() { return load_le16(take(2)); }
  std::uint32_t u32() { return load_le32(take(4)); }
  std::uint64_t u64() { return load_le64(take(8)); }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    const std::uint8_t* p = take(n);
    return {p, p + n};
  }
  /// The unread tail, consumed without a copy.
  std::span<const std::uint8_t> rest() noexcept {
    const std::span<const std::uint8_t> tail = data_.subspan(pos_);
    pos_ = data_.size();
    return tail;
  }
  /// Length-prefixed (u32) byte blob.
  std::vector<std::uint8_t> blob() { return bytes(u32()); }
  /// Length-prefixed (u32) byte blob read as text.
  std::string blob_str() { return text(u32()); }
  /// Length-prefixed (u16) string.
  std::string str() { return text(u16()); }

  /// Reads a u32 element count and rejects it when the remaining bytes
  /// cannot hold that many elements of at least `min_elem_bytes` each, so a
  /// hostile count fails here rather than in a reserve() or a long loop.
  std::uint32_t count(std::size_t min_elem_bytes) { return bounded(u32(), min_elem_bytes); }
  /// The same rule for a u16 count.
  std::uint16_t count16(std::size_t min_elem_bytes) { return bounded(u16(), min_elem_bytes); }

  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  /// Bounds-checks and consumes `n` bytes; returns where they start.
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) [[unlikely]] fail_truncated(n);
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  // The throws live out of the inlined read path.
  [[noreturn, gnu::cold, gnu::noinline]] void fail_truncated(std::size_t n) const {
    throw RuntimeError("truncated " + std::string(what_) + " (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()) + ")");
  }

  [[noreturn, gnu::cold, gnu::noinline]] void fail_count(std::uint64_t n,
                                                         std::size_t min_elem_bytes) const {
    throw RuntimeError("implausible count in " + std::string(what_) + " (" + std::to_string(n) +
                       " elements of at least " + std::to_string(min_elem_bytes) +
                       " bytes, have " + std::to_string(remaining()) + ")");
  }

  std::string text(std::size_t n) {
    const std::uint8_t* p = take(n);
    return {reinterpret_cast<const char*>(p), n};
  }

  template <typename T>
  T bounded(T n, std::size_t min_elem_bytes) {
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) [[unlikely]] {
      fail_count(n, min_elem_bytes);
    }
    return n;
  }

  std::span<const std::uint8_t> data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace nisc::util
