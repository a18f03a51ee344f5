// Byte-buffer primitives used by the UTS codecs and the Schooner wire
// protocol. All multi-byte quantities written through ByteWriter/ByteReader
// are big-endian (network order), which is also the UTS canonical order.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace npss::util {

using Bytes = std::vector<std::uint8_t>;

/// Append-only big-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { put_be(v); }
  void u32(std::uint32_t v) { put_be(v); }
  void u64(std::uint64_t v) { put_be(v); }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
  }

  /// Length-prefixed string (u32 length + raw bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed nested blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Pre-size the buffer (compiled marshal plans and encode_message know
  /// the wire size).
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Overwrite 4 bytes at `pos` with `v` (big-endian). Used for length
  /// placeholders patched once the payload size is known — the bus
  /// framer writes a frame's body directly after its prefix and fills
  /// the prefix in afterwards, avoiding an intermediate buffer.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * (3 - i)));
    }
  }

  /// Roll back to an earlier size (a frame boundary) after a failed
  /// in-place encode, leaving previously written frames intact.
  void truncate(std::size_t n) { buf_.resize(n); }

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const& noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  /// Grow by sizeof(v) once and store `v` big-endian in place.
  template <typename T>
  void put_be(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof v);
    std::uint8_t* p = buf_.data() + at;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof v - 1 - i)));
    }
  }

  Bytes buf_;
};

/// Sequential big-endian byte source; throws EncodingError on underflow.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v = static_cast<std::uint16_t>((v << 8) | data_[pos_ + i]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  float f32() {
    std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes blob() {
    std::uint32_t n = u32();
    need(n);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  // Out-of-line, [[noreturn]] failure path: keeps the hot accessors tiny
  // and lets the compiler prove post-check accesses are reachable only
  // when in bounds.
  [[noreturn]] void underflow(std::size_t need_bytes) const;

  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) underflow(n);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex dump of a byte span, for diagnostics and tests.
std::string hex_dump(std::span<const std::uint8_t> data);

}  // namespace npss::util
