// Byte-level serialization.
//
// Messages are encoded to concrete bytes so that (1) the simulator charges
// every transmission its true wire size — the paper's "message overhead"
// metric is bytes on air — and (2) descriptor identity is a hash of a
// canonical encoding rather than of in-memory layout.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.h"

namespace pds {

class ByteWriter {
 public:
  // A writer that stores nothing: every put_* only advances size(), so
  // running an encoder into it measures that encoding without allocating.
  // put_string still rejects over-long strings. The wire codec sizes frames
  // this way (net/codec.h).
  [[nodiscard]] static ByteWriter counter() {
    ByteWriter w;
    w.counting_ = true;
    return w;
  }
  [[nodiscard]] bool counting() const { return counting_; }

  void put_u8(std::uint8_t v) { put_le(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  // Arrays as consecutive values; a counter counts them in one step.
  void put_u32s(std::span<const std::uint32_t> v) { put_all(v); }
  void put_u64s(std::span<const std::uint64_t> v) { put_all(v); }
  // LEB128 base-128 varint, 1–10 bytes. The compressed wire paths
  // (net/codec.cc v2 extensions, net/bloom_delta.cc) use varints for counts,
  // indices and deltas that are small in the common case.
  void put_varint(std::uint64_t v);
  // Zigzag-mapped signed varint: small magnitudes of either sign stay short.
  void put_varint_i64(std::int64_t v);
  // Length-prefixed (u16) string.
  void put_string(std::string_view s);
  // Counters only: advances size() by `n` bytes that are charged but not
  // encoded (the codec's modelling overrides, net/codec.cc).
  void count(std::size_t n) {
    PDS_ENSURE(counting_);
    count_ += n;
  }

  [[nodiscard]] std::size_t size() const {
    return counting_ ? count_ : buf_.size();
  }
  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  // Empties the buffer but keeps its capacity, for a reused scratch writer.
  void clear() {
    buf_.clear();
    count_ = 0;
  }

 private:
  // Little-endian; the counting branch stays inline so sizing a frame
  // costs an add per field.
  template <typename T>
  void put_le(T v) {
    if (counting_) {
      count_ += sizeof(T);
      return;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }

  template <typename T>
  void put_all(std::span<const T> v) {
    if (counting_) {
      count_ += sizeof(T) * v.size();
      return;
    }
    for (T x : v) put_le(x);
  }

  std::vector<std::byte> buf_;
  bool counting_ = false;
  std::size_t count_ = 0;  // size() of a counter
};

// Thrown when a reader runs past the end of its buffer or a length prefix is
// inconsistent — i.e., a malformed message.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_f64();
  // Throws DecodeError on truncation and on non-canonical encodings
  // (more than 10 bytes, bits past the 64th, or a zero-valued trailing
  // continuation group), so decode(encode(x)) is the unique byte form.
  [[nodiscard]] std::uint64_t get_varint();
  [[nodiscard]] std::int64_t get_varint_i64();
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw DecodeError("buffer underrun");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace pds
