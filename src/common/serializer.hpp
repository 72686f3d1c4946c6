// Byte-oriented serialization used for real wire encoding of STAT packets.
// Payload sizes produced here feed the network model, so encodings must be
// the actual formats (dense bit vector pages vs ranged task lists).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace petastat {

/// Wire-format version carried as the leading byte of every top-level
/// encoding (ranged task sets, hierarchical task sets, prefix trees).
/// Nested fields inside a versioned envelope are unversioned. Bump on any
/// incompatible layout change so decoders can distinguish version skew
/// (FAILED_PRECONDITION) from plain truncation/corruption
/// (INVALID_ARGUMENT "truncated buffer").
inline constexpr std::uint8_t kWireFormatVersion = 1;

/// Bytes ByteSink::put_varint(v) writes: one per started group of 7 bits.
/// Lets sizers measure an encoding arithmetically instead of encoding it.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  return static_cast<std::size_t>((std::bit_width(v | 1) + 6) / 7);
}

/// Append-only byte sink with varint and fixed-width encoders.
class ByteSink {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + 4);
    std::memcpy(buf_.data() + at, &v, 4);
  }

  void put_u64(std::uint64_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + 8);
    std::memcpy(buf_.data() + at, &v, 8);
  }

  /// LEB128-style varint; small values dominate STAT payloads.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte span. All getters report truncation via
/// Status rather than UB.
class ByteSource {
 public:
  explicit ByteSource(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Status get_u8(std::uint8_t& out) {
    if (pos_ + 1 > data_.size()) return truncated();
    out = data_[pos_++];
    return Status::ok();
  }

  [[nodiscard]] Status get_u32(std::uint32_t& out) {
    if (pos_ + 4 > data_.size()) return truncated();
    std::memcpy(&out, data_.data() + pos_, 4);
    pos_ += 4;
    return Status::ok();
  }

  [[nodiscard]] Status get_u64(std::uint64_t& out) {
    if (pos_ + 8 > data_.size()) return truncated();
    std::memcpy(&out, data_.data() + pos_, 8);
    pos_ += 8;
    return Status::ok();
  }

  [[nodiscard]] Status get_varint(std::uint64_t& out) {
    out = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return truncated();
      const std::uint8_t byte = data_[pos_++];
      // The 10th byte holds bit 63 only: anything above 1 overflows, and a
      // set continuation bit would push the next shift past 64 (UB).
      if (shift >= 63 && byte > 1) return invalid_argument("varint overflow");
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return Status::ok();
      shift += 7;
    }
  }

  [[nodiscard]] Status get_string(std::string& out) {
    std::uint64_t len = 0;
    if (auto s = get_varint(len); !s.is_ok()) return s;
    // `pos_ + len` may wrap for attacker-controlled lengths; compare against
    // the remaining bytes instead.
    if (len > data_.size() - pos_) return truncated();
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return Status::ok();
  }

  [[nodiscard]] Status get_bytes(std::size_t n, std::span<const std::uint8_t>& out) {
    if (n > data_.size() - pos_) return truncated();
    out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::ok();
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  /// Caps an untrusted element count before a container reserve(): every
  /// encoded element occupies at least one byte, so no valid stream holds
  /// more elements than it has bytes remaining. Keeps a corrupt count header
  /// from allocating wildly before the truncation error surfaces.
  [[nodiscard]] std::size_t clamped_count(std::uint64_t n) const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining()));
  }

 private:
  static Status truncated() { return invalid_argument("truncated buffer"); }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

inline void put_wire_version(ByteSink& sink) {
  sink.put_u8(kWireFormatVersion);
}

/// Reads and checks the leading version byte. A missing byte reports
/// truncation; a mismatched byte reports version skew, distinctly.
[[nodiscard]] inline Status check_wire_version(ByteSource& source) {
  std::uint8_t version = 0;
  if (auto s = source.get_u8(version); !s.is_ok()) return s;
  if (version != kWireFormatVersion) {
    return failed_precondition(
        "wire format version skew: got " + std::to_string(version) +
        ", expected " + std::to_string(kWireFormatVersion));
  }
  return Status::ok();
}

}  // namespace petastat
