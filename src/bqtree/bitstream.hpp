// Packed bit streams for the BQ-Tree codec.
//
// Cursor discipline (Sec. IV.A): a decoder must consume exactly the bits
// the encoder produced for a quadrant -- reading past the encoded stream
// is always a codec bug or a truncated payload, and the reader throws
// `InvalidArgument("bit stream exhausted")` in every build instead of
// touching memory past the span.
//
// Both ends move whole words: the writer appends up to 32 bits per call
// through a 64-bit accumulator, and the reader serves reads from a 64-bit
// buffer that it refills a word at a time, with one bounds check per
// refill rather than one per bit.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace zh {

/// Append-only MSB-first bit writer.
class BitWriter {
 public:
  void put(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  /// Append the low `count` bits of `v`, most-significant first.
  void put_bits(std::uint32_t v, unsigned count) {
    ZH_REQUIRE(count <= 32, "too many bits");
    if (count == 0) return;
    // pending_ < 8 before the shift, so the accumulator never holds more
    // than 39 live bits.
    acc_ = (acc_ << count) | (v & (~std::uint64_t{0} >> (64u - count)));
    pending_ += count;
    while (pending_ >= 8) {
      pending_ -= 8;
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> pending_));
    }
  }

  [[nodiscard]] std::size_t bit_count() const {
    // All index math in 64-bit: byte count widens before the *8 so streams
    // larger than 2^29 bytes cannot wrap a 32-bit intermediate.
    return static_cast<std::size_t>(bytes_.size()) * 8u + pending_;
  }

  /// The stream so far; a partial last byte is zero-padded.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    if (pending_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8u - pending_)));
    }
    acc_ = 0;
    pending_ = 0;
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;  // completed bytes
  std::uint64_t acc_ = 0;            // low pending_ bits not yet in bytes_
  unsigned pending_ = 0;             // always < 8 between calls
};

/// MSB-first bit reader over a byte span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool get() { return get_bits(1) != 0; }

  std::uint32_t get_bits(unsigned count) {
    ZH_ASSERT(count <= 32, "BitReader::get_bits: count=", count,
              " exceeds 32-bit accumulator");
    if (count == 0) return 0;
    if (avail_ < count) refill(count);
    const auto v = static_cast<std::uint32_t>(buf_ >> (64u - count));
    buf_ <<= count;
    avail_ -= count;
    return v;
  }

  /// Total bits in the underlying span (64-bit math; see bit_count above).
  [[nodiscard]] std::size_t bit_size() const {
    return static_cast<std::size_t>(bytes_.size()) * 8u;
  }

  /// Bits not yet consumed.
  [[nodiscard]] std::size_t remaining() const {
    return bit_size() - position();
  }

  [[nodiscard]] std::size_t position() const {
    return static_cast<std::size_t>(next_) * 8u - avail_;
  }

 private:
  // Top up buf_ with whole bytes until it holds at least 57 bits or the
  // span ends, then make the one bounds check: `count` bits must be there.
  void refill(unsigned count) {
    if (bytes_.size() - next_ >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes_.data() + next_, sizeof(word));
      if constexpr (std::endian::native == std::endian::little) {
        word = byteswap64(word);
      }
      const unsigned take = (63u - avail_) >> 3u;  // whole bytes that fit
      buf_ |= (word >> (64u - 8u * take)) << (64u - 8u * take - avail_);
      next_ += take;
      avail_ += 8u * take;
    } else {
      while (avail_ <= 56 && next_ < bytes_.size()) {
        buf_ |= std::uint64_t{bytes_[next_++]} << (56u - avail_);
        avail_ += 8;
      }
    }
    if (avail_ < count) throw InvalidArgument("bit stream exhausted");
  }

  static std::uint64_t byteswap64(std::uint64_t v) {
    v = ((v & 0x00FF00FF00FF00FFull) << 8) |
        ((v >> 8) & 0x00FF00FF00FF00FFull);
    v = ((v & 0x0000FFFF0000FFFFull) << 16) |
        ((v >> 16) & 0x0000FFFF0000FFFFull);
    return (v << 32) | (v >> 32);
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t buf_ = 0;  // unread bits, MSB-aligned; bits below avail_ are 0
  unsigned avail_ = 0;     // valid bits in buf_
  std::size_t next_ = 0;   // next byte of bytes_ to load
};

}  // namespace zh
