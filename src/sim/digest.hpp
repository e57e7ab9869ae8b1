// Streaming 64-bit content digest.
//
// FNV-1a over the bytes with a SplitMix64 avalanche finalizer — not
// cryptographic, but order-sensitive and stable across platforms, which is
// what the differential and determinism harnesses (src/check/) and the fault
// engine's injected-event traces (src/fault/) need: two runs produce the
// same digest iff they produced the same byte stream in the same order.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sim/rng.hpp"

namespace ibridge::sim {

class Digest {
 public:
  Digest& update(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      state_ ^= static_cast<std::uint64_t>(b);
      state_ *= kPrime;
    }
    return *this;
  }

  Digest& update(std::string_view s) {
    for (char c : s) {
      state_ ^= static_cast<std::uint8_t>(c);
      state_ *= kPrime;
    }
    return *this;
  }

  /// Mix in an integral value (little-endian byte order independent: the
  /// value is folded in as 8 explicit bytes).
  Digest& update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xff;
      state_ *= kPrime;
    }
    return *this;
  }

  Digest& update_i64(std::int64_t v) {
    return update_u64(static_cast<std::uint64_t>(v));
  }

  /// Finalized value (the running state stays usable for further updates).
  std::uint64_t value() const {
    std::uint64_t s = state_;
    return splitmix64(s);
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t state_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace ibridge::sim
