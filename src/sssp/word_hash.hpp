// word_hash.hpp — the 64-bit hash behind the plan-file checksum
// (serving/plan_io.cpp) and GraphPlan::fingerprint().
//
// The input is read as 64-bit words in host byte order (the plan file
// carries an endianness marker), dealt round-robin to four independent
// lanes.  Each lane folds its word with one multiply–xorshift step,
//
//     lane = (lane ^ w) * K;   lane ^= lane >> 32;
//
// so a 32-byte block costs four multiply chains the CPU runs side by side
// instead of FNV-1a's one multiply per byte.  At the end the byte count and
// the four lanes fold into one value through the splitmix64 finalizer.
//
// Each step is a bijection of the lane for a fixed word and of the word for
// a fixed lane, and every fold step is a bijection of the running value, so
// two inputs of the same length that differ inside one 8-byte word always
// hash differently: every single-bit flip is detected.  The hash is not
// cryptographic — a matching value is easy to forge — which is why the
// plan loader audits everything behind the checksum.
// scripts/gen_fuzz_corpus.py carries a Python copy, checked against the
// golden plan file.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dsg {

/// The splitmix64 finalizer: a bijective 64-bit mixer.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Streaming four-lane word hash.  Feed bytes with update() (any number of
/// calls; only the last may end inside a word, whose missing bytes count
/// as zero), then read digest().
class WordHash {
 public:
  void update(const void* data, std::size_t bytes) {
    assert(!closed_ && "only the last update may end mid-word");
    if (bytes == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_ += bytes;
    // Align to a lane-0 boundary, then run whole 4-word blocks.
    while (words_ % kLanes != 0 && bytes >= 8) {
      absorb(load(p));
      p += 8;
      bytes -= 8;
    }
    std::uint64_t l0 = lane_[0], l1 = lane_[1], l2 = lane_[2], l3 = lane_[3];
    for (; bytes >= 8 * kLanes; p += 8 * kLanes, bytes -= 8 * kLanes) {
      l0 = step(l0, load(p));
      l1 = step(l1, load(p + 8));
      l2 = step(l2, load(p + 16));
      l3 = step(l3, load(p + 24));
      words_ += kLanes;
    }
    lane_ = {l0, l1, l2, l3};
    for (; bytes >= 8; p += 8, bytes -= 8) absorb(load(p));
    if (bytes != 0) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, p, bytes);
      absorb(tail);
      closed_ = true;
    }
  }

  std::uint64_t digest() const {
    std::uint64_t h = splitmix64_finalize(bytes_);
    for (const std::uint64_t lane : lane_) h = splitmix64_finalize(h ^ lane);
    return h;
  }

 private:
  static constexpr std::size_t kLanes = 4;

  static std::uint64_t load(const unsigned char* p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    return w;
  }

  static std::uint64_t step(std::uint64_t lane, std::uint64_t w) {
    lane = (lane ^ w) * 0x9e3779b97f4a7c15ULL;
    return lane ^ (lane >> 32);
  }

  void absorb(std::uint64_t w) {
    std::uint64_t& lane = lane_[words_ % kLanes];
    lane = step(lane, w);
    ++words_;
  }

  // Distinct starting lanes: hex digits of pi.
  std::array<std::uint64_t, kLanes> lane_ = {
      0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
      0x082efa98ec4e6c89ULL};
  std::uint64_t words_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

}  // namespace dsg
