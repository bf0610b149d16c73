// Bit-packed representation of BitMap activations.
//
// A BitMap spends a byte per activation; post-Algorithm-1 activations are
// 1-bit, so the packed form stores 64 of them per machine word (LSB-first:
// activation i lives in bit i%64 of word i/64). Packing normalizes any
// nonzero byte to 1 — exactly the predicate the SEI evaluation applies to a
// byte activation — and unpacking always produces clean 0/1 bytes, so a
// pack/unpack round trip is the identity on every BitMap the pipeline
// produces. The word layout is the contract the packed kernels (the row
// scatter, the packed OR-pool) are written against; see docs/kernels.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quant/qnet.hpp"

namespace sei::quant {

/// A BitMap packed 64 activations per word. Tail bits past `bits` are
/// always zero — kernels rely on that to popcount whole words.
struct PackedBits {
  std::vector<std::uint64_t> words;
  std::size_t bits = 0;

  bool get(std::size_t i) const {
    return (words[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sizes the word vector for `n` bits and clears every word.
  void reset(std::size_t n) {
    bits = n;
    words.assign((n + 63) / 64, 0);
  }
};

/// Packs a byte-per-activation BitMap (any nonzero byte counts as 1).
void pack_bits(const BitMap& in, PackedBits& out);
PackedBits pack_bits(const BitMap& in);

/// Unpacks to a byte-per-activation BitMap of exactly 0/1 values.
void unpack_bits(const PackedBits& in, BitMap& out);
BitMap unpack_bits(const PackedBits& in);

}  // namespace sei::quant
