// Bit-packed building blocks of the SEI packed engines.
//
// Post-Algorithm-1 activations are 1-bit (quant/qnet.hpp), so a crossbar
// block's column current is a sum of effective weights over *selected*
// rows. For an ideal device those effective values are exact integers
// (mapping.cpp reduces programmed cells to level units), which makes the
// sum computable entirely in integer arithmetic. Integer accumulation has
// no floating-point ordering hazards, so the packed engines reproduce the
// scalar double accumulation bit-for-bit (every partial sum is exact — see
// docs/kernels.md for the equivalence argument, including the stage-0 DAC
// case).
//
// This file holds what those engines share: bit-vector primitives over
// packed activations, the packed 2×2 OR-pool, the stage-0 DAC cache, and
// PackedStage — one stage's integer weights as a padded int16 row table.
// When every block column's Σ|w| fits int16, any subset of rows sums
// without overflow, and the row-scatter kernel (core/sei_network.cpp,
// docs/kernels.md §5) adds the table row of each active input bit into
// int16 accumulators.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "quant/bitpack.hpp"

namespace sei::core {

// ---------------------------------------------------------------------------
// Bit-vector primitives.
// ---------------------------------------------------------------------------

/// OR-copies `len` bits from `src` starting at bit `src_off` into `dst`
/// starting at bit `dst_off`. Destination bits in the target range must be
/// zero (the window buffers are cleared per position).
void copy_bits(const std::uint64_t* src, std::size_t src_off,
               std::uint64_t* dst, std::size_t dst_off, std::size_t len);

/// The `n` bits (1 ≤ n ≤ 64) starting at bit `off`. The containing words
/// must exist; a two-word straddle is handled.
inline std::uint64_t extract_bits64(const std::uint64_t* words,
                                    std::size_t off, int n) {
  const std::size_t i = off >> 6;
  const int s = static_cast<int>(off & 63);
  std::uint64_t v = words[i] >> s;
  if (s != 0 && s + n > 64) v |= words[i + 1] << (64 - s);
  if (n < 64) v &= (std::uint64_t{1} << n) - 1;
  return v;
}

/// Sequential LSB-first bit appender into a PackedBits.
class BitWriter {
 public:
  /// Resets `out` to `total_bits` zeroed bits and positions at bit 0.
  BitWriter(quant::PackedBits& out, std::size_t total_bits) : out_(&out) {
    out.reset(total_bits);
  }

  /// Appends the low `n` bits of `v` (0 ≤ n ≤ 64).
  void append(std::uint64_t v, int n) {
    if (n <= 0) return;
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    buf_ |= v << fill_;
    if (fill_ + n >= 64) {
      out_->words[word_++] = buf_;
      const int taken = 64 - fill_;
      buf_ = taken < 64 ? v >> taken : 0;
      fill_ += n - 64;
    } else {
      fill_ += n;
    }
  }

  /// Flushes the partially filled tail word (call exactly once, at the end).
  void finish() {
    if (fill_ > 0) out_->words[word_] = buf_;
    buf_ = 0;
    fill_ = 0;
  }

 private:
  quant::PackedBits* out_;
  std::uint64_t buf_ = 0;
  int fill_ = 0;
  std::size_t word_ = 0;
};

// ---------------------------------------------------------------------------
// 2×2 OR-pool (the degenerate max-pool of binary activations).
// ---------------------------------------------------------------------------

/// Byte-map OR-pool of a [h×w×c] BitMap (floor semantics, like MaxPool2x2).
/// The scalar reference path and the micro benches share this.
void or_pool_bytes(const quant::BitMap& in, int h, int w, int c,
                   quant::BitMap& out);

/// Same reduction on packed words: channel groups of the four source
/// pixels are extracted and OR-merged without ever widening to bytes.
void or_pool_packed(const quant::PackedBits& in, int h, int w, int c,
                    quant::PackedBits& out);

// ---------------------------------------------------------------------------
// Stage-0 DAC cache.
// ---------------------------------------------------------------------------

/// Input-layer DAC: quantizes a pixel to `bits` resolution.
inline float dac_quantize(float x, int bits) {
  const float steps = static_cast<float>((1 << bits) - 1);
  const float clamped = x < 0.0f ? 0.0f : (x > 1.0f ? 1.0f : x);
  return std::round(clamped * steps) / steps;
}

/// Runs every input element through the stage-0 DAC exactly once. The
/// scalar path re-quantizes each pixel in every overlapping conv window
/// (kernel² times); caching the DAC output per image is the packed core's
/// first win and changes no value — the same dac_quantize call produces
/// the same float either way.
void dac_quantize_image(std::span<const float> in, int bits,
                        std::vector<float>& out);
/// Variant writing into caller-owned storage of at least in.size() floats
/// (the plan executor's arena-carved scratch).
void dac_quantize_image(std::span<const float> in, int bits, float* out);

// ---------------------------------------------------------------------------
// Per-stage integer row table.
// ---------------------------------------------------------------------------

/// The integer form of one mapped stage's effective weights.
struct PackedStage {
  bool valid = false;      // every weight integral: packed engines exact
  bool dac_exact = false;  // stage-0 dense double path is bit-exact
  int words = 0;           // u64 words per row window: ceil(rows / 64)

  // The weights as one padded int16 vector per row (stride `cstride`, a
  // multiple of 32, zero tail). Built only when every block column's Σ|w|
  // fits int16 (`rows_ok`): then a block's sums over any active rows are
  // int16 adds of those rows' vectors, and still exact.
  bool rows_ok = false;
  int cstride = 0;
  std::vector<std::int16_t> row_w;
};

/// Builds the integer form of one stage's effective weights. `valid` stays
/// false when any value is non-integral (programming noise, drift, IR
/// drop) — the caller then keeps using the scalar oracle. `input_bits`
/// only affects the stage-0 exactness bound (dac_exact).
PackedStage build_packed_stage(const std::vector<float>& eff, int rows,
                               int cols, const std::vector<int>& row_to_block,
                               int block_count, int input_bits);

}  // namespace sei::core
