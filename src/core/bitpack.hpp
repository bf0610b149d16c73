// Bit-packed AND+popcount evaluation core for the SEI hot path.
//
// Post-Algorithm-1 activations are 1-bit (quant/qnet.hpp), so a crossbar
// block's column current is a sum of effective weights over *selected*
// rows. For an ideal device those effective values are exact integers
// (mapping.cpp reduces programmed cells to level units), which makes the
// sum computable entirely in integer arithmetic: decompose each
// (block, column)'s weights into a small set of (level, row-mask) terms and
// the block sum becomes
//
//   sum(b, c) = Σ_p level_p · popcount(window ∧ mask_p)  −  bias · n_active[b]
//
// with n_active[b] itself a popcount of the input window against the
// block's row mask, and the dynamic-threshold bias term folded into the
// per-column `bias`. Integer accumulation has no floating-point ordering
// hazards, so the packed path reproduces the scalar double accumulation
// bit-for-bit (all partial sums are exact — see docs/kernels.md for the
// equivalence argument, including the stage-0 DAC case).
//
// The decomposition is a biased bit-plane expansion: shift each column's
// weights by `bias = −min(w)` (min over the block, zero rows included) so
// all values are non-negative, then emit one row-mask per significance bit
// actually used — at most ⌈log2(range)⌉ terms regardless of how many
// distinct values exist. The layout is column-lane, plane-major: eight
// adjacent columns share a lane group, and because every lane of plane p
// carries the same weight 2^p, the kernel is a fixed-shape
// AND+popcount+shift with no horizontal reduction — eight column sums
// leave as one vector of doubles (AVX-512 VPOPCNTDQ where available;
// std::popcount lane loops are the portable fallback — CI builds with
// SEI_NATIVE=OFF keep that path green).
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
// Per-stage packed weight planes.
// ---------------------------------------------------------------------------

/// Integer bit-plane decomposition of one mapped stage. Columns are tiled
/// into lane groups of 8 (group cg covers columns 8·cg .. 8·cg+7); each
/// (block, lane group) owns a CSR run of plane entries. Plane entry e
/// holds significance bit plane_shift[e] and masks[e·words·kLanes ..)
/// word-major: the 8 lane-column masks of row-word w are adjacent, so one
/// 512-bit vector ANDs a broadcast window word against all eight columns.
/// Every lane of a plane shares the weight 2^plane_shift[e], which is what
/// lets eight column sums accumulate side by side with no reduction.
struct PackedStage {
  static constexpr int kLanes = 8;  // columns per vector group
  static constexpr int kMaxBlockSpan = 64;  // kernel local-window capacity

  bool valid = false;      // hidden-stage AND+popcount path available
  bool dac_exact = false;  // stage-0 dense double path is bit-exact
  int words = 0;           // u64 words per row mask: ceil(rows / 64)
  int cgroups = 0;         // column lane groups: ceil(cols / kLanes)

  std::vector<std::uint32_t> plane_begin;  // CSR per (b·cgroups + cg)
  std::vector<std::uint32_t> plane_shift;  // per plane entry: bit p
  std::vector<std::uint32_t> mask_off;     // per plane entry: index into masks
  std::vector<std::uint64_t> masks;        // block_span·kLanes per plane entry
  std::vector<std::int64_t> bias;          // kLanes per (b·cgroups + cg)
  std::vector<std::uint64_t> block_masks;  // k × words: rows of block b
  // Masks are block-LOCAL: row r maps to bit rank(r within its block), so
  // a 100-row block needs 2 words no matter how its rows interleave with
  // other blocks' (homogenized stages round-robin rows across blocks).
  // The kernel compacts each block's rows out of the full window with
  // PEXT before the plane loop — a few cycles that shrink both the mask
  // footprint and the per-plane word count by ~words/span.
  std::vector<std::int32_t> block_span;  // k: local words ceil(rows_b / 64)
  std::vector<std::int32_t> block_loff;  // k+1: prefix sums of block_span

  // Active-row gather path: the same integer weights stored as one padded
  // int16 vector per row (stride `cstride`, a multiple of 32, zero tail).
  // When every block column's Σ|w| fits int16 (`rows_ok`), a position's
  // block sums reduce to int16 vector adds over just the *active* rows —
  // the cheapest kernel by far when activations are sparse-to-moderate,
  // and still exact: all partial sums are small integers. The bit-plane
  // layout above remains for the generic kernel's !rows_ok fallback and as
  // a second independent packed implementation for the equivalence tests.
  bool rows_ok = false;
  int cstride = 0;
  std::vector<std::int16_t> row_w;

  std::size_t plane_count() const { return plane_shift.size(); }
};

/// Builds the packed decomposition of one stage's effective weights.
/// `valid` stays false when any value is non-integral (programming noise,
/// drift, IR drop) — the caller then keeps using the scalar oracle.
/// `input_bits` only affects the stage-0 exactness bound (dac_exact).
PackedStage build_packed_stage(const std::vector<float>& eff, int rows,
                               int cols, const std::vector<int>& row_to_block,
                               int block_count, int input_bits);

/// Accumulates one output position: n_active[b] and block_sums[b·cols+c]
/// for every block and column, from the packed input window (`ps.words`
/// words). block_sums receives exact integer values as doubles. Σ n_active
/// is the position's driven-row count that row billing charges
/// (docs/sparsity.md).
void accumulate_position(const PackedStage& ps, int cols, int block_count,
                         const std::uint64_t* window, double* block_sums,
                         int* n_active);

/// PEXT-compacts block `b`'s rows out of the full window into its dense
/// local window (`ps.block_span[b]` words, bit i = i-th block row in
/// ascending row order) and returns the block's active-input count.
int compact_block_window(const PackedStage& ps, int b,
                         const std::uint64_t* window, std::uint64_t* lw);

/// Active-row variant of accumulate_position (requires `ps.rows_ok`):
/// identical outputs, but walks the set bits of the window and adds each
/// active row's int16 weight vector instead of streaming bit-plane masks.
void accumulate_position_rows(const PackedStage& ps, int cols,
                              int block_count, const std::uint64_t* window,
                              double* block_sums, int* n_active);

}  // namespace sei::core
