// Compiled execution plans (docs/plans.md).
//
// Every evaluation of a SeiNetwork — a served request, a batch pass, a
// cached head or tail — runs one CompiledPlan through one executor. Engine
// selection (scalar float / bit-packed / DAC / scalar-bits fallback) and
// kernel conditions are resolved here, not per request. compile_plan lowers
// (mapped layers, HardwareConfig, engine switch) once — at construction,
// remap, fault repair, or checkpoint restore — into a CompiledPlan:
//
//  * a flat array of StageOps with the engine resolved per layer geometry:
//    stage 0 runs the DAC column tile where it applies, every later stage
//    the row-scatter kernel (with its target map) where it applies, and
//    every other stage the scalar reference,
//  * explicit activation-form converts (bytes ↔ packed words) inserted at
//    the stage boundaries that need them,
//  * and an exact ScratchPlan: the high-water size of every EvalContext
//    buffer plus the total arena footprint, so a context binds to the plan
//    with ONE arena allocation and serves requests with zero heap traffic.
//
// The plan with the packed switch off (scalar engines only) is the
// reference the equivalence suite in tests/test_determinism.cpp pins the
// packed kernels against, bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/mapping.hpp"
#include "core/structure.hpp"

namespace sei::core {

/// Which evaluation engine a stage op runs.
enum class StageEngine : std::uint8_t {
  kScalarFloat,  // stage-0 scalar reference (DAC per window)
  kScalarBits,   // hidden/classifier scalar reference on byte maps
  kDacDense,     // stage-0 packed core: cached DAC + dense column tile
  kPackedBits,   // stages 1+: the row-scatter kernel on packed words
};

/// Representation of the live activations at a stage boundary.
enum class ActForm : std::uint8_t {
  kImage,   // float span (network input)
  kBytes,   // quant::BitMap, one byte per activation
  kPacked,  // quant::PackedBits, 64 activations per word
  kScores,  // classifier scores (terminal)
};

/// Packed sub-kernel of stages 1 and later. Every kPackedBits op runs
/// kRow16Cmp; kBatch8 and kGeneric name retired kernels and stay only
/// because the benchmark's kernel-name probe still switches on them.
enum class PackedKernel : std::uint8_t {
  kNone,      // op does not run the packed engine
  kBatch8,    // retired
  kRow16Cmp,  // input-stationary row scatter in int16 lanes: binarized
              // stages compare + vote in registers, a one-position
              // classifier widens its block sums for the merge; rows_ok
              // stages of ≤ 64 columns and ≤ 64 blocks, noisy or not
  kGeneric,   // retired
};

/// kRow16Cmp limits: a position's block votes count in int8 lanes.
inline constexpr int kRowMaxCols = 64;
inline constexpr int kRowMaxBlocks = 64;

/// Accumulator budget of one kRow16Cmp band: the output rows of a stage
/// whose accumulators would outgrow it are processed in bands that fit.
inline constexpr std::size_t kScatterBandBytes = 32 * 1024;

/// kRow16Cmp's target map (docs/kernels.md §5), compiled next to the row
/// table: for every input bit, the (block, position) accumulators it feeds
/// and the table row it adds there. Output rows are processed in bands;
/// a band's accumulators are int16, laid out [position][block][lanes]
/// from the band's first position. An input bit at pixel (iy, ix),
/// channel ch, drives row r = (di·kernel + dj)·in_ch + ch of position
/// (iy − di, ix − dj) for every in-range tap (di, dj); an FC stage (and
/// with it the classifier) is the one-position case, one pixel carrying
/// every row.
struct ScatterMap {
  struct Tap {
    std::int32_t acc;  // accumulator offset in the band, int16 units
    std::int32_t row;  // table row offset, int16 units
  };
  int lanes = 0;      // int16 lanes per (position, block): 8, 16, 32 or 64
  int band_rows = 0;  // output rows per accumulator band
  // Band b reads the input bits of its output rows' windows: whole input
  // rows [y0, y1 + kernel − 1), bit_lo(b) onward. Its bit i's taps are
  // taps[first[band_first[b] + i] .. first[band_first[b] + i + 1]).
  std::vector<std::size_t> band_first;
  std::vector<std::uint32_t> first;
  std::vector<Tap> taps;
};

/// Stage-0 DAC sub-kernel. Every kDacDense op runs kDenseTranspose; the
/// last two enumerators name retired kernels and stay only because the
/// benchmark's kernel-name probe still switches on them.
enum class DacKernel : std::uint8_t {
  kNone,            // op is not the DAC engine
  kDenseTranspose,  // [col][position] dense sums, fused compare/pool emit
  kScatter,         // retired
  kGeneric,         // retired
};

/// kDenseTranspose tile shape, shared by the kernel and its scratch bounds:
/// a column block keeps at most kConv0MaxCols accumulators in registers,
/// and a row's last eight-position strip reads up to seven doubles past the
/// image, so the widened image carries kConv0Pad zeros.
inline constexpr int kConv0MaxCols = 12;
inline constexpr std::size_t kConv0Pad = 8;

/// One lowered stage: everything the executor needs, resolved up front.
struct StageOp {
  int stage = 0;
  StageEngine engine = StageEngine::kScalarFloat;
  ActForm in_form = ActForm::kImage;
  ActForm out_form = ActForm::kBytes;
  bool pack_input = false;    // convert bytes → packed words before running
  bool unpack_input = false;  // convert packed words → bytes before running
  bool classifier = false;    // scores out; terminates the plan
  bool pool_after = false;    // OR-pool fused into the stage's emit
  PackedKernel packed_kernel = PackedKernel::kNone;
  DacKernel dac_kernel = DacKernel::kNone;
  ScatterMap scatter;  // kRow16Cmp ops only

  // Geometry snapshot (diagnostics, benches, docs).
  int rows = 0;
  int cols = 0;
  int blocks = 1;
  long long positions = 0;

  // Row billing (docs/sparsity.md): 0 when the stage is charged per driven
  // row (ctx.rows_driven) and records the activity histogram when asked;
  // -1 when it is charged its uniform price. Always -1 for stage 0
  // (DAC-driven, no transmission gates). The kernels run the same dense
  // code either way.
  int skip_bound = -1;
};

/// Exact high-water element counts of every EvalContext scratch buffer for
/// one compiled network, plus the arena footprint that covers the carved
/// spans. Bounds cover BOTH engines of every stage, so flipping
/// set_packed_eval never overflows a bound context.
struct ScratchPlan {
  std::size_t block_sums = 0;
  std::size_t n_active = 0;
  std::size_t plane_sums = 0;  // ADC networks only
  std::size_t merged = 0;      // ADC networks only
  std::size_t window = 0;
  std::size_t dac_vals = 0;
  std::size_t dac_d = 0;
  std::size_t tile_w = 0;
  std::size_t col_cmp = 0;
  std::size_t col_open = 0;   // read-noise networks only
  std::size_t open_sums = 0;  // read-noise networks only
  std::size_t col_pool = 0;
  std::size_t row_acc = 0;
  std::size_t row_cnt = 0;
  std::size_t row_ref = 0;
  std::size_t thresholds = 0;

  std::size_t scores = 0;        // reserve on ctx.scores (floats)
  std::size_t bitmap_bytes = 0;  // reserve on stage_bits/pooled_bits/bits
  std::size_t packed_words = 0;  // reserve on packed_{bits,stage,pooled}

  std::size_t arena_bytes = 0;  // total for the carved spans, 64B-aligned

  /// Folds another plan's bounds in (max per buffer) — used by contexts
  /// shared across engines (e.g. the serve path's SEI + ADC fallback).
  void merge(const ScratchPlan& o);
  /// Recomputes arena_bytes from the current counts.
  void finalize();
  /// True when every bound of `o` fits inside this plan's bounds — i.e. a
  /// context bound with *this* serves *o*'s network without allocating.
  bool covers(const ScratchPlan& o) const;

  /// Every bound above but arena_bytes: the arena-carved counts in carve
  /// order, then scores, bitmap_bytes and packed_words. merge and covers
  /// walk exactly these (the one scratch list lives in core/plan.cpp).
  static std::span<std::size_t ScratchPlan::* const> bounds();
};

/// The lowered program: flat ops + scratch bounds + a rebuild epoch.
struct CompiledPlan {
  std::vector<StageOp> ops;
  ScratchPlan scratch;
  /// Bumped by SeiNetwork on every rebuild (remap, fault, restore, engine
  /// switch) so bound contexts detect staleness and re-bind.
  std::uint64_t epoch = 0;

  bool valid() const { return !ops.empty(); }
};

/// Lowers the mapped network into a CompiledPlan; epoch is left at 0 — the
/// owner stamps it. `row_billing` sets skip_bound 0 on every
/// hidden/classifier op (stage 0 stays -1); off leaves every op at -1.
CompiledPlan compile_plan(const std::vector<MappedLayer>& layers,
                          const HardwareConfig& cfg, bool packed_eval,
                          bool row_billing = false);

}  // namespace sei::core
