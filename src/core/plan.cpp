#include "core/plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/eval_context.hpp"
#include "core/simd_caps.hpp"

namespace sei::core {
namespace {

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

DacKernel select_dac_kernel(const MappedLayer& m) {
  const bool is_conv = m.geom.kind == quant::StageSpec::Kind::Conv;
  if (is_conv && m.binarize && m.block_count == 1 && m.geom.in_ch == 1)
    return DacKernel::kDenseTranspose;
  if (is_conv && m.binarize) return DacKernel::kScatter;
  return DacKernel::kGeneric;
}

/// Folds stage `m`'s scratch needs into `sp` — bounds for BOTH engines of
/// the stage, so the same context serves either setting of the packed
/// switch.
void bound_stage(const MappedLayer& m, int stage, bool noisy,
                 ScratchPlan& sp) {
  const quant::StageGeometry& g = m.geom;
  const std::size_t cols = static_cast<std::size_t>(g.cols);
  const std::size_t k = static_cast<std::size_t>(std::max(1, m.block_count));
  const std::size_t positions =
      static_cast<std::size_t>(g.out_h) * static_cast<std::size_t>(g.out_w);
  const std::size_t in_bits = static_cast<std::size_t>(g.in_h) *
                              static_cast<std::size_t>(g.in_w) *
                              static_cast<std::size_t>(g.in_ch);
  const std::size_t pre_bits = positions * cols;
  const std::size_t pooled_bits = static_cast<std::size_t>(g.pooled_h) *
                                  static_cast<std::size_t>(g.pooled_w) * cols;

  sp.block_sums = std::max(sp.block_sums, k * cols);
  sp.n_active = std::max(sp.n_active, k);
  sp.pos_bits = std::max(sp.pos_bits, cols);
  sp.bitmap_bytes =
      std::max({sp.bitmap_bytes, pre_bits, pooled_bits, in_bits});
  sp.packed_words = std::max({sp.packed_words, words_for(pre_bits),
                              words_for(pooled_bits), words_for(in_bits)});
  if (!m.binarize) sp.scores = std::max(sp.scores, cols);

  // Packed hidden-stage kernels.
  const PackedStage& ps = m.packed;
  const std::size_t ps_words = std::max<std::size_t>(
      static_cast<std::size_t>(std::max(0, ps.words)),
      words_for(static_cast<std::size_t>(g.rows)));
  sp.window = std::max(sp.window, ps_words);
  if (!ps.block_loff.empty()) {
    const std::size_t lw = static_cast<std::size_t>(ps.block_loff[k]) * 8;
    sp.lw8 = std::max(sp.lw8, lw);
  }
  sp.nact8 = std::max(sp.nact8, k * 8);
  sp.sums8 = std::max(sp.sums8, k * cols * 8);

  // Stage-0 DAC engine.
  if (stage == 0) {
    sp.dac_vals = std::max(sp.dac_vals, in_bits);
    switch (select_dac_kernel(m)) {
      case DacKernel::kDenseTranspose: {
        // The image as doubles plus the last strip's overreach, one column
        // block's taps, then [col][position] sums under read noise or
        // per-column compare bits without it.
        sp.dac_d = std::max(sp.dac_d, in_bits + kConv0Pad);
        sp.tile_w = std::max(sp.tile_w, static_cast<std::size_t>(g.rows) *
                                            std::min<std::size_t>(
                                                cols, kConv0MaxCols));
        if (noisy) {
          sp.pos_sums = std::max(sp.pos_sums, positions * cols);
        } else {
          const std::size_t pwords = words_for(positions);
          sp.col_cmp = std::max(sp.col_cmp, cols * pwords);
          sp.col_pool = std::max(sp.col_pool, cols * pwords);
        }
        break;
      }
      case DacKernel::kScatter:
        sp.pos_sums = std::max(sp.pos_sums, positions * k * cols);
        sp.pos_active = std::max(sp.pos_active, positions * k);
        break;
      case DacKernel::kGeneric:
      case DacKernel::kNone:
        break;
    }
  }

  // Lazy noisy decide (core/lazy_decide.hpp): per-position bands of the
  // packed hidden kernel, the whole-stage column band of the stage-0 DAC.
  if (noisy && m.binarize) {
    sp.band_ref = std::max(sp.band_ref, 2 * k * cols);
    sp.band_state = std::max(sp.band_state,
                             stage == 0 ? positions * cols : k * cols);
  }
}

StageEngine select_engine(const MappedLayer& m, int stage, bool packed_eval) {
  if (stage == 0) {
    // Stage 0 consumes DAC levels, not bits: the packed variant needs the
    // dense-sum exactness bound on top of integral weights.
    return packed_eval && m.packed.valid && m.packed.dac_exact
               ? StageEngine::kDacDense
               : StageEngine::kScalarFloat;
  }
  return packed_eval && m.packed.valid ? StageEngine::kPackedBits
                                       : StageEngine::kScalarBits;
}

PackedKernel select_packed_kernel(const MappedLayer& m,
                                  const HardwareConfig& cfg) {
  const quant::StageGeometry& g = m.geom;
  const PackedStage& ps = m.packed;
  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const bool noise_free = cfg.device.read_noise_sigma <= 0.0;
  if (kHaveAvx512 && !ps.rows_ok && m.binarize && is_conv && g.cols <= 64 &&
      noise_free)
    return PackedKernel::kBatch8;
  if (kHaveAvx512 && ps.rows_ok && m.binarize && m.block_count == 1 &&
      g.cols <= 32 && noise_free)
    return PackedKernel::kRow16Cmp;
  return PackedKernel::kGeneric;
}

template <typename T>
std::size_t span_bytes(std::size_t count) {
  return Arena::aligned(count * sizeof(T));
}

}  // namespace

void ScratchPlan::merge(const ScratchPlan& o) {
  block_sums = std::max(block_sums, o.block_sums);
  n_active = std::max(n_active, o.n_active);
  plane_sums = std::max(plane_sums, o.plane_sums);
  merged = std::max(merged, o.merged);
  window = std::max(window, o.window);
  dac_vals = std::max(dac_vals, o.dac_vals);
  dac_d = std::max(dac_d, o.dac_d);
  pos_bits = std::max(pos_bits, o.pos_bits);
  tile_w = std::max(tile_w, o.tile_w);
  pos_sums = std::max(pos_sums, o.pos_sums);
  pos_active = std::max(pos_active, o.pos_active);
  col_cmp = std::max(col_cmp, o.col_cmp);
  col_pool = std::max(col_pool, o.col_pool);
  lw8 = std::max(lw8, o.lw8);
  nact8 = std::max(nact8, o.nact8);
  sums8 = std::max(sums8, o.sums8);
  band_ref = std::max(band_ref, o.band_ref);
  band_state = std::max(band_state, o.band_state);
  scores = std::max(scores, o.scores);
  bitmap_bytes = std::max(bitmap_bytes, o.bitmap_bytes);
  packed_words = std::max(packed_words, o.packed_words);
  finalize();
}

bool ScratchPlan::covers(const ScratchPlan& o) const {
  return block_sums >= o.block_sums && n_active >= o.n_active &&
         plane_sums >= o.plane_sums && merged >= o.merged &&
         window >= o.window && dac_vals >= o.dac_vals && dac_d >= o.dac_d &&
         pos_bits >= o.pos_bits && tile_w >= o.tile_w &&
         pos_sums >= o.pos_sums &&
         pos_active >= o.pos_active && col_cmp >= o.col_cmp &&
         col_pool >= o.col_pool && lw8 >= o.lw8 && nact8 >= o.nact8 &&
         sums8 >= o.sums8 && band_ref >= o.band_ref &&
         band_state >= o.band_state && scores >= o.scores &&
         bitmap_bytes >= o.bitmap_bytes && packed_words >= o.packed_words;
}

void ScratchPlan::finalize() {
  arena_bytes = span_bytes<double>(block_sums) + span_bytes<int>(n_active) +
                span_bytes<double>(plane_sums) + span_bytes<double>(merged) +
                span_bytes<std::uint64_t>(window) +
                span_bytes<float>(dac_vals) + span_bytes<double>(dac_d) +
                span_bytes<std::uint8_t>(pos_bits) +
                span_bytes<double>(tile_w) + span_bytes<double>(pos_sums) +
                span_bytes<int>(pos_active) +
                span_bytes<std::uint64_t>(col_cmp) +
                span_bytes<std::uint64_t>(col_pool) +
                span_bytes<std::uint64_t>(lw8) +
                span_bytes<std::int32_t>(nact8) + span_bytes<double>(sums8) +
                span_bytes<double>(band_ref) +
                span_bytes<std::uint8_t>(band_state);
}

CompiledPlan compile_plan(const std::vector<MappedLayer>& layers,
                          const HardwareConfig& cfg, bool packed_eval,
                          const telemetry::EnergyMeter* meter,
                          bool row_billing) {
  CompiledPlan plan;
  plan.ops.reserve(layers.size());
  plan.priced_for = meter;
  ActForm live = ActForm::kImage;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const MappedLayer& m = layers[i];
    const quant::StageGeometry& g = m.geom;
    StageOp op;
    op.stage = static_cast<int>(i);
    op.engine = select_engine(m, op.stage, packed_eval);
    op.classifier = !m.binarize;
    op.pool_after = g.pool_after;
    op.rows = g.rows;
    op.cols = g.cols;
    op.blocks = m.block_count;
    op.positions = static_cast<long long>(g.out_h) * g.out_w;
    switch (op.engine) {
      case StageEngine::kScalarFloat:
      case StageEngine::kDacDense:
        op.in_form = ActForm::kImage;
        break;
      case StageEngine::kScalarBits:
        op.in_form = ActForm::kBytes;
        break;
      case StageEngine::kPackedBits:
        op.in_form = ActForm::kPacked;
        break;
    }
    // Explicit converts where the producing stage's form differs — what
    // the old runtime `packed_live` flag used to decide per request.
    op.pack_input = op.in_form == ActForm::kPacked && live == ActForm::kBytes;
    op.unpack_input =
        op.in_form == ActForm::kBytes && live == ActForm::kPacked;
    if (op.classifier) {
      op.out_form = ActForm::kScores;
    } else {
      op.out_form = (op.engine == StageEngine::kDacDense ||
                     op.engine == StageEngine::kPackedBits)
                        ? ActForm::kPacked
                        : ActForm::kBytes;
    }
    live = op.out_form;
    if (op.engine == StageEngine::kPackedBits)
      op.packed_kernel = select_packed_kernel(m, cfg);
    if (op.engine == StageEngine::kDacDense)
      op.dac_kernel = select_dac_kernel(m);
    // Row billing applies to the SEI hidden/classifier stages only —
    // stage 0 is DAC-driven through resistor ladders, its rows have no
    // transmission gates to switch off.
    if (row_billing && op.stage > 0) op.skip_bound = 0;
    if (meter && i < meter->stage_count()) {
      op.price = meter->stage(i);
      op.priced = true;
    }
    bound_stage(m, op.stage, cfg.device.read_noise_sigma > 0.0, plan.scratch);
    plan.ops.push_back(op);
  }
  plan.scratch.finalize();
  return plan;
}

void EvalContext::bind(const ScratchPlan& plan) {
  arena_.reset(plan.arena_bytes);
  // Carve order is fixed and mirrors ScratchPlan::finalize — the last carve
  // exactly exhausts the arena.
  block_sums.bind(arena_, plan.block_sums);
  n_active.bind(arena_, plan.n_active);
  plane_sums.bind(arena_, plan.plane_sums);
  merged.bind(arena_, plan.merged);
  window.bind(arena_, plan.window);
  dac_vals.bind(arena_, plan.dac_vals);
  dac_d.bind(arena_, plan.dac_d);
  pos_bits.bind(arena_, plan.pos_bits);
  tile_w.bind(arena_, plan.tile_w);
  pos_sums.bind(arena_, plan.pos_sums);
  pos_active.bind(arena_, plan.pos_active);
  col_cmp.bind(arena_, plan.col_cmp);
  col_pool.bind(arena_, plan.col_pool);
  lw8.bind(arena_, plan.lw8);
  nact8.bind(arena_, plan.nact8);
  sums8.bind(arena_, plan.sums8);
  band_ref.bind(arena_, plan.band_ref);
  band_state.bind(arena_, plan.band_state);
  // Swap-rotated buffers: every one of the trio can hold any stage's
  // largest map, so all reserve the shared bound.
  stage_bits.reserve(plan.bitmap_bytes);
  pooled_bits.reserve(plan.bitmap_bytes);
  bits.reserve(plan.bitmap_bytes);
  scores.reserve(plan.scores);
  packed_bits.words.reserve(plan.packed_words);
  packed_stage.words.reserve(plan.packed_words);
  packed_pooled.words.reserve(plan.packed_words);
  bound_ = plan;
  bound_has_value_ = true;
}

}  // namespace sei::core
