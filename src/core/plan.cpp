#include "core/plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/eval_context.hpp"

namespace sei::core {
namespace {

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// True when stage 0 fits the DAC column tile (eval_stage_dac): a
/// binarized single-block conv on one input channel whose integral weights
/// keep every dense partial sum exact (dac_exact). Every other stage 0 runs
/// the scalar reference.
bool dac_tile_fits(const MappedLayer& m) {
  return m.geom.kind == quant::StageSpec::Kind::Conv && m.binarize &&
         m.block_count == 1 && m.geom.in_ch == 1 && m.packed.valid &&
         m.packed.dac_exact;
}

/// True when a packed hidden stage fits the row-scatter kernel (kRow16Cmp):
/// binarized, at most kRowMaxCols columns and kRowMaxBlocks blocks, and an
/// int16 row table (rows_ok). Every other packed stage runs the generic
/// bit-plane kernel.
bool row_kernel_fits(const MappedLayer& m) {
  return m.binarize && m.geom.cols <= kRowMaxCols &&
         m.block_count <= kRowMaxBlocks && m.packed.rows_ok;
}

/// kRow16Cmp's int16 lanes per (position, block): the narrowest of 8, 16,
/// 32 and 64 that holds every column.
int scatter_lanes(int cols) {
  int lanes = 8;
  while (lanes < cols) lanes *= 2;
  return lanes;
}

/// Output rows per kRow16Cmp band: as many as keep the band's accumulators
/// within kScatterBandBytes, at least one.
int scatter_band_rows(const MappedLayer& m) {
  const std::size_t row_bytes = static_cast<std::size_t>(m.geom.out_w) *
                                static_cast<std::size_t>(m.block_count) *
                                scatter_lanes(m.geom.cols) *
                                sizeof(std::int16_t);
  return static_cast<int>(std::clamp<std::size_t>(
      kScatterBandBytes / row_bytes, 1,
      static_cast<std::size_t>(m.geom.out_h)));
}

/// The target map of a kRow16Cmp stage (see ScatterMap).
ScatterMap compile_scatter(const MappedLayer& m) {
  const quant::StageGeometry& g = m.geom;
  ScatterMap map;
  map.lanes = scatter_lanes(g.cols);
  map.band_rows = scatter_band_rows(m);
  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  // An FC stage is one pixel whose channels are all the rows.
  const int kernel = is_conv ? g.kernel : 1;
  const int in_w = is_conv ? g.in_w : 1;
  const int in_ch = is_conv ? g.in_ch : g.rows;
  const int per_pos = m.block_count * map.lanes;
  const auto stride = static_cast<std::int32_t>(m.packed.cstride);
  for (int y0 = 0; y0 < g.out_h; y0 += map.band_rows) {
    const int y1 = std::min(g.out_h, y0 + map.band_rows);
    map.band_first.push_back(map.first.size());
    for (int iy = y0; iy < y1 + kernel - 1; ++iy)
      for (int ix = 0; ix < in_w; ++ix)
        for (int ch = 0; ch < in_ch; ++ch) {
          map.first.push_back(static_cast<std::uint32_t>(map.taps.size()));
          for (int di = std::max(0, iy - (y1 - 1));
               di <= std::min(kernel - 1, iy - y0); ++di)
            for (int dj = std::max(0, ix - (g.out_w - 1));
                 dj <= std::min(kernel - 1, ix); ++dj) {
              const int r = (di * kernel + dj) * in_ch + ch;
              const int pos = (iy - di - y0) * g.out_w + (ix - dj);
              map.taps.push_back(
                  {pos * per_pos +
                       m.row_to_block[static_cast<std::size_t>(r)] * map.lanes,
                   r * stride});
            }
        }
    map.first.push_back(static_cast<std::uint32_t>(map.taps.size()));
  }
  return map;
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
  if (row_kernel_fits(m)) {
    // One band's accumulators and (dynamic thresholds) active counts; the
    // references, floored or (noisy) a band's lower and upper ends.
    const std::size_t band = static_cast<std::size_t>(scatter_band_rows(m)) *
                             static_cast<std::size_t>(g.out_w) * k;
    sp.row_acc = std::max(
        sp.row_acc, band * static_cast<std::size_t>(scatter_lanes(g.cols)));
    sp.row_cnt = std::max(sp.row_cnt, band);
    sp.row_ref = std::max(sp.row_ref, 2 * k * kRowMaxCols);
  }

  // Stage-0 DAC column tile: the DAC levels, the image as doubles plus the
  // last strip's overreach, one column block's taps, then per-column
  // compare bits (and, under read noise, the band's open reads and their
  // sums).
  if (stage == 0 && dac_tile_fits(m)) {
    sp.dac_vals = std::max(sp.dac_vals, in_bits);
    sp.dac_d = std::max(sp.dac_d, in_bits + kConv0Pad);
    sp.tile_w = std::max(sp.tile_w, static_cast<std::size_t>(g.rows) *
                                        std::min<std::size_t>(cols,
                                                              kConv0MaxCols));
    const std::size_t pwords = words_for(positions);
    sp.col_cmp = std::max(sp.col_cmp, cols * pwords);
    sp.col_pool = std::max(sp.col_pool, cols * pwords);
    if (noisy) {
      sp.col_open = std::max(sp.col_open, cols * pwords);
      sp.open_sums = std::max(sp.open_sums, cols * positions);
    }
  }

  // Decide thresholds of the packed hidden kernels, and the lazy noisy
  // decide's scratch (core/lazy_decide.hpp).
  if (m.binarize) sp.thresholds = std::max(sp.thresholds, k * cols);
  if (noisy && m.binarize)
    sp.col_words = std::max(sp.col_words, words_for(cols));
}

StageEngine select_engine(const MappedLayer& m, int stage, bool packed_eval) {
  if (stage == 0) {
    // Stage 0 consumes DAC levels, not bits: only the column tile has a
    // packed variant.
    return packed_eval && dac_tile_fits(m) ? StageEngine::kDacDense
                                           : StageEngine::kScalarFloat;
  }
  return packed_eval && m.packed.valid ? StageEngine::kPackedBits
                                       : StageEngine::kScalarBits;
}

PackedKernel select_packed_kernel(const MappedLayer& m) {
  return row_kernel_fits(m) ? PackedKernel::kRow16Cmp : PackedKernel::kGeneric;
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
  col_open = std::max(col_open, o.col_open);
  open_sums = std::max(open_sums, o.open_sums);
  col_cmp = std::max(col_cmp, o.col_cmp);
  col_pool = std::max(col_pool, o.col_pool);
  row_acc = std::max(row_acc, o.row_acc);
  row_cnt = std::max(row_cnt, o.row_cnt);
  row_ref = std::max(row_ref, o.row_ref);
  thresholds = std::max(thresholds, o.thresholds);
  col_words = std::max(col_words, o.col_words);
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
         col_open >= o.col_open && open_sums >= o.open_sums &&
         col_cmp >= o.col_cmp &&
         col_pool >= o.col_pool && row_acc >= o.row_acc &&
         row_cnt >= o.row_cnt && row_ref >= o.row_ref &&
         thresholds >= o.thresholds && col_words >= o.col_words &&
         scores >= o.scores && bitmap_bytes >= o.bitmap_bytes &&
         packed_words >= o.packed_words;
}

void ScratchPlan::finalize() {
  arena_bytes = span_bytes<double>(block_sums) + span_bytes<int>(n_active) +
                span_bytes<double>(plane_sums) + span_bytes<double>(merged) +
                span_bytes<std::uint64_t>(window) +
                span_bytes<float>(dac_vals) + span_bytes<double>(dac_d) +
                span_bytes<std::uint8_t>(pos_bits) +
                span_bytes<double>(tile_w) +
                span_bytes<std::uint64_t>(col_open) +
                span_bytes<double>(open_sums) +
                span_bytes<std::uint64_t>(col_cmp) +
                span_bytes<std::uint64_t>(col_pool) +
                span_bytes<std::int16_t>(row_acc) +
                span_bytes<std::int32_t>(row_cnt) +
                span_bytes<std::int16_t>(row_ref) +
                span_bytes<double>(thresholds) +
                span_bytes<std::uint64_t>(col_words);
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
    if (op.engine == StageEngine::kPackedBits) {
      op.packed_kernel = select_packed_kernel(m);
      if (op.packed_kernel == PackedKernel::kRow16Cmp)
        op.scatter = compile_scatter(m);
    }
    if (op.engine == StageEngine::kDacDense)
      op.dac_kernel = DacKernel::kDenseTranspose;
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
  col_open.bind(arena_, plan.col_open);
  open_sums.bind(arena_, plan.open_sums);
  col_cmp.bind(arena_, plan.col_cmp);
  col_pool.bind(arena_, plan.col_pool);
  row_acc.bind(arena_, plan.row_acc);
  row_cnt.bind(arena_, plan.row_cnt);
  row_ref.bind(arena_, plan.row_ref);
  thresholds.bind(arena_, plan.thresholds);
  col_words.bind(arena_, plan.col_words);
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
