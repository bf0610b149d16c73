#include "core/sei_network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "core/bitpack.hpp"
#include "core/lazy_decide.hpp"
#include "exec/thread_pool.hpp"

// Vectorized noise-free threshold/vote decisions for the packed engine.
// Same doubles, same compares, same bits as decide_position — just eight
// columns per instruction. The scalar decide_position stays the reference;
// under read noise the packed engines run the lazy exact decides of
// core/lazy_decide.hpp instead. The AVX-512 gate (SEI_CORE_AVX512) lives
// in simd_caps.hpp, shared with the plan compiler so kernel selection and
// kernel availability always agree.
#include "core/simd_caps.hpp"

namespace sei::core {

namespace {

/// Records one position's input window into the activity histogram: the
/// window's rows group into 9-row input words (SeiNetwork::kWordRows, the
/// last one ragged when rows % 9 != 0), and each word's popcount lands in
/// its bin. An all-zero word drives no row — the "skipped" count.
void record_activity(int rows, const std::uint64_t* window,
                     EvalContext::StageActivity& act) {
  ++act.positions;
  act.rows_nominal += rows;
  for (int r0 = 0; r0 < rows; r0 += SeiNetwork::kWordRows) {
    const int pc = std::popcount(extract_bits64(
        window, static_cast<std::size_t>(r0),
        std::min(SeiNetwork::kWordRows, rows - r0)));
    ++act.words;
    ++act.hist[pc];
    act.rows_active += pc;
    act.rows_charged += pc;
    if (pc == 0) ++act.words_skipped;
  }
}

}  // namespace

SeiNetwork::SeiNetwork(const quant::QNetwork& qnet, const HardwareConfig& cfg,
                       CrossbarHook hook)
    : qnet_(&qnet),
      cfg_(cfg),
      map_rng_(cfg.seed),
      read_seed_(cfg.seed ^ 0x9e3779b97f4a7c15ULL),
      hook_(std::move(hook)),
      packed_eval_(cfg.packed_eval) {
  SEI_CHECK(!qnet.layers.empty());
  layers_.reserve(qnet.layers.size());
  for (const quant::QLayer& l : qnet.layers) {
    const std::vector<int> order = default_row_order(l, cfg_);
    layers_.push_back(map_layer(l, cfg_, order, map_rng_, hook_));
  }
  rebuild_plan();
}

void SeiNetwork::remap_layer(int stage, const std::vector<int>& order) {
  SEI_CHECK(stage >= 0 && stage < stage_count());
  layers_[static_cast<std::size_t>(stage)] =
      map_layer(qnet_->layers[static_cast<std::size_t>(stage)], cfg_, order,
                map_rng_, hook_);
  rebuild_plan();
}

void SeiNetwork::rebuild_packed(int stage) {
  SEI_CHECK(stage >= 0 && stage < stage_count());
  MappedLayer& m = layers_[static_cast<std::size_t>(stage)];
  m.packed = build_packed_stage(m.eff, m.geom.rows, m.geom.cols,
                                m.row_to_block, m.block_count,
                                cfg_.input_bits);
}

void SeiNetwork::rebuild_plan() {
  plan_ = compile_plan(layers_, cfg_, packed_eval_, meter_, row_billing_);
  plan_.epoch = ++plan_epoch_;
}

void SeiNetwork::set_skip_bounds(std::vector<int> bounds) {
  for (const int b : bounds)
    SEI_CHECK_MSG(b <= 0, "skip bound " << b << " > 0 would drop active rows;"
                          " only 0 (bill by rows driven) is supported");
  row_billing_ = !bounds.empty();
  rebuild_plan();
}

void SeiNetwork::prepare(EvalContext& ctx) const {
  if (!ctx.covers(plan_.scratch)) ctx.bind(plan_.scratch);
}

Rng SeiNetwork::stage_stream(long long image_index, int stage) const {
  // Two-level fork: an image stream off read_seed_, then a per-stage
  // substream — both counter-based, so no draw count anywhere matters.
  return Rng::fork(
      Rng::stream_seed(read_seed_, static_cast<std::uint64_t>(image_index)),
      static_cast<std::uint64_t>(stage));
}

double SeiNetwork::readout(double current, Rng& rng) const {
  const double sigma = cfg_.device.read_noise_sigma;
  if (sigma <= 0.0) return current;
  return noisy_read(current, sigma, rng.gaussian());
}

void SeiNetwork::decide_position(const MappedLayer& m,
                                 const double* block_sums,
                                 const int* n_active,
                                 std::uint8_t* out_bits, Rng& rng) const {
  const int cols = m.geom.cols;
  const int k = m.block_count;
  const bool noisy = cfg_.device.read_noise_sigma > 0.0;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  if (k == 1) {
    for (int c = 0; c < cols; ++c) {
      const double sum = noisy ? readout(block_sums[c], rng) : block_sums[c];
      const double ref =
          static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) +
          (offsets ? offsets[c] : 0.0);
      out_bits[c] = sum > ref ? 1 : 0;
    }
    return;
  }
  int total_active = 0;
  for (int b = 0; b < k; ++b) total_active += n_active[b];
  const double mean_active = static_cast<double>(total_active) / k;
  const double beta_scale =
      static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  for (int c = 0; c < cols; ++c) {
    const double share =
        static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) / k;
    int votes = 0;
    for (int b = 0; b < k; ++b) {
      const double t_b = block_reference(
          share, beta_scale, static_cast<double>(n_active[b]) - mean_active,
          offsets ? offsets[static_cast<std::size_t>(b) * cols + c] : 0.0);
      const double raw = block_sums[static_cast<std::size_t>(b) * cols + c];
      const double sum = noisy ? readout(raw, rng) : raw;
      if (sum > t_b) ++votes;
    }
    out_bits[c] = votes >= m.vote_threshold ? 1 : 0;
  }
}

void SeiNetwork::eval_stage_bits(const MappedLayer& m, const quant::BitMap& in,
                                 quant::BitMap& bits_out,
                                 std::vector<float>& scores,
                                 EvalContext& ctx) const {
  const quant::StageGeometry& g = m.geom;
  SEI_CHECK(in.size() == static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const int cols = g.cols, k = m.block_count;
  ctx.rows_driven = 0;
  // Sized once here, zeroed per position below (they start each position
  // dirty with the previous position's sums).
  ctx.block_sums.resize(static_cast<std::size_t>(k) * cols);
  ctx.n_active.resize(static_cast<std::size_t>(k));
  // The activity histogram reads a packed copy of each position's window.
  EvalContext::StageActivity* act = ctx.cur_activity;
  if (act) ctx.window.resize((static_cast<std::size_t>(g.rows) + 63) / 64);

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  if (m.binarize) ctx.stage_bits.assign(positions * cols, 0);
  else scores.assign(static_cast<std::size_t>(cols), 0.0f);

  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const int span = is_conv ? g.kernel * g.in_ch : g.rows;

  for (int y = 0; y < g.out_h; ++y) {
    for (int x = 0; x < g.out_w; ++x) {
      std::fill(ctx.block_sums.begin(), ctx.block_sums.end(), 0.0);
      std::fill(ctx.n_active.begin(), ctx.n_active.end(), 0);
      if (act) std::fill(ctx.window.begin(), ctx.window.end(), 0);
      const int window_rows = is_conv ? g.kernel : 1;
      for (int di = 0; di < window_rows; ++di) {
        const std::uint8_t* in_px =
            is_conv ? in.data() + (static_cast<std::size_t>(y + di) * g.in_w +
                                   x) * g.in_ch
                    : in.data();
        const int r0 = di * span;
        for (int t = 0; t < span; ++t) {
          if (!in_px[t]) continue;
          const int r = r0 + t;
          if (act)
            ctx.window[static_cast<std::size_t>(r) >> 6] |=
                std::uint64_t{1} << (r & 63);
          const int b = m.row_to_block[static_cast<std::size_t>(r)];
          ++ctx.n_active[static_cast<std::size_t>(b)];
          const float* wrow =
              m.eff.data() + static_cast<std::size_t>(r) * cols;
          double* sums = ctx.block_sums.data() +
                         static_cast<std::size_t>(b) * cols;
          for (int c = 0; c < cols; ++c) sums[c] += wrow[c];
        }
      }
      for (int b = 0; b < k; ++b)
        ctx.rows_driven += ctx.n_active[static_cast<std::size_t>(b)];
      if (act) record_activity(g.rows, ctx.window.data(), *act);
      if (m.binarize) {
        decide_position(
            m, ctx.block_sums.data(), ctx.n_active.data(),
            ctx.stage_bits.data() +
                (static_cast<std::size_t>(y) * g.out_w + x) * cols,
            ctx.rng);
      } else {
        merge_classifier(m, scores, ctx);
      }
    }
  }

  if (m.binarize) {
    if (g.pool_after)
      or_pool_bytes(ctx.stage_bits, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.stage_bits;
  }
}

void SeiNetwork::eval_stage_float(const MappedLayer& m,
                                  std::span<const float> in,
                                  quant::BitMap& bits_out,
                                  std::vector<float>& scores,
                                  EvalContext& ctx) const {
  const quant::StageGeometry& g = m.geom;
  SEI_CHECK(in.size() == static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const int cols = g.cols, k = m.block_count;
  ctx.block_sums.resize(static_cast<std::size_t>(k) * cols);
  ctx.n_active.resize(static_cast<std::size_t>(k));

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  if (m.binarize) ctx.stage_bits.assign(positions * cols, 0);
  else scores.assign(static_cast<std::size_t>(cols), 0.0f);

  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const int span = is_conv ? g.kernel * g.in_ch : g.rows;

  for (int y = 0; y < g.out_h; ++y) {
    for (int x = 0; x < g.out_w; ++x) {
      std::fill(ctx.block_sums.begin(), ctx.block_sums.end(), 0.0);
      std::fill(ctx.n_active.begin(), ctx.n_active.end(), 0);
      const int window_rows = is_conv ? g.kernel : 1;
      for (int di = 0; di < window_rows; ++di) {
        const float* in_px =
            is_conv ? in.data() + (static_cast<std::size_t>(y + di) * g.in_w +
                                   x) * g.in_ch
                    : in.data();
        const int r0 = di * span;
        for (int t = 0; t < span; ++t) {
          const float xq = dac_quantize(in_px[t], cfg_.input_bits);
          if (xq == 0.0f) continue;
          const int r = r0 + t;
          const int b = m.row_to_block[static_cast<std::size_t>(r)];
          ++ctx.n_active[static_cast<std::size_t>(b)];
          const float* wrow =
              m.eff.data() + static_cast<std::size_t>(r) * cols;
          double* sums = ctx.block_sums.data() +
                         static_cast<std::size_t>(b) * cols;
          for (int c = 0; c < cols; ++c)
            sums[c] += static_cast<double>(xq) * wrow[c];
        }
      }
      if (m.binarize) {
        decide_position(
            m, ctx.block_sums.data(), ctx.n_active.data(),
            ctx.stage_bits.data() +
                (static_cast<std::size_t>(y) * g.out_w + x) * cols,
            ctx.rng);
      } else {
        merge_classifier(m, scores, ctx);
      }
    }
  }

  if (m.binarize) {
    if (g.pool_after)
      or_pool_bytes(ctx.stage_bits, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.stage_bits;
  }
}

void SeiNetwork::merge_classifier(const MappedLayer& m,
                                  std::vector<float>& scores,
                                  EvalContext& ctx) const {
  // Classifier: block currents merge exactly (WTA readout).
  const int cols = m.geom.cols;
  const int k = m.block_count;
  for (int c = 0; c < cols; ++c) {
    double s = 0.0;
    for (int b = 0; b < k; ++b)
      s += readout(ctx.block_sums[static_cast<std::size_t>(b) * cols + c],
                   ctx.rng);
    scores[static_cast<std::size_t>(c)] +=
        static_cast<float>(s * m.weight_scale) +
        m.col_bias[static_cast<std::size_t>(c)];
  }
}

namespace {

/// Transposes an 8×8 bit matrix (byte i, bit j) → (byte j, bit i).
inline std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Keeps the even-index bits of `t` (low 2n bits), compacted to n bits:
/// the horizontal half of a 2×2 OR-pool on a row of position bits.
inline std::uint64_t compact_even_bits(std::uint64_t t, int n) {
#if defined(__BMI2__)
  return _pext_u64(t, 0x5555555555555555ull) &
         ((std::uint64_t{1} << n) - 1u);
#else
  std::uint64_t w = 0;
  for (int x = 0; x < n; ++x) w |= ((t >> (2 * x)) & 1u) << x;
  return w;
#endif
}

/// Packs byte p's low `cols` bits (cols ≤ 8) of a transposed word into
/// contiguous cols-bit groups — eight positions' output bits as one word.
inline std::uint64_t pack_pos_bytes(std::uint64_t t, int cols) {
#if defined(__BMI2__)
  const std::uint64_t m =
      0x0101010101010101ull * ((std::uint64_t{1} << cols) - 1u);
  return _pext_u64(t, m);
#else
  const std::uint64_t m = (std::uint64_t{1} << cols) - 1u;
  std::uint64_t w = 0;
  for (int p = 0; p < 8; ++p) w |= ((t >> (8 * p)) & m) << (p * cols);
  return w;
#endif
}

/// Packs one position's 0/1 column bytes onto the end of `writer`.
void append_position_bits(BitWriter& writer, const std::uint8_t* bits,
                          int cols) {
  for (int off = 0; off < cols; off += 64) {
    const int n = std::min(64, cols - off);
    std::uint64_t word = 0;
    for (int j = 0; j < n; ++j)
      word |= static_cast<std::uint64_t>(bits[off + j]) << j;
    writer.append(word, n);
  }
}

/// One column block of the stage-0 dense convolution (in_ch == 1).
struct Conv0Tile {
  const double* img;  // DAC levels, in_h × in_w, then kConv0Pad zeros
  int in_w, out_h, out_w, kernel;
  const double* w;    // the block's taps as doubles, [K·K][NC]
  const double* ref;  // noise-free: the block's column references, else null
  double* sums;       // noisy: [col][position] sums from the block's column
  std::uint64_t* cmp; // noise-free: [col][pwords] compare bits, pre-zeroed
  std::size_t positions, pwords;
};

/// ORs an n-bit compare mask into a column's position bits at `pos`; a strip
/// can straddle two words when out_w is not a multiple of eight.
inline void or_position_bits(std::uint64_t* words, std::size_t pos,
                             std::uint64_t mask, int n) {
  words[pos >> 6] |= mask << (pos & 63);
  if (static_cast<int>(pos & 63) + n > 64)
    words[(pos >> 6) + 1] |= mask >> (64 - (pos & 63));
}

#ifdef SEI_CORE_AVX512

/// Stage-0 column-blocked direct convolution: each eight-position strip
/// loads every input vector once and FMAs it into NC column accumulators —
/// NC independent chains. Noise-free tiles compare the accumulators against
/// the column references in registers and OR the masks into `cmp`; noisy
/// tiles store the sums. Any accumulation order is bit-identical under the
/// dac_exact bound (every partial sum is exact).
template <int NC>
void conv0_tile(const Conv0Tile& t) {
  for (int y = 0; y < t.out_h; ++y) {
    const double* srow = t.img + static_cast<std::size_t>(y) * t.in_w;
    for (int x = 0; x < t.out_w; x += 8) {
      const std::size_t pos = static_cast<std::size_t>(y) * t.out_w + x;
      const int n = std::min(8, t.out_w - x);
      __m512d acc[NC];
      for (int j = 0; j < NC; ++j) acc[j] = _mm512_setzero_pd();
      const double* w = t.w;
      for (int di = 0; di < t.kernel; ++di) {
        const double* sr = srow + static_cast<std::size_t>(di) * t.in_w + x;
        for (int dj = 0; dj < t.kernel; ++dj, w += NC) {
          const __m512d v = _mm512_loadu_pd(sr + dj);
          for (int j = 0; j < NC; ++j)
            acc[j] = _mm512_fmadd_pd(_mm512_set1_pd(w[j]), v, acc[j]);
        }
      }
      const __mmask8 lanes = static_cast<__mmask8>((1u << n) - 1u);
      for (int j = 0; j < NC; ++j) {
        if (t.ref)
          or_position_bits(t.cmp + static_cast<std::size_t>(j) * t.pwords, pos,
                           _mm512_mask_cmp_pd_mask(lanes, acc[j],
                                                   _mm512_set1_pd(t.ref[j]),
                                                   _CMP_GT_OQ),
                           n);
        else
          _mm512_mask_storeu_pd(
              t.sums + static_cast<std::size_t>(j) * t.positions + pos, lanes,
              acc[j]);
      }
    }
  }
}

/// decide_position + append_position_bits fused, for the noise-free packed
/// path: the compare masks ARE the output bits. Threshold expressions
/// mirror decide_position's operation order exactly, so every compare sees
/// the same double on both sides.
void decide_append_fast(const MappedLayer& m, const double* block_sums,
                        const int* n_active, BitWriter& writer) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* ct = m.col_threshold.data();
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  if (k == 1) {
    for (int cg = 0; cg < cols; cg += 8) {
      const int n = std::min(8, cols - cg);
      const __mmask8 lm = static_cast<__mmask8>((1u << n) - 1u);
      __m512d ref = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(lm, ct + cg));
      if (offsets)
        ref = _mm512_add_pd(
            ref, _mm512_cvtps_pd(_mm256_maskz_loadu_ps(lm, offsets + cg)));
      const __m512d sums = _mm512_maskz_loadu_pd(lm, block_sums + cg);
      writer.append(_mm512_mask_cmp_pd_mask(lm, sums, ref, _CMP_GT_OQ), n);
    }
    return;
  }
  int total_active = 0;
  for (int b = 0; b < k; ++b) total_active += n_active[b];
  const double mean_active = static_cast<double>(total_active) / k;
  const double beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  const __m512i vote_req = _mm512_set1_epi64(m.vote_threshold);
  for (int cg = 0; cg < cols; cg += 8) {
    const int n = std::min(8, cols - cg);
    const __mmask8 lm = static_cast<__mmask8>((1u << n) - 1u);
    const __m512d share = _mm512_div_pd(
        _mm512_cvtps_pd(_mm256_maskz_loadu_ps(lm, ct + cg)),
        _mm512_set1_pd(static_cast<double>(k)));
    __m512i votes = _mm512_setzero_si512();
    for (int b = 0; b < k; ++b) {
      // block_reference, lane by lane: one fused multiply-add, then the
      // offset.
      __m512d t = _mm512_fmadd_pd(
          _mm512_set1_pd(beta_scale),
          _mm512_set1_pd(static_cast<double>(n_active[b]) - mean_active),
          share);
      if (offsets)
        t = _mm512_add_pd(t, _mm512_cvtps_pd(_mm256_maskz_loadu_ps(
                                 lm, offsets + static_cast<std::size_t>(b) *
                                                   cols + cg)));
      const __m512d sums = _mm512_maskz_loadu_pd(
          lm, block_sums + static_cast<std::size_t>(b) * cols + cg);
      // movm turns the compare mask into -1 lanes; subtracting counts votes.
      votes = _mm512_sub_epi64(
          votes,
          _mm512_movm_epi64(_mm512_mask_cmp_pd_mask(lm, sums, t, _CMP_GT_OQ)));
    }
    writer.append(_mm512_cmp_epi64_mask(votes, vote_req, _MM_CMPINT_NLT), n);
  }
}

/// Batch-of-8 decide+append over the transposed sums accumulate_positions8
/// produces: each compare handles one column across eight positions, and
/// the per-column masks transpose back into position-major words. Scalar
/// coefficients broadcast, so every lane runs decide_position's exact
/// operation sequence. Requires cols ≤ 64 and noise-free readout.
void decide_append_fast8(const MappedLayer& m, const double* sums8,
                         const std::int32_t* n_active8, int np,
                         BitWriter& writer) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* ct = m.col_threshold.data();
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  const __mmask8 pm = static_cast<__mmask8>((1u << np) - 1u);
  std::uint64_t posw[8] = {};
  __m512d mean{};
  double beta_scale = 0.0;
  if (k > 1) {
    __m512i total = _mm512_setzero_si512();
    for (int b = 0; b < k; ++b)
      total = _mm512_add_epi64(
          total, _mm512_cvtepi32_epi64(_mm256_loadu_si256(
                     reinterpret_cast<const __m256i*>(n_active8 + b * 8))));
    mean = _mm512_div_pd(_mm512_cvtepi64_pd(total),
                         _mm512_set1_pd(static_cast<double>(k)));
    beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  }
  const __m512i vote_req = _mm512_set1_epi64(m.vote_threshold);
  for (int base_c = 0; base_c < cols; base_c += 8) {
    const int nc = std::min(8, cols - base_c);
    std::uint64_t t = 0;
    for (int lc = 0; lc < nc; ++lc) {
      const int c = base_c + lc;
      __mmask8 bits;
      if (k == 1) {
        const double ref =
            static_cast<double>(ct[c]) +
            (offsets ? static_cast<double>(offsets[c]) : 0.0);
        bits = _mm512_mask_cmp_pd_mask(
            pm, _mm512_loadu_pd(sums8 + static_cast<std::size_t>(c) * 8),
            _mm512_set1_pd(ref), _CMP_GT_OQ);
      } else {
        const double share = static_cast<double>(ct[c]) / k;
        __m512i votes = _mm512_setzero_si512();
        for (int b = 0; b < k; ++b) {
          const __m512d nav = _mm512_cvtepi32_pd(_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(n_active8 + b * 8)));
          __m512d tb = _mm512_fmadd_pd(_mm512_set1_pd(beta_scale),
                                       _mm512_sub_pd(nav, mean),
                                       _mm512_set1_pd(share));
          if (offsets)
            tb = _mm512_add_pd(
                tb, _mm512_set1_pd(static_cast<double>(
                        offsets[static_cast<std::size_t>(b) * cols + c])));
          const __m512d sums = _mm512_loadu_pd(
              sums8 + (static_cast<std::size_t>(b) * cols + c) * 8);
          votes = _mm512_sub_epi64(
              votes, _mm512_movm_epi64(
                         _mm512_mask_cmp_pd_mask(pm, sums, tb, _CMP_GT_OQ)));
        }
        bits = _mm512_mask_cmp_epi64_mask(pm, votes, vote_req,
                                          _MM_CMPINT_NLT);
      }
      t |= static_cast<std::uint64_t>(bits) << (8 * lc);
    }
    t = transpose8x8(t);
    for (int p = 0; p < np; ++p)
      posw[p] |= ((t >> (8 * p)) & 0xFFu) << base_c;
  }
  for (int p = 0; p < np; ++p) {
    writer.append(posw[p], cols);
    posw[p] = 0;
  }
}

#else  // !SEI_CORE_AVX512

// Positions per strip of the portable tile: one vector register of doubles
// on the target, so NC accumulators stay in registers.
#if defined(__AVX512F__)
constexpr int kConv0Lanes = 8;
#elif defined(__AVX__)
constexpr int kConv0Lanes = 4;
#else
constexpr int kConv0Lanes = 2;
#endif
using Conv0Vec =
    double __attribute__((vector_size(kConv0Lanes * sizeof(double))));

/// Portable twin of the AVX-512 conv0_tile: the same column blocking on
/// strips one register wide, written with GCC/Clang vector extensions
/// instead of intrinsics. Lanes past out_w read the next row (or the
/// padding) and are masked off.
template <int NC>
void conv0_tile(const Conv0Tile& t) {
  constexpr int kL = kConv0Lanes;
  for (int y = 0; y < t.out_h; ++y) {
    const double* srow = t.img + static_cast<std::size_t>(y) * t.in_w;
    for (int x = 0; x < t.out_w; x += kL) {
      const std::size_t pos = static_cast<std::size_t>(y) * t.out_w + x;
      const int n = std::min(kL, t.out_w - x);
      Conv0Vec acc[NC];
      for (int j = 0; j < NC; ++j) acc[j] = Conv0Vec{};
      const double* w = t.w;
      for (int di = 0; di < t.kernel; ++di) {
        const double* sr = srow + static_cast<std::size_t>(di) * t.in_w + x;
        for (int dj = 0; dj < t.kernel; ++dj, w += NC) {
          Conv0Vec v;
          std::memcpy(&v, sr + dj, sizeof v);
          for (int j = 0; j < NC; ++j) acc[j] += w[j] * v;
        }
      }
      for (int j = 0; j < NC; ++j) {
        if (t.ref) {
          const auto gt = acc[j] > t.ref[j];  // lanes of −1 / 0
          std::uint64_t m = 0;
          for (int l = 0; l < n; ++l)
            m |= static_cast<std::uint64_t>(gt[l] & 1) << l;
          or_position_bits(t.cmp + static_cast<std::size_t>(j) * t.pwords, pos,
                           m, n);
        } else {
          double* dst = t.sums + static_cast<std::size_t>(j) * t.positions + pos;
          for (int l = 0; l < n; ++l) dst[l] = acc[j][l];
        }
      }
    }
  }
}

#endif  // SEI_CORE_AVX512

using Conv0TileFn = void (*)(const Conv0Tile&);

template <std::size_t... I>
constexpr std::array<Conv0TileFn, sizeof...(I)> conv0_tiles(
    std::index_sequence<I...>) {
  return {&conv0_tile<static_cast<int>(I) + 1>...};
}

/// conv0_tile<NC> for NC = 1..kConv0MaxCols, indexed by NC − 1.
constexpr auto kConv0Tiles =
    conv0_tiles(std::make_index_sequence<kConv0MaxCols>{});

}  // namespace

void SeiNetwork::eval_stage_packed(const MappedLayer& m,
                                   [[maybe_unused]] PackedKernel kern,
                                   const quant::PackedBits& in,
                                   quant::PackedBits& bits_out,
                                   std::vector<float>& scores,
                                   EvalContext& ctx) const {
  const quant::StageGeometry& g = m.geom;
  const PackedStage& ps = m.packed;
  SEI_CHECK(ps.valid);
  SEI_CHECK(in.bits == static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const int cols = g.cols, k = m.block_count;
  // Rows driven (the row-billing count) come from counts the kernels take
  // anyway: Σ n_active per position, or one popcount per window word.
  std::int64_t rows_driven = 0;
  EvalContext::StageActivity* act = ctx.cur_activity;
  ctx.block_sums.resize(static_cast<std::size_t>(k) * cols);
  ctx.n_active.resize(static_cast<std::size_t>(k));

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  BitWriter writer(ctx.packed_stage, m.binarize ? positions * cols : 0);
  if (m.binarize) ctx.pos_bits.resize(static_cast<std::size_t>(cols));
  else scores.assign(static_cast<std::size_t>(cols), 0.0f);

  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const int span = is_conv ? g.kernel * g.in_ch : g.rows;
  // FC input is already the full row window (rows == in.bits, zero tail).
  const std::uint64_t* window = in.words.data();
  if (is_conv) ctx.window.resize(static_cast<std::size_t>(ps.words));

#ifdef SEI_CORE_AVX512
  // Batch-of-8 position pipeline: compact eight conv windows, then run the
  // per-column mask stream once against all eight. The masks (the dominant
  // memory traffic of wide hidden stages) are loaded once per batch instead
  // of once per position, and decide+append vectorize across positions.
  // Bit-identical to the per-position path: the block sums are the same
  // exact integers and the noise-free decide makes no RNG draws. Only the
  // !rows_ok fallback — when the int16 row-gather table is available it
  // beats streaming the plane masks even once per batch. The selection
  // conditions live in select_packed_kernel (core/plan.cpp), resolved at
  // plan-compile time.
  if (kern == PackedKernel::kBatch8) {
    const int lw_words = ps.block_loff[k];
    ctx.lw8.resize(static_cast<std::size_t>(lw_words) * 8);
    ctx.nact8.resize(static_cast<std::size_t>(k) * 8);
    ctx.sums8.resize(static_cast<std::size_t>(k) * cols * 8);
    std::uint64_t lw_tmp[PackedStage::kMaxBlockSpan];
    for (std::size_t pos = 0; pos < positions; pos += 8) {
      const int np = static_cast<int>(std::min<std::size_t>(8, positions - pos));
      if (np < 8) {  // zeroed tail lanes produce harmless zero sums
        std::fill(ctx.lw8.begin(), ctx.lw8.end(), 0);
        std::fill(ctx.nact8.begin(), ctx.nact8.end(), 0);
      }
      for (int p = 0; p < np; ++p) {
        const int y = static_cast<int>((pos + p) / g.out_w);
        const int x = static_cast<int>((pos + p) % g.out_w);
        if (ps.words == 1) {
          // rows ≤ 64: the whole window fits one word — assemble it from
          // per-kernel-row bit extracts without touching the scratch buffer.
          std::uint64_t w0 = 0;
          for (int di = 0; di < g.kernel; ++di)
            w0 |= extract_bits64(
                      in.words.data(),
                      (static_cast<std::size_t>(y + di) * g.in_w + x) *
                          g.in_ch,
                      span)
                  << (di * span);
          ctx.window[0] = w0;
        } else {
          std::fill(ctx.window.begin(), ctx.window.end(), 0);
          for (int di = 0; di < g.kernel; ++di)
            copy_bits(
                in.words.data(),
                (static_cast<std::size_t>(y + di) * g.in_w + x) * g.in_ch,
                ctx.window.data(), static_cast<std::size_t>(di) * span,
                static_cast<std::size_t>(span));
        }
        if (act) record_activity(g.rows, ctx.window.data(), *act);
        for (int b = 0; b < k; ++b) {
          const int bspan = ps.block_span[b];
          const int na = compact_block_window(ps, b, ctx.window.data(), lw_tmp);
          ctx.nact8[static_cast<std::size_t>(b) * 8 + p] = na;
          rows_driven += na;
          std::uint64_t* dst =
              ctx.lw8.data() + static_cast<std::size_t>(ps.block_loff[b]) * 8;
          for (int w = 0; w < bspan; ++w)
            dst[static_cast<std::size_t>(w) * 8 + p] = lw_tmp[w];
        }
      }
      accumulate_positions8(ps, cols, k, ctx.lw8.data(), ctx.nact8.data(),
                            ctx.sums8.data());
      decide_append_fast8(m, ctx.sums8.data(), ctx.nact8.data(), np, writer);
    }
    writer.finish();
    if (g.pool_after)
      or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.packed_stage;
    ctx.rows_driven = rows_driven;
    return;
  }

  // Single-block noise-free stages decide with `sum > ref` alone, and the
  // int16 row-gather accumulator already holds every sum exactly — so
  // compare in int16 against pre-floored references and never widen to
  // doubles: for an integer sum, sum > ref ⟺ sum > floor(ref). References
  // outside int16 range clamp exactly too (|sum| ≤ Σ|w| ≤ 32767 means the
  // compare is all-false / all-true either way).
  if (kern == PackedKernel::kRow16Cmp) {
    const float* ct = m.col_threshold.data();
    const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
    alignas(64) std::int16_t iref[32];
    for (int c = 0; c < 32; ++c) iref[c] = 32767;  // tail lanes never fire
    for (int c = 0; c < cols; ++c) {
      const double ref = static_cast<double>(ct[c]) +
                         (offsets ? static_cast<double>(offsets[c]) : 0.0);
      iref[c] = static_cast<std::int16_t>(
          std::clamp(std::floor(ref), -32768.0, 32767.0));
    }
    const __m512i refv =
        _mm512_load_si512(reinterpret_cast<const void*>(iref));
    const std::uint64_t* bm = ps.block_masks.data();
    const std::uint64_t colmask = (std::uint64_t{1} << cols) - 1u;
    const std::int16_t* rw = ps.row_w.data();
    for (int y = 0; y < g.out_h; ++y) {
      for (int x = 0; x < g.out_w; ++x) {
        const std::uint64_t* wptr = in.words.data();
        if (is_conv) {
          if (ps.words == 1) {
            std::uint64_t w0 = 0;
            for (int di = 0; di < g.kernel; ++di)
              w0 |= extract_bits64(
                        in.words.data(),
                        (static_cast<std::size_t>(y + di) * g.in_w + x) *
                            g.in_ch,
                        span)
                    << (di * span);
            ctx.window[0] = w0;
          } else {
            std::fill(ctx.window.begin(), ctx.window.end(), 0);
            for (int di = 0; di < g.kernel; ++di)
              copy_bits(
                  in.words.data(),
                  (static_cast<std::size_t>(y + di) * g.in_w + x) * g.in_ch,
                  ctx.window.data(), static_cast<std::size_t>(di) * span,
                  static_cast<std::size_t>(span));
          }
          wptr = ctx.window.data();
        }
        if (act) record_activity(g.rows, wptr, *act);
        __m512i acc0 = _mm512_setzero_si512();
        __m512i acc1 = _mm512_setzero_si512();
        bool flip = false;
        for (int w = 0; w < ps.words; ++w) {
          std::uint64_t bits = wptr[w] & bm[w];
          rows_driven += std::popcount(bits);
          for (; bits != 0; bits &= bits - 1) {
            const int r = (w << 6) + std::countr_zero(bits);
            const __m512i row = _mm512_loadu_si512(reinterpret_cast<
                const void*>(rw + (static_cast<std::size_t>(r) << 5)));
            if (flip) acc1 = _mm512_add_epi16(acc1, row);
            else      acc0 = _mm512_add_epi16(acc0, row);
            flip = !flip;
          }
        }
        const __mmask32 gt =
            _mm512_cmpgt_epi16_mask(_mm512_add_epi16(acc0, acc1), refv);
        writer.append(static_cast<std::uint64_t>(gt) & colmask, cols);
      }
    }
    writer.finish();
    if (g.pool_after)
      or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.packed_stage;
    ctx.rows_driven = rows_driven;
    return;
  }
#endif

  const double sigma = cfg_.device.read_noise_sigma;
  BandScratch band;
  if (sigma > 0.0 && m.binarize) {
    ctx.band_ref.resize(2 * static_cast<std::size_t>(k) * cols);
    ctx.band_state.resize(static_cast<std::size_t>(k) * cols);
    band = {ctx.band_ref.data(), ctx.band_state.data()};
    lazy_decide_refs(m, band.ref);
  }
  for (int y = 0; y < g.out_h; ++y) {
    for (int x = 0; x < g.out_w; ++x) {
      if (is_conv) {
        if (ps.words == 1) {
          // rows ≤ 64: assemble the single-word window from per-kernel-row
          // bit extracts without touching the scratch buffer.
          std::uint64_t w0 = 0;
          for (int di = 0; di < g.kernel; ++di)
            w0 |= extract_bits64(
                      in.words.data(),
                      (static_cast<std::size_t>(y + di) * g.in_w + x) *
                          g.in_ch,
                      span)
                  << (di * span);
          ctx.window[0] = w0;
        } else {
          std::fill(ctx.window.begin(), ctx.window.end(), 0);
          for (int di = 0; di < g.kernel; ++di)
            copy_bits(
                in.words.data(),
                (static_cast<std::size_t>(y + di) * g.in_w + x) * g.in_ch,
                ctx.window.data(), static_cast<std::size_t>(di) * span,
                static_cast<std::size_t>(span));
        }
        window = ctx.window.data();
      }
      if (act) record_activity(g.rows, window, *act);
      if (ps.rows_ok)
        accumulate_position_rows(ps, cols, k, window, ctx.block_sums.data(),
                                 ctx.n_active.data());
      else
        accumulate_position(ps, cols, k, window, ctx.block_sums.data(),
                            ctx.n_active.data());
      for (int b = 0; b < k; ++b)
        rows_driven += ctx.n_active[static_cast<std::size_t>(b)];
      if (m.binarize) {
#ifdef SEI_CORE_AVX512
        if (cfg_.device.read_noise_sigma <= 0.0) {
          decide_append_fast(m, ctx.block_sums.data(), ctx.n_active.data(),
                             writer);
          continue;
        }
#endif
        if (sigma > 0.0)
          decide_position_lazy(m, sigma, ctx.block_sums.data(),
                               ctx.n_active.data(), ctx.pos_bits.data(), band,
                               ctx.rng);
        else
          decide_position(m, ctx.block_sums.data(), ctx.n_active.data(),
                          ctx.pos_bits.data(), ctx.rng);
        append_position_bits(writer, ctx.pos_bits.data(), cols);
      } else {
        merge_classifier(m, scores, ctx);
      }
    }
  }

  ctx.rows_driven = rows_driven;
  if (m.binarize) {
    writer.finish();
    if (g.pool_after)
      or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.packed_stage;
  }
}

void SeiNetwork::eval_stage_dac(const MappedLayer& m, DacKernel kern,
                                std::span<const float> in,
                                quant::PackedBits& bits_out,
                                std::vector<float>& scores,
                                EvalContext& ctx) const {
  const quant::StageGeometry& g = m.geom;
  SEI_CHECK(in.size() == static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const int cols = g.cols, k = m.block_count;
  ctx.block_sums.resize(static_cast<std::size_t>(k) * cols);
  ctx.n_active.resize(static_cast<std::size_t>(k));

  // The scalar path re-runs the DAC for every overlapping window; quantize
  // the image once instead. Accumulation below keeps the scalar loop's
  // exact term order, so the sums are the same doubles.
  ctx.dac_vals.resize(in.size());
  dac_quantize_image(in, cfg_.input_bits, ctx.dac_vals.data());

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  BitWriter writer(ctx.packed_stage, m.binarize ? positions * cols : 0);
  if (m.binarize) ctx.pos_bits.resize(static_cast<std::size_t>(cols));
  else scores.assign(static_cast<std::size_t>(cols), 0.0f);

  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const int span = is_conv ? g.kernel * g.in_ch : g.rows;

  if (kern == DacKernel::kDenseTranspose) {
    // Column-blocked direct convolution (conv0_tile, in_ch == 1): the
    // columns split into blocks of at most kConv0MaxCols, balanced, and
    // each block runs the whole image with its columns' accumulators in
    // registers. Zero DAC outputs add an exact ±0.0 and the dac_exact bound
    // keeps every partial sum exact, so this reordering produces the same
    // doubles as the per-window loop (zero signs can differ, which no
    // compare can observe).
    const bool noisy = cfg_.device.read_noise_sigma > 0.0;
    const std::size_t pwords = (positions + 63) / 64;
    ctx.dac_d.resize(ctx.dac_vals.size() + kConv0Pad);
    std::copy(ctx.dac_vals.begin(), ctx.dac_vals.end(), ctx.dac_d.begin());
    std::fill(ctx.dac_d.end() - kConv0Pad, ctx.dac_d.end(), 0.0);
    if (noisy) {
      ctx.pos_sums.resize(static_cast<std::size_t>(cols) * positions);
    } else {
      // decide_position's single-block reference (one exact add) per
      // column, kept in block_sums' scratch.
      const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
      for (int c = 0; c < cols; ++c)
        ctx.block_sums[static_cast<std::size_t>(c)] =
            static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) +
            (offsets ? offsets[c] : 0.0);
      ctx.col_cmp.assign(static_cast<std::size_t>(cols) * pwords, 0);
    }
    const int taps = g.kernel * g.kernel;
    ctx.tile_w.resize(static_cast<std::size_t>(taps) *
                      std::min(cols, kConv0MaxCols));
    const int blocks = (cols + kConv0MaxCols - 1) / kConv0MaxCols;
    for (int b = 0, c0 = 0; b < blocks; ++b) {
      const int nc = cols / blocks + (b < cols % blocks ? 1 : 0);
      for (int t = 0; t < taps; ++t)
        for (int j = 0; j < nc; ++j)
          ctx.tile_w[static_cast<std::size_t>(t) * nc + j] =
              m.eff[static_cast<std::size_t>(t) * cols + c0 + j];
      const Conv0Tile tile{
          ctx.dac_d.data(),
          g.in_w,
          g.out_h,
          g.out_w,
          g.kernel,
          ctx.tile_w.data(),
          noisy ? nullptr : ctx.block_sums.data() + c0,
          noisy ? ctx.pos_sums.data() + static_cast<std::size_t>(c0) * positions
                : nullptr,
          noisy ? nullptr
                : ctx.col_cmp.data() + static_cast<std::size_t>(c0) * pwords,
          positions,
          pwords};
      kConv0Tiles[static_cast<std::size_t>(nc - 1)](tile);
      c0 += nc;
    }
    if (!noisy) {
      // Fused OR-pool: pooling commutes with the transpose, and in
      // column-major bit rows it is three word ops per output row — so
      // pool here and interleave only a quarter of the positions,
      // replacing the or_pool_packed pass entirely.
      const bool fuse_pool = g.pool_after && g.out_w <= 64;
      const std::uint64_t* colbits = ctx.col_cmp.data();
      std::size_t nw = pwords, npos = positions;
      if (fuse_pool) {
        const int oh = g.out_h / 2, ow = g.out_w / 2;
        npos = static_cast<std::size_t>(oh) * ow;
        nw = (npos + 63) / 64;
        ctx.col_pool.assign(static_cast<std::size_t>(cols) * nw, 0);
        for (int c = 0; c < cols; ++c) {
          const std::uint64_t* src =
              ctx.col_cmp.data() + static_cast<std::size_t>(c) * pwords;
          std::uint64_t* dst =
              ctx.col_pool.data() + static_cast<std::size_t>(c) * nw;
          std::size_t opos = 0;
          for (int y = 0; y < oh; ++y, opos += ow) {
            const std::uint64_t a = extract_bits64(
                src, static_cast<std::size_t>(2 * y) * g.out_w, g.out_w);
            const std::uint64_t b2 = extract_bits64(
                src, static_cast<std::size_t>(2 * y + 1) * g.out_w, g.out_w);
            const std::uint64_t t = a | b2;
            const std::uint64_t w = compact_even_bits(t | (t >> 1), ow);
            dst[opos >> 6] |= w << (opos & 63);
            if (static_cast<int>(opos & 63) + ow > 64)
              dst[(opos >> 6) + 1] |= w >> (64 - (opos & 63));
          }
        }
        colbits = ctx.col_pool.data();
      }
      std::optional<BitWriter> pool_writer;
      if (fuse_pool) pool_writer.emplace(bits_out, npos * cols);
      BitWriter& wr = fuse_pool ? *pool_writer : writer;
      // Interleave the column-major bit rows into position-major output,
      // 8 positions × 8 columns at a time via bit-matrix transposes.
      const int cg8 = cols / 8;
      std::size_t pos = 0;
      for (; pos + 8 <= npos; pos += 8) {
        std::uint64_t tw[8] = {};  // transposed: byte p = cols of position p
        for (int g8 = 0; g8 <= cg8; ++g8) {
          const int base_c = g8 * 8;
          const int nc = std::min(8, cols - base_c);
          if (nc <= 0) break;
          std::uint64_t t = 0;
          for (int c = 0; c < nc; ++c)
            t |= ((colbits[static_cast<std::size_t>(base_c + c) * nw +
                           (pos >> 6)] >>
                   (pos & 63)) &
                  0xFFu)
                 << (8 * c);
          t = transpose8x8(t);
          if (cols <= 8) {
            // Narrow stages: all eight positions' bits land in one append.
            wr.append(pack_pos_bytes(t, cols), 8 * cols);
            break;
          }
          for (int p = 0; p < 8; ++p)
            tw[p] |= ((t >> (8 * p)) & 0xFFu) << base_c;
        }
        if (cols > 8)
          for (int p = 0; p < 8; ++p) wr.append(tw[p], cols);
      }
      for (; pos < npos; ++pos) {
        std::uint64_t word = 0;
        for (int c = 0; c < cols; ++c)
          word |= ((colbits[static_cast<std::size_t>(c) * nw + (pos >> 6)] >>
                    (pos & 63)) &
                   1u)
                  << c;
        wr.append(word, cols);
      }
      if (fuse_pool) {
        wr.finish();
        return;
      }
    } else {
      // Noisy readout: band each column's positions at once, then sample
      // the open reads in decide_position's (position, column) draw order.
      ctx.band_state.resize(static_cast<std::size_t>(cols) * positions);
      decide_columns_lazy(m, cfg_.device.read_noise_sigma, ctx.pos_sums.data(),
                          positions, ctx.band_state.data(), writer, ctx.rng);
    }
  } else if (kern == DacKernel::kScatter) {
    // Scatter instead of gather: most DAC outputs are exactly zero (blank
    // MNIST margins), and each nonzero input pixel feeds a predictable set
    // of output windows. Walk the image once, skip zeros, and accumulate
    // each survivor into every position whose window contains it. The
    // dac_exact bound makes every partial sum exact, so this reordering
    // produces the same doubles the per-window loop would.
    const std::size_t stride = static_cast<std::size_t>(k) * cols;
    ctx.pos_sums.assign(positions * stride, 0.0);
    ctx.pos_active.assign(positions * static_cast<std::size_t>(k), 0);
    for (int py = 0; py < g.in_h; ++py) {
      const int di_lo = std::max(0, py - (g.out_h - 1));
      const int di_hi = std::min(g.kernel - 1, py);
      if (di_lo > di_hi) continue;
      for (int px = 0; px < g.in_w; ++px) {
        const int dj_lo = std::max(0, px - (g.out_w - 1));
        const int dj_hi = std::min(g.kernel - 1, px);
        if (dj_lo > dj_hi) continue;
        const float* pvals =
            ctx.dac_vals.data() +
            (static_cast<std::size_t>(py) * g.in_w + px) * g.in_ch;
        for (int ch = 0; ch < g.in_ch; ++ch) {
          const float xq = pvals[ch];
          if (xq == 0.0f) continue;
          const double xd = static_cast<double>(xq);
          for (int di = di_lo; di <= di_hi; ++di) {
            const std::size_t pos_row =
                static_cast<std::size_t>(py - di) * g.out_w;
            for (int dj = dj_lo; dj <= dj_hi; ++dj) {
              const int r = (di * g.kernel + dj) * g.in_ch + ch;
              const int b = m.row_to_block[static_cast<std::size_t>(r)];
              const std::size_t pos = pos_row + (px - dj);
              ++ctx.pos_active[pos * k + b];
              const float* wrow =
                  m.eff.data() + static_cast<std::size_t>(r) * cols;
              double* sums = ctx.pos_sums.data() + pos * stride +
                             static_cast<std::size_t>(b) * cols;
              for (int c = 0; c < cols; ++c) sums[c] += xd * wrow[c];
            }
          }
        }
      }
    }
    // Decisions stay in position order, so the noisy path's RNG draws are
    // the same ones the dense loop would make.
    for (std::size_t pos = 0; pos < positions; ++pos) {
      decide_position(m, ctx.pos_sums.data() + pos * stride,
                      ctx.pos_active.data() + pos * k, ctx.pos_bits.data(),
                      ctx.rng);
      append_position_bits(writer, ctx.pos_bits.data(), cols);
    }
  } else {
    for (int y = 0; y < g.out_h; ++y) {
      for (int x = 0; x < g.out_w; ++x) {
        std::fill(ctx.block_sums.begin(), ctx.block_sums.end(), 0.0);
        std::fill(ctx.n_active.begin(), ctx.n_active.end(), 0);
        const int window_rows = is_conv ? g.kernel : 1;
        for (int di = 0; di < window_rows; ++di) {
          const float* in_px =
              is_conv ? ctx.dac_vals.data() +
                            (static_cast<std::size_t>(y + di) * g.in_w + x) *
                                g.in_ch
                      : ctx.dac_vals.data();
          const int r0 = di * span;
          for (int t = 0; t < span; ++t) {
            const float xq = in_px[t];
            if (xq == 0.0f) continue;
            const int r = r0 + t;
            const int b = m.row_to_block[static_cast<std::size_t>(r)];
            ++ctx.n_active[static_cast<std::size_t>(b)];
            const float* wrow =
                m.eff.data() + static_cast<std::size_t>(r) * cols;
            double* sums = ctx.block_sums.data() +
                           static_cast<std::size_t>(b) * cols;
            for (int c = 0; c < cols; ++c)
              sums[c] += static_cast<double>(xq) * wrow[c];
          }
        }
        if (m.binarize) {
          decide_position(m, ctx.block_sums.data(), ctx.n_active.data(),
                          ctx.pos_bits.data(), ctx.rng);
          append_position_bits(writer, ctx.pos_bits.data(), cols);
        } else {
          merge_classifier(m, scores, ctx);
        }
      }
    }
  }

  if (m.binarize) {
    writer.finish();
    if (g.pool_after)
      or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
    else
      bits_out = ctx.packed_stage;
  }
}

int SeiNetwork::packed_stage_count() const {
  int n = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const PackedStage& ps = layers_[i].packed;
    if (ps.valid && (i != 0 || ps.dac_exact)) ++n;
  }
  return n;
}

int SeiNetwork::predict(std::span<const float> image) const {
  EvalContext ctx;
  return predict(image, ctx, 0);
}

int SeiNetwork::predict(std::span<const float> image, EvalContext& ctx,
                        long long image_index) const {
  SEI_CHECK_MSG(ctx.cancel == nullptr,
                "predict() cannot take a cancel token — use try_predict()");
  return try_predict(image, ctx, image_index).value();
}

Result<int> SeiNetwork::try_predict(std::span<const float> image,
                                    EvalContext& ctx,
                                    long long image_index) const {
  prepare(ctx);
  return run_plan(image, ctx, image_index, 0, plan_.ops.size());
}

void SeiNetwork::charge(const StageOp& op, EvalContext& ctx) const {
  if (!ctx.meter || !ctx.energy) return;
  if (op.skip_bound >= 0) {
    // Activation-proportional charging: the baked uniform price cannot
    // apply (energy varies per image), so the stage pays for the rows its
    // engine reported driving.
    ctx.meter->charge_stage_rows(static_cast<std::size_t>(op.stage),
                                 ctx.rows_driven, *ctx.energy);
    return;
  }
  if constexpr (telemetry::kEnabled) {
    if (op.priced && ctx.meter == plan_.priced_for) {
      // Baked price: two struct adds instead of chasing the meter's stage
      // table. Same numbers — the price was copied from this meter at
      // compile time.
      ctx.energy->pj += op.price.pj;
      ctx.energy->events += op.price.events;
      ++ctx.energy->stages;
      return;
    }
  }
  ctx.meter->charge_stage(static_cast<std::size_t>(op.stage), *ctx.energy);
}

Result<int> SeiNetwork::run_plan(std::span<const float> image,
                                 EvalContext& ctx, long long image_index,
                                 std::size_t first, std::size_t last) const {
  for (std::size_t i = first; i < last; ++i) {
    // The stage boundary is the cancellation point: coarse enough to stay
    // free when no token is armed, fine enough that a request misses its
    // deadline by at most one stage of work.
    if (ctx.cancel && ctx.cancel->expired()) return ctx.cancel->to_error();
    const StageOp& op = plan_.ops[i];
    const MappedLayer& m = layers_[static_cast<std::size_t>(op.stage)];
    ctx.rng = stage_stream(image_index, op.stage);
    ctx.cur_activity = ctx.activity && op.skip_bound >= 0
                           ? ctx.activity + op.stage
                           : nullptr;
    // Form converts were resolved at compile time; the ops below are no-ops
    // for almost every stage boundary (engines of adjacent stages agree).
    // A range entering at a hidden stage starts from byte maps.
    if (i == first ? op.in_form == ActForm::kPacked : op.pack_input)
      quant::pack_bits(ctx.bits, ctx.packed_bits);
    else if (i != first && op.unpack_input)
      quant::unpack_bits(ctx.packed_bits, ctx.bits);
    switch (op.engine) {
      case StageEngine::kDacDense:
        eval_stage_dac(m, op.dac_kernel, image, ctx.packed_pooled, ctx.scores,
                       ctx);
        if (!op.classifier) std::swap(ctx.packed_bits, ctx.packed_pooled);
        break;
      case StageEngine::kScalarFloat:
        eval_stage_float(m, image, ctx.pooled_bits, ctx.scores, ctx);
        if (!op.classifier) std::swap(ctx.bits, ctx.pooled_bits);
        break;
      case StageEngine::kPackedBits:
        eval_stage_packed(m, op.packed_kernel, ctx.packed_bits,
                          ctx.packed_pooled, ctx.scores, ctx);
        if (!op.classifier) std::swap(ctx.packed_bits, ctx.packed_pooled);
        break;
      case StageEngine::kScalarBits:
        eval_stage_bits(m, ctx.bits, ctx.pooled_bits, ctx.scores, ctx);
        if (!op.classifier) std::swap(ctx.bits, ctx.pooled_bits);
        break;
    }
    charge(op, ctx);
    if (op.classifier) {
      if (ctx.energy) ++ctx.energy->images;
      return static_cast<int>(
          std::max_element(ctx.scores.begin(), ctx.scores.end()) -
          ctx.scores.begin());
    }
  }
  SEI_CHECK_MSG(last < plan_.ops.size(), "plan has no classifier op");
  return -1;
}

double SeiNetwork::error_rate(const data::Dataset& d, int max_images) const {
  const int n = max_images < 0 ? d.size() : std::min(max_images, d.size());
  SEI_CHECK(n > 0);
  const std::size_t per_image =
      d.images.numel() / static_cast<std::size_t>(d.size());
  // With sparsity on, energy varies per image — meter through the context
  // so every stage charges its actual activated rows. Each image's energy
  // is a pure function of (network, image, index) and publish_energy sums
  // in femtojoule fixed point, so the chunk totals stay bit-identical at
  // any thread count.
  const bool meter_each = sparsity_enabled() && meter_ != nullptr;
  const long long correct = exec::parallel_reduce<long long>(
      n, exec::kEvalGrain, 0LL, [&](int lo, int hi) {
        EvalContext ctx;
        telemetry::EnergyAccum acc;
        if (meter_each) {
          ctx.meter = meter_;
          ctx.energy = &acc;
        }
        long long c = 0;
        for (int i = lo; i < hi; ++i) {
          const std::span<const float> img{
              d.images.data() + static_cast<std::size_t>(i) * per_image,
              per_image};
          if (predict(img, ctx, i) == d.labels[static_cast<std::size_t>(i)])
            ++c;
        }
        if (meter_each) {
          telemetry::publish_energy(telemetry::MetricsRegistry::global(),
                                    "sei_batch", acc);
        } else if (meter_) {
          // Dense batch chunks charge in bulk — every completed image
          // costs the same whole-network price, so per-stage metering in
          // the hot loop would only add stores.
          const auto images = static_cast<std::uint64_t>(hi - lo);
          meter_->charge_stages(0, meter_->stage_count(), images, acc);
          acc.images = images;
          telemetry::publish_energy(telemetry::MetricsRegistry::global(),
                                    "sei_batch", acc);
        }
        return c;
      });
  return 100.0 * (1.0 - static_cast<double>(correct) / n);
}

std::vector<quant::BitMap> SeiNetwork::cache_stage_inputs(
    const data::Dataset& d, int stage, int max_images) const {
  SEI_CHECK(stage >= 1 && stage < stage_count());
  const auto head = static_cast<std::size_t>(stage);
  for (std::size_t s = 0; s < head; ++s)
    SEI_CHECK_MSG(!plan_.ops[s].classifier, "cannot cache past the classifier");
  const int n = max_images < 0 ? d.size() : std::min(max_images, d.size());
  const std::size_t per_image =
      d.images.numel() / static_cast<std::size_t>(d.size());
  std::vector<quant::BitMap> out(static_cast<std::size_t>(n));
  const bool meter_each = sparsity_enabled() && meter_ != nullptr;
  exec::parallel_for_chunks(n, exec::kEvalGrain, [&](int lo, int hi) {
    EvalContext ctx;
    telemetry::EnergyAccum acc;
    if (meter_each) {  // each stage costs its actual driven rows
      ctx.meter = meter_;
      ctx.energy = &acc;
    }
    for (int i = lo; i < hi; ++i) {
      const std::span<const float> img{
          d.images.data() + static_cast<std::size_t>(i) * per_image,
          per_image};
      (void)run_plan(img, ctx, i, 0, head).value();
      // The cache contract is byte maps; unpack clean 0/1 bytes if the
      // last stage ran packed.
      if (plan_.ops[head - 1].out_form == ActForm::kPacked)
        quant::unpack_bits(ctx.packed_bits, ctx.bits);
      out[static_cast<std::size_t>(i)] = ctx.bits;
    }
    // Partial evaluations (stages [0, stage) only): no image count —
    // these are not full inferences. Dense networks charge in bulk.
    if (!meter_each && meter_) {
      meter_->charge_stages(0, head, static_cast<std::uint64_t>(hi - lo), acc);
    }
    if (meter_) {
      telemetry::publish_energy(telemetry::MetricsRegistry::global(),
                                "sei_batch", acc);
    }
  });
  return out;
}

double SeiNetwork::error_rate_from(
    const data::Dataset& d, int stage,
    const std::vector<quant::BitMap>& inputs) const {
  SEI_CHECK(stage >= 1 && stage < stage_count());
  const auto tail = static_cast<std::size_t>(stage);
  const int n = static_cast<int>(inputs.size());
  SEI_CHECK(n > 0 && n <= d.size());
  const bool meter_each = sparsity_enabled() && meter_ != nullptr;
  const long long correct = exec::parallel_reduce<long long>(
      n, exec::kEvalGrain, 0LL, [&](int lo, int hi) {
        EvalContext ctx;
        telemetry::EnergyAccum acc;
        if (meter_each) {
          ctx.meter = meter_;
          ctx.energy = &acc;
        }
        long long c = 0;
        for (int i = lo; i < hi; ++i) {
          ctx.bits = inputs[static_cast<std::size_t>(i)];
          // Same per-(image, stage) streams a full predict would use, so
          // tail evaluation replays the identical noise draws.
          const int pred =
              run_plan({}, ctx, i, tail, plan_.ops.size()).value();
          if (pred == d.labels[static_cast<std::size_t>(i)]) ++c;
        }
        // Tail evaluations run stages [stage, end) per image; dense
        // networks bulk-charge the uniform price.
        if (!meter_each && meter_) {
          const auto images = static_cast<std::uint64_t>(hi - lo);
          meter_->charge_stages(tail, meter_->stage_count(), images, acc);
          acc.images = images;
        }
        if (meter_) {
          telemetry::publish_energy(telemetry::MetricsRegistry::global(),
                                    "sei_batch", acc);
        }
        return c;
      });
  return 100.0 * (1.0 - static_cast<double>(correct) / n);
}

int SeiNetwork::total_crossbars() const {
  int n = 0;
  for (const auto& l : layers_) n += l.crossbars;
  return n;
}

long long SeiNetwork::total_cells() const {
  long long n = 0;
  for (const auto& l : layers_) n += l.cells_used;
  return n;
}

}  // namespace sei::core
