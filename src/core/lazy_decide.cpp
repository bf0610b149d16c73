#include "core/lazy_decide.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/simd_caps.hpp"

namespace sei::core {
namespace {

// Relative margin around a banded threshold. decide_position evaluates a
// block threshold as fma(β, n_b − mean, share) + offset (block_reference);
// the band evaluates (share + offset ± margin) + (β·(n_b − mean) ± its
// margin). Both are a handful of roundings of the same real, so they
// differ by far less than 2⁻⁴⁴·(|share| + |offset| + |β·(n_b − mean)|);
// kMarginFloor covers subnormal sums. Single-block references need no
// margin (one exact add) but taking it costs nothing.
constexpr double kMargin = 0x1p-44;
constexpr double kMarginFloor = 0x1p-1000;

// Band states of one read: 0 certainly at or below, 1 certainly above.
constexpr std::uint8_t kOpen = 2;

/// Where the noisy read of `raw` can land: 1 when it exceeds `t_up` for
/// every g in ±kGaussianBound, 0 when it never exceeds `t_down`, kOpen
/// otherwise (NaN included). Rounding is monotone, so the reads at
/// g = ±kGaussianBound, through the same expression as every sampled read,
/// bracket every value the stream can produce.
inline std::uint8_t classify(double raw, double sigma, double t_up,
                             double t_down) {
  const double a = noisy_read(raw, sigma, -kGaussianBound);
  const double b = noisy_read(raw, sigma, kGaussianBound);
  const double lo = std::min(a, b), hi = std::max(a, b);
  const unsigned above = lo > t_up;
  const unsigned below = hi <= t_down;
  // Arithmetic, not a select chain, so the band loops stay branch-free.
  return static_cast<std::uint8_t>(above | ((above | below) ^ 1u) << 1);
}

}  // namespace

void lazy_decide_refs(const MappedLayer& m, double* ref) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  const std::size_t n = static_cast<std::size_t>(k) * cols;
  for (int b = 0; b < k; ++b) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(b) * cols + c;
      const double share =
          static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) /
          k;
      const double off = offsets ? static_cast<double>(offsets[i]) : 0.0;
      const double margin =
          kMargin * (std::fabs(share) + std::fabs(off)) + kMarginFloor;
      ref[i] = share + off + margin;
      ref[n + i] = share + off - margin;
    }
  }
}

void decide_position_lazy(const MappedLayer& m, double sigma,
                          const double* block_sums, const int* n_active,
                          std::uint8_t* out_bits, const BandScratch& s,
                          Rng& rng) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  // A single block decides with its one read, whatever the vote setting.
  const int vote = k == 1 ? 1 : m.vote_threshold;
  int total_active = 0;
  for (int b = 0; b < k; ++b) total_active += n_active[b];
  const double mean_active = static_cast<double>(total_active) / k;
  const double beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;

  // Samples column c's open reads in draw order (column, then block) while
  // its vote is unsettled, skipping every draw in between; returns its bit.
  std::size_t cursor = 0;
  auto walk = [&](int c, int votes, int left) -> std::uint8_t {
    for (int b = 0; b < k && votes < vote && votes + left >= vote; ++b) {
      const std::size_t i = static_cast<std::size_t>(b) * cols + c;
      if (s.state[i] != kOpen) continue;
      --left;
      // decide_position's threshold, term for term.
      const double ct =
          static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]);
      const double t =
          k == 1 ? ct + (offsets ? offsets[c] : 0.0)
                 : block_reference(
                       ct / k, beta_scale,
                       static_cast<double>(n_active[b]) - mean_active,
                       offsets ? offsets[i] : 0.0);
      const std::size_t draw = static_cast<std::size_t>(c) * k + b;
      rng.skip_gaussians(draw - cursor);
      cursor = draw + 1;
      if (noisy_read(block_sums[i], sigma, rng.gaussian()) > t) ++votes;
    }
    return votes >= vote ? 1 : 0;
  };

  // Band pass: classify every read against its threshold, shifted per
  // position by the block's dynamic term and margin (lazy_decide_refs holds
  // the stage's up/down thresholds), and count certain votes and open reads
  // per column.
  const std::size_t n = static_cast<std::size_t>(k) * cols;
  const double* up = s.ref;
  const double* down = s.ref + n;
#ifdef SEI_CORE_AVX512
  // Eight columns at a time, every compare the scalar band's compare; a
  // group's columns are walked as soon as its band is done, which keeps
  // column draw order since groups ascend.
  const __m512d f_lo = _mm512_set1_pd(1.0 + sigma * -kGaussianBound);
  const __m512d f_hi = _mm512_set1_pd(1.0 + sigma * kGaussianBound);
  const __m512i vote_v = _mm512_set1_epi64(vote);
  const __m128i open_byte = _mm_set1_epi8(static_cast<char>(kOpen));
  for (int c0 = 0; c0 < cols; c0 += 8) {
    const int nc = std::min(8, cols - c0);
    const __mmask8 lanes = static_cast<__mmask8>((1u << nc) - 1u);
    __m512i yes_v = _mm512_setzero_si512(), open_v = _mm512_setzero_si512();
    for (int b = 0; b < k; ++b) {
      const double dyn =
          k == 1
              ? 0.0
              : beta_scale * (static_cast<double>(n_active[b]) - mean_active);
      const double dyn_margin = kMargin * std::fabs(dyn);
      const std::size_t o = static_cast<std::size_t>(b) * cols + c0;
      const __m512d raw = _mm512_maskz_loadu_pd(lanes, block_sums + o);
      const __m512d lo = _mm512_mul_pd(raw, f_lo);
      const __m512d hi = _mm512_mul_pd(raw, f_hi);
      const __m512d t_up = _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, up + o),
                                         _mm512_set1_pd(dyn + dyn_margin));
      const __m512d t_down =
          _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, down + o),
                        _mm512_set1_pd(dyn - dyn_margin));
      const __mmask8 above = _mm512_mask_cmp_pd_mask(
          _mm512_mask_cmp_pd_mask(lanes, lo, t_up, _CMP_GT_OQ), hi, t_up,
          _CMP_GT_OQ);
      const __mmask8 below = _mm512_mask_cmp_pd_mask(
          _mm512_cmp_pd_mask(lo, t_down, _CMP_LE_OQ), hi, t_down, _CMP_LE_OQ);
      const __mmask8 open_m = static_cast<__mmask8>(lanes & ~(above | below));
      yes_v = _mm512_sub_epi64(yes_v, _mm512_movm_epi64(above));
      open_v = _mm512_sub_epi64(open_v, _mm512_movm_epi64(open_m));
      _mm_mask_storeu_epi8(s.state + o, lanes,
                           _mm_maskz_mov_epi8(open_m, open_byte));
    }
    const __mmask8 one = _mm512_mask_cmp_epi64_mask(lanes, yes_v, vote_v,
                                                    _MM_CMPINT_NLT);
    const __mmask8 zero = _mm512_mask_cmp_epi64_mask(
        lanes, _mm512_add_epi64(yes_v, open_v), vote_v, _MM_CMPINT_LT);
    _mm_mask_storeu_epi8(out_bits + c0, lanes,
                         _mm_maskz_mov_epi8(one, _mm_set1_epi8(1)));
    unsigned unsettled = lanes & ~(one | zero) & 0xFFu;
    if (unsettled) {
      alignas(64) std::int64_t yes_c[8], open_c[8];
      _mm512_store_si512(yes_c, yes_v);
      _mm512_store_si512(open_c, open_v);
      for (; unsettled; unsettled &= unsettled - 1) {
        const int j = std::countr_zero(unsettled);
        out_bits[c0 + j] = walk(c0 + j, static_cast<int>(yes_c[j]),
                                static_cast<int>(open_c[j]));
      }
    }
  }
#else
  // Sixty-four columns at a time, with their counts in locals; walked the
  // same way. Branch-free over a group's columns, so the compiler
  // vectorizes it on SSE4 and wider targets.
  for (int c0 = 0; c0 < cols; c0 += 64) {
    const int nc = std::min(64, cols - c0);
    std::int32_t yes[64] = {}, open[64] = {};
    for (int b = 0; b < k; ++b) {
      const double dyn =
          k == 1
              ? 0.0
              : beta_scale * (static_cast<double>(n_active[b]) - mean_active);
      const double dyn_margin = kMargin * std::fabs(dyn);
      const std::size_t o = static_cast<std::size_t>(b) * cols + c0;
      const double* raw = block_sums + o;
      // A local copy: the byte stores below may alias s.state itself.
      std::uint8_t* st = s.state + o;
      for (int j = 0; j < nc; ++j) {
        const std::uint8_t v =
            classify(raw[j], sigma, up[o + j] + (dyn + dyn_margin),
                     down[o + j] + (dyn - dyn_margin));
        st[j] = v;
        yes[j] += v & 1;
        open[j] += v >> 1;
      }
    }
    for (int j = 0; j < nc; ++j)
      out_bits[c0 + j] = walk(c0 + j, yes[j], open[j]);
  }
#endif
  rng.skip_gaussians(n - cursor);
}

void decide_columns_lazy(const MappedLayer& m, double sigma,
                         const double* col_sums, std::size_t positions,
                         std::uint8_t* state, BitWriter& writer, Rng& rng) {
  const int cols = m.geom.cols;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  // decide_position's single-block reference: one exact add, so the band
  // compares against the very threshold a sampled read meets.
  auto ref_of = [&](int c) {
    return static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) +
           (offsets ? offsets[c] : 0.0);
  };
  for (int c = 0; c < cols; ++c) {
    const double ref = ref_of(c);
    const double* raw = col_sums + static_cast<std::size_t>(c) * positions;
    std::uint8_t* st = state + static_cast<std::size_t>(c) * positions;
    for (std::size_t p = 0; p < positions; ++p)
      st[p] = classify(raw[p], sigma, ref, ref);
  }
  // Draw order is position, then column.
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < positions; ++p) {
    for (int c0 = 0; c0 < cols; c0 += 64) {
      const int nc = std::min(64, cols - c0);
      std::uint64_t word = 0;
      for (int j = 0; j < nc; ++j) {
        const std::size_t i = static_cast<std::size_t>(c0 + j) * positions + p;
        std::uint64_t bit = state[i];
        if (bit == kOpen) {
          const std::size_t draw = p * cols + static_cast<std::size_t>(c0 + j);
          rng.skip_gaussians(draw - cursor);
          cursor = draw + 1;
          bit = noisy_read(col_sums[i], sigma, rng.gaussian()) > ref_of(c0 + j)
                    ? 1
                    : 0;
        }
        word |= bit << j;
      }
      writer.append(word, nc);
    }
  }
  rng.skip_gaussians(positions * static_cast<std::size_t>(cols) - cursor);
}

}  // namespace sei::core
