#include "core/lazy_decide.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/simd_caps.hpp"

namespace sei::core {

void block_thresholds(const MappedLayer& m, const int* n_active, double* t) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* ct = m.col_threshold.data();
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  if (k == 1) {
    for (int c = 0; c < cols; ++c)
      t[c] = static_cast<double>(ct[c]) + (offsets ? offsets[c] : 0.0);
    return;
  }
  int total_active = 0;
  for (int b = 0; b < k; ++b) total_active += n_active[b];
  const double mean_active = static_cast<double>(total_active) / k;
  const double beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  for (int b = 0; b < k; ++b) {
    const double dev = static_cast<double>(n_active[b]) - mean_active;
    for (int c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(b) * cols + c;
      t[i] = block_reference(static_cast<double>(ct[c]) / k, beta_scale, dev,
                             offsets ? offsets[i] : 0.0);
    }
  }
}

void decide_position_lazy(const MappedLayer& m, const ReadNoise& noise,
                          std::uint64_t first_read, const double* block_sums,
                          const double* t, std::uint64_t* open,
                          std::uint64_t* out) {
  const int cols = m.geom.cols, k = m.block_count;
  // A single block decides with its one read, whatever the vote setting.
  const int vote = k == 1 ? 1 : m.vote_threshold;
  // Every reachable read lies between the reads at g = ∓kGaussianBound:
  // raw·(1 + σg) is affine in g and rounding is monotone. The factors are
  // the noisy_read expression at the bounds; whether the compiler fuses σ·g
  // into the add or not, 9 is far enough above 8.57 that either form at ±9
  // brackets either form at any reachable g.
  const double f_lo = 1.0 + noise.sigma * -kGaussianBound;
  const double f_hi = 1.0 + noise.sigma * kGaussianBound;

  for (int c0 = 0; c0 < cols; c0 += 64) {
    const int nc = std::min(64, cols - c0);
    // Band pass: per block, the reads certainly above their threshold and
    // the open ones; per column, the certain votes and the open reads.
    std::uint64_t one = 0, unsettled = 0;
    int yes_c[64], open_c[64];  // certain votes and open reads per column
#ifdef SEI_CORE_AVX512
    const bool int8_votes = k <= 126;  // counts and vote fit int8 lanes
#else
    constexpr bool int8_votes = false;
#endif
    if (int8_votes) {
#ifdef SEI_CORE_AVX512
      const std::uint64_t chunk =
          nc == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nc) - 1u;
      const __m512d lo_f = _mm512_set1_pd(f_lo), hi_f = _mm512_set1_pd(f_hi);
      __m512i yes = _mm512_setzero_si512(), opn = _mm512_setzero_si512();
      for (int b = 0; b < k; ++b) {
        const std::size_t o = static_cast<std::size_t>(b) * cols + c0;
        std::uint64_t above = 0, open_b = 0;
        for (int j = 0; j < nc; j += 8) {
          const __mmask8 lanes = static_cast<__mmask8>(
              nc - j >= 8 ? 0xFFu : (1u << (nc - j)) - 1u);
          const __m512d raw = _mm512_maskz_loadu_pd(lanes, block_sums + o + j);
          const __m512d ref = _mm512_maskz_loadu_pd(lanes, t + o + j);
          const __m512d a = _mm512_mul_pd(raw, lo_f);
          const __m512d h = _mm512_mul_pd(raw, hi_f);
          const __mmask8 up = _mm512_mask_cmp_pd_mask(
              lanes, _mm512_min_pd(a, h), ref, _CMP_GT_OQ);
          const __mmask8 down = _mm512_mask_cmp_pd_mask(
              lanes, _mm512_max_pd(a, h), ref, _CMP_LE_OQ);
          above |= static_cast<std::uint64_t>(up) << j;
          open_b |= static_cast<std::uint64_t>(lanes & ~(up | down) & 0xFFu)
                    << j;
        }
        open[b] = open_b;
        yes = _mm512_sub_epi8(yes, _mm512_movm_epi8(above));
        opn = _mm512_sub_epi8(opn, _mm512_movm_epi8(open_b));
      }
      const __m512i vote_v = _mm512_set1_epi8(
          static_cast<char>(std::clamp(vote, 0, 127)));
      one = _mm512_cmpge_epi8_mask(yes, vote_v) & chunk;
      const std::uint64_t zero =
          _mm512_cmplt_epi8_mask(_mm512_add_epi8(yes, opn), vote_v);
      unsettled = chunk & ~(one | zero);
      if (unsettled) {
        alignas(64) std::int8_t y8[64], o8[64];
        _mm512_store_si512(y8, yes);
        _mm512_store_si512(o8, opn);
        for (int j = 0; j < nc; ++j) {
          yes_c[j] = y8[j];
          open_c[j] = o8[j];
        }
      }
#endif
    } else {
      int* yes = yes_c;
      int* opn = open_c;
      std::fill(yes, yes + nc, 0);
      std::fill(opn, opn + nc, 0);
      for (int b = 0; b < k; ++b) {
        const std::size_t o = static_cast<std::size_t>(b) * cols + c0;
        // Branch-free so the compiler vectorizes it; up and down exclude
        // each other (the bracket is ordered), and NaN is open.
        alignas(8) std::uint8_t st[64] = {};
        for (int j = 0; j < nc; ++j) {
          const double a = block_sums[o + j] * f_lo;
          const double h = block_sums[o + j] * f_hi;
          const int up = std::min(a, h) > t[o + j];
          const int op = 1 - up - (std::max(a, h) <= t[o + j]);
          yes[j] += up;
          opn[j] += op;
          st[j] = static_cast<std::uint8_t>(op);
        }
        // Eight 0/1 bytes to eight bits per multiply.
        std::uint64_t open_b = 0;
        for (int w = 0; w < 8; ++w) {
          std::uint64_t x;
          std::memcpy(&x, st + 8 * w, 8);
          open_b |= ((x * 0x0102040810204080ull) >> 56) << (8 * w);
        }
        open[b] = open_b;
      }
      for (int j = 0; j < nc; ++j) {
        if (yes[j] >= vote) one |= std::uint64_t{1} << j;
        else if (yes[j] + opn[j] >= vote) unsettled |= std::uint64_t{1} << j;
      }
    }
    // Open reads of the unsettled columns, sampled while the vote is
    // unsettled; keyed draws make the order immaterial. Each sampled read
    // meets decide_position's threshold, term for term.
    for (; unsettled != 0; unsettled &= unsettled - 1) {
      const int j = std::countr_zero(unsettled);
      int votes = yes_c[j], left = open_c[j];
      const int c = c0 + j;
      for (int b = 0; b < k && votes < vote && votes + left >= vote; ++b) {
        if (((open[b] >> j) & 1u) == 0) continue;
        --left;
        const std::size_t i = static_cast<std::size_t>(b) * cols + c;
        const std::uint64_t read = first_read +
                                   static_cast<std::uint64_t>(c) * k +
                                   static_cast<std::uint64_t>(b);
        if (noise.read(block_sums[i], read) > t[i]) ++votes;
      }
      if (votes >= vote) one |= std::uint64_t{1} << j;
    }
    out[c0 / 64] = one;
  }
}

}  // namespace sei::core
