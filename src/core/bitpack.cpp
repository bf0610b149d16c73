#include "core/bitpack.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"

// The 8-lane group layout is sized for one 512-bit vector per window word:
// broadcast the word, AND with the eight lane masks, VPOPCNTQ, accumulate.
// GCC only partially auto-vectorizes that shape, so the hot loop is written
// with intrinsics where the ISA is available (SEI_NATIVE=ON on this class
// of host); everything else — and the SEI_NATIVE=OFF CI builds — takes the
// portable std::popcount path below, which computes the same integers.
#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VPOPCNTDQ__)
#define SEI_BITPACK_AVX512 1
#endif
#if defined(SEI_BITPACK_AVX512) || defined(__BMI2__)
#include <immintrin.h>
#endif

namespace {

/// Compacts the bits of `x` selected by `m` into the low bits of the
/// result (PEXT). The software fallback iterates only the set bits of `m`.
inline std::uint64_t pext64(std::uint64_t x, std::uint64_t m) {
#if defined(__BMI2__)
  return _pext_u64(x, m);
#else
  std::uint64_t out = 0;
  int i = 0;
  for (; m != 0; m &= m - 1, ++i)
    if (x & (m & (~m + 1))) out |= std::uint64_t{1} << i;
  return out;
#endif
}

}  // namespace

namespace sei::core {

void copy_bits(const std::uint64_t* src, std::size_t src_off,
               std::uint64_t* dst, std::size_t dst_off, std::size_t len) {
  while (len > 0) {
    const int n = static_cast<int>(std::min<std::size_t>(64, len));
    const std::uint64_t v = extract_bits64(src, src_off, n);
    const std::size_t i = dst_off >> 6;
    const int s = static_cast<int>(dst_off & 63);
    dst[i] |= v << s;
    if (s + n > 64) dst[i + 1] |= v >> (64 - s);
    src_off += static_cast<std::size_t>(n);
    dst_off += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

void or_pool_bytes(const quant::BitMap& in, int h, int w, int c,
                   quant::BitMap& out) {
  const int ph = h / 2, pw = w / 2;
  out.assign(static_cast<std::size_t>(ph) * pw * c, 0);
  for (int y = 0; y < ph; ++y) {
    for (int x = 0; x < pw; ++x) {
      std::uint8_t* opx =
          out.data() + (static_cast<std::size_t>(y) * pw + x) * c;
      for (int dy = 0; dy < 2; ++dy) {
        const std::uint8_t* ipx =
            in.data() + (static_cast<std::size_t>(2 * y + dy) * w + 2 * x) * c;
        for (int ch = 0; ch < c; ++ch)
          opx[ch] |= static_cast<std::uint8_t>(ipx[ch] | ipx[c + ch]);
      }
    }
  }
}

void or_pool_packed(const quant::PackedBits& in, int h, int w, int c,
                    quant::PackedBits& out) {
  SEI_CHECK(in.bits == static_cast<std::size_t>(h) * w * c);
  const int ph = h / 2, pw = w / 2;
  const std::size_t row_bits = static_cast<std::size_t>(w) * c;
  const std::uint64_t* words = in.words.data();
  BitWriter writer(out, static_cast<std::size_t>(ph) * pw * c);
  for (int y = 0; y < ph; ++y) {
    for (int x = 0; x < pw; ++x) {
      const std::size_t base0 =
          (static_cast<std::size_t>(2 * y) * w + 2 * x) * c;
      const std::size_t base1 = base0 + row_bits;
      for (int off = 0; off < c; off += 64) {
        const int n = std::min(64, c - off);
        const std::uint64_t merged =
            extract_bits64(words, base0 + off, n) |
            extract_bits64(words, base0 + c + off, n) |
            extract_bits64(words, base1 + off, n) |
            extract_bits64(words, base1 + c + off, n);
        writer.append(merged, n);
      }
    }
  }
  writer.finish();
}

void dac_quantize_image(std::span<const float> in, int bits, float* out) {
  const float steps = static_cast<float>((1 << bits) - 1);
  std::size_t i = 0;
#ifdef SEI_BITPACK_AVX512
  // round() for a non-negative v below 2^23 is trunc(v) + (v − trunc(v) ≥
  // 0.5): the subtraction is exact (Sterbenz), so the compare reproduces
  // round-half-away-from-zero bit-for-bit without the libm call.
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 stepv = _mm512_set1_ps(steps);
  for (; i + 16 <= in.size(); i += 16) {
    const __m512 x = _mm512_loadu_ps(in.data() + i);
    const __m512 v =
        _mm512_mul_ps(_mm512_min_ps(_mm512_max_ps(x, zero), one), stepv);
    const __m512 t = _mm512_roundscale_ps(v, _MM_FROUND_TO_ZERO);
    const __mmask16 up =
        _mm512_cmp_ps_mask(_mm512_sub_ps(v, t), half, _CMP_GE_OQ);
    const __m512 r = _mm512_mask_add_ps(t, up, t, one);
    _mm512_storeu_ps(out + i, _mm512_div_ps(r, stepv));
  }
#endif
  for (; i < in.size(); ++i) {
    const float x = in[i];
    const float clamped = x < 0.0f ? 0.0f : (x > 1.0f ? 1.0f : x);
    // Same value chain as dac_quantize: round(clamped·steps), then a float
    // divide by steps. Multiplying by a reciprocal would round differently.
    out[i] = std::round(clamped * steps) / steps;
  }
}

void dac_quantize_image(std::span<const float> in, int bits,
                        std::vector<float>& out) {
  out.resize(in.size());
  dac_quantize_image(in, bits, out.data());
}

PackedStage build_packed_stage(const std::vector<float>& eff, int rows,
                               int cols, const std::vector<int>& row_to_block,
                               int block_count, int input_bits) {
  PackedStage ps;
  SEI_CHECK(eff.size() == static_cast<std::size_t>(rows) * cols);
  SEI_CHECK(row_to_block.size() == static_cast<std::size_t>(rows));
  ps.words = (rows + 63) / 64;
  ps.cgroups = (cols + PackedStage::kLanes - 1) / PackedStage::kLanes;

  // Integer copy of the effective weights; any non-integral value (device
  // programming noise, drift, IR drop) forfeits the packed path entirely.
  std::vector<std::int64_t> iw(eff.size());
  double max_abs = 0.0;
  for (std::size_t i = 0; i < eff.size(); ++i) {
    const double v = eff[i];
    if (std::abs(v) > 1e15 || v != std::nearbyint(v)) return ps;
    iw[i] = static_cast<std::int64_t>(v);
    max_abs = std::max(max_abs, std::abs(v));
  }
  ps.valid = true;

  // Stage-0 dense-DAC exactness bound: every fl(n/steps) is a multiple of
  // 2^-(⌈log2 steps⌉+23), so double partial sums bounded by rows·max|eff|
  // below 2^(53−that) never round (docs/kernels.md).
  const int steps = (1 << input_bits) - 1;
  int log2_steps = 0;
  while ((1 << log2_steps) < steps) ++log2_steps;
  ps.dac_exact =
      static_cast<double>(rows) * max_abs <=
      std::ldexp(1.0, 53 - (log2_steps + 23));

  ps.block_masks.assign(static_cast<std::size_t>(block_count) * ps.words, 0);
  std::vector<std::vector<int>> block_rows(
      static_cast<std::size_t>(block_count));
  for (int r = 0; r < rows; ++r) {
    const int b = row_to_block[static_cast<std::size_t>(r)];
    block_rows[static_cast<std::size_t>(b)].push_back(r);
    ps.block_masks[static_cast<std::size_t>(b) * ps.words + (r >> 6)] |=
        std::uint64_t{1} << (r & 63);
  }
  ps.block_span.assign(static_cast<std::size_t>(block_count), 0);
  ps.block_loff.assign(static_cast<std::size_t>(block_count) + 1, 0);
  for (int b = 0; b < block_count; ++b) {
    const std::size_t nb = block_rows[static_cast<std::size_t>(b)].size();
    const int span = static_cast<int>((nb + 63) / 64);
    if (span > PackedStage::kMaxBlockSpan) {
      ps.valid = false;  // would overflow the kernel's local-window buffer
      return ps;
    }
    ps.block_span[static_cast<std::size_t>(b)] = span;
    ps.block_loff[static_cast<std::size_t>(b) + 1] =
        ps.block_loff[static_cast<std::size_t>(b)] + span;
  }

  constexpr int kL = PackedStage::kLanes;
  ps.plane_begin.assign(
      static_cast<std::size_t>(block_count) * ps.cgroups + 1, 0);
  ps.bias.assign(static_cast<std::size_t>(block_count) * ps.cgroups * kL, 0);

  for (int b = 0; b < block_count; ++b) {
    const std::vector<int>& rlist = block_rows[static_cast<std::size_t>(b)];
    const int span = ps.block_span[static_cast<std::size_t>(b)];
    for (int cg = 0; cg < ps.cgroups; ++cg) {
      const std::size_t idx =
          static_cast<std::size_t>(b) * ps.cgroups + cg;
      const int lanes_here = std::min(kL, cols - cg * kL);

      // Per-column shift B = −min over the block (zero rows included) so
      // biased values are non-negative; undone later as B·n_active[b].
      std::int64_t shift[kL] = {};
      for (int lane = 0; lane < lanes_here; ++lane) {
        const int c = cg * kL + lane;
        std::int64_t min_v = 0;
        for (const int r : rlist)
          min_v = std::min(min_v, iw[static_cast<std::size_t>(r) * cols + c]);
        shift[lane] = -min_v;
        ps.bias[idx * kL + lane] = shift[lane];
      }

      // One plane entry per significance bit used anywhere in the group;
      // a lane that skips a plane simply gets an all-zero mask there.
      std::uint64_t used_bits = 0;
      for (int lane = 0; lane < lanes_here; ++lane) {
        const int c = cg * kL + lane;
        for (const int r : rlist)
          used_bits |= static_cast<std::uint64_t>(
              iw[static_cast<std::size_t>(r) * cols + c] + shift[lane]);
      }
      for (std::uint64_t sel = used_bits; sel != 0; sel &= sel - 1) {
        const int bit = std::countr_zero(sel);
        ps.plane_shift.push_back(static_cast<std::uint32_t>(bit));
        const std::size_t base = ps.masks.size();
        ps.mask_off.push_back(static_cast<std::uint32_t>(base));
        ps.masks.resize(base + static_cast<std::size_t>(span) * kL, 0);
        for (int lane = 0; lane < lanes_here; ++lane) {
          const int c = cg * kL + lane;
          // Block-local bit = the row's rank within the block, matching
          // the kernel's PEXT compaction order (ascending row index).
          for (std::size_t local = 0; local < rlist.size(); ++local) {
            const int r = rlist[local];
            if ((static_cast<std::uint64_t>(
                     iw[static_cast<std::size_t>(r) * cols + c] +
                     shift[lane]) >>
                 bit) &
                1u)
              ps.masks[base + (local >> 6) * kL + lane] |=
                  std::uint64_t{1} << (local & 63);
          }
        }
      }
      ps.plane_begin[idx + 1] =
          static_cast<std::uint32_t>(ps.plane_shift.size());
    }
  }

  // Active-row gather table: one padded int16 vector per row. Usable only
  // when every block column's absolute-value sum fits int16 — then any
  // subset of rows accumulates without overflow.
  ps.cstride = ((cols + 31) / 32) * 32;
  constexpr int kMaxRowVecs = 16;  // cstride/32 cap (cols ≤ 512)
  ps.rows_ok = ps.cstride / 32 <= kMaxRowVecs;
  for (int b = 0; b < block_count && ps.rows_ok; ++b) {
    const std::vector<int>& rlist = block_rows[static_cast<std::size_t>(b)];
    for (int c = 0; c < cols && ps.rows_ok; ++c) {
      std::int64_t abs_sum = 0;
      for (const int r : rlist)
        abs_sum += std::abs(iw[static_cast<std::size_t>(r) * cols + c]);
      if (abs_sum > 32767) ps.rows_ok = false;
    }
  }
  if (ps.rows_ok) {
    ps.row_w.assign(static_cast<std::size_t>(rows) * ps.cstride, 0);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        ps.row_w[static_cast<std::size_t>(r) * ps.cstride + c] =
            static_cast<std::int16_t>(iw[static_cast<std::size_t>(r) * cols +
                                         c]);
  }
  return ps;
}

int compact_block_window(const PackedStage& ps, int b,
                         const std::uint64_t* window, std::uint64_t* lw) {
  // Compact this block's rows out of the full window into a dense local
  // window (bit i = i-th block row, ascending) — the layout the masks
  // were built against. A handful of PEXTs here shrinks the plane loop
  // from `words` to `block_span` iterations.
  const int words = ps.words;
  const std::uint64_t* bm = ps.block_masks.data();
  const int span = ps.block_span[b];
  std::uint64_t buf = 0;
  int fill = 0;
  std::size_t wi = 0;
  for (int w = 0; w < words; ++w) {
    const std::uint64_t mask = bm[static_cast<std::size_t>(b) * words + w];
    if (mask == 0) continue;
    const std::uint64_t x = pext64(window[w], mask);
    const int n = std::popcount(mask);
    buf |= x << fill;
    if (fill + n >= 64) {
      lw[wi++] = buf;
      const int taken = 64 - fill;
      buf = taken < 64 ? x >> taken : 0;
      fill += n - 64;
    } else {
      fill += n;
    }
  }
  if (fill > 0) lw[wi] = buf;
  int na = 0;
  for (int w = 0; w < span; ++w) na += std::popcount(lw[w]);
  return na;
}

void accumulate_position(const PackedStage& ps, int cols, int block_count,
                         const std::uint64_t* window, double* block_sums,
                         int* n_active) {
  constexpr int kL = PackedStage::kLanes;
  const std::uint32_t* pb = ps.plane_begin.data();
  std::uint64_t lw[PackedStage::kMaxBlockSpan];
  for (int b = 0; b < block_count; ++b) {
    const int span = ps.block_span[b];
    const int na = compact_block_window(ps, b, window, lw);
    n_active[b] = na;

#ifdef SEI_BITPACK_AVX512
    const __m512d nav_pd = _mm512_set1_pd(static_cast<double>(na));
    const __m512i bw0 = _mm512_set1_epi64(static_cast<long long>(lw[0]));
    const __m512i bw1 = span > 1
                            ? _mm512_set1_epi64(static_cast<long long>(lw[1]))
                            : _mm512_setzero_si512();
    for (int cg = 0; cg < ps.cgroups; ++cg) {
      const std::size_t idx = static_cast<std::size_t>(b) * ps.cgroups + cg;
      // Eight column sums accumulate side by side: per plane, AND the
      // broadcast local-window words with the lane masks, VPOPCNTQ, then
      // weight the plane's count by 2^p with a shift. No horizontal
      // reduction — the vector converts to doubles and stores.
      const std::uint32_t e_end = pb[idx + 1];
      std::uint32_t e = pb[idx];
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      if (span <= 2) {
        // Hot shape: every ≤128-row block spans at most two local words,
        // so the window broadcasts are hoisted out of the plane loop and
        // entries alternate between two accumulators to break the
        // popcount→add latency chain.
        const auto cnt = [&](std::uint32_t ei) {
          const std::uint64_t* em = ps.masks.data() + ps.mask_off[ei];
          __m512i c = _mm512_popcnt_epi64(_mm512_and_si512(
              bw0, _mm512_loadu_si512(reinterpret_cast<const void*>(em))));
          if (span == 2)
            c = _mm512_add_epi64(
                c, _mm512_popcnt_epi64(_mm512_and_si512(
                       bw1, _mm512_loadu_si512(
                                reinterpret_cast<const void*>(em + kL)))));
          return c;
        };
        for (; e + 1 < e_end; e += 2) {
          acc0 = _mm512_add_epi64(
              acc0,
              _mm512_sllv_epi64(cnt(e), _mm512_set1_epi64(ps.plane_shift[e])));
          acc1 = _mm512_add_epi64(
              acc1, _mm512_sllv_epi64(
                        cnt(e + 1), _mm512_set1_epi64(ps.plane_shift[e + 1])));
        }
        if (e < e_end)
          acc0 = _mm512_add_epi64(
              acc0,
              _mm512_sllv_epi64(cnt(e), _mm512_set1_epi64(ps.plane_shift[e])));
      } else {
        for (; e < e_end; ++e) {
          const std::uint64_t* em = ps.masks.data() + ps.mask_off[e];
          __m512i cnt = _mm512_setzero_si512();
          for (int w = 0; w < span; ++w) {
            const __m512i lanes =
                _mm512_loadu_si512(reinterpret_cast<const void*>(
                    em + static_cast<std::size_t>(w) * kL));
            const __m512i hit = _mm512_and_si512(
                _mm512_set1_epi64(static_cast<long long>(lw[w])), lanes);
            cnt = _mm512_add_epi64(cnt, _mm512_popcnt_epi64(hit));
          }
          acc0 = _mm512_add_epi64(
              acc0,
              _mm512_sllv_epi64(cnt, _mm512_set1_epi64(ps.plane_shift[e])));
        }
      }
      const __m512i acc = _mm512_add_epi64(acc0, acc1);
      const __m512d biasv = _mm512_cvtepi64_pd(_mm512_loadu_si512(
          reinterpret_cast<const void*>(ps.bias.data() + idx * kL)));
      // acc, bias and bias·n_active are integers far below 2^53, so the
      // conversion and the fused multiply-subtract are both exact — this
      // produces the same double the all-integer subtraction would.
      const __m512d sums =
          _mm512_fnmadd_pd(biasv, nav_pd, _mm512_cvtepi64_pd(acc));
      const int lanes_here = std::min(kL, cols - cg * kL);
      const __mmask8 k =
          static_cast<__mmask8>((1u << lanes_here) - 1u);
      _mm512_mask_storeu_pd(block_sums + static_cast<std::size_t>(b) * cols +
                                static_cast<std::size_t>(cg) * kL,
                            k, sums);
    }
#else
    for (int cg = 0; cg < ps.cgroups; ++cg) {
      const std::size_t idx = static_cast<std::size_t>(b) * ps.cgroups + cg;
      std::int64_t acc[kL] = {};
      for (std::uint32_t e = pb[idx]; e < pb[idx + 1]; ++e) {
        const std::uint64_t* em = ps.masks.data() + ps.mask_off[e];
        const int p = static_cast<int>(ps.plane_shift[e]);
        std::int64_t cnt[kL] = {};
        for (int w = 0; w < span; ++w) {
          const std::uint64_t ww = lw[w];
          const std::uint64_t* mw = em + static_cast<std::size_t>(w) * kL;
          for (int lane = 0; lane < kL; ++lane)
            cnt[lane] += std::popcount(ww & mw[lane]);
        }
        for (int lane = 0; lane < kL; ++lane) acc[lane] += cnt[lane] << p;
      }
      const std::int64_t* biasv = ps.bias.data() + idx * kL;
      const int lanes_here = std::min(kL, cols - cg * kL);
      double* dst =
          block_sums + static_cast<std::size_t>(b) * cols + cg * kL;
      for (int lane = 0; lane < lanes_here; ++lane)
        dst[lane] = static_cast<double>(acc[lane] - biasv[lane] * na);
    }
#endif
  }
}

#ifdef SEI_BITPACK_AVX512
namespace {

/// Widens 32 int16 sums to doubles at `dst` (masked tail past cols_left).
inline void store_acc16(__m512i acc, double* dst, int cols_left) {
  const __m512i lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(acc));
  const __m512i hi =
      _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(acc, 1));
  const __m256i q[4] = {_mm512_castsi512_si256(lo),
                        _mm512_extracti32x8_epi32(lo, 1),
                        _mm512_castsi512_si256(hi),
                        _mm512_extracti32x8_epi32(hi, 1)};
  for (int g = 0; g < 4 && cols_left > 0; ++g, cols_left -= 8, dst += 8) {
    const __mmask8 m = cols_left >= 8
                           ? static_cast<__mmask8>(0xFF)
                           : static_cast<__mmask8>((1u << cols_left) - 1u);
    _mm512_mask_storeu_pd(dst, m, _mm512_cvtepi32_pd(q[g]));
  }
}

/// Row-gather block accumulation with NV compile-time weight vectors per
/// row. Dual accumulator pairs break the add_epi16 latency chain when the
/// active-row stream is long.
template <int NV>
void accumulate_rows_block(const PackedStage& ps, int b, int cols,
                           const std::uint64_t* window, double* dst,
                           int* n_active) {
  const int words = ps.words;
  const std::uint64_t* bm = ps.block_masks.data() +
                            static_cast<std::size_t>(b) * words;
  const std::int16_t* rw = ps.row_w.data();
  const int cstride = ps.cstride;
  __m512i acc[NV], acc2[NV];
  for (int v = 0; v < NV; ++v) acc[v] = acc2[v] = _mm512_setzero_si512();
  int na = 0;
  bool flip = false;
  for (int w = 0; w < words; ++w) {
    std::uint64_t bits = window[w] & bm[w];
    na += std::popcount(bits);
    for (; bits != 0; bits &= bits - 1) {
      const int r = (w << 6) + std::countr_zero(bits);
      const std::int16_t* p = rw + static_cast<std::size_t>(r) * cstride;
      __m512i* a = flip ? acc2 : acc;
      flip = !flip;
      for (int v = 0; v < NV; ++v)
        a[v] = _mm512_add_epi16(
            a[v], _mm512_loadu_si512(
                      reinterpret_cast<const void*>(p + v * 32)));
    }
  }
  n_active[b] = na;
  for (int v = 0; v < NV; ++v)
    store_acc16(_mm512_add_epi16(acc[v], acc2[v]), dst + v * 32,
                cols - v * 32);
}

}  // namespace
#endif  // SEI_BITPACK_AVX512

void accumulate_position_rows(const PackedStage& ps, int cols,
                              int block_count, const std::uint64_t* window,
                              double* block_sums, int* n_active) {
#ifdef SEI_BITPACK_AVX512
  const int nv = ps.cstride / 32;
  for (int b = 0; b < block_count; ++b) {
    double* dst = block_sums + static_cast<std::size_t>(b) * cols;
    switch (nv) {
      case 1: accumulate_rows_block<1>(ps, b, cols, window, dst, n_active);
              break;
      case 2: accumulate_rows_block<2>(ps, b, cols, window, dst, n_active);
              break;
      default: {
        // Wide FC stages (cols > 64): generic vector count, bounded by the
        // build-time kMaxRowVecs cap.
        const int words = ps.words;
        const std::uint64_t* bm = ps.block_masks.data() +
                                  static_cast<std::size_t>(b) * words;
        __m512i acc[16];
        for (int v = 0; v < nv; ++v) acc[v] = _mm512_setzero_si512();
        int na = 0;
        for (int w = 0; w < words; ++w) {
          std::uint64_t bits = window[w] & bm[w];
          na += std::popcount(bits);
          for (; bits != 0; bits &= bits - 1) {
            const int r = (w << 6) + std::countr_zero(bits);
            const std::int16_t* p =
                ps.row_w.data() + static_cast<std::size_t>(r) * ps.cstride;
            for (int v = 0; v < nv; ++v)
              acc[v] = _mm512_add_epi16(
                  acc[v], _mm512_loadu_si512(
                              reinterpret_cast<const void*>(p + v * 32)));
          }
        }
        n_active[b] = na;
        for (int v = 0; v < nv; ++v)
          store_acc16(acc[v], dst + v * 32, cols - v * 32);
      }
    }
  }
#else
  // Portable path: direct double accumulation. Every partial sum is an
  // integer far below 2^53, so addition never rounds and any order gives
  // the same result as the int16 kernel.
  for (int b = 0; b < block_count; ++b) {
    double* dst = block_sums + static_cast<std::size_t>(b) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = 0.0;
    const std::uint64_t* bm = ps.block_masks.data() +
                              static_cast<std::size_t>(b) * ps.words;
    int na = 0;
    for (int w = 0; w < ps.words; ++w) {
      std::uint64_t bits = window[w] & bm[w];
      na += std::popcount(bits);
      for (; bits != 0; bits &= bits - 1) {
        const int r = (w << 6) + std::countr_zero(bits);
        const std::int16_t* p =
            ps.row_w.data() + static_cast<std::size_t>(r) * ps.cstride;
        for (int c = 0; c < cols; ++c) dst[c] += p[c];
      }
    }
    n_active[b] = na;
  }
#endif
}

}  // namespace sei::core
