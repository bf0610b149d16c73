#include "core/bitpack.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"
#include "core/simd_caps.hpp"

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
#ifdef SEI_CORE_AVX512
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

  // The int16 row table: one padded vector per row. Usable only when every
  // block column's absolute-value sum fits int16 — then any subset of rows
  // accumulates without overflow.
  ps.cstride = ((cols + 31) / 32) * 32;
  constexpr int kMaxRowVecs = 16;  // cstride/32 cap: no table past 512 cols
  std::vector<std::int64_t> abs_sum(static_cast<std::size_t>(block_count) *
                                    cols);
  for (int r = 0; r < rows; ++r) {
    const std::size_t b =
        static_cast<std::size_t>(row_to_block[static_cast<std::size_t>(r)]);
    for (int c = 0; c < cols; ++c)
      abs_sum[b * cols + c] +=
          std::abs(iw[static_cast<std::size_t>(r) * cols + c]);
  }
  ps.rows_ok = ps.cstride / 32 <= kMaxRowVecs &&
               std::all_of(abs_sum.begin(), abs_sum.end(),
                           [](std::int64_t v) { return v <= 32767; });
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

}  // namespace sei::core
