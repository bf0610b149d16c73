#include "core/sei_network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/bitpack.hpp"
#include "core/lazy_decide.hpp"
#include "exec/thread_pool.hpp"

// The packed kernels decide in registers: the stage-0 tile compares its
// double accumulators, the row-scatter kernel its integer ones against
// floored references, with the same bits as decide_position. The scalar
// decide_position stays the reference; under read noise the packed engines
// band the reads and sample only the open ones (core/lazy_decide.hpp). The
// AVX-512 gate (SEI_CORE_AVX512) lives in simd_caps.hpp; every kernel has a
// portable twin that produces the same bits.
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

/// Classifier column `c`'s merged current: its k block reads (read (c, b)
/// is `first_read + c·k + b`) summed in block order. Out of line, so the
/// eager and the lazy classifier merge evaluate the very same code.
[[gnu::noinline]] double merged_reads(const ReadNoise& noise,
                                      const double* block_sums, int cols,
                                      int k, int c, std::uint64_t first_read) {
  double s = 0.0;
  for (int b = 0; b < k; ++b) {
    const double raw = block_sums[static_cast<std::size_t>(b) * cols + c];
    s += noise.sigma > 0.0
             ? noise.read(raw, first_read + static_cast<std::uint64_t>(c) * k +
                                   static_cast<std::uint64_t>(b))
             : raw;
  }
  return s;
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

std::uint64_t SeiNetwork::read_key(long long image_index, int stage) const {
  // Two-level key: an image key off read_seed_, then a per-stage key — both
  // splitmix64 derivations, so no draw count anywhere matters.
  return Rng::stream_seed(
      Rng::stream_seed(read_seed_, static_cast<std::uint64_t>(image_index)),
      static_cast<std::uint64_t>(stage));
}

double SeiNetwork::readout(double current, const ReadNoise& noise,
                           std::uint64_t index) const {
  if (noise.sigma <= 0.0) return current;
  return noise.read(current, index);
}

void SeiNetwork::decide_position(const MappedLayer& m,
                                 const double* block_sums,
                                 const int* n_active, std::uint8_t* out_bits,
                                 const ReadNoise& noise,
                                 std::uint64_t first_read) const {
  const int cols = m.geom.cols;
  const int k = m.block_count;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  if (k == 1) {
    for (int c = 0; c < cols; ++c) {
      const double sum = readout(block_sums[c], noise,
                                 first_read + static_cast<std::uint64_t>(c));
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
  std::uint64_t read = first_read;
  for (int c = 0; c < cols; ++c) {
    const double share =
        static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) / k;
    int votes = 0;
    for (int b = 0; b < k; ++b, ++read) {
      const double t_b = block_reference(
          share, beta_scale, static_cast<double>(n_active[b]) - mean_active,
          offsets ? offsets[static_cast<std::size_t>(b) * cols + c] : 0.0);
      const double raw = block_sums[static_cast<std::size_t>(b) * cols + c];
      if (readout(raw, noise, read) > t_b) ++votes;
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
      const std::size_t pos = static_cast<std::size_t>(y) * g.out_w + x;
      const std::uint64_t first_read = pos * cols * k;
      if (m.binarize) {
        decide_position(m, ctx.block_sums.data(), ctx.n_active.data(),
                        ctx.stage_bits.data() + pos * cols, ctx.noise,
                        first_read);
      } else {
        merge_classifier(m, scores, ctx, first_read);
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
      const std::size_t pos = static_cast<std::size_t>(y) * g.out_w + x;
      const std::uint64_t first_read = pos * cols * k;
      if (m.binarize) {
        decide_position(m, ctx.block_sums.data(), ctx.n_active.data(),
                        ctx.stage_bits.data() + pos * cols, ctx.noise,
                        first_read);
      } else {
        merge_classifier(m, scores, ctx, first_read);
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
                                  EvalContext& ctx,
                                  std::uint64_t first_read) const {
  // Classifier: block currents merge exactly (WTA readout).
  const int cols = m.geom.cols;
  for (int c = 0; c < cols; ++c)
    scores[static_cast<std::size_t>(c)] +=
        static_cast<float>(merged_reads(ctx.noise, ctx.block_sums.data(),
                                        cols, m.block_count, c, first_read) *
                           m.weight_scale) +
        m.col_bias[static_cast<std::size_t>(c)];
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

/// One column block of the stage-0 dense convolution (in_ch == 1).
struct Conv0Tile {
  const double* img;  // DAC levels, in_h × in_w, then kConv0Pad zeros
  int in_w, out_h, out_w, kernel;
  const double* w;     // the block's taps as doubles, [K·K][NC]
  const double* ref;   // the block's column references
  std::uint64_t* cmp;  // [col][pwords] reads above the reference, pre-zeroed
  std::uint64_t* open; // noisy: [col][pwords] reads the band leaves open
  double* sums;        // noisy: [col][position] sums, stored for open reads
  double f_lo, f_hi;   // noisy: 1 + σ·(∓kGaussianBound)
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
/// NC independent chains. The epilogue compares the accumulators against
/// the column references in registers and ORs the masks into `cmp`; under
/// read noise it bands them instead (docs/kernels.md §6): `cmp` gets the
/// reads above the reference for every reachable draw, `open` the reads
/// the band cannot settle. Any accumulation order is bit-identical under
/// the dac_exact bound (every partial sum is exact).
template <int NC, bool kNoisy>
void conv0_tile(const Conv0Tile& t) {
  const __m512d f_lo = _mm512_set1_pd(t.f_lo), f_hi = _mm512_set1_pd(t.f_hi);
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
        const __m512d ref = _mm512_set1_pd(t.ref[j]);
        std::uint64_t* cmp = t.cmp + static_cast<std::size_t>(j) * t.pwords;
        if constexpr (!kNoisy) {
          or_position_bits(
              cmp, pos, _mm512_mask_cmp_pd_mask(lanes, acc[j], ref, _CMP_GT_OQ),
              n);
          continue;
        }
        const __m512d a = _mm512_mul_pd(acc[j], f_lo);
        const __m512d b = _mm512_mul_pd(acc[j], f_hi);
        const __mmask8 above = _mm512_mask_cmp_pd_mask(
            lanes, _mm512_min_pd(a, b), ref, _CMP_GT_OQ);
        const __mmask8 below = _mm512_mask_cmp_pd_mask(
            lanes, _mm512_max_pd(a, b), ref, _CMP_LE_OQ);
        const __mmask8 open = lanes & ~(above | below) & 0xFFu;
        or_position_bits(cmp, pos, above, n);
        if (open) {
          or_position_bits(t.open + static_cast<std::size_t>(j) * t.pwords,
                           pos, open, n);
          _mm512_mask_storeu_pd(
              t.sums + static_cast<std::size_t>(j) * t.positions + pos, open,
              acc[j]);
        }
      }
    }
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
/// instead of intrinsics, and the same epilogue lane by lane. Lanes past
/// out_w read the next row (or the padding) and are masked off.
template <int NC, bool kNoisy>
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
        const double ref = t.ref[j];
        std::uint64_t above = 0, open = 0;
        for (int l = 0; l < n; ++l) {
          if constexpr (!kNoisy) {
            above |= static_cast<std::uint64_t>(acc[j][l] > ref) << l;
            continue;
          }
          const double a = acc[j][l] * t.f_lo, b = acc[j][l] * t.f_hi;
          const bool up = std::min(a, b) > ref;
          const bool down = std::max(a, b) <= ref;
          above |= static_cast<std::uint64_t>(up) << l;
          if (up || down) continue;
          open |= std::uint64_t{1} << l;
          t.sums[static_cast<std::size_t>(j) * t.positions + pos + l] =
              acc[j][l];
        }
        or_position_bits(t.cmp + static_cast<std::size_t>(j) * t.pwords, pos,
                         above, n);
        if constexpr (kNoisy)
          or_position_bits(t.open + static_cast<std::size_t>(j) * t.pwords,
                           pos, open, n);
      }
    }
  }
}

#endif  // SEI_CORE_AVX512

/// Gathers conv position (y, x)'s input window into `window` (`words`
/// words): kernel rows of kernel·in_ch bits each, packed back to back.
/// Windows of at most 64 rows assemble in a register from per-kernel-row
/// bit extracts; wider ones zero the buffer and copy each row span in.
inline void gather_window(const quant::StageGeometry& g, int words,
                          const std::uint64_t* in, int y, int x,
                          std::uint64_t* window) {
  const int span = g.kernel * g.in_ch;
  if (words == 1) {
    std::uint64_t w0 = 0;
    for (int di = 0; di < g.kernel; ++di)
      w0 |= extract_bits64(
                in, (static_cast<std::size_t>(y + di) * g.in_w + x) * g.in_ch,
                span)
            << (di * span);
    window[0] = w0;
    return;
  }
  std::fill(window, window + words, 0);
  for (int di = 0; di < g.kernel; ++di)
    copy_bits(in, (static_cast<std::size_t>(y + di) * g.in_w + x) * g.in_ch,
              window, static_cast<std::size_t>(di) * span,
              static_cast<std::size_t>(span));
}

using Conv0TileFn = void (*)(const Conv0Tile&);

template <bool kNoisy, std::size_t... I>
constexpr std::array<Conv0TileFn, sizeof...(I)> conv0_tiles(
    std::index_sequence<I...>) {
  return {&conv0_tile<static_cast<int>(I) + 1, kNoisy>...};
}

/// conv0_tile<NC, noisy> for NC = 1..kConv0MaxCols, indexed by
/// [noisy][NC − 1].
constexpr std::array<std::array<Conv0TileFn, kConv0MaxCols>, 2> kConv0Tiles{
    conv0_tiles<false>(std::make_index_sequence<kConv0MaxCols>{}),
    conv0_tiles<true>(std::make_index_sequence<kConv0MaxCols>{})};

// ---------------------------------------------------------------------------
// kRow16Cmp: the input-stationary kernel of every packed stage after the
// first (docs/kernels.md §5).
// ---------------------------------------------------------------------------

constexpr double kInt16Min = std::numeric_limits<std::int16_t>::min();
constexpr double kInt16Max = std::numeric_limits<std::int16_t>::max();

/// The int16 form of decide thresholds `t[0..n)`: for an integer sum,
/// sum > t ⟺ sum > ⌊t⌋, and clamping ⌊t⌋ to int16 keeps that exact
/// because every block sum fits int16 (the row table's Σ|w| bound). A NaN
/// threshold never fires, as `sum > NaN` never does. Branch-free, so the
/// loop vectorizes.
void floor_refs(const double* t, int n, std::int16_t* ref) {
  for (int c = 0; c < n; ++c) {
    double f = std::floor(t[c]);
    f = f < kInt16Min ? kInt16Min : f;
    f = f > kInt16Max ? kInt16Max : f;
    ref[c] = static_cast<std::int16_t>(t[c] == t[c] ? f : kInt16Max);
  }
}

/// Eight doubles (and their int64 twins), for the band's vector loop.
using Double8 = double __attribute__((vector_size(64)));
using Int64x8 = std::int64_t __attribute__((vector_size(64)));

/// ⌊x⌋ lane by lane, clamped to a little past the int16 range; NaN lanes
/// clamp low. (Vectors pass by reference: by value, their ABI depends on
/// the target.)
inline void floor_clamped(Double8& x) {
  x = x >= kInt16Min - 2 ? x : kInt16Min - 2;
  x = x <= kInt16Max + 2 ? x : kInt16Max + 2;
  const Double8 tr =
      __builtin_convertvector(__builtin_convertvector(x, Int64x8), Double8);
  x = x < tr ? tr - 1.0 : tr;
}

/// The lazy decide's band of reads against thresholds `t[0..n)`, as int16
/// bounds on the integer block sum s: every s ≤ lo[c] reads at or below
/// t[c], every s > hi[c] above it, for any reachable draw; (lo, hi] is
/// open. The band's own predicates decide each bound, tried at the three
/// integers around the estimate t / f; a bound none of them verifies
/// claims nothing. Both predicates are monotone in s while f_lo > 0;
/// otherwise nothing settles. Eight thresholds per step, without branches.
void band_refs(const double* t, int n, double f_lo, double f_hi,
               std::int16_t* lo, std::int16_t* hi) {
  if (!(f_lo > 0.0)) {
    std::fill(lo, lo + n, static_cast<std::int16_t>(kInt16Min));
    std::fill(hi, hi + n, static_cast<std::int16_t>(kInt16Max));
    return;
  }
  const double inv_lo = 1.0 / f_lo, inv_hi = 1.0 / f_hi;
  for (int c0 = 0; c0 < n; c0 += 8) {
    Double8 tc;
    for (int i = 0; i < 8; ++i) tc[i] = c0 + i < n ? t[c0 + i] : 0.0;
    // The read's bracket [min(s·f_lo, s·f_hi), max(..)] lies at or below
    // t (lo: the largest such candidate s) or above it (hi: one below the
    // smallest such s). NaN thresholds verify nothing.
    const Int64x8 pos = tc >= 0.0;
    Double8 d = tc * (pos ? inv_hi : inv_lo);
    floor_clamped(d);
    Double8 l = Double8{} + kInt16Min;
    for (int j = -1; j <= 1; ++j) {
      const Double8 s = d + j, a = s * f_lo, b = s * f_hi;
      l = (a > b ? a : b) <= tc ? s : l;
    }
    Double8 u = tc * (pos ? inv_lo : inv_hi);
    floor_clamped(u);
    Double8 h = Double8{} + kInt16Max;
    for (int j = 1; j >= -1; --j) {
      const Double8 s = u + j, a = s * f_lo, b = s * f_hi;
      h = (a < b ? a : b) > tc ? s - 1 : h;
    }
    for (int i = 0; i < 8 && c0 + i < n; ++i) {
      lo[c0 + i] = static_cast<std::int16_t>(
          std::clamp(l[i], kInt16Min, kInt16Max));
      hi[c0 + i] = static_cast<std::int16_t>(
          std::clamp(h[i], kInt16Min, kInt16Max));
    }
  }
}

/// Per-column counts of block votes in int8 lanes, 64 columns at once.
struct VoteLanes {
#ifdef SEI_CORE_AVX512
  __m512i v = _mm512_setzero_si512();
  void add(std::uint64_t mask) {
    v = _mm512_sub_epi8(v, _mm512_movm_epi8(mask));
  }
  std::uint64_t at_least(int n) const {
    return _mm512_cmpge_epi8_mask(v, _mm512_set1_epi8(static_cast<char>(n)));
  }
#else
  std::uint8_t v[64] = {};
  void add(std::uint64_t mask) {
    for (int c = 0; c < 64; ++c)
      v[c] = static_cast<std::uint8_t>(v[c] + ((mask >> c) & 1u));
  }
  std::uint64_t at_least(int n) const {
    std::uint64_t m = 0;
    for (int c = 0; c < 64; ++c)
      m |= static_cast<std::uint64_t>(v[c] >= n) << c;
    return m;
  }
#endif
};

/// A vector of N int16 lanes (N = 8, 16, 32).
template <int N>
struct Int16Vec;
template <>
struct Int16Vec<8> {
  using type = std::int16_t __attribute__((vector_size(16)));
};
template <>
struct Int16Vec<16> {
  using type = std::int16_t __attribute__((vector_size(32)));
};
template <>
struct Int16Vec<32> {
  using type = std::int16_t __attribute__((vector_size(64)));
};

/// L int16 lanes per (position, block), held in NV vectors of LV lanes:
/// one register on AVX-512 builds (two for L = 64), split into the
/// target's registers elsewhere.
template <int L>
struct Lanes {
  static constexpr int LV = L < 32 ? L : 32;
  static constexpr int NV = L / LV;
  using V = typename Int16Vec<LV>::type;

  /// acc[0..L) += row[0..L).
  static void add(std::int16_t* acc, const std::int16_t* row) {
    for (int v = 0; v < NV; ++v) {
      V a, x;
      std::memcpy(&a, acc + v * LV, sizeof a);
      std::memcpy(&x, row + v * LV, sizeof x);
      a += x;
      std::memcpy(acc + v * LV, &a, sizeof a);
    }
  }

  /// Bit l set where s[l] > ref[l].
  static std::uint64_t gt(const std::int16_t* s, const std::int16_t* ref) {
    std::uint64_t mask = 0;
    for (int v = 0; v < NV; ++v) {
      V a, r;
      std::memcpy(&a, s + v * LV, sizeof a);
      std::memcpy(&r, ref + v * LV, sizeof r);
#ifdef SEI_CORE_AVX512
      std::uint64_t mv;
      if constexpr (LV == 8)
        mv = _mm_cmpgt_epi16_mask(reinterpret_cast<const __m128i&>(a),
                                  reinterpret_cast<const __m128i&>(r));
      else if constexpr (LV == 16)
        mv = _mm256_cmpgt_epi16_mask(reinterpret_cast<const __m256i&>(a),
                                     reinterpret_cast<const __m256i&>(r));
      else
        mv = _mm512_cmpgt_epi16_mask(reinterpret_cast<const __m512i&>(a),
                                     reinterpret_cast<const __m512i&>(r));
#else
      const auto g = a > r;  // lanes of −1 / 0
      std::uint64_t mv = 0;
      for (int l = 0; l < LV; ++l)
        mv |= static_cast<std::uint64_t>(g[l] & 1) << l;
#endif
      mask |= mv << (v * LV);
    }
    return mask;
  }
};

/// Scatters the active input bits of band `band` (output rows [y0, y1))
/// into its accumulators (`acc`, pre-zeroed): each set bit adds its weight
/// row to every (block, position) of its target-map entry; kCount also
/// counts each (position, block)'s active rows into `cnt`. Returns the
/// taps walked — the band's rows driven.
template <int L, bool kCount>
std::int64_t scatter_band(const MappedLayer& m, const ScatterMap& map,
                          int band, int y0, int y1, const std::uint64_t* in,
                          std::int16_t* acc, std::int32_t* cnt) {
  const quant::StageGeometry& g = m.geom;
  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  // The band's window rows, as a range of input bits.
  const std::size_t row_bits =
      is_conv ? static_cast<std::size_t>(g.in_w) * g.in_ch : g.rows;
  const std::size_t lo = static_cast<std::size_t>(y0) * row_bits;
  const std::size_t hi =
      static_cast<std::size_t>(is_conv ? y1 + g.kernel - 1 : 1) * row_bits;
  const std::uint32_t* first =
      map.first.data() + map.band_first[static_cast<std::size_t>(band)];
  const ScatterMap::Tap* taps = map.taps.data();
  const std::int16_t* table = m.packed.row_w.data();
  std::int64_t walked = 0;
  for (std::size_t w = lo >> 6; w < (hi + 63) >> 6; ++w) {
    std::uint64_t bits = in[w];
    if (w == lo >> 6) bits &= ~std::uint64_t{0} << (lo & 63);
    if (w == (hi - 1) >> 6 && (hi & 63) != 0)
      bits &= (std::uint64_t{1} << (hi & 63)) - 1u;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + std::countr_zero(bits) - lo;
      const ScatterMap::Tap* e = taps + first[i];
      const ScatterMap::Tap* end = taps + first[i + 1];
      walked += end - e;
      for (; e != end; ++e) {
        Lanes<L>::add(acc + e->acc, table + e->row);
        if constexpr (kCount) ++cnt[e->acc / L];
      }
    }
  }
  return walked;
}

/// The hidden-stage kernel, input-stationary: per band of output rows, the
/// active input bits scatter their int16 weight rows into every (block,
/// position) they reach, then one pass over the band's positions compares
/// each block against ⌊block reference⌋ and votes in int8 lanes. Under
/// read noise the pass bands the sums against int16 bounds instead and
/// widens only the unsettled columns for the lazy decide. Returns the rows
/// driven.
template <int L>
std::int64_t row_scatter_stage(const MappedLayer& m, const ScatterMap& map,
                               const quant::PackedBits& in, EvalContext& ctx,
                               BitWriter& writer) {
  using Ln = Lanes<L>;
  const quant::StageGeometry& g = m.geom;
  const int cols = g.cols, k = m.block_count;
  const bool is_conv = g.kind == quant::StageSpec::Kind::Conv;
  const ReadNoise& noise = ctx.noise;
  const bool noisy = noise.sigma > 0.0;
  const double beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  // β = 0 (or one block) leaves every reference position-invariant.
  const bool dynamic = k > 1 && beta_scale != 0.0;
  const int vote = k == 1 ? 1 : std::clamp(m.vote_threshold, 0, k + 1);
  const std::uint64_t colmask =
      cols == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << cols) - 1u;
  const std::size_t per_pos = static_cast<std::size_t>(k) * L;
  int* n_active = ctx.n_active.data();
  double* t = ctx.thresholds.data();
  // Noise-free: ⌊reference⌋ per (block, lane). Noisy: the band's lower
  // ends, then its upper ends. Lanes past `cols` never fire.
  std::int16_t* ref = ctx.row_ref.data();
  const double f_lo = 1.0 + noise.sigma * -kGaussianBound;
  const double f_hi = 1.0 + noise.sigma * kGaussianBound;
  const auto fill_refs = [&] {
    block_thresholds(m, n_active, t);
    constexpr std::int16_t kNever = std::numeric_limits<std::int16_t>::max();
    for (int b = 0; b < k; ++b) {
      const double* tb = t + static_cast<std::size_t>(b) * cols;
      std::int16_t* lo = ref + static_cast<std::size_t>(b) * L;
      if (noisy) {
        band_refs(tb, cols, f_lo, f_hi, lo, lo + per_pos);
        std::fill(lo + per_pos + cols, lo + per_pos + L, kNever);
      } else {
        floor_refs(tb, cols, lo);
      }
      std::fill(lo + cols, lo + L, kNever);
    }
  };
  if (!dynamic) {
    for (int b = 0; b < k; ++b) n_active[b] = 0;
    fill_refs();
  }
  EvalContext::StageActivity* act = ctx.cur_activity;
  std::int16_t* acc = ctx.row_acc.data();
  std::int32_t* cnt = ctx.row_cnt.data();

  std::int64_t rows_driven = 0;
  for (int band = 0, y0 = 0; y0 < g.out_h; ++band, y0 += map.band_rows) {
    const int y1 = std::min(g.out_h, y0 + map.band_rows);
    const std::size_t npos = static_cast<std::size_t>(y1 - y0) * g.out_w;
    std::memset(acc, 0, npos * per_pos * sizeof *acc);
    if (dynamic) {
      std::fill(cnt, cnt + npos * k, 0);
      rows_driven += scatter_band<L, true>(m, map, band, y0, y1,
                                           in.words.data(), acc, cnt);
    } else {
      rows_driven += scatter_band<L, false>(m, map, band, y0, y1,
                                            in.words.data(), acc, cnt);
    }

    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < g.out_w; ++x) {
        const std::size_t p = static_cast<std::size_t>(y - y0) * g.out_w + x;
        const std::int16_t* s = acc + p * per_pos;
        if (act) {
          const std::uint64_t* window = in.words.data();
          if (is_conv) {
            gather_window(g, m.packed.words, window, y, x, ctx.window.data());
            window = ctx.window.data();
          }
          record_activity(g.rows, window, *act);
        }
        if (dynamic) {
          for (int b = 0; b < k; ++b) n_active[b] = cnt[p * k + b];
          fill_refs();
        }
        std::uint64_t bits;
        if (!noisy) {
          if (k == 1) {
            bits = Ln::gt(s, ref);
          } else {
            VoteLanes votes;
            for (int b = 0; b < k; ++b)
              votes.add(Ln::gt(s + b * L, ref + b * L));
            bits = votes.at_least(vote);
          }
          writer.append(bits & colmask, cols);
          continue;
        }
        // Band: certain votes (above the upper end) and possible ones
        // (above the lower end); a column whose possible votes reach the
        // vote but whose certain ones do not is unsettled.
        std::uint64_t maybe;
        if (k == 1) {
          bits = Ln::gt(s, ref + per_pos);
          maybe = Ln::gt(s, ref);
        } else {
          VoteLanes yes, may;
          for (int b = 0; b < k; ++b) {
            yes.add(Ln::gt(s + b * L, ref + per_pos + b * L));
            may.add(Ln::gt(s + b * L, ref + b * L));
          }
          bits = yes.at_least(vote);
          maybe = may.at_least(vote);
        }
        bits &= colmask;
        const std::uint64_t first_read =
            (static_cast<std::uint64_t>(y) * g.out_w + x) * cols * k;
        for (std::uint64_t open = maybe & colmask & ~bits; open != 0;
             open &= open - 1) {
          const int c = std::countr_zero(open);
          // Widen the column for the lazy decide: its sums are exact.
          for (int b = 0; b < k; ++b)
            ctx.block_sums[static_cast<std::size_t>(b) * cols + c] =
                s[static_cast<std::size_t>(b) * L + c];
          if (decide_column_lazy(m, noise, first_read, c,
                                 ctx.block_sums.data(), t))
            bits |= std::uint64_t{1} << c;
        }
        writer.append(bits, cols);
      }
    }
  }
  return rows_driven;
}

/// The one-position classifier on the row-scatter kernel: its active input
/// bits scatter into [block][lanes] accumulators, which widen, exact, into
/// ctx.block_sums [block][column] for the merge. Returns the rows driven.
template <int L>
std::int64_t row_scatter_classifier(const MappedLayer& m,
                                    const ScatterMap& map,
                                    const quant::PackedBits& in,
                                    EvalContext& ctx) {
  const quant::StageGeometry& g = m.geom;
  const int cols = g.cols, k = m.block_count;
  std::int16_t* acc = ctx.row_acc.data();
  std::memset(acc, 0, static_cast<std::size_t>(k) * L * sizeof *acc);
  const std::int64_t rows_driven =
      scatter_band<L, false>(m, map, 0, 0, 1, in.words.data(), acc, nullptr);
  if (EvalContext::StageActivity* act = ctx.cur_activity) {
    const std::uint64_t* window = in.words.data();
    if (g.kind == quant::StageSpec::Kind::Conv) {
      gather_window(g, m.packed.words, window, 0, 0, ctx.window.data());
      window = ctx.window.data();
    }
    record_activity(g.rows, window, *act);
  }
  for (int b = 0; b < k; ++b)
    for (int c = 0; c < cols; ++c)
      ctx.block_sums[static_cast<std::size_t>(b) * cols + c] =
          acc[static_cast<std::size_t>(b) * L + c];
  return rows_driven;
}

/// Runs the row-scatter kernel at the op's lane width: row_scatter_stage
/// for a hidden stage, row_scatter_classifier for the classifier.
std::int64_t run_row_scatter(const MappedLayer& m, const ScatterMap& map,
                             const quant::PackedBits& in, EvalContext& ctx,
                             BitWriter& writer) {
  ctx.row_acc.resize(static_cast<std::size_t>(map.band_rows) * m.geom.out_w *
                     m.block_count * map.lanes);
  ctx.row_cnt.resize(static_cast<std::size_t>(map.band_rows) * m.geom.out_w *
                     m.block_count);
  ctx.row_ref.resize(2 * static_cast<std::size_t>(m.block_count) * map.lanes);
  const auto run = [&](auto lanes) {
    constexpr int L = decltype(lanes)::value;
    return m.binarize ? row_scatter_stage<L>(m, map, in, ctx, writer)
                      : row_scatter_classifier<L>(m, map, in, ctx);
  };
  switch (map.lanes) {
    case 8: return run(std::integral_constant<int, 8>{});
    case 16: return run(std::integral_constant<int, 16>{});
    case 32: return run(std::integral_constant<int, 32>{});
    default: return run(std::integral_constant<int, 64>{});
  }
}

/// Lazy twin of merge_classifier for a one-position classifier under read
/// noise, for the argmax only (ctx.scores has no other reader). Each class
/// score is banded first: its reads' brackets (see decide_column_lazy)
/// summed in block order bound the eager sum, since rounded addition is
/// monotone, and so do the scale and bias that follow. Only classes whose
/// upper bound reaches the best lower bound can be the first maximum;
/// they draw their reads and get the eager score. The others keep their
/// lower bound, which stays below that maximum.
void merge_classifier_lazy(const MappedLayer& m, const ReadNoise& noise,
                           const double* block_sums, float* scores) {
  const int cols = m.geom.cols, k = m.block_count;
  const double f_lo = 1.0 + noise.sigma * -kGaussianBound;
  const double f_hi = 1.0 + noise.sigma * kGaussianBound;
  const auto score = [&](int c, double s) {
    return static_cast<float>(s * m.weight_scale) +
           m.col_bias[static_cast<std::size_t>(c)];
  };
  const auto bounds = [&](int c) {
    double lo = 0.0, hi = 0.0;
    for (int b = 0; b < k; ++b) {
      const double raw = block_sums[static_cast<std::size_t>(b) * cols + c];
      lo += std::min(raw * f_lo, raw * f_hi);
      hi += std::max(raw * f_lo, raw * f_hi);
    }
    const float a = score(c, lo), z = score(c, hi);
    return std::pair{std::min(a, z), std::max(a, z)};
  };
  float best_lo = -std::numeric_limits<float>::infinity();
  for (int c = 0; c < cols; ++c) best_lo = std::max(best_lo, bounds(c).first);
  for (int c = 0; c < cols; ++c) {
    const auto [lo, hi] = bounds(c);
    if (hi < best_lo) {
      scores[c] = lo;
      continue;
    }
    scores[c] = score(c, merged_reads(noise, block_sums, cols, k, c, 0));
  }
}

}  // namespace

void SeiNetwork::eval_stage_packed(const StageOp& op, const MappedLayer& m,
                                   const quant::PackedBits& in,
                                   quant::PackedBits& bits_out,
                                   std::vector<float>& scores,
                                   EvalContext& ctx) const {
  const quant::StageGeometry& g = m.geom;
  SEI_CHECK(op.packed_kernel == PackedKernel::kRow16Cmp && m.packed.valid);
  SEI_CHECK(in.bits == static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const int cols = g.cols, k = m.block_count;
  ctx.block_sums.resize(static_cast<std::size_t>(k) * cols);
  ctx.n_active.resize(static_cast<std::size_t>(k));

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  BitWriter writer(ctx.packed_stage, m.binarize ? positions * cols : 0);
  if (m.binarize) ctx.thresholds.resize(static_cast<std::size_t>(k) * cols);
  else scores.assign(static_cast<std::size_t>(cols), 0.0f);
  // The activity histogram reads each conv position's gathered window.
  if (g.kind == quant::StageSpec::Kind::Conv)
    ctx.window.resize(static_cast<std::size_t>(m.packed.words));

  // Rows driven (the row-billing count) are the taps the scatter walks.
  ctx.rows_driven = run_row_scatter(m, op.scatter, in, ctx, writer);
  if (!m.binarize) {
    // The classifier: one position, read (c, b) = c·k + b.
    if (ctx.noise.sigma > 0.0)
      merge_classifier_lazy(m, ctx.noise, ctx.block_sums.data(),
                            scores.data());
    else
      merge_classifier(m, scores, ctx, 0);
    return;
  }
  writer.finish();
  if (g.pool_after)
    or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
  else
    bits_out = ctx.packed_stage;
}

void SeiNetwork::eval_stage_dac(const MappedLayer& m, std::span<const float> in,
                                quant::PackedBits& bits_out,
                                EvalContext& ctx) const {
  // Column-blocked direct convolution (conv0_tile; the plan runs this
  // engine only on binarized single-block conv stages with in_ch == 1): the
  // columns split into blocks of at most kConv0MaxCols, balanced, and each
  // block runs the whole image with its columns' accumulators in registers.
  // Zero DAC outputs add an exact ±0.0 and the dac_exact bound keeps every
  // partial sum exact, so this reordering produces the same doubles as the
  // scalar per-window loop (zero signs can differ, which no compare can
  // observe).
  const quant::StageGeometry& g = m.geom;
  SEI_CHECK(in.size() == static_cast<std::size_t>(g.in_h) * g.in_w);
  const int cols = g.cols;
  const ReadNoise& noise = ctx.noise;
  const bool noisy = noise.sigma > 0.0;

  // The scalar path re-runs the DAC for every overlapping window; quantize
  // the image once instead, then widen it once for the tile.
  ctx.dac_vals.resize(in.size());
  dac_quantize_image(in, cfg_.input_bits, ctx.dac_vals.data());
  ctx.dac_d.resize(ctx.dac_vals.size() + kConv0Pad);
  std::copy(ctx.dac_vals.begin(), ctx.dac_vals.end(), ctx.dac_d.begin());
  std::fill(ctx.dac_d.end() - kConv0Pad, ctx.dac_d.end(), 0.0);

  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  const std::size_t pwords = (positions + 63) / 64;
  // decide_position's single-block reference (one exact add) per column,
  // kept in block_sums' scratch.
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  ctx.block_sums.resize(static_cast<std::size_t>(cols));
  const double* ref = ctx.block_sums.data();
  for (int c = 0; c < cols; ++c)
    ctx.block_sums[static_cast<std::size_t>(c)] =
        static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]) +
        (offsets ? offsets[c] : 0.0);
  ctx.col_cmp.assign(static_cast<std::size_t>(cols) * pwords, 0);
  if (noisy) {
    ctx.col_open.assign(static_cast<std::size_t>(cols) * pwords, 0);
    ctx.open_sums.resize(static_cast<std::size_t>(cols) * positions);
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
        ref + c0,
        ctx.col_cmp.data() + static_cast<std::size_t>(c0) * pwords,
        noisy ? ctx.col_open.data() + static_cast<std::size_t>(c0) * pwords
              : nullptr,
        noisy ? ctx.open_sums.data() + static_cast<std::size_t>(c0) * positions
              : nullptr,
        1.0 + noise.sigma * -kGaussianBound,
        1.0 + noise.sigma * kGaussianBound,
        positions,
        pwords};
    kConv0Tiles[noisy][static_cast<std::size_t>(nc - 1)](tile);
    c0 += nc;
  }

  if (noisy) {
    // Sample the reads the band left open, from the sums the tile stored:
    // read (p, c) is p·cols + c.
    for (int c = 0; c < cols; ++c) {
      const std::uint64_t* open =
          ctx.col_open.data() + static_cast<std::size_t>(c) * pwords;
      const double* sums =
          ctx.open_sums.data() + static_cast<std::size_t>(c) * positions;
      std::uint64_t* cmp =
          ctx.col_cmp.data() + static_cast<std::size_t>(c) * pwords;
      for (std::size_t wi = 0; wi < pwords; ++wi) {
        for (std::uint64_t bits = open[wi]; bits != 0; bits &= bits - 1) {
          const int bit = std::countr_zero(bits);
          const std::size_t pos = wi * 64 + static_cast<std::size_t>(bit);
          if (noise.read(sums[pos], pos * cols + static_cast<std::size_t>(c)) >
              ref[c])
            cmp[wi] |= std::uint64_t{1} << bit;
        }
      }
    }
  }

  // Fused OR-pool: pooling commutes with the transpose, and in column-major
  // bit rows it is three word ops per output row — so pool here and
  // interleave only a quarter of the positions, replacing the
  // or_pool_packed pass entirely.
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
  quant::PackedBits& emitted = fuse_pool ? bits_out : ctx.packed_stage;
  BitWriter wr(emitted, npos * cols);
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
  wr.finish();
  if (fuse_pool) return;
  if (g.pool_after)
    or_pool_packed(ctx.packed_stage, g.out_h, g.out_w, cols, bits_out);
  else
    bits_out = ctx.packed_stage;
}

int SeiNetwork::packed_stage_count() const {
  int n = 0;
  for (const StageOp& op : plan_.ops)
    if (op.engine == StageEngine::kDacDense ||
        op.engine == StageEngine::kPackedBits)
      ++n;
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
    ctx.noise = {cfg_.device.read_noise_sigma, read_key(image_index, op.stage)};
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
        eval_stage_dac(m, image, ctx.packed_pooled, ctx);
        std::swap(ctx.packed_bits, ctx.packed_pooled);
        break;
      case StageEngine::kScalarFloat:
        eval_stage_float(m, image, ctx.pooled_bits, ctx.scores, ctx);
        if (!op.classifier) std::swap(ctx.bits, ctx.pooled_bits);
        break;
      case StageEngine::kPackedBits:
        eval_stage_packed(op, m, ctx.packed_bits,
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
