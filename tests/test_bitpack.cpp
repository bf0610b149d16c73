// core/bitpack unit tests: bit-vector primitives, the packed OR-pool, and
// the int16 row table the row-scatter kernel reads, against brute-force
// scalar references. Shapes deliberately avoid multiples of 64 so
// tail-word masking and block-boundary straddles are exercised.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "core/bitpack.hpp"
#include "quant/bitpack.hpp"

namespace sei {
namespace {

TEST(Bitpack, ExtractBits64HandlesTailAndStraddle) {
  Rng rng(21);
  std::vector<std::uint64_t> words(4);
  for (auto& w : words) w = rng();
  for (int off = 0; off <= 150; ++off) {
    for (const int n : {1, 7, 8, 33, 63, 64}) {
      if (off + n > 256) continue;
      std::uint64_t want = 0;
      for (int i = 0; i < n; ++i) {
        const int bit = off + i;
        want |= ((words[bit >> 6] >> (bit & 63)) & 1u) << i;
      }
      EXPECT_EQ(core::extract_bits64(words.data(),
                                     static_cast<std::size_t>(off), n),
                want)
          << "off=" << off << " n=" << n;
    }
  }
}

TEST(Bitpack, CopyBitsMatchesPerBitReference) {
  Rng rng(22);
  std::vector<std::uint64_t> src(5);
  for (auto& w : src) w = rng();
  for (const int src_off : {0, 3, 63, 64, 100}) {
    for (const int dst_off : {0, 1, 62, 65, 130}) {
      for (const int len : {1, 13, 64, 65, 120, 190}) {
        if (src_off + len > 320) continue;
        std::vector<std::uint64_t> dst(8, 0);
        core::copy_bits(src.data(), static_cast<std::size_t>(src_off),
                        dst.data(), static_cast<std::size_t>(dst_off), len);
        for (int i = 0; i < 8 * 64; ++i) {
          const bool in_range = i >= dst_off && i < dst_off + len;
          const bool want =
              in_range &&
              ((src[(src_off + i - dst_off) >> 6] >>
                ((src_off + i - dst_off) & 63)) &
               1u) != 0;
          const bool got = ((dst[i >> 6] >> (i & 63)) & 1u) != 0;
          ASSERT_EQ(got, want) << "src_off=" << src_off
                               << " dst_off=" << dst_off << " len=" << len
                               << " bit=" << i;
        }
      }
    }
  }
}

TEST(Bitpack, BitWriterRoundTripsVariableRuns) {
  Rng rng(23);
  // Random-width appends, including n=64 runs and a ragged tail.
  std::vector<std::pair<std::uint64_t, int>> runs;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    const int n = 1 + static_cast<int>(rng.below(64));
    runs.emplace_back(rng(), n);
    total += n;
  }
  quant::PackedBits out;
  core::BitWriter writer(out, static_cast<std::size_t>(total));
  for (const auto& [v, n] : runs) writer.append(v, n);
  writer.finish();
  std::size_t pos = 0;
  for (const auto& [v, n] : runs) {
    for (int i = 0; i < n; ++i, ++pos)
      ASSERT_EQ(out.get(pos), ((v >> i) & 1u) != 0) << "bit " << pos;
  }
  EXPECT_EQ(pos, out.bits);
}

TEST(Bitpack, OrPoolPackedMatchesByteReference) {
  Rng rng(24);
  // Odd extents exercise the floor semantics; c=12 the strided channel walk.
  for (auto [h, w, c] : {std::tuple{24, 24, 12}, std::tuple{7, 9, 3},
                               std::tuple{12, 12, 1}, std::tuple{5, 4, 20}}) {
    quant::BitMap bytes(static_cast<std::size_t>(h) * w * c);
    for (auto& b : bytes) b = rng.bernoulli(0.3) ? 1 : 0;
    quant::BitMap want;
    core::or_pool_bytes(bytes, h, w, c, want);
    quant::PackedBits packed_out;
    core::or_pool_packed(quant::pack_bits(bytes), h, w, c, packed_out);
    EXPECT_EQ(quant::unpack_bits(packed_out), want)
        << "h=" << h << " w=" << w << " c=" << c;
  }
}

TEST(Bitpack, DacQuantizeImageMatchesScalar) {
  Rng rng(25);
  std::vector<float> in(301);  // odd length: vector tail lanes
  for (auto& v : in) v = static_cast<float>(rng.uniform(-0.2, 1.2));
  for (const int bits : {1, 4, 8}) {
    std::vector<float> out;
    core::dac_quantize_image(in, bits, out);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
      EXPECT_EQ(out[i], core::dac_quantize(in[i], bits)) << "i=" << i;
  }
}

TEST(Bitpack, NonIntegralWeightsInvalidateStage) {
  std::vector<float> eff(8 * 4, 1.0f);
  eff[5] = 0.5f;  // programming noise → no integer decomposition
  const std::vector<int> row_to_block(8, 0);
  const auto ps = core::build_packed_stage(eff, 8, 4, row_to_block, 1, 8);
  EXPECT_FALSE(ps.valid);
}

// Brute-force reference: per-(block, col) sum of effective weights over
// the window's set rows, plus per-block active counts.
void reference_sums(const std::vector<float>& eff, int rows, int cols,
                    const std::vector<int>& row_to_block, int k,
                    const std::vector<std::uint64_t>& window,
                    std::vector<double>& sums, std::vector<int>& n_active) {
  sums.assign(static_cast<std::size_t>(k) * cols, 0.0);
  n_active.assign(static_cast<std::size_t>(k), 0);
  for (int r = 0; r < rows; ++r) {
    if (((window[r >> 6] >> (r & 63)) & 1u) == 0) continue;
    const int b = row_to_block[r];
    ++n_active[static_cast<std::size_t>(b)];
    for (int c = 0; c < cols; ++c)
      sums[static_cast<std::size_t>(b) * cols + c] +=
          static_cast<double>(eff[static_cast<std::size_t>(r) * cols + c]);
  }
}

struct StageShape {
  int rows, cols, k;
  bool round_robin;  // homogenized-style row interleave across blocks
  int max_abs;       // weight magnitude; large forces rows_ok == false
};

// Names each case by its shape; without it gtest prints the struct's raw
// bytes, padding included, so the test names would differ between builds.
void PrintTo(const StageShape& s, std::ostream* os) {
  *os << "rows" << s.rows << "_cols" << s.cols << "_k" << s.k
      << (s.round_robin ? "_roundrobin" : "_contiguous") << "_w" << s.max_abs;
}

class BitpackAccumulate : public ::testing::TestWithParam<StageShape> {};

TEST_P(BitpackAccumulate, AllKernelsMatchBruteForce) {
  const StageShape s = GetParam();
  Rng rng(26);
  std::vector<float> eff(static_cast<std::size_t>(s.rows) * s.cols);
  for (auto& v : eff)
    v = static_cast<float>(static_cast<int>(rng.below(2 * s.max_abs + 1)) -
                           s.max_abs);
  std::vector<int> row_to_block(static_cast<std::size_t>(s.rows));
  for (int r = 0; r < s.rows; ++r)
    row_to_block[static_cast<std::size_t>(r)] =
        s.round_robin ? r % s.k : r * s.k / s.rows;

  const auto ps =
      core::build_packed_stage(eff, s.rows, s.cols, row_to_block, s.k, 8);
  ASSERT_TRUE(ps.valid);
  EXPECT_EQ(ps.words, (s.rows + 63) / 64);
  // The int16 table is built exactly when every block column's Σ|w| fits.
  EXPECT_EQ(ps.rows_ok, s.max_abs < 1000);
  if (!ps.rows_ok) return;

  // Each row holds the weights, then a zero tail.
  const int stride = ps.cstride;
  ASSERT_EQ(ps.row_w.size(), static_cast<std::size_t>(s.rows) * stride);
  for (int r = 0; r < s.rows; ++r)
    for (int c = 0; c < stride; ++c)
      ASSERT_EQ(ps.row_w[static_cast<std::size_t>(r) * stride + c],
                c < s.cols ? eff[static_cast<std::size_t>(r) * s.cols + c]
                           : 0.0f)
          << "row " << r << " col " << c;

  // A random window's block sums, as the scatter kernel forms them: the
  // int16 sum of each active row's table row into its block.
  std::vector<std::uint64_t> window(static_cast<std::size_t>(ps.words));
  std::vector<double> want_sums;
  std::vector<int> want_active;
  for (int p = 0; p < 8; ++p) {
    const double density = p == 0 ? 0.0 : (p == 7 ? 1.0 : 0.15 * p);
    std::fill(window.begin(), window.end(), 0);
    for (int r = 0; r < s.rows; ++r)
      if (rng.bernoulli(density))
        window[r >> 6] |= std::uint64_t{1} << (r & 63);
    reference_sums(eff, s.rows, s.cols, row_to_block, s.k, window, want_sums,
                   want_active);

    std::vector<std::int16_t> acc(static_cast<std::size_t>(s.k) * stride, 0);
    std::vector<int> got_active(static_cast<std::size_t>(s.k), 0);
    for (int r = 0; r < s.rows; ++r) {
      if (((window[r >> 6] >> (r & 63)) & 1u) == 0) continue;
      const int b = row_to_block[static_cast<std::size_t>(r)];
      ++got_active[static_cast<std::size_t>(b)];
      for (int c = 0; c < stride; ++c) {
        std::int16_t& a = acc[static_cast<std::size_t>(b) * stride + c];
        a = static_cast<std::int16_t>(
            a + ps.row_w[static_cast<std::size_t>(r) * stride + c]);
      }
    }
    std::vector<double> got_sums(static_cast<std::size_t>(s.k) * s.cols);
    for (int b = 0; b < s.k; ++b)
      for (int c = 0; c < s.cols; ++c)
        got_sums[static_cast<std::size_t>(b) * s.cols + c] =
            acc[static_cast<std::size_t>(b) * stride + c];
    EXPECT_EQ(got_sums, want_sums) << "p=" << p;
    EXPECT_EQ(got_active, want_active) << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitpackAccumulate,
    ::testing::Values(
        StageShape{300, 64, 3, false, 7},   // network1 conv2: word straddles
        StageShape{130, 10, 2, true, 7},    // homogenized round-robin rows
        StageShape{70, 8, 1, false, 7},     // single block, ragged tail word
        StageShape{65, 12, 4, true, 3},     // blocks thinner than a word
        StageShape{300, 16, 3, false, 1000}  // Σ|w| > int16 → rows_ok off
        ));

TEST(Bitpack, LargeWeightsDisableRowGatherOnly) {
  // Σ|w| over a 100-row block at |w| ≤ 1000 overflows int16, so the row
  // table must be rejected while the stage stays integral (valid).
  Rng rng(27);
  std::vector<float> eff(300 * 16);
  for (auto& v : eff)
    v = static_cast<float>(static_cast<int>(rng.below(2001)) - 1000);
  std::vector<int> row_to_block(300);
  for (int r = 0; r < 300; ++r) row_to_block[r] = r / 100;
  const auto ps = core::build_packed_stage(eff, 300, 16, row_to_block, 3, 8);
  ASSERT_TRUE(ps.valid);
  EXPECT_FALSE(ps.rows_ok);
}

}  // namespace
}  // namespace sei
