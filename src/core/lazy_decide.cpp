#include "core/lazy_decide.hpp"

#include <algorithm>
#include <bit>
#include <cmath>


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

bool decide_column_lazy(const MappedLayer& m, const ReadNoise& noise,
                        std::uint64_t first_read, int c,
                        const double* block_sums, const double* t) {
  const int cols = m.geom.cols, k = m.block_count;
  const int vote = k == 1 ? 1 : m.vote_threshold;
  const double f_lo = 1.0 + noise.sigma * -kGaussianBound;
  const double f_hi = 1.0 + noise.sigma * kGaussianBound;
  // 1 above, 0 at or below, −1 open: the band of decide_position_lazy.
  const auto band = [&](std::size_t i) {
    const double a = block_sums[i] * f_lo, h = block_sums[i] * f_hi;
    if (std::min(a, h) > t[i]) return 1;
    return std::max(a, h) <= t[i] ? 0 : -1;
  };
  int votes = 0, left = 0;
  for (int b = 0; b < k; ++b) {
    const int s = band(static_cast<std::size_t>(b) * cols + c);
    votes += s == 1;
    left += s < 0;
  }
  // Each sampled read meets decide_position's threshold, term for term.
  for (int b = 0; b < k && votes < vote && votes + left >= vote; ++b) {
    const std::size_t i = static_cast<std::size_t>(b) * cols + c;
    if (band(i) >= 0) continue;
    --left;
    const std::uint64_t read = first_read +
                               static_cast<std::uint64_t>(c) * k +
                               static_cast<std::uint64_t>(b);
    if (noise.read(block_sums[i], read) > t[i]) ++votes;
  }
  return votes >= vote;
}

void decide_position_lazy(const MappedLayer& m, const ReadNoise& noise,
                          std::uint64_t first_read, const double* block_sums,
                          const double* t, std::uint64_t* out) {
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
    // Band pass: per column, the certain votes and the open reads.
    std::uint64_t one = 0, unsettled = 0;
    int yes[64] = {}, opn[64] = {};
    for (int b = 0; b < k; ++b) {
      const std::size_t o = static_cast<std::size_t>(b) * cols + c0;
      // Branch-free so the compiler vectorizes it; up and down exclude
      // each other (the bracket is ordered), and NaN is open.
      for (int j = 0; j < nc; ++j) {
        const double a = block_sums[o + j] * f_lo;
        const double h = block_sums[o + j] * f_hi;
        const int up = std::min(a, h) > t[o + j];
        yes[j] += up;
        opn[j] += 1 - up - (std::max(a, h) <= t[o + j]);
      }
    }
    for (int j = 0; j < nc; ++j) {
      if (yes[j] >= vote) one |= std::uint64_t{1} << j;
      else if (yes[j] + opn[j] >= vote) unsettled |= std::uint64_t{1} << j;
    }
    // The unsettled columns sample their open reads; keyed draws make the
    // order immaterial.
    for (; unsettled != 0; unsettled &= unsettled - 1) {
      const int j = std::countr_zero(unsettled);
      if (decide_column_lazy(m, noise, first_read, c0 + j, block_sums, t))
        one |= std::uint64_t{1} << j;
    }
    out[c0 / 64] = one;
  }
}

}  // namespace sei::core
