#include "core/lazy_decide.hpp"

#include <algorithm>
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
  // 1 above, 0 at or below, −1 open. Every reachable read lies between the
  // reads at g = ∓kGaussianBound: raw·(1 + σg) is affine in g and rounding
  // is monotone. The factors are the noisy_read expression at the bounds;
  // whether the compiler fuses σ·g into the add or not, 9 is far enough
  // above 8.57 that either form at ±9 brackets either form at any
  // reachable g.
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

}  // namespace sei::core
