// Keyed read noise and the lazy exact sense-amp decide (docs/kernels.md §6).
//
// Under read noise every (column, block) read of a position is
// raw·(1 + σ·g), and g is keyed: read i of an (image, stage) draws
// keyed_gaussian(key, i), a pure function of the pair. Reads are numbered
// position, then column, then block — read (p, c, b) of a stage with `cols`
// columns and k blocks is (p·cols + c)·k + b — in every engine. Most reads
// cannot change their column's vote: g never leaves (−9, 9), so a read
// whose whole bracket lies on one side of its threshold is decided without
// a draw, and a column whose certain votes already settle it needs no
// draws at all. The lazy decide below samples only the reads that can
// still change a vote; since each read's value depends on nothing but its
// index, it gets the eager loop's bits whatever it samples and in whatever
// order. The scalar engines keep the eager SeiNetwork::decide_position as
// the reference.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "core/mapping.hpp"

namespace sei::core {

/// Strict bound on |keyed_gaussian()|: Box–Muller with u1 ≥ 2⁻⁵³ gives
/// |g| ≤ √(−2 ln 2⁻⁵³) ≈ 8.57.
inline constexpr double kGaussianBound = 9.0;

/// One noisy read of `current` for the draw `g` — the expression every
/// engine evaluates, shared so a sampled read is the same double on the
/// eager and the lazy path.
inline double noisy_read(double current, double sigma, double g) {
  return current * (1.0 + sigma * g);
}

/// Read noise of one (image, stage) evaluation.
struct ReadNoise {
  double sigma = 0.0;
  std::uint64_t key = 0;  // SeiNetwork::read_key(image, stage)

  /// Read `index` of `current`: noisy_read with keyed draw `index`.
  double read(double current, std::uint64_t index) const {
    return noisy_read(current, sigma, keyed_gaussian(key, index));
  }
};

/// decide_position's threshold of every (block, column) at a position
/// with per-block active counts `n_active`: k·cols doubles into `t`,
/// [block][column], term for term the doubles the scalar decide compares
/// against. At dyn_beta = 0 (or one block) they do not depend on
/// `n_active`.
void block_thresholds(const MappedLayer& m, const int* n_active, double* t);

/// Lazy exact twin of decide_position for column `c` under read noise
/// `noise.sigma` > 0: the column's bit at the position whose first read is
/// `first_read` (p·cols·k), from its block sums [block][column] and `t`
/// from block_thresholds. Bands the column's k reads and samples its open
/// ones, in block order, while its vote is unsettled. Reads only the
/// column's k block sums and thresholds.
bool decide_column_lazy(const MappedLayer& m, const ReadNoise& noise,
                        std::uint64_t first_read, int c,
                        const double* block_sums, const double* t);

}  // namespace sei::core
