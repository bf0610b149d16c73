// Lazy exact sense-amp decisions under read noise (docs/kernels.md §6).
//
// Under read noise every (column, block) read of a position is
// raw·(1 + σ·g) with a fresh gaussian g, and SeiNetwork::decide_position
// draws one g per read in a fixed order. Most reads cannot change their
// column's vote: g never leaves (−9, 9), so a read whose whole bracket
// lies on one side of its threshold is decided without a draw, and a
// column whose certain votes already settle it needs no draws at all. The
// lazy decides below sample only the reads that can still change a vote,
// at their eager draw index, and skip the rest with Rng::skip_gaussians —
// so every output bit, and the stream position after each decide, equal
// the eager loop's. The scalar engines keep the eager decide_position as
// the reference; the packed engines run these.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "core/bitpack.hpp"
#include "core/mapping.hpp"

namespace sei::core {

/// Strict bound on |Rng::gaussian()|: Box–Muller with u1 ≥ 2⁻⁵³ gives
/// |g| ≤ √(−2 ln 2⁻⁵³) ≈ 8.57.
inline constexpr double kGaussianBound = 9.0;

/// One noisy read of `current` for the draw `g` — the expression
/// SeiNetwork::readout evaluates, shared so a sampled read is the same
/// double on the eager and the lazy path.
inline double noisy_read(double current, double sigma, double g) {
  return current * (1.0 + sigma * g);
}

/// Working memory of the lazy decides, carved from EvalContext (bounded by
/// ScratchPlan::band_ref/band_state).
struct BandScratch {
  double* ref = nullptr;          // 2·k·cols: up, then down thresholds
  std::uint8_t* state = nullptr;  // k·cols: 2 marks an open read
};

/// Fills `ref` (2·k·cols doubles) with the position-invariant part of every
/// (block, column) threshold plus its rounding margin, then minus it. Call
/// once per stage evaluation, before decide_position_lazy.
void lazy_decide_refs(const MappedLayer& m, double* ref);

/// Lazy exact twin of decide_position under read noise `sigma` > 0: same
/// `out_bits`, same draws consumed. `s.ref` holds lazy_decide_refs(m).
void decide_position_lazy(const MappedLayer& m, double sigma,
                          const double* block_sums, const int* n_active,
                          std::uint8_t* out_bits, const BandScratch& s,
                          Rng& rng);

/// Lazy exact decide of a whole single-block stage from [col][position]
/// sums (the stage-0 dense transpose layout): appends each position's
/// column bits to `writer`, consuming the draws decide_position would make
/// position by position. `state` holds cols·positions bytes.
void decide_columns_lazy(const MappedLayer& m, double sigma,
                         const double* col_sums, std::size_t positions,
                         std::uint8_t* state, BitWriter& writer, Rng& rng);

}  // namespace sei::core
