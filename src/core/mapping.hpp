// Logical-to-physical weight mapping for the SEI structure (Sections 4.1/4.2).
//
// A signed `weight_bits` weight w is quantized to an integer and mapped onto
// `cells_per_weight` cells in ONE crossbar column:
//
//  * kBipolarPort: physical input lines per logical input carry the port
//    coefficients {+2^d, +1, −2^d, −1} (d = device bits). The cells on the
//    positive lines hold the high/low nibbles of |w| when w ≥ 0 (else 0),
//    and symmetrically for the negative lines. The analog column current is
//    then Σ_selected (16·hi + lo)·sign = Σ_selected w — the "shift and add"
//    and the sign merge happen inside the crossbar, with no ADC (Equ. 5→6).
//
//  * kUnipolarDynThresh: w* = w + w0 (w0 = 2^(weight_bits−1) − 1) makes all
//    stored values positive; lines carry {+2^d, +1} only. An extra RRAM
//    column stores w0 per logical row and is selected by the same inputs, so
//    its current is exactly the dynamic part of the threshold,
//    Σ_selected w0 (Equ. 7–9 and Fig. 4).
//
// Large matrices are split into row blocks (Section 4.3); each block is its
// own crossbar thresholded at Thres/K (plus the dynamic compensation), and a
// digital vote combines the K bits.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "core/bitpack.hpp"
#include "core/structure.hpp"
#include "quant/qnet.hpp"
#include "quant/weight_quant.hpp"
#include "split/partition.hpp"

namespace sei::core {

/// One stage of the network mapped onto physical crossbars, reduced to the
/// effective analog values needed for fast functional simulation.
struct MappedLayer {
  quant::StageGeometry geom;

  // Effective signed analog weight per (logical row, col), in integer-weight
  // units, after device quantization, programming variation and stuck
  // faults. For an ideal device this equals the quantized integer weight.
  std::vector<float> eff;  // [rows × cols]

  float weight_scale = 1.0f;  // float weight ≈ eff · weight_scale

  // Per-column sense-amp reference in integer-weight units:
  // T_c = (threshold − bias_c) / weight_scale (bias folded in, Equ. 6).
  std::vector<float> col_threshold;

  // Static SA offset mismatch per (block, column) instance, added to that
  // SA's share of the reference; empty when sa_offset_sigma == 0.
  std::vector<float> sa_offset;  // [block × cols]

  // Final (classifier) stage only: float bias for score reconstruction.
  std::vector<float> col_bias;
  bool binarize = true;

  // Splitting state.
  split::Partition partition;
  std::vector<int> row_to_block;  // logical row → block id
  int block_count = 1;
  int vote_threshold = 1;    // digital vote: output = (Σ block bits ≥ vote)
  float dyn_beta = 0.0f;     // threshold slope vs. block active-input count
  float mean_abs_eff = 0.0f; // scale for dyn_beta (dimensionless β)

  // Integer int16 row table of `eff` (docs/kernels.md);
  // packed.valid is false when analog perturbations made any value
  // non-integral, in which case evaluation uses the scalar path.
  PackedStage packed;

  // Physical accounting (for reports/tests).
  int physical_rows_per_weight = 1;
  long long cells_used = 0;        // includes reserved spare-row cells
  long long spare_cells = 0;       // spare-row cells inside cells_used
  int crossbars = 0;
  double misprogrammed_fraction = 0.0;

  float effective(int r, int c) const {
    return eff[static_cast<std::size_t>(r) * geom.cols + c];
  }
};

/// Sense-amp reference of one block in a k > 1 vote: the static share
/// Thres/K plus the dynamic compensation β·(n_b − mean) as one fused
/// multiply-add, then the block's SA offset. Every decide (scalar, vector
/// and lazy) evaluates it this way, so -ffp-contract cannot round it
/// differently in two engines.
inline double block_reference(double share, double beta_scale, double n_dev,
                              double offset) {
  return std::fma(beta_scale, n_dev, share) + offset;
}

/// Maintenance pass applied to every freshly programmed (and aged) crossbar
/// before its cells are reduced to effective values — the reliability
/// subsystem's diagnose/repair loop plugs in here without core depending on
/// it. The Rng is the mapping stream, so hook randomness is reproducible
/// from HardwareConfig::seed.
using CrossbarHook = std::function<void(rram::Crossbar&, Rng&)>;

/// Maps one quantized stage given a logical row order (the order's
/// contiguous chunks become the crossbar blocks). Builds real
/// rram::Crossbar instances, programs them cell by cell, ages them by
/// cfg.device.drift_t_s, applies `hook` (if any), and extracts the
/// effective analog values.
MappedLayer map_layer(const quant::QLayer& layer, const HardwareConfig& cfg,
                      const std::vector<int>& row_order, Rng& rng,
                      const CrossbarHook& hook = {});

/// Builds the physical crossbars for one block without reducing them —
/// exposed for unit tests and the micro benches.
std::vector<rram::Crossbar> build_block_crossbars(
    const quant::QuantizedMatrix& q, const HardwareConfig& cfg,
    const split::Partition& partition, Rng& rng);

/// Port coefficients for the physical lines of one logical input.
std::vector<double> port_coefficients(const HardwareConfig& cfg);

/// Column groups a matrix with `cols` outputs needs under cfg's crossbar
/// width (columns partition freely — each group owns disjoint outputs, so
/// the column direction never needs merging).
int column_blocks(int cols, const HardwareConfig& cfg);

/// Row order used by default for a stage: homogenized if the stage splits
/// and cfg.homogenize is set, natural otherwise.
std::vector<int> default_row_order(const quant::QLayer& layer,
                                   const HardwareConfig& cfg);

}  // namespace sei::core
