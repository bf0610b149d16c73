// Hardware structure configurations compared throughout the paper.
#pragma once

#include <cstdint>
#include <string>

#include "rram/crossbar.hpp"
#include "rram/device.hpp"

namespace sei::core {

/// The three designs of Table 5.
enum class StructureKind {
  kDacAdc8,     // 8-bit data, DAC inputs, ADC merging (the baseline)
  kBinInputAdc, // 1-bit quantized inputs (no DACs), ADC merging kept
  kSei,         // 1-bit inputs as selection signals, no merging ADCs
};

std::string to_string(StructureKind k);

/// How signed weights are realized on positive-conductance devices in the
/// SEI structure.
enum class SignMode {
  kBipolarPort,        // ± input voltages on the extra port (Section 4.1)
  kUnipolarDynThresh,  // linear map w* = w + w0 with the dynamic-threshold
                       // column (Section 4.2) — for unipolar devices
};

struct HardwareConfig {
  StructureKind structure = StructureKind::kSei;
  int weight_bits = 8;                 // CNN weight precision [7]
  int input_bits = 8;                  // input-layer DAC resolution
  rram::DeviceConfig device{};         // 4-bit devices by default
  rram::CrossbarLimits limits{};       // 512×512 by default

  // Static sense-amp offset mismatch: each SA instance's reference is off
  // by a gaussian with this sigma (in integer-weight units, i.e. LSBs of
  // the quantized weights), sampled once at programming/trim time.
  double sa_offset_sigma = 0.0;
  SignMode sign_mode = SignMode::kBipolarPort;

  // Splitting compensation defaults (Section 4.3).
  bool homogenize = true;              // matrix homogenization before mapping
  int homogenize_iterations = 30000;
  bool split_dynamic_threshold = true; // posterior input compensation
  std::uint64_t seed = 20160605;       // mapping / programming randomness

  // Evaluation engine selection (docs/kernels.md): when true, stages whose
  // effective weights are exactly integral run on the bit-packed kernels
  // where they fit; stages with analog perturbations (or when false) fall
  // back to the scalar float reference path. Both paths are
  // bit-identical, so this is purely a speed switch.
  bool packed_eval = true;

  // Reliability provisioning (docs/reliability.md): fraction of each
  // crossbar's data rows reserved as spare physical rows for fault repair.
  // Spares live inside the same array — the per-crossbar row-budget check
  // accounts for them — and stay off until a repair remaps a row onto one.
  double spare_row_fraction = 0.0;

  /// Physical cells one signed weight occupies under this config's SEI
  /// mapping (bipolar: 2 polarities × bit-slices; unipolar: bit-slices).
  int cells_per_weight() const;
};

}  // namespace sei::core
