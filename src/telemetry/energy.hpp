// Live energy accounting for network evaluation.
//
// An EnergyMeter holds the per-stage energy price list — the exact
// per-picture `arch::cost_model` figures, converted once up front by
// `arch::make_energy_meter` (arch/live_energy.hpp) — and evaluation charges
// each stage as it completes: `charge_stage` adds that stage's full
// breakdown plus its event counts (crossbar reads, SA compares, ADC/DAC
// conversions, OR-pool/WTA reads, ...) into a caller-owned EnergyAccum.
// Because a stage is charged with the same numbers the static table was
// built from, an accumulated run reproduces `arch::estimate_cost` totals
// exactly; the meter's value is attribution — which stages, which requests,
// which paths (SEI vs ADC-fallback vs probe) the joules went to.
//
// telemetry depends only on common, so the breakdown is mirrored here
// rather than including arch; arch owns the conversion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/config.hpp"
#include "telemetry/metrics.hpp"

namespace sei::telemetry {

/// Per-component energy in pJ — mirror of arch::CostBreakdown categories.
struct EnergyBreakdown {
  double dac = 0.0;
  double adc = 0.0;
  double sense_amp = 0.0;
  double driver = 0.0;
  double rram = 0.0;
  double decoder = 0.0;
  double digital = 0.0;
  double buffer = 0.0;
  double wta = 0.0;

  double total() const {
    return dac + adc + sense_amp + driver + rram + decoder + digital +
           buffer + wta;
  }
  double converters() const { return dac + adc; }
  /// The paper's Fig. 1 "interface" slice: everything between the digital
  /// world and the array — converters, sense amps, drivers, WTA readout.
  double interface() const { return dac + adc + sense_amp + driver + wta; }
  double array() const { return rram; }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o);
};

/// Per-picture operation counts charged alongside the energy.
struct EnergyEvents {
  std::uint64_t crossbar_reads = 0;    // crossbar activations (decoder events)
  std::uint64_t cell_activations = 0;  // individual RRAM cell reads
  std::uint64_t sa_compares = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t dac_conversions = 0;
  std::uint64_t driver_ops = 0;
  std::uint64_t digital_adds = 0;
  std::uint64_t buffer_bits = 0;
  std::uint64_t wta_reads = 0;

  EnergyEvents& operator+=(const EnergyEvents& o);
};

/// One stage's per-picture price: energy plus the op counts it stands for.
///
/// SEI hidden/classifier stages additionally carry a per-row price split:
/// the transmission gates mean an inactive row draws no array current, so
/// the rram + driver components scale with the number of *activated* rows
/// while everything else (sense amps, decoders, digital votes, buffers,
/// WTA) is charged per picture regardless. `nominal_rows` is the
/// activations × rows product the static table assumed; when it is 0 the
/// stage has no row-proportional model (DAC-driven stage 0, ADC fallback)
/// and charge_stage_rows falls back to the uniform price.
struct StageEnergy {
  EnergyBreakdown pj;
  EnergyEvents events;

  // Activation-proportional split (sparsity accounting, docs/sparsity.md).
  std::int64_t nominal_rows = 0;  // activations(positions) x rows per picture
  double row_rram_pj = 0.0;       // pj.rram / nominal_rows
  double row_driver_pj = 0.0;     // pj.driver / nominal_rows
  std::uint64_t row_cells = 0;    // events.cell_activations / nominal_rows
  std::uint64_t row_drivers = 0;  // events.driver_ops / nominal_rows
};

/// Caller-owned accumulator (one per request, per chunk, per batch — merge
/// partials in deterministic order like any other reduction).
struct EnergyAccum {
  EnergyBreakdown pj;
  EnergyEvents events;
  std::uint64_t images = 0;
  std::uint64_t stages = 0;

  void merge(const EnergyAccum& o);
  void reset() { *this = EnergyAccum{}; }

  double joules() const { return pj.total() * 1e-12; }
  double joules_per_image() const {
    return images > 0 ? joules() / static_cast<double>(images) : 0.0;
  }
};

/// Immutable per-stage price list for one (network, structure) pair.
class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(std::vector<StageEnergy> stages)
      : stages_(std::move(stages)) {}

  std::size_t stage_count() const { return stages_.size(); }
  const StageEnergy& stage(std::size_t i) const { return stages_[i]; }

  void charge_stage(std::size_t i, EnergyAccum& acc) const {
    if constexpr (!kEnabled) {
      (void)i;
      (void)acc;
      return;
    }
    const StageEnergy& s = stages_[i];
    acc.pj += s.pj;
    acc.events += s.events;
    ++acc.stages;
  }

  /// Activation-proportional charge: stage `i`'s fixed components at the
  /// uniform per-picture price, but rram + driver scaled to the `rows`
  /// row-activations this picture actually drove (transmission gates gate
  /// the array current per row — docs/sparsity.md). Stages without a row
  /// model (nominal_rows == 0) fall back to charge_stage, so callers may
  /// use this unconditionally when sparsity accounting is on. Pure
  /// arithmetic on baked prices: calling it with the same `rows` yields
  /// bit-identical accumulators on every engine (packed kernels, oracle).
  void charge_stage_rows(std::size_t i, std::int64_t rows,
                         EnergyAccum& acc) const {
    if constexpr (!kEnabled) {
      (void)i;
      (void)rows;
      (void)acc;
      return;
    }
    const StageEnergy& s = stages_[i];
    if (s.nominal_rows <= 0) {
      charge_stage(i, acc);
      return;
    }
    const double k = static_cast<double>(rows);
    acc.pj.dac += s.pj.dac;
    acc.pj.adc += s.pj.adc;
    acc.pj.sense_amp += s.pj.sense_amp;
    acc.pj.driver += s.row_driver_pj * k;
    acc.pj.rram += s.row_rram_pj * k;
    acc.pj.decoder += s.pj.decoder;
    acc.pj.digital += s.pj.digital;
    acc.pj.buffer += s.pj.buffer;
    acc.pj.wta += s.pj.wta;
    const std::uint64_t r = static_cast<std::uint64_t>(rows);
    acc.events.crossbar_reads += s.events.crossbar_reads;
    acc.events.cell_activations += s.row_cells * r;
    acc.events.sa_compares += s.events.sa_compares;
    acc.events.adc_conversions += s.events.adc_conversions;
    acc.events.dac_conversions += s.events.dac_conversions;
    acc.events.driver_ops += s.row_drivers * r;
    acc.events.digital_adds += s.events.digital_adds;
    acc.events.buffer_bits += s.events.buffer_bits;
    acc.events.wta_reads += s.events.wta_reads;
    ++acc.stages;
  }

  /// Bulk equivalent of charge_stage for uniform batches: charges stages
  /// [first, last) for `images` pictures in one scaled add per stage. Batch
  /// evaluation charges a whole chunk this way instead of 19 stores per
  /// stage per image — the difference between ~10% and unmeasurable
  /// overhead on the hot path. The caller still owns acc.images.
  void charge_stages(std::size_t first, std::size_t last,
                     std::uint64_t images, EnergyAccum& acc) const;

  /// Whole-network per-picture price (sum over stages).
  EnergyBreakdown network_pj() const;

  /// Per-picture floor under activation-proportional accounting: the sum
  /// over stages with the row-proportional rram + driver components of
  /// row-modeled stages excluded (the price of a picture that activates
  /// zero rows everywhere). network_pj() is the matching ceiling — every
  /// nominal row active. Together they bound any row-charged bill.
  EnergyBreakdown network_floor_pj() const;

 private:
  std::vector<StageEnergy> stages_;
};

/// Publishes an accumulator into `reg` under
/// `sei_energy_fj_total{path="<path>",component="<c>"}` (femtojoule
/// fixed-point so concurrent publishes stay order-independent), plus
/// `sei_images_total{path=...}` and per-op-kind
/// `sei_ops_total{path=...,op=...}` counters.
void publish_energy(MetricsRegistry& reg, const std::string& path,
                    const EnergyAccum& acc);

}  // namespace sei::telemetry
