// Per-image evaluation state for the functional simulators.
//
// A context bundles the read-noise key with every scratch buffer one
// image evaluation needs, so that batch loops can hand each worker its own
// context and share nothing mutable. Combined with the keyed per-read noise
// draws (docs/parallelism.md), this makes every prediction a pure function
// of (network state, image, image_index) — independent of thread count and
// of the order images are evaluated in.
//
// Scratch lives behind Scratch<T> spans carved from one arena: bind() sizes
// the arena to a compiled plan's exact high-water marks (core/plan.hpp), so
// a bound context performs no heap allocation per request — the serving
// runtimes' zero-alloc contract (docs/plans.md §4). An unbound context
// falls back to owned vectors and simply allocates on first use, which is
// fine everywhere off the serving hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/lazy_decide.hpp"
#include "core/plan.hpp"
#include "exec/cancel.hpp"
#include "quant/bitpack.hpp"
#include "quant/qnet.hpp"
#include "telemetry/energy.hpp"

namespace sei::core {

struct EvalContext {
  /// Read noise of the stage currently being evaluated: the executor sets
  /// its key per (image_index, stage) (SeiNetwork::read_key).
  ReadNoise noise;

  /// Optional cooperative cancel/deadline token. try_predict checks it
  /// between stages and returns Error instead of finishing; the throwing
  /// predict() entry points require it to be unset. Does not influence the
  /// computed result — a completed prediction is bit-identical with or
  /// without a token attached.
  const exec::CancelToken* cancel = nullptr;

  /// Optional live energy metering: when both are set, the engines charge
  /// each completed stage's cost-model price (arch::make_energy_meter) into
  /// `energy`. Passive observation only — never influences the prediction.
  const telemetry::EnergyMeter* meter = nullptr;
  telemetry::EnergyAccum* energy = nullptr;

  /// Rows driven by the stage just evaluated: the selected inputs summed
  /// over its positions (Σ n_active), written by the hidden/classifier
  /// engines at every run. Row billing charges from it
  /// (EnergyMeter::charge_stage_rows, docs/sparsity.md). A deterministic
  /// function of (network, image) — never of engine or thread count.
  std::int64_t rows_driven = 0;

  /// Optional activity histogram sink (the runtime Table 1): when set, the
  /// hidden/classifier engines of a row-billed network also record each
  /// (position, 9-row input word) selected-input count into the stage's
  /// cell. Indexed by stage by the caller; passive observation only — the
  /// histogram pass runs only when this is set.
  struct StageActivity {
    std::int64_t positions = 0;      // crossbar activations observed
    std::int64_t words = 0;          // (position, input word) decisions
    std::int64_t words_skipped = 0;  // all-zero words: no row driven
    std::int64_t rows_nominal = 0;   // positions x rows
    std::int64_t rows_active = 0;    // sum of selected-input counts
    std::int64_t rows_charged = 0;   // rows billed (= rows_active)
    // Histogram of per-word selected-input counts: bin p counts 9-row
    // input words carrying exactly p ones (0..9) — the runtime twin of
    // the paper's Table 1 distribution. Bin 10 is unused (kept so the
    // array also fits decile-style consumers).
    std::int64_t hist[11] = {0};

    void merge(const StageActivity& o) {
      positions += o.positions;
      words += o.words;
      words_skipped += o.words_skipped;
      rows_nominal += o.rows_nominal;
      rows_active += o.rows_active;
      rows_charged += o.rows_charged;
      for (int i = 0; i < 11; ++i) hist[i] += o.hist[i];
    }
  };
  StageActivity* activity = nullptr;      // caller array, one cell per stage
  StageActivity* cur_activity = nullptr;  // set by run_plan on row-billed ops

  // SEI scratch.
  Scratch<double> block_sums;  // per-(block, col) partial sums
  Scratch<int> n_active;       // active inputs per block

  // ADC scratch.
  Scratch<double> plane_sums;        // per-(plane, block, col) partial sums
  Scratch<double> merged;            // digital shifter/adder merge
  std::vector<double> observed_max;  // calibration only — cold path

  // Shared inter/intra-stage activation buffers. These stay std::vector /
  // quant types (they swap between stages and copy out of the engines);
  // bind() reserves them to the plan's bounds so steady-state resizes and
  // copies never reallocate.
  quant::BitMap stage_bits;   // pre-pool bits of the current stage
  quant::BitMap pooled_bits;  // post-pool output of the current stage
  quant::BitMap bits;         // activations entering the current stage
  std::vector<float> scores;  // classifier scores

  // Bit-packed engine scratch (core/bitpack). The live activation form
  // (bytes vs packed words) is static per stage in a compiled plan — the
  // plan inserts explicit convert ops, so the context carries no
  // `packed_live` flag.
  quant::PackedBits packed_bits;    // packed activations entering a stage
  quant::PackedBits packed_stage;   // pre-pool packed bits
  quant::PackedBits packed_pooled;  // post-pool packed output
  Scratch<std::uint64_t> window;    // packed window gather (+ activity)
  Scratch<float> dac_vals;    // stage-0 DAC output, cached per image
  Scratch<double> dac_d;      // dac_vals widened once per image
  Scratch<double> tile_w;     // stage-0 column block's taps as doubles
  Scratch<std::uint64_t> col_cmp;   // stage-0 bulk compare bits per column
  Scratch<std::uint64_t> col_open;  // stage-0 noisy: open reads per column
  Scratch<double> open_sums;        // stage-0 noisy: [col][position] sums
  Scratch<std::uint64_t> col_pool;  // stage-0 pooled per-column bits
  // Row-scatter kernel (kRow16Cmp): one band's int16 accumulators
  // [position][block][lanes], its per-(position, block) active counts
  // (dynamic thresholds only), the int16 references, and the decide
  // thresholds (core/lazy_decide.hpp).
  Scratch<std::int16_t> row_acc;
  Scratch<std::int32_t> row_cnt;
  Scratch<std::int16_t> row_ref;
  Scratch<double> thresholds;  // k·cols block_thresholds

  /// Binds every scratch buffer to `plan`'s exact bounds: one arena
  /// allocation, spans carved out, vectors reserved. Defined in
  /// core/plan.cpp.
  void bind(const ScratchPlan& plan);

  /// True when the bounds this context was last bound with cover `plan` —
  /// i.e. every buffer's capacity suffices, so evaluation will not allocate.
  /// Binding is capacity-based, not identity-based: one context serves any
  /// number of networks (fleet shards route adjacent requests to different
  /// replicas) as long as their bounds fit, and a plan rebuild with
  /// unchanged geometry triggers no re-bind at all.
  bool covers(const ScratchPlan& plan) const {
    return bound_has_value_ && bound_.covers(plan);
  }

 private:
  Arena arena_;
  ScratchPlan bound_;  // bounds of the last bind()
  bool bound_has_value_ = false;
};

}  // namespace sei::core
