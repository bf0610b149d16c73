// Functional simulation of a full CNN on the SEI structure.
//
// Every hidden stage runs on mapped crossbars: per output, each row-block
// crossbar accumulates its analog partial sum, its sense amp compares
// against the block threshold (static share Thres/K plus the dynamic
// input-count compensation), and a digital vote merges the K bits. The
// final classifier stage sums its block currents and is read out by
// winner-take-all. The input layer is driven through `input_bits` DACs.
//
// Evaluation dispatch is compiled: construction (and every remap / fault /
// restore / engine switch) lowers the mapped layers into a CompiledPlan
// (core/plan.hpp) — engines and sub-kernels resolved per stage, explicit
// byte↔word converts, exact scratch bounds. One executor (run_plan) walks
// any range of that plan: try_predict runs all of it, and one batch driver
// (run_batch) runs a range over a dataset — all of it for error_rate, a
// head for cache_stage_inputs, a tail for error_rate_from.
// The scalar engines (set_packed_eval(false)) are the reference the packed
// kernels are pinned bit-identical to by tests/test_determinism.cpp.
#pragma once

#include <span>

#include "common/result.hpp"
#include "core/eval_context.hpp"
#include "core/mapping.hpp"
#include "core/plan.hpp"
#include "data/dataset.hpp"

namespace sei::core {

class SeiNetwork {
 public:
  /// Rows per switched sub-crossbar input word. The paper's Table 1 groups
  /// a 3x3 binary kernel window's 9 inputs into one "input data" word and
  /// gates the matching 9 crossbar rows together; the activity histogram
  /// (EvalContext::StageActivity) counts ones per word.
  static constexpr int kWordRows = 9;

  /// Maps every stage of `qnet` with default row orders (homogenized where
  /// the stage splits, per cfg). Keeps a reference to `qnet` for remapping —
  /// the QNetwork must outlive the SeiNetwork. `hook` (optional) is the
  /// post-programming maintenance pass applied to every crossbar — the
  /// reliability subsystem's diagnose/repair loop — and is reused whenever
  /// a stage is remapped.
  SeiNetwork(const quant::QNetwork& qnet, const HardwareConfig& cfg,
             CrossbarHook hook = {});

  int stage_count() const { return static_cast<int>(layers_.size()); }
  MappedLayer& layer(int stage) { return layers_.at(static_cast<std::size_t>(stage)); }
  const MappedLayer& layer(int stage) const {
    return layers_.at(static_cast<std::size_t>(stage));
  }
  const HardwareConfig& config() const { return cfg_; }

  /// Re-maps one stage with an explicit logical row order (fresh crossbars,
  /// fresh programming randomness) — the Table 4 random-order experiment.
  /// Recompiles the plan.
  void remap_layer(int stage, const std::vector<int>& order);

  /// Rebuilds stage `stage`'s packed decomposition from its current `eff`
  /// — required after any external mutation of the effective weights
  /// (fault injection, checkpoint restore), exactly like remap does
  /// internally. Call rebuild_plan() after the last touched stage.
  void rebuild_packed(int stage);

  /// Recompiles the execution plan from the current layers, config, engine
  /// switch and row billing, and bumps the plan epoch. Callers that mutate
  /// mapped state directly (apply_fault, load_checkpoint) must call this
  /// once they are done. Bound contexts re-bind lazily on their next
  /// prepare() if (and only if) the new scratch bounds outgrew them.
  void rebuild_plan();

  /// The compiled program driving try_predict (diagnostics, benches, docs).
  const CompiledPlan& plan() const { return plan_; }

  /// Ensures `ctx`'s bound capacity covers the current plan (one arena
  /// allocation on first use; free afterwards — binding is capacity-based,
  /// so a context hops between same-geometry fleet replicas without ever
  /// re-binding). Called by try_predict — exposed so serving warmup can
  /// pre-bind contexts.
  void prepare(EvalContext& ctx) const;

  /// Attaches a per-stage energy price list (arch::make_energy_meter). The
  /// batch entry points below then charge every evaluated stage and publish
  /// the chunk totals to the global metrics registry under path
  /// "sei_batch"; single-image callers attach the meter to their own
  /// EvalContext instead. The meter must outlive the network. nullptr
  /// detaches. Prices stay in the meter: the plan is not recompiled.
  void set_meter(const telemetry::EnergyMeter* meter) { meter_ = meter; }
  const telemetry::EnergyMeter* meter() const { return meter_; }

  /// Row billing (docs/sparsity.md). Empty bounds (the default) charge
  /// every stage its uniform per-picture price. Any non-empty vector turns
  /// on activation-proportional billing: each SEI hidden/classifier stage
  /// is charged for the rows its 1-bit inputs actually drove (the
  /// transmission gates of inactive rows stay open — Table 1), counted by
  /// the kernels themselves; stage 0 is DAC-driven and keeps its uniform
  /// price. A bound of 0 (or below) is the only supported value: the
  /// predicate it names switches off all-zero 9-row words, which drive no
  /// rows anyway, so predictions are those of the dense network. A value
  /// > 0 would drop active rows and fails with CheckError before anything
  /// changes. Recompiles the plan.
  void set_skip_bounds(std::vector<int> bounds);
  bool sparsity_enabled() const { return row_billing_; }

  /// Engine switch (initialized from cfg.packed_eval): when on, stages with
  /// integral weights run the bit-packed kernels where they fit;
  /// when off, everything runs the scalar reference path. Both produce
  /// bit-identical results (docs/kernels.md) — this only trades speed.
  /// Recompiles the plan.
  void set_packed_eval(bool on) {
    packed_eval_ = on;
    rebuild_plan();
  }
  bool packed_eval() const { return packed_eval_; }

  /// Number of plan ops that run a packed engine (kDacDense or
  /// kPackedBits; 0 with the packed switch off). Diagnostics/benchmarks
  /// only.
  int packed_stage_count() const;

  /// Classifies one image (convenience wrapper: fresh context, stream 0).
  int predict(std::span<const float> image) const;

  /// Classifies one image using the caller's context. `image_index` keys
  /// the counter-based read-noise streams: the result is a pure function of
  /// (network, image, image_index) — two calls with the same index see the
  /// same noise draws no matter what ran in between or on which thread.
  int predict(std::span<const float> image, EvalContext& ctx,
              long long image_index = 0) const;

  /// Structured-error variant for the serving path: when ctx.cancel is set,
  /// the token is checked between stages and an expired one yields
  /// Error{kCancelled/kDeadlineExceeded} instead of a label. A completed
  /// prediction is bit-identical to predict() with the same index.
  Result<int> try_predict(std::span<const float> image, EvalContext& ctx,
                          long long image_index = 0) const;

  /// Classification error in percent. `max_images` < 0 means all. Images
  /// are evaluated in parallel on the default exec pool; per-image RNG
  /// streams keep the result bit-identical at any thread count.
  double error_rate(const data::Dataset& d, int max_images = -1) const;

  /// Binary activations entering `stage` (i.e. output of stage-1) for every
  /// image of `d` — lets split experiments re-evaluate only the tail.
  std::vector<quant::BitMap> cache_stage_inputs(const data::Dataset& d,
                                                int stage,
                                                int max_images = -1) const;

  /// Error rate evaluating only stages `stage`..end from cached inputs.
  double error_rate_from(const data::Dataset& d, int stage,
                         const std::vector<quant::BitMap>& inputs) const;

  /// Total crossbars / cells across all stages (physical accounting).
  int total_crossbars() const;
  long long total_cells() const;

 private:
  /// The scalar oracle (kScalarFloat and kScalarBits), one stage at every
  /// output position: each crossbar block sums the weight rows its inputs
  /// select. `In` is the input kind — a byte map, whose 1-bit inputs add
  /// their rows, or the image, whose inputs add their rows times their DAC
  /// level. `bits_out` receives the post-vote (post-pool) activations for
  /// hidden stages; `scores` the classifier sums. Scratch and read noise
  /// come from `ctx`. On a byte map the stage also leaves its driven-row
  /// count in ctx.rows_driven and, when ctx.cur_activity is set, records
  /// the activity histogram.
  template <typename In>
  void eval_stage_scalar(const MappedLayer& m, const In& in,
                         quant::BitMap& bits_out, std::vector<float>& scores,
                         EvalContext& ctx) const;

  /// Bit-packed engines (core/bitpack): `eval_stage_packed` is the hidden/
  /// classifier stage on packed words, run by the row-scatter kernel on the
  /// target map compiled with the plan (core/plan.cpp);
  /// `eval_stage_dac` the stage-0 column tile, which caches the DAC output
  /// once per image and convolves densely.
  void eval_stage_packed(const StageOp& op, const MappedLayer& m,
                         const quant::PackedBits& in,
                         quant::PackedBits& bits_out,
                         std::vector<float>& scores, EvalContext& ctx) const;
  void eval_stage_dac(const MappedLayer& m, std::span<const float> in,
                      quant::PackedBits& bits_out, EvalContext& ctx) const;

  /// The executor: runs plan ops [first, last) on ctx's live activations,
  /// engines and converts pre-resolved. `image` feeds stage 0 only; an
  /// entry at a hidden stage (first > 0) reads byte maps from ctx.bits and
  /// packs them when that op runs packed. Returns the label when the range
  /// ends in the classifier, else -1 with the last op's output live.
  Result<int> run_plan(std::span<const float> image, EvalContext& ctx,
                       long long image_index, std::size_t first,
                       std::size_t last) const;

  /// The batch driver: runs plan ops [first, last) over images [0, n) in
  /// exec chunks, one bound context per chunk. `input(i, ctx)` returns image
  /// i's stage-0 input (a range entering at a hidden stage loads ctx.bits
  /// and returns an empty span); `finish(i, label, ctx)` consumes the
  /// result (label -1 unless the range ends at the classifier) and returns
  /// whether image i counts. Owns the metering: with row billing and a
  /// meter, each image is metered through its context; otherwise a meter
  /// is charged the range's stage prices in bulk, images counted only when
  /// the range ends at the classifier. Each chunk publishes to "sei_batch"
  /// once. Returns the number of images that count.
  template <typename Input, typename Finish>
  long long run_batch(int n, std::size_t first, std::size_t last,
                      Input&& input, Finish&& finish) const;

  /// Charges one completed stage — the only billing path: per driven row
  /// when the op bills by rows (charge_stage_rows), else the meter's stage
  /// price (charge_stage).
  void charge(const StageOp& op, EvalContext& ctx) const;

  /// Classifier readout: merges one position's block currents into scores.
  /// Read (c, b) is `first_read + c·k + b`, as in decide_position.
  void merge_classifier(const MappedLayer& m, std::vector<float>& scores,
                        EvalContext& ctx, std::uint64_t first_read) const;

  /// Threshold decision over the accumulated block sums of one position;
  /// the scalar reference both engines are pinned to. Under read noise
  /// every read draws its keyed gaussian eagerly: read (c, b) of the
  /// position is `first_read + c·k + b`.
  void decide_position(const MappedLayer& m, const double* block_sums,
                       const int* n_active, std::uint8_t* out_bits,
                       const ReadNoise& noise, std::uint64_t first_read) const;

  /// Read-noise key of one stage of one image: derived only from
  /// (cfg.seed, image_index, stage), and every read of the stage draws
  /// keyed_gaussian(key, read index). Evaluating stages `s..end` from
  /// cached inputs therefore replays exactly the draws a full predict
  /// would make — error_rate_from matches error_rate even under noise.
  std::uint64_t read_key(long long image_index, int stage) const;

  const quant::QNetwork* qnet_;
  HardwareConfig cfg_;
  // The mapping/programming stream is separate from the read-noise streams:
  // the programmed state of a (re)mapped stage is reproducible from
  // cfg.seed regardless of how many noisy reads happened before — and
  // sweeping read_noise_sigma cannot perturb the programmed weights across
  // campaign trials. Read noise is not a member at all: each draw is keyed
  // by (image, stage, read) (see read_key), so evaluation order and thread
  // count cannot leak into any result.
  Rng map_rng_;
  std::uint64_t read_seed_;
  CrossbarHook hook_;
  std::vector<MappedLayer> layers_;
  const telemetry::EnergyMeter* meter_ = nullptr;
  bool row_billing_ = false;  // docs/sparsity.md
  bool packed_eval_ = true;
  CompiledPlan plan_;
  std::uint64_t plan_epoch_ = 0;
};

}  // namespace sei::core
