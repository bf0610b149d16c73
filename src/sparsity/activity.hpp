// Runtime activation statistics of the SEI structure (docs/sparsity.md).
//
// The SEI structure switches crossbar rows by their 1-bit inputs, grouped
// into 9-row sub-crossbar words (the paper's Table 1 "input data" unit,
// SeiNetwork::kWordRows): the rows a word actually charges per read is the
// popcount of its selected inputs. ActivityEstimator aggregates those
// counts per stage: how many (position, word) decisions ran, how many
// words were all-zero (no row driven), how many row-activations were
// driven versus the positions × rows the static accounting assumes, and
// the per-word popcount histogram (bins 0..9 — the runtime twin of
// Table 1's distribution of ones per input word). It is a meter only: the
// kernels always run dense, and row billing charges the same driven-row
// counts.
//
// Estimation is a passive observation pass: attach the estimator's cells to
// an EvalContext and predictions are untouched — the same guarantee the
// energy meter gives. Aggregation over a dataset is deterministic at any
// thread count: per-chunk cells merge in ascending chunk order
// (docs/parallelism.md), and every count is an integer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "core/eval_context.hpp"
#include "data/dataset.hpp"

namespace sei::core {
class SeiNetwork;
}

namespace sei::sparsity {

/// One stage's activity cell — the exact struct the engines fill.
using StageActivity = core::EvalContext::StageActivity;

/// Per-stage activity accumulator. Cells are plain integer counters, so
/// merging estimators is exact and order-insensitive; the dataset pass
/// below still merges in fixed chunk order to keep the stronger
/// "bit-identical at any thread count" contract uniform across the repo.
class ActivityEstimator {
 public:
  ActivityEstimator() = default;
  explicit ActivityEstimator(int stage_count)
      : cells_(static_cast<std::size_t>(stage_count)) {}

  int stage_count() const { return static_cast<int>(cells_.size()); }
  StageActivity& stage(int i) { return cells_.at(static_cast<std::size_t>(i)); }
  const StageActivity& stage(int i) const {
    return cells_.at(static_cast<std::size_t>(i));
  }

  /// Raw cell array for EvalContext::activity (one cell per stage).
  StageActivity* cells() { return cells_.data(); }

  void reset() {
    for (StageActivity& c : cells_) c = StageActivity{};
  }

  void merge(const ActivityEstimator& o) {
    if (cells_.empty()) cells_.resize(o.cells_.size());
    SEI_CHECK(cells_.size() == o.cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cells_[i].merge(o.cells_[i]);
  }

  // Aggregates over every stage that recorded data (stage 0 and non-SEI
  // stages never do — their cells stay zero and drop out of the ratios).

  /// Fraction of (position, input word) sub-crossbar decisions whose word
  /// was all-zero, so no row of it was driven. The headline "skip rate".
  double skip_rate() const;

  /// Sum of selected-input counts over positions × rows: the fraction of
  /// nominal row-activations whose transmission gates actually close.
  double row_activity() const;

  /// Fraction of nominal row-activations charged by row billing — every
  /// driven row, so this equals row_activity.
  double charged_fraction() const;

 private:
  std::vector<StageActivity> cells_;
};

/// Runs `net` over the first `max_images` of `d` (< 0: all) and returns the
/// accumulated per-stage activity. Requires net.sparsity_enabled() (row
/// billing on, all-zero skip bounds) — the stages it bills by rows are the
/// ones the engines record. Predictions are the dense network's.
/// Deterministic at any thread count.
ActivityEstimator estimate_activity(const core::SeiNetwork& net,
                                    const data::Dataset& d,
                                    int max_images = -1);

}  // namespace sei::sparsity
