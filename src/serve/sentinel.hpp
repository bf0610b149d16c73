// Canary sentinel: live accuracy estimation from interleaved probes.
//
// A serving process cannot see ground-truth labels for real traffic, so
// degradation (drift, stuck cells, a bad remap) would be invisible until a
// user complains. The sentinel holds a small set of known-label probe
// images; the runtime interleaves one probe every `probe_every` served
// requests and records whether the chip classified it correctly. A sliding
// window over the outcomes estimates live accuracy. The baseline measured
// at startup keeps each probe's outcome, so the circuit breaker compares
// the window against the baseline accuracy of the same probes: a window
// that happens to hold the probes the healthy chip already gets wrong does
// not read as a drop.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "data/dataset.hpp"

namespace sei::serve {

struct SentinelConfig {
  int probe_count = 64;   // probes drawn from the head of the labeled set
  int probe_every = 16;   // one probe per this many served requests
  int window = 48;        // sliding window of probe outcomes
  int min_probes = 24;    // outcomes required before the estimate is trusted
};

class Sentinel {
 public:
  /// Copies the first cfg.probe_count images of `labeled` (clamped to its
  /// size) as the probe set.
  Sentinel(const data::Dataset& labeled, const SentinelConfig& cfg);

  int probe_count() const { return static_cast<int>(labels_.size()); }
  std::span<const float> image(int probe) const;
  int label(int probe) const { return labels_.at(static_cast<std::size_t>(probe)); }

  /// Records the outcome of one served probe of index `probe`.
  void record(int probe, bool correct);

  /// True once the window holds at least cfg.min_probes outcomes.
  bool ready() const {
    return static_cast<int>(outcomes_.size()) >= cfg_.min_probes;
  }

  /// Accuracy over the current window in percent (-1 before ready()).
  double window_accuracy_pct() const;
  /// Baseline accuracy of the probes in the current window, in percent
  /// (-1 before ready()): what window_accuracy_pct() reads on a chip that
  /// still answers every probe as it did at the baseline measurement.
  double window_baseline_pct() const;

  /// Forgets recorded outcomes (after a recovery: stale failures from the
  /// degraded period must not immediately re-trip the breaker).
  void reset_window();

  /// Window contents oldest-first (bit 0: correct, bit 1: correct at the
  /// baseline) — checkpointed by the fleet so a resumed process trips its
  /// breakers on the same probe as the original run would have.
  std::vector<std::uint8_t> window_outcomes() const {
    return std::vector<std::uint8_t>(outcomes_.begin(), outcomes_.end());
  }
  void restore_window(const std::vector<std::uint8_t>& outcomes);

  /// Per-probe outcomes of the baseline measurement (1 = correct), one per
  /// probe.
  void set_baseline(std::vector<std::uint8_t> outcomes);
  const std::vector<std::uint8_t>& baseline() const { return baseline_; }
  /// Baseline accuracy over the whole probe set, in percent.
  double baseline_pct() const { return baseline_pct_; }

  const SentinelConfig& config() const { return cfg_; }

 private:
  /// Appends one encoded outcome, sliding the window.
  void push(std::uint8_t o);

  SentinelConfig cfg_;
  std::size_t per_image_ = 0;
  std::vector<float> images_;       // probe_count × per_image, row-major
  std::vector<int> labels_;
  std::deque<std::uint8_t> outcomes_;  // sliding window, bits as above
  int window_correct_ = 0;
  int window_baseline_correct_ = 0;
  std::vector<std::uint8_t> baseline_;
  double baseline_pct_ = 0.0;
};

}  // namespace sei::serve
