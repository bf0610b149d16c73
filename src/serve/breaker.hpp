// Circuit breaker over the canary sentinel.
//
// State machine only — the heavyweight recovery actions (re-measuring the
// probe set, remap + recalibration, switching to the ADC fallback) live in
// the runtime, which drives the breaker through trip()/close()/the tier
// setters and asks recovery_tier() which rung of the degradation ladder to
// run next:
//
//   tier 0  retry: re-measure the probe set with backoff (transient noise)
//   tier 1  repair: remap every stage through the repair hook, recalibrate
//   tier 2  fallback: serve through the ADC reference path (Degraded)
//   tier 3  shed: reject load explicitly (Rejected/kShedding)
//
// Every transition is recorded with the served-request count so benches can
// report detection latency and recovery spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sei::serve {

enum class BreakerState {
  kClosed,     // healthy: serving on the SEI path
  kOpen,       // tripped: recovery ladder in progress
  kFallback,   // tier 2: serving Degraded responses via the ADC path
  kShedding,   // tier 3: rejecting load
};

const char* to_string(BreakerState s);

struct BreakerConfig {
  // Trip when the sentinel window drops this many points below the
  // baseline accuracy of the same probes (Sentinel::window_baseline_pct).
  double trip_drop_pct = 2.0;
  // Close again once a full probe-set measurement is back within this many
  // points of baseline.
  double close_margin_pct = 2.0;
  int max_retries = 2;          // tier-0 re-measurements before escalating
  int retry_backoff_ms = 5;     // tier-0 backoff base (doubles per retry)
  // While in kFallback/kShedding, re-attempt tier-1 repair every this many
  // served requests.
  int reattempt_interval = 512;
};

struct BreakerEvent {
  std::uint64_t at_served = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  int tier = 0;          // ladder rung that drove the transition
  std::string note;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& cfg) : cfg_(cfg) {}

  BreakerState state() const { return state_; }
  const BreakerConfig& config() const { return cfg_; }

  /// True when a ready sentinel window justifies tripping; `baseline_pct`
  /// is the baseline accuracy of the window's probes.
  bool should_trip(double window_acc_pct, double baseline_pct) const {
    return state_ == BreakerState::kClosed && window_acc_pct >= 0.0 &&
           window_acc_pct <= baseline_pct - cfg_.trip_drop_pct;
  }

  /// True when a full-set measurement counts as recovered.
  bool recovered(double acc_pct, double baseline_pct) const {
    return acc_pct >= baseline_pct - cfg_.close_margin_pct;
  }

  void trip(std::uint64_t at_served, const std::string& note) {
    ++trips_;
    transition(BreakerState::kOpen, at_served, 0, note);
  }
  void close(std::uint64_t at_served, int tier, const std::string& note) {
    transition(BreakerState::kClosed, at_served, tier, note);
  }
  void enter_fallback(std::uint64_t at_served, const std::string& note) {
    transition(BreakerState::kFallback, at_served, 2, note);
  }
  void enter_shedding(std::uint64_t at_served, const std::string& note) {
    transition(BreakerState::kShedding, at_served, 3, note);
  }

  int trips() const { return trips_; }
  const std::vector<BreakerEvent>& events() const { return events_; }

  /// Reinstates checkpointed state without logging a transition — resume is
  /// not a state change, and the event log restarts per process.
  void restore(BreakerState state, int trips) {
    state_ = state;
    trips_ = trips;
  }

 private:
  void transition(BreakerState to, std::uint64_t at_served, int tier,
                  const std::string& note) {
    events_.push_back({at_served, state_, to, tier, note});
    state_ = to;
  }

  BreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  int trips_ = 0;
  std::vector<BreakerEvent> events_;
};

}  // namespace sei::serve
