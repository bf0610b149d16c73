// Fleet-scale multi-tenant serving: sharded replicas behind weighted-fair
// admission, dynamic micro-batching, and per-shard fault tolerance.
//
// A FleetRuntime wraps N independently-mapped SeiNetwork replicas (shards)
// behind the AdmissionController's per-tenant bounded queues. A single
// dispatcher thread pulls coalesced micro-batches from the MicroBatcher and
// evaluates each batch with one parallel_for over the shared thread pool;
// per-request bookkeeping (routing, shard sequence numbers, storms, probes,
// recovery, checkpoints) runs on the dispatcher in admission-pop order, so
// the whole fleet inherits the library's replay contract: the response
// stream is a pure function of the dispatch order, independent of batch
// coalescing boundaries and thread count (docs/serving.md).
//
// Each shard carries its own canary Sentinel, its own CircuitBreaker, the
// tiered recovery ladder (re-measure → remap+recalibrate → park) and its
// own crash-safe checkpoint file. A one-shard, one-tenant fleet is the
// single-chip serving runtime (examples/serve_demo). Across shards the
// fleet adds:
//
//  * routing + failover — a request's home shard is ticket % N; when the
//    home breaker is not closed the request fails over to the next closed
//    shard on the ring, then to the shared ADC fallback (Degraded), then
//    to shedding (Rejected/kShedding). Every re-route is logged and
//    counted (fleet_failovers_total).
//  * weighted-fair multi-tenancy — stride scheduling over per-tenant
//    bounded queues plus optional per-tenant energy quotas billed from the
//    live EnergyMeter accounting (admission.hpp).
//  * fleet checkpoints — per-shard network checkpoints plus one manifest
//    holding the fleet counters, scheduler passes, tenant energy bills and
//    per-shard breaker/sentinel state, written atomically (manifest last =
//    commit point). Shard files alternate between two epoch-parity slots so
//    an in-progress commit never overwrites the set the current manifest
//    points at: a crash at *any* write offset of the commit sequence leaves
//    the previous set intact (the chaos crash-point matrix proves this at
//    every offset — docs/chaos.md). start() resumes from the last committed
//    set and replays the remaining request stream bit-identically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "core/adc_network.hpp"
#include "core/sei_network.hpp"
#include "data/dataset.hpp"
#include "quant/qnet.hpp"
#include "reliability/calibrate.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/breaker.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/sentinel.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/metrics.hpp"

namespace sei::serve {

struct FleetConfig {
  std::vector<TenantConfig> tenants;
  BatcherConfig batcher{};
  std::chrono::milliseconds default_deadline{0};  // 0 = none
  int checkpoint_every = 0;    // dispatched requests between saves; 0 = off
  std::string checkpoint_dir;  // required when checkpoint_every > 0
  CheckpointRetryPolicy checkpoint_retry{};
  SentinelConfig sentinel{};
  BreakerConfig breaker{};
  reliability::CalibrationConfig calibration{};  // tier-1 recalibration
};

/// One breaker trip → recovery episode on a shard.
struct RecoveryRecord {
  std::uint64_t tripped_at_served = 0;
  std::uint64_t resolved_at_served = 0;  // closed OR parked in fallback/shed
  int tier_reached = 0;
  bool closed = false;  // true when the SEI path was restored
  double acc_before_pct = 0.0;
  double acc_after_pct = 0.0;
  double duration_ms = 0.0;
};

/// Cumulative metered energy since start(), split by evaluation path. Each
/// accumulator reproduces the static cost model exactly: images × the
/// per-picture arch::estimate_cost breakdown of that path's structure.
struct EnergySummary {
  telemetry::EnergyAccum sei;    // SEI-path requests (status kOk)
  telemetry::EnergyAccum adc;    // ADC-fallback requests (status kDegraded)
  telemetry::EnergyAccum probe;  // sentinel probes + recovery measurements
};

/// Routing targets below 0 name the off-shard paths.
inline constexpr int kFallbackPath = -1;  // shared ADC reference network
inline constexpr int kShedPath = -2;      // rejected with kShedding

/// One request routed away from its home shard (or off the SEI path).
struct FailoverEvent {
  std::uint64_t at_dispatched = 0;
  int tenant = -1;
  int home_shard = -1;
  int to_shard = -1;  // >= 0 replica; kFallbackPath / kShedPath otherwise
};

struct ShardStats {
  std::uint64_t served = 0;  // SEI requests dispatched to this shard
  BreakerState state = BreakerState::kClosed;
  int trips = 0;
  double baseline_pct = 0.0;
  double window_pct = -1.0;
};

struct FleetStats {
  std::uint64_t total_dispatched = 0;  // popped + routed (any outcome)
  std::uint64_t fallback_served = 0;   // dispatched to the ADC path
  std::uint64_t shed = 0;              // no healthy shard, no fallback
  std::uint64_t failovers = 0;
  std::uint64_t checkpoints = 0;       // complete checkpoint sets written
  // Zero-allocation contract (docs/plans.md §4): requests evaluated under
  // the allocation guard after warmup, and the heap allocations observed
  // across them. Pool-bound contexts must keep serve_request_allocs at 0.
  std::uint64_t alloc_measured_requests = 0;
  std::uint64_t serve_request_allocs = 0;
  BatcherStats batcher{};
  std::vector<TenantCounters> tenants;
  // Joules metered per tenant by the live EnergyMeter *in this process*
  // (resets on resume, unlike TenantCounters::energy_j which restores from
  // the manifest). The chaos billing-conservation invariant checks
  // energy_j == restored base + tenant_metered_j.
  std::vector<double> tenant_metered_j;
  std::vector<ShardStats> shards;
};

class FleetRuntime {
 public:
  /// `shards` are caller-owned replicas mapped from the same `qnet` (stage
  /// geometry is checked); give them distinct HardwareConfig seeds for
  /// independent read-noise. All must outlive the fleet and stay externally
  /// untouched while it runs. `probes` feeds every shard's sentinel,
  /// `calib` feeds tier-1 recalibration, `fallback` (optional) enables the
  /// shared ADC path.
  FleetRuntime(std::vector<core::SeiNetwork*> shards,
               const quant::QNetwork& qnet, const data::Dataset& probes,
               const data::Dataset& calib, FleetConfig cfg,
               const core::AdcNetwork* fallback = nullptr);
  ~FleetRuntime();
  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Resumes from the last complete checkpoint set (if configured and
  /// present), measures per-shard sentinel baselines on cold start, and
  /// launches the dispatcher. One start()/stop() cycle per instance.
  void start();

  /// Graceful shutdown: stop admitting, drain every queued request through
  /// the dispatcher, write a final checkpoint set, publish per-tenant
  /// energy. Idempotent; also run by the destructor.
  void stop();

  bool running() const { return running_.load(); }

  /// Enqueues one image for `tenant`. The future always completes — with a
  /// label or a structured rejection; admission overflow, quota exhaustion
  /// and shutdown reject immediately rather than blocking the caller.
  std::future<FleetResponse> submit(int tenant, std::span<const float> image);
  std::future<FleetResponse> submit(int tenant, std::span<const float> image,
                                    std::chrono::milliseconds deadline);

  /// Installs the scripted fault storm (fired on the fleet-wide dispatch
  /// counter). Must be called before start().
  void set_storm(StormSchedule storm);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int tenant_count() const { return admission_.tenant_count(); }

  FleetStats stats() const;
  /// Fleet-wide metered joules by path; stop() also publishes per-tenant
  /// bills ("tenant_<name>") and the probe total ("fleet_probe").
  EnergySummary energy() const;
  std::vector<double> tenant_latencies_ms(int t) const;
  std::vector<BreakerEvent> shard_breaker_events(int k) const;
  std::vector<RecoveryRecord> shard_recoveries(int k) const;
  std::vector<FailoverEvent> failovers() const;
  BreakerState shard_state(int k) const;
  /// True when start() restored a complete checkpoint set.
  bool resumed_from_checkpoint() const { return resumed_; }

 private:
  struct Shard {
    core::SeiNetwork* net = nullptr;
    Sentinel sentinel;
    CircuitBreaker breaker;
    RuntimeSnapshot snap;  // per-shard sequence/served/probe counters
    std::uint64_t last_probe_served = 0;
    std::uint64_t last_reattempt_dispatched = 0;
    std::uint64_t measure_serial = 0;
    // Storm persistence (StormEvent::duration): index of the active strike
    // in storm_.events (-1 = none) and the fleet dispatch count at which
    // the hostile condition lifts. While active, attempt_repair re-lands
    // the strike's damage after remapping.
    std::int64_t active_storm = -1;
    std::uint64_t storm_until = 0;
    std::vector<RecoveryRecord> recoveries;
    // Checkpoint path prefix; the actual file alternates between two slots
    // (<base>.s0.ckpt / <base>.s1.ckpt, slot = epoch % 2) so a commit never
    // overwrites the set the current manifest points at — see
    // write_checkpoints().
    std::string ckpt_base;
  };

  /// One dispatched-but-not-yet-evaluated request: the unit the segment
  /// flush evaluates in parallel.
  struct Pending {
    std::unique_ptr<FleetRequest> req;
    int shard = kFallbackPath;  // >= 0 SEI shard; kFallbackPath = ADC
    std::uint64_t ticket = 0;
    std::uint64_t sequence = 0;  // shard-local RNG index (SEI only)
  };

  struct TenantMetrics {
    telemetry::Counter* ok = nullptr;
    telemetry::Counter* degraded = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Histogram* latency = nullptr;
  };
  struct ShardMetrics {
    telemetry::Counter* open = nullptr;
    telemetry::Counter* closed = nullptr;
    telemetry::Counter* fallback = nullptr;
    telemetry::Counter* shedding = nullptr;
  };

  /// Per-flush evaluation outcome of one pending request.
  struct Outcome {
    bool ok = false;
    int label = -1;
    ErrorCode err = ErrorCode::kInternal;
  };

  void dispatcher_loop();
  void process_batch(std::vector<std::unique_ptr<FleetRequest>>& batch);
  /// Checks out a plan-bound EvalContext from the pool (all shards share
  /// one scratch bound — same qnet geometry), creating one only when the
  /// pool is dry. Steady state: pool size == peak chunk concurrency, zero
  /// construction or binding per flush.
  std::unique_ptr<core::EvalContext> acquire_context();
  void release_context(std::unique_ptr<core::EvalContext> ctx);
  /// Evaluates the segment with one parallel_for, bulk-charges energy,
  /// bills tenant quotas and completes every promise. Clears `seg`.
  void flush(std::vector<Pending>& seg);
  void complete(Pending& p, FleetResponse r);
  void record_failover(int tenant, int home, int to);
  /// Runs one sentinel probe on shard `k`; on trip, flushes `seg` (the
  /// recovery ladder mutates the network) and runs recovery.
  void run_probe(int k, std::vector<Pending>& seg);
  double measure_probe_accuracy(Shard& sh);
  /// The tiered recovery ladder, run when shard `k`'s breaker trips.
  void run_recovery(int k, double window_acc);
  /// Tier 1, shared by the ladder and the parked-shard re-attempt: repair,
  /// re-measure into `acc`, and close the breaker (noting `why`) when the
  /// measurement is back within margin of the baseline.
  bool repair_and_close(int k, const char* why, double& acc);
  bool attempt_repair(Shard& sh);
  /// Closes shard `k`'s breaker and clears its sentinel window, so failures
  /// from the degraded period cannot re-trip it at once.
  void close_breaker(int k, int tier, const char* why);
  /// Parked-shard periodic repair re-attempt (tier-1 while degraded).
  void try_reopen(int k);
  void write_checkpoints();
  Status save_manifest(std::uint64_t epoch);
  bool try_resume();
  void publish_energy_once();
  std::string manifest_path() const;

  const quant::QNetwork& qnet_;
  const data::Dataset& calib_;
  FleetConfig cfg_;
  const core::AdcNetwork* fallback_;

  // Per-stage price lists shared by every shard (same qnet + geometry).
  telemetry::EnergyMeter sei_meter_;
  telemetry::EnergyMeter adc_meter_;

  AdmissionController admission_;
  mutable MicroBatcher batcher_;  // mutable: stats() snapshots via its lock

  // Dispatcher state: owned by the dispatcher thread, guarded by fleet_mu_
  // so stats()/event accessors can snapshot while the fleet runs.
  mutable std::mutex fleet_mu_;
  std::vector<Shard> shards_;
  StormSchedule storm_;
  std::size_t storm_cursor_ = 0;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t total_dispatched_ = 0;
  std::uint64_t last_checkpoint_dispatched_ = 0;
  std::uint64_t checkpoints_ = 0;
  // Epoch of the last *manifest-committed* checkpoint set. Each commit
  // attempt targets manifest_epoch_ + 1 and only advances this once the
  // manifest rename lands, so retries after a failed/torn commit re-target
  // the same (non-committed) slot and the committed set is never touched.
  std::uint64_t manifest_epoch_ = 0;
  std::uint64_t fallback_served_ = 0;
  std::uint64_t shed_ = 0;
  std::vector<FailoverEvent> failovers_;
  std::vector<std::vector<double>> tenant_latencies_;
  std::vector<telemetry::EnergyAccum> tenant_energy_;
  std::vector<double> billed_local_j_;  // joules billed to admission so far
  // Dispatch-time mirror of the scheduler passes: admission advances a pass
  // at *pop* (whole batch at once), but a mid-batch checkpoint must record
  // the pass state at the dispatch boundary, so the dispatcher re-derives
  // it per item (same stride rule) and the manifest stores this mirror.
  std::vector<double> manifest_passes_;
  double manifest_gpass_ = 0.0;
  EnergySummary energy_;
  core::EvalContext maint_ctx_;  // probes + recovery measurements

  // Flush scratch, persistent across batches so steady-state dispatch
  // performs no heap allocation: the segment, the per-item outcomes, the
  // per-item energy accumulators (sparsity-enabled shards only) and the
  // per-tenant tally vectors are assign()ed within retained capacity.
  std::vector<Pending> seg_;
  std::vector<Outcome> out_;
  std::vector<telemetry::EnergyAccum> item_energy_;
  std::vector<std::uint64_t> sei_n_, adc_n_;
  std::vector<std::uint64_t> ok_n_, degraded_n_, rejected_n_;

  // Evaluation-context pool for the parallel segment flush (see
  // acquire_context). Guarded by ctx_mu_ — chunk workers check out/in.
  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<core::EvalContext>> ctx_pool_;

  // Zero-alloc accounting (FleetStats::serve_request_allocs).
  std::atomic<std::uint64_t> alloc_measured_{0};
  std::atomic<std::uint64_t> hot_allocs_{0};

  std::vector<TenantMetrics> tenant_metrics_;
  std::vector<ShardMetrics> shard_metrics_;
  telemetry::Counter* failovers_ctr_ = nullptr;
  telemetry::Counter* batches_ctr_ = nullptr;
  telemetry::Counter* probes_ctr_ = nullptr;
  telemetry::Counter* checkpoints_ctr_ = nullptr;

  std::thread dispatcher_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool stopped_ = false;
  bool resumed_ = false;
  bool energy_published_ = false;
};

}  // namespace sei::serve
