#include "serve/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "arch/live_energy.hpp"
#include "common/io.hpp"
#include "core/mapping.hpp"
#include "exec/thread_pool.hpp"
#include "telemetry/alloc.hpp"
#include "telemetry/span.hpp"

namespace sei::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Maintenance evaluations live in their own RNG index spaces, far away from
// request sequence numbers — probes and recovery measurements can never
// collide with the request stream's draws.
constexpr long long kProbeIndexBase = 1LL << 40;
constexpr long long kMeasureIndexBase = 1LL << 41;

// Segment-flush chunking: finer than kEvalGrain because a micro-batch tops
// out at max_batch (~32) items and still wants to spread over the pool.
// Chunk boundaries depend only on (n, grain) so any thread count produces
// the same per-item results.
constexpr int kBatchGrain = 4;

constexpr std::uint64_t kFleetMagic = 0x315446454c464553ULL;  // "SEFLET1"+pad
// v2: shard checkpoints moved to two epoch-parity slot files; the manifest's
// per-shard checkpoint_epoch selects the slot. A v1 manifest (single in-place
// shard file) cold-starts via the version check below.
constexpr std::uint32_t kFleetVersion = 2;

/// Slot file for a shard checkpoint at `epoch`. Two slots alternate by epoch
/// parity, so the set an in-progress commit writes never aliases the set the
/// current manifest points at — the crash-point matrix depends on this.
std::string shard_slot_path(const std::string& base, std::uint64_t epoch) {
  return base + (epoch % 2 == 0 ? ".s0.ckpt" : ".s1.ckpt");
}

// Dispatched-request count before the zero-alloc contract is measured
// (context pool fills, stat vectors reach steady capacity).
constexpr std::uint64_t kAllocWarmupDispatches = 64;

// Spare capacity kept on per-tenant latency logs and the failover log so
// steady-state push_backs never reallocate mid-batch.
constexpr std::size_t kLogHeadroom = 1024;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

FleetRuntime::FleetRuntime(std::vector<core::SeiNetwork*> shards,
                           const quant::QNetwork& qnet,
                           const data::Dataset& probes,
                           const data::Dataset& calib, FleetConfig cfg,
                           const core::AdcNetwork* fallback)
    : qnet_(qnet),
      calib_(calib),
      cfg_(std::move(cfg)),
      fallback_(fallback),
      sei_meter_(arch::make_energy_meter(qnet, shards.at(0)->config(),
                                         core::StructureKind::kSei)),
      adc_meter_(arch::make_energy_meter(qnet, shards.at(0)->config(),
                                         core::StructureKind::kBinInputAdc)),
      admission_(cfg_.tenants),
      batcher_(admission_, cfg_.batcher) {
  SEI_CHECK_MSG(!shards.empty(), "at least one shard required");
  SEI_CHECK_MSG(cfg_.checkpoint_every == 0 || !cfg_.checkpoint_dir.empty(),
                "checkpoint_every requires checkpoint_dir");
  shards_.reserve(shards.size());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    core::SeiNetwork* net = shards[k];
    SEI_CHECK_MSG(net != nullptr, "shard " << k << " is null");
    SEI_CHECK_MSG(net->stage_count() == shards[0]->stage_count(),
                  "shard " << k << " stage geometry differs from shard 0");
    Shard sh{net, Sentinel(probes, cfg_.sentinel), CircuitBreaker(cfg_.breaker),
             RuntimeSnapshot{}, 0, 0, 0, -1, 0, {}, {}};
    if (!cfg_.checkpoint_dir.empty())
      sh.ckpt_base = cfg_.checkpoint_dir + "/shard" + std::to_string(k);
    shards_.push_back(std::move(sh));
  }

  const int nt = admission_.tenant_count();
  tenant_latencies_.resize(static_cast<std::size_t>(nt));
  tenant_energy_.resize(static_cast<std::size_t>(nt));
  billed_local_j_.assign(static_cast<std::size_t>(nt), 0.0);
  manifest_passes_.assign(static_cast<std::size_t>(nt), 0.0);

  auto& reg = telemetry::MetricsRegistry::global();
  tenant_metrics_.resize(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    const std::string& name = cfg_.tenants[static_cast<std::size_t>(t)].name;
    TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(t)];
    tm.ok = &reg.counter("fleet_requests_total{tenant=\"" + name +
                         "\",status=\"ok\"}");
    tm.degraded = &reg.counter("fleet_requests_total{tenant=\"" + name +
                               "\",status=\"degraded\"}");
    tm.rejected = &reg.counter("fleet_requests_total{tenant=\"" + name +
                               "\",status=\"rejected\"}");
    tm.latency = &reg.histogram(
        "fleet_request_latency_ms{tenant=\"" + name + "\"}",
        telemetry::latency_ms_buckets());
  }
  shard_metrics_.resize(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::string label = "{shard=\"" + std::to_string(k) + "\",to=\"";
    ShardMetrics& sm = shard_metrics_[k];
    sm.open = &reg.counter("fleet_shard_transitions_total" + label + "open\"}");
    sm.closed =
        &reg.counter("fleet_shard_transitions_total" + label + "closed\"}");
    sm.fallback =
        &reg.counter("fleet_shard_transitions_total" + label + "fallback\"}");
    sm.shedding =
        &reg.counter("fleet_shard_transitions_total" + label + "shedding\"}");
  }
  failovers_ctr_ = &reg.counter("fleet_failovers_total");
  batches_ctr_ = &reg.counter("fleet_batches_total");
  probes_ctr_ = &reg.counter("fleet_probes_total");
  checkpoints_ctr_ = &reg.counter("fleet_checkpoints_total");
}

FleetRuntime::~FleetRuntime() { stop(); }

std::string FleetRuntime::manifest_path() const {
  return cfg_.checkpoint_dir + "/fleet.manifest";
}

void FleetRuntime::set_storm(StormSchedule storm) {
  SEI_CHECK_MSG(!started_, "set_storm must be called before start()");
  storm_ = std::move(storm);
  std::sort(storm_.events.begin(), storm_.events.end(),
            [](const StormEvent& a, const StormEvent& b) {
              return a.at_dispatched < b.at_dispatched;
            });
  for (const StormEvent& ev : storm_.events)
    SEI_CHECK_MSG(ev.shard >= 0 && ev.shard < shard_count(),
                  "storm event targets unknown shard " << ev.shard);
  storm_cursor_ = 0;
}

void FleetRuntime::start() {
  SEI_CHECK_MSG(!started_ && !stopped_,
                "a FleetRuntime runs one start()/stop() cycle");
  started_ = true;
  if (!cfg_.checkpoint_dir.empty()) {
    ensure_directory(cfg_.checkpoint_dir);
    resumed_ = try_resume();
  }
  if (resumed_) {
    // The manifest's dispatch counter tells us which storm strikes already
    // landed (strictly earlier ones — an event at exactly this counter has
    // not fired yet; it fires before the next dispatch).
    while (storm_cursor_ < storm_.events.size() &&
           storm_.events[storm_cursor_].at_dispatched < total_dispatched_)
      ++storm_cursor_;
  } else {
    // Cold start: per-shard baselines (measure_serial 0 of each shard).
    for (Shard& sh : shards_)
      sh.sentinel.set_baseline_pct(measure_probe_accuracy(sh));
  }
  running_.store(true);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void FleetRuntime::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  batcher_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  running_.store(false);
  std::lock_guard<std::mutex> fl(fleet_mu_);
  if (!cfg_.checkpoint_dir.empty()) write_checkpoints();
  publish_energy_once();
}

void FleetRuntime::publish_energy_once() {
  if (energy_published_) return;
  energy_published_ = true;
  auto& reg = telemetry::MetricsRegistry::global();
  for (int t = 0; t < tenant_count(); ++t)
    telemetry::publish_energy(
        reg, "tenant_" + cfg_.tenants[static_cast<std::size_t>(t)].name,
        tenant_energy_[static_cast<std::size_t>(t)]);
  telemetry::publish_energy(reg, "fleet_probe", energy_.probe);
}

std::future<FleetResponse> FleetRuntime::submit(int tenant,
                                                std::span<const float> image) {
  return submit(tenant, image, cfg_.default_deadline);
}

std::future<FleetResponse> FleetRuntime::submit(
    int tenant, std::span<const float> image,
    std::chrono::milliseconds deadline) {
  auto req = std::make_unique<FleetRequest>();
  req->tenant = tenant;
  req->image.assign(image.begin(), image.end());
  req->enqueued = Clock::now();
  if (deadline.count() > 0) {
    req->deadline = req->enqueued + deadline;
    req->token.set_deadline(req->deadline);
  }
  return batcher_.submit(std::move(req));
}

void FleetRuntime::dispatcher_loop() {
  // One batch buffer for the life of the dispatcher: next_batch fills it in
  // place and process_batch takes it by reference, so steady-state dispatch
  // reuses the same capacity instead of allocating a vector per batch.
  std::vector<std::unique_ptr<FleetRequest>> batch;
  while (true) {
    batcher_.next_batch(batch);
    if (batch.empty()) return;  // closed and fully drained
    batches_ctr_->add();
    process_batch(batch);
  }
}

std::unique_ptr<core::EvalContext> FleetRuntime::acquire_context() {
  {
    std::lock_guard<std::mutex> cl(ctx_mu_);
    if (!ctx_pool_.empty()) {
      std::unique_ptr<core::EvalContext> ctx = std::move(ctx_pool_.back());
      ctx_pool_.pop_back();
      return ctx;
    }
  }
  // Pool dry: build a context bound to the union of every path's scratch
  // bounds, so it serves any shard AND the ADC fallback without ever
  // re-binding (binding is capacity-based — see EvalContext::covers).
  auto ctx = std::make_unique<core::EvalContext>();
  core::ScratchPlan merged;
  for (const Shard& sh : shards_) merged.merge(sh.net->plan().scratch);
  if (fallback_ != nullptr) merged.merge(fallback_->scratch_plan());
  ctx->bind(merged);
  return ctx;
}

void FleetRuntime::release_context(std::unique_ptr<core::EvalContext> ctx) {
  std::lock_guard<std::mutex> cl(ctx_mu_);
  ctx_pool_.push_back(std::move(ctx));
}

void FleetRuntime::record_failover(int tenant, int home, int to) {
  failovers_.push_back({total_dispatched_, tenant, home, to});
  failovers_ctr_->add();
}

void FleetRuntime::process_batch(
    std::vector<std::unique_ptr<FleetRequest>>& batch) {
  telemetry::Span span("fleet.batch");
  std::lock_guard<std::mutex> fl(fleet_mu_);
  const int nshards = shard_count();
  // Persistent segment buffer (capacity survives across batches) plus
  // headroom top-ups for the logs the hot path appends to — growth happens
  // here, never inside the measured evaluation.
  std::vector<Pending>& seg = seg_;
  seg.clear();
  seg.reserve(batch.size());
  if (failovers_.capacity() - failovers_.size() < kLogHeadroom)
    failovers_.reserve(failovers_.size() + 4 * kLogHeadroom);
  for (std::vector<double>& lat : tenant_latencies_)
    if (lat.capacity() - lat.size() < kLogHeadroom)
      lat.reserve(lat.size() + 4 * kLogHeadroom);

  for (std::unique_ptr<FleetRequest>& reqp : batch) {
    // 1. Storm strikes that came due land before the next dispatch. The
    // segment must flush first: pending evaluations were assigned against
    // the pre-strike weights.
    while (storm_cursor_ < storm_.events.size() &&
           storm_.events[storm_cursor_].at_dispatched <= total_dispatched_) {
      flush(seg);
      const StormEvent& ev = storm_.events[storm_cursor_];
      Shard& hit = shards_[static_cast<std::size_t>(ev.shard)];
      apply_fault(*hit.net, ev.fault, storm_.seed,
                  static_cast<int>(storm_cursor_));
      if (ev.duration > 0) {
        hit.active_storm = static_cast<std::int64_t>(storm_cursor_);
        hit.storm_until = ev.at_dispatched + ev.duration;
      }
      ++storm_cursor_;
    }

    // 2. Route: home replica by ticket, ring failover to the next closed
    // shard, then the shared ADC fallback, then shed.
    const std::uint64_t ticket = next_ticket_++;
    const int home = static_cast<int>(ticket % static_cast<std::uint64_t>(nshards));
    int target = -1;
    for (int k = 0; k < nshards; ++k) {
      const int cand = (home + k) % nshards;
      if (shards_[static_cast<std::size_t>(cand)].breaker.state() ==
          BreakerState::kClosed) {
        target = cand;
        break;
      }
    }

    Pending p;
    p.req = std::move(reqp);
    p.ticket = ticket;
    const int tenant = p.req->tenant;

    // Dispatch-time mirror of the stride scheduler (see fleet.hpp).
    const std::size_t ti = static_cast<std::size_t>(tenant);
    manifest_gpass_ = manifest_passes_[ti];
    manifest_passes_[ti] += 1.0 / cfg_.tenants[ti].weight;

    ++total_dispatched_;
    if (target >= 0) {
      if (target != home) record_failover(tenant, home, target);
      Shard& sh = shards_[static_cast<std::size_t>(target)];
      p.shard = target;
      p.sequence = sh.snap.next_sequence++;
      ++sh.snap.requests_served;
      seg.push_back(std::move(p));
    } else if (fallback_ != nullptr) {
      record_failover(tenant, home, kFallbackPath);
      p.shard = kFallbackPath;
      ++fallback_served_;
      seg.push_back(std::move(p));
    } else {
      record_failover(tenant, home, kShedPath);
      ++shed_;
      batcher_.with_admission([&](AdmissionController& adm) {
        TenantCounters& c = adm.counters(tenant);
        ++c.served;
        ++c.rejected;
      });
      FleetResponse r;
      r.status = FleetResponseStatus::kRejected;
      r.error = ErrorCode::kShedding;
      r.shard = kShedPath;
      complete(p, std::move(r));
    }

    // 3. Sentinel probe on the serving shard at its own cadence.
    if (target >= 0) {
      Shard& sh = shards_[static_cast<std::size_t>(target)];
      if (sh.breaker.state() == BreakerState::kClosed &&
          sh.snap.requests_served - sh.last_probe_served >=
              static_cast<std::uint64_t>(sh.sentinel.config().probe_every)) {
        sh.last_probe_served = sh.snap.requests_served;
        run_probe(target, seg);
      }
    }

    // 4. Parked shards periodically re-attempt tier-1 repair, clocked on
    // the fleet dispatch counter (their own served counter is frozen).
    for (int k = 0; k < nshards; ++k) {
      Shard& sh = shards_[static_cast<std::size_t>(k)];
      const BreakerState st = sh.breaker.state();
      if ((st == BreakerState::kFallback || st == BreakerState::kShedding) &&
          total_dispatched_ - sh.last_reattempt_dispatched >=
              static_cast<std::uint64_t>(cfg_.breaker.reattempt_interval)) {
        sh.last_reattempt_dispatched = total_dispatched_;
        flush(seg);  // repair mutates the shard's weights
        try_reopen(k);
      }
    }

    // 5. Durable checkpoint set. Flush first so every dispatched request's
    // energy bill is inside the manifest — a resumed run re-dispatches
    // nothing before this counter, so nothing may be half-billed.
    if (cfg_.checkpoint_every > 0 &&
        total_dispatched_ - last_checkpoint_dispatched_ >=
            static_cast<std::uint64_t>(cfg_.checkpoint_every)) {
      last_checkpoint_dispatched_ = total_dispatched_;
      flush(seg);
      write_checkpoints();
    }
  }
  flush(seg);
}

void FleetRuntime::flush(std::vector<Pending>& seg) {
  if (seg.empty()) return;
  const int n = static_cast<int>(seg.size());

  std::vector<Outcome>& out = out_;
  out.assign(static_cast<std::size_t>(n), Outcome{});

  // Sparsity-enabled shards produce per-image varying bills (the
  // activation-proportional row charge, docs/sparsity.md), so their items
  // are metered live into a per-item accumulator during evaluation; dense
  // shards and the ADC fallback keep the flat bulk charge below.
  bool any_sparse = false;
  for (const Shard& sh : shards_)
    if (sh.net->sparsity_enabled()) {
      any_sparse = true;
      break;
    }
  std::vector<telemetry::EnergyAccum>& item_e = item_energy_;
  if (any_sparse)
    item_e.assign(static_cast<std::size_t>(n), telemetry::EnergyAccum{});

  // One deterministic parallel evaluation over the segment: pool-checked-out
  // plan-bound contexts, per-item counter-based RNG streams, no metering on
  // the hot path unless the shard runs sparse (dense energy is bulk-charged
  // below at the price-list rate). Post-warmup chunks run under the
  // allocation guard — the zero-alloc contract's measurement
  // (docs/plans.md §4).
  const bool measure = telemetry::alloc_counting_available() &&
                       total_dispatched_ > kAllocWarmupDispatches;
  exec::parallel_for_chunks(n, kBatchGrain, [&](int lo, int hi) {
    std::unique_ptr<core::EvalContext> ctx = acquire_context();
    const auto eval_items = [&](core::EvalContext& c) {
      for (int i = lo; i < hi; ++i) {
        Pending& p = seg[static_cast<std::size_t>(i)];
        c.cancel = &p.req->token;
        const bool meter_item =
            p.shard >= 0 &&
            shards_[static_cast<std::size_t>(p.shard)].net->sparsity_enabled();
        if (meter_item) {
          c.meter = &sei_meter_;
          c.energy = &item_e[static_cast<std::size_t>(i)];
        }
        Result<int> res =
            p.shard >= 0
                ? shards_[static_cast<std::size_t>(p.shard)].net->try_predict(
                      p.req->image, c, static_cast<long long>(p.sequence))
                : fallback_->try_predict(p.req->image, c);
        c.cancel = nullptr;
        c.meter = nullptr;
        c.energy = nullptr;
        Outcome& o = out[static_cast<std::size_t>(i)];
        if (res.ok()) {
          o.ok = true;
          o.label = res.value();
        } else {
          o.err = res.code();
        }
      }
    };
    if (measure) {
      std::uint64_t allocs;
      {
        telemetry::AllocGuard guard;
        eval_items(*ctx);
        allocs = guard.count();
      }
      hot_allocs_.fetch_add(allocs, std::memory_order_relaxed);
      alloc_measured_.fetch_add(static_cast<std::uint64_t>(hi - lo),
                                std::memory_order_relaxed);
    } else {
      eval_items(*ctx);
    }
    release_context(std::move(ctx));
  });

  // Energy: each completed evaluation is billed once. Dense-shard and
  // ADC-fallback answers cost the flat per-picture price (bulk-charged per
  // tenant); sparse-shard answers carry their live-metered accumulator,
  // merged in segment order so tenant bills are deterministic at any
  // thread count. Abandoned mid-eval work (deadline/cancel) is not billed
  // — the accounting is per delivered answer, and billing partial stage
  // walks would make tenant bills timing-dependent; a cancelled item's
  // partial accumulator is simply dropped.
  const int nt = tenant_count();
  std::vector<std::uint64_t>& sei_n = sei_n_;
  std::vector<std::uint64_t>& adc_n = adc_n_;
  sei_n.assign(static_cast<std::size_t>(nt), 0);
  adc_n.assign(static_cast<std::size_t>(nt), 0);
  for (int i = 0; i < n; ++i) {
    const Pending& p = seg[static_cast<std::size_t>(i)];
    if (!out[static_cast<std::size_t>(i)].ok) continue;
    const std::size_t ti = static_cast<std::size_t>(p.req->tenant);
    if (p.shard >= 0 &&
        shards_[static_cast<std::size_t>(p.shard)].net->sparsity_enabled()) {
      const telemetry::EnergyAccum& e = item_e[static_cast<std::size_t>(i)];
      tenant_energy_[ti].merge(e);
      energy_.sei.merge(e);
    } else if (p.shard >= 0) {
      ++sei_n[ti];
    } else {
      ++adc_n[ti];
    }
  }
  for (int t = 0; t < nt; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (sei_n[ti] > 0) {
      sei_meter_.charge_stages(0, sei_meter_.stage_count(), sei_n[ti],
                               tenant_energy_[ti]);
      tenant_energy_[ti].images += sei_n[ti];
      sei_meter_.charge_stages(0, sei_meter_.stage_count(), sei_n[ti],
                               energy_.sei);
      energy_.sei.images += sei_n[ti];
    }
    if (adc_n[ti] > 0) {
      adc_meter_.charge_stages(0, adc_meter_.stage_count(), adc_n[ti],
                               tenant_energy_[ti]);
      tenant_energy_[ti].images += adc_n[ti];
      adc_meter_.charge_stages(0, adc_meter_.stage_count(), adc_n[ti],
                               energy_.adc);
      energy_.adc.images += adc_n[ti];
    }
  }

  // Admission bookkeeping in one lock hold: quota billing deltas plus
  // per-tenant outcome counters for the whole segment.
  std::vector<std::uint64_t>& ok_n = ok_n_;
  std::vector<std::uint64_t>& degraded_n = degraded_n_;
  std::vector<std::uint64_t>& rejected_n = rejected_n_;
  ok_n.assign(static_cast<std::size_t>(nt), 0);
  degraded_n.assign(static_cast<std::size_t>(nt), 0);
  rejected_n.assign(static_cast<std::size_t>(nt), 0);
  for (int i = 0; i < n; ++i) {
    const Pending& p = seg[static_cast<std::size_t>(i)];
    const Outcome& o = out[static_cast<std::size_t>(i)];
    const std::size_t ti = static_cast<std::size_t>(p.req->tenant);
    if (!o.ok)
      ++rejected_n[ti];
    else if (p.shard >= 0)
      ++ok_n[ti];
    else
      ++degraded_n[ti];
  }
  batcher_.with_admission([&](AdmissionController& adm) {
    for (int t = 0; t < nt; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      TenantCounters& c = adm.counters(t);
      c.served += ok_n[ti] + degraded_n[ti] + rejected_n[ti];
      c.ok += ok_n[ti];
      c.degraded += degraded_n[ti];
      c.rejected += rejected_n[ti];
      const double delta = tenant_energy_[ti].joules() - billed_local_j_[ti];
      if (delta > 0.0) {
        adm.charge_energy(t, delta);
        billed_local_j_[ti] = tenant_energy_[ti].joules();
      }
    }
  });

  // Complete promises in segment (dispatch) order.
  for (int i = 0; i < n; ++i) {
    Pending& p = seg[static_cast<std::size_t>(i)];
    const Outcome& o = out[static_cast<std::size_t>(i)];
    FleetResponse r;
    if (o.ok) {
      r.status = p.shard >= 0 ? FleetResponseStatus::kOk
                              : FleetResponseStatus::kDegraded;
      r.label = o.label;
    } else {
      r.status = FleetResponseStatus::kRejected;
      r.error = o.err;
    }
    r.shard = p.shard;
    r.sequence = p.sequence;
    complete(p, std::move(r));
  }
  seg.clear();
}

void FleetRuntime::complete(Pending& p, FleetResponse r) {
  const int tenant = p.req->tenant;
  r.tenant = tenant;
  r.ticket = p.ticket;
  r.latency_ms = ms_between(p.req->enqueued, Clock::now());
  const std::size_t ti = static_cast<std::size_t>(tenant);
  TenantMetrics& tm = tenant_metrics_[ti];
  tm.latency->observe(r.latency_ms);
  switch (r.status) {
    case FleetResponseStatus::kOk: tm.ok->add(); break;
    case FleetResponseStatus::kDegraded: tm.degraded->add(); break;
    case FleetResponseStatus::kRejected: tm.rejected->add(); break;
  }
  tenant_latencies_[ti].push_back(r.latency_ms);
  p.req->promise.set_value(std::move(r));
}

void FleetRuntime::run_probe(int k, std::vector<Pending>& seg) {
  telemetry::Span span("fleet.probe");
  probes_ctr_->add();
  Shard& sh = shards_[static_cast<std::size_t>(k)];
  const std::uint64_t cursor = sh.snap.probe_cursor++;
  const int probe = static_cast<int>(
      cursor % static_cast<std::uint64_t>(sh.sentinel.probe_count()));
  telemetry::EnergyAccum eacc;
  maint_ctx_.meter = &sei_meter_;
  maint_ctx_.energy = &eacc;
  const int predicted =
      sh.net
          ->try_predict(sh.sentinel.image(probe), maint_ctx_,
                        kProbeIndexBase + static_cast<long long>(cursor))
          .value();  // no token attached: cannot fail
  maint_ctx_.meter = nullptr;
  maint_ctx_.energy = nullptr;
  energy_.probe.merge(eacc);
  sh.sentinel.record(predicted == sh.sentinel.label(probe));
  const double window = sh.sentinel.window_accuracy_pct();
  if (sh.breaker.should_trip(window, sh.sentinel.baseline_pct())) {
    flush(seg);  // the recovery ladder mutates this shard's weights
    run_recovery(k, window);
  }
}

double FleetRuntime::measure_probe_accuracy(Shard& sh) {
  const std::uint64_t serial = sh.measure_serial++;
  const int n = sh.sentinel.probe_count();
  int correct = 0;
  telemetry::EnergyAccum eacc;
  maint_ctx_.meter = &sei_meter_;
  maint_ctx_.energy = &eacc;
  for (int i = 0; i < n; ++i) {
    const long long index =
        kMeasureIndexBase + static_cast<long long>(serial) * n + i;
    if (sh.net->try_predict(sh.sentinel.image(i), maint_ctx_, index).value() ==
        sh.sentinel.label(i))
      ++correct;
  }
  maint_ctx_.meter = nullptr;
  maint_ctx_.energy = nullptr;
  energy_.probe.merge(eacc);
  return 100.0 * correct / static_cast<double>(n);
}

void FleetRuntime::run_recovery(int k, double window_acc) {
  telemetry::Span span("fleet.recovery");
  Shard& sh = shards_[static_cast<std::size_t>(k)];
  ShardMetrics& sm = shard_metrics_[static_cast<std::size_t>(k)];
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t served = sh.snap.requests_served;
  sh.breaker.trip(served, "sentinel window dropped to " +
                              std::to_string(window_acc) + "%");
  sm.open->add();
  RecoveryRecord rec;
  rec.tripped_at_served = served;
  rec.acc_before_pct = window_acc;

  bool closed = false;
  double acc = window_acc;

  // Tier 0: re-measure with backoff — transient noise clears itself.
  for (int attempt = 0; attempt < cfg_.breaker.max_retries && !closed;
       ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(cfg_.breaker.retry_backoff_ms << attempt));
    acc = measure_probe_accuracy(sh);
    if (sh.breaker.recovered(acc, sh.sentinel.baseline_pct())) {
      close_breaker(k, 0, "re-measure recovered (transient)");
      closed = true;
    }
  }

  // Tier 1: remap through the repair hook + recalibrate thresholds.
  if (!closed) {
    rec.tier_reached = 1;
    closed = repair_and_close(k, "repair + recalibration restored accuracy",
                              acc);
  }

  // Tier 2/3: park the shard; traffic fails over to its replicas (and only
  // past them to the shared ADC path / shedding). try_reopen() keeps
  // re-attempting tier 1 every reattempt_interval fleet dispatches.
  if (!closed) {
    if (fallback_ != nullptr) {
      rec.tier_reached = 2;
      sh.breaker.enter_fallback(served, "parked; traffic fails over");
      sm.fallback->add();
    } else {
      rec.tier_reached = 3;
      sh.breaker.enter_shedding(served, "parked; traffic fails over");
      sm.shedding->add();
    }
    sh.last_reattempt_dispatched = total_dispatched_;
  }

  rec.closed = closed;
  rec.resolved_at_served = served;
  rec.acc_after_pct = acc;
  rec.duration_ms = ms_between(t0, Clock::now());
  sh.recoveries.push_back(rec);
}

bool FleetRuntime::repair_and_close(int k, const char* why, double& acc) {
  Shard& sh = shards_[static_cast<std::size_t>(k)];
  const bool repaired = attempt_repair(sh);
  acc = measure_probe_accuracy(sh);
  if (!repaired || !sh.breaker.recovered(acc, sh.sentinel.baseline_pct()))
    return false;
  close_breaker(k, 1, why);
  return true;
}

bool FleetRuntime::attempt_repair(Shard& sh) {
  telemetry::Span span("fleet.repair");
  // Remapping reprograms every stage from the quantized weights (fresh
  // crossbars, repair hook re-applied), clearing in-service damage the way
  // a field re-flash would.
  for (int s = 0; s < sh.net->stage_count(); ++s)
    sh.net->remap_layer(
        s, core::default_row_order(qnet_.layers[static_cast<std::size_t>(s)],
                                   sh.net->config()));
  // A storm that is still overhead re-lands its damage on the fresh map —
  // repair cannot outrun the environment; only the passage of (dispatch)
  // time can. The identical RNG stream reproduces the identical damage, so
  // a resumed run re-repairs to the same state.
  if (sh.active_storm >= 0) {
    if (total_dispatched_ < sh.storm_until) {
      const StormEvent& ev =
          storm_.events[static_cast<std::size_t>(sh.active_storm)];
      apply_fault(*sh.net, ev.fault, storm_.seed,
                  static_cast<int>(sh.active_storm));
    } else {
      sh.active_storm = -1;
    }
  }
  const Result<reliability::CalibrationReport> cal =
      reliability::try_recalibrate_thresholds(*sh.net, calib_,
                                              cfg_.calibration);
  if (!cal.ok())
    std::fprintf(stderr, "warning: shard recalibration failed: %s\n",
                 cal.error().message.c_str());
  return cal.ok();
}

void FleetRuntime::close_breaker(int k, int tier, const char* why) {
  Shard& sh = shards_[static_cast<std::size_t>(k)];
  sh.breaker.close(sh.snap.requests_served, tier, why);
  sh.sentinel.reset_window();
  shard_metrics_[static_cast<std::size_t>(k)].closed->add();
}

void FleetRuntime::try_reopen(int k) {
  Shard& sh = shards_[static_cast<std::size_t>(k)];
  const Clock::time_point t0 = Clock::now();
  double acc = 0.0;
  if (!repair_and_close(k, "periodic repair restored accuracy", acc)) return;
  if (!sh.recoveries.empty() && !sh.recoveries.back().closed) {
    RecoveryRecord& rec = sh.recoveries.back();
    rec.closed = true;
    rec.resolved_at_served = sh.snap.requests_served;
    rec.acc_after_pct = acc;
    rec.duration_ms += ms_between(t0, Clock::now());
  }
}

void FleetRuntime::write_checkpoints() {
  telemetry::Span span("fleet.checkpoint");
  // Shard files first, manifest last: the manifest is the commit point of
  // the set, so a crash mid-sequence leaves the previous manifest pointing
  // at a consistent (older) fleet state. Every attempt targets
  // manifest_epoch_ + 1 — NOT a per-shard increment — so shard files land
  // in the slot the committed manifest does *not* point at, and a retry
  // after a failed or torn commit overwrites only that uncommitted slot.
  // The committed set stays byte-for-byte intact until the new manifest
  // rename lands, whatever offset a crash hits (docs/chaos.md).
  const std::uint64_t target_epoch = manifest_epoch_ + 1;
  for (Shard& sh : shards_) {
    RuntimeSnapshot s = sh.snap;
    s.checkpoint_epoch = target_epoch;
    const Status st = save_checkpoint_with_retry(
        *sh.net, s, shard_slot_path(sh.ckpt_base, target_epoch),
        cfg_.checkpoint_retry);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: %s; fleet checkpoint set skipped\n",
                   st.error().message.c_str());
      return;
    }
  }
  const Status ms = save_manifest(target_epoch);
  if (!ms.ok()) {
    std::fprintf(stderr, "warning: %s\n", ms.error().message.c_str());
    return;
  }
  manifest_epoch_ = target_epoch;
  for (Shard& sh : shards_) sh.snap.checkpoint_epoch = target_epoch;
  checkpoints_ctr_->add();
  ++checkpoints_;
}

Status FleetRuntime::save_manifest(std::uint64_t epoch) {
  // Tenant energy bills from the admission side (base + local billing).
  const int nt = tenant_count();
  std::vector<double> energy_j(static_cast<std::size_t>(nt), 0.0);
  batcher_.with_admission([&](AdmissionController& adm) {
    for (int t = 0; t < nt; ++t)
      energy_j[static_cast<std::size_t>(t)] = adm.counters(t).energy_j;
  });
  try {
    BinaryWriter w(manifest_path());
    w.write_u64(kFleetMagic);
    w.write_u32(kFleetVersion);
    w.write_u64(next_ticket_);
    w.write_u64(total_dispatched_);
    w.write_u32(static_cast<std::uint32_t>(nt));
    for (int t = 0; t < nt; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      w.write_string(cfg_.tenants[ti].name);
      w.write_f64(manifest_passes_[ti]);
      w.write_f64(energy_j[ti]);
    }
    w.write_f64(manifest_gpass_);
    w.write_u32(static_cast<std::uint32_t>(shards_.size()));
    for (const Shard& sh : shards_) {
      w.write_u64(sh.snap.next_sequence);
      w.write_u64(sh.snap.requests_served);
      w.write_u64(sh.snap.probe_cursor);
      // The epoch this commit targets — on load it selects the slot file.
      w.write_u64(epoch);
      w.write_u32(static_cast<std::uint32_t>(sh.breaker.state()));
      w.write_i32(sh.breaker.trips());
      w.write_f64(sh.sentinel.baseline_pct());
      w.write_u64(sh.last_probe_served);
      w.write_u64(sh.last_reattempt_dispatched);
      w.write_u64(sh.measure_serial);
      w.write_u64(static_cast<std::uint64_t>(sh.active_storm + 1));  // 0=none
      w.write_u64(sh.storm_until);
      w.write_u8_vec(sh.sentinel.window_outcomes());
    }
    w.commit();
    return ok_status();
  } catch (const std::exception& e) {
    return Error{ErrorCode::kIo,
                 std::string("fleet manifest save failed: ") + e.what()};
  }
}

bool FleetRuntime::try_resume() {
  const std::string path = manifest_path();
  if (!file_exists(path)) return false;
  const auto cold = [](const std::string& why) {
    std::fprintf(stderr, "warning: %s; starting cold\n", why.c_str());
    return false;
  };
  try {
    BinaryReader r(path);
    r.verify_crc();
    if (r.read_u64() != kFleetMagic)
      return cold("bad fleet manifest magic: " + path);
    if (r.read_u32() != kFleetVersion)
      return cold("unsupported fleet manifest version: " + path);
    const std::uint64_t next_ticket = r.read_u64();
    const std::uint64_t total_dispatched = r.read_u64();
    const int nt = tenant_count();
    if (r.read_u32() != static_cast<std::uint32_t>(nt))
      return cold("fleet manifest tenant count mismatch: " + path);
    std::vector<double> passes(static_cast<std::size_t>(nt));
    std::vector<double> energy_j(static_cast<std::size_t>(nt));
    for (int t = 0; t < nt; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      if (r.read_string() != cfg_.tenants[ti].name)
        return cold("fleet manifest tenant name mismatch: " + path);
      passes[ti] = r.read_f64();
      energy_j[ti] = r.read_f64();
    }
    const double gpass = r.read_f64();
    if (r.read_u32() != static_cast<std::uint32_t>(shards_.size()))
      return cold("fleet manifest shard count mismatch: " + path);
    struct ShardRecord {
      RuntimeSnapshot snap;
      std::uint32_t state = 0;
      std::int32_t trips = 0;
      double baseline_pct = 0.0;
      std::uint64_t last_probe_served = 0;
      std::uint64_t last_reattempt_dispatched = 0;
      std::uint64_t measure_serial = 0;
      std::int64_t active_storm = -1;
      std::uint64_t storm_until = 0;
      std::vector<std::uint8_t> window;
    };
    std::vector<ShardRecord> recs(shards_.size());
    for (ShardRecord& rec : recs) {
      rec.snap.next_sequence = r.read_u64();
      rec.snap.requests_served = r.read_u64();
      rec.snap.probe_cursor = r.read_u64();
      rec.snap.checkpoint_epoch = r.read_u64();
      rec.state = r.read_u32();
      rec.trips = r.read_i32();
      rec.baseline_pct = r.read_f64();
      rec.last_probe_served = r.read_u64();
      rec.last_reattempt_dispatched = r.read_u64();
      rec.measure_serial = r.read_u64();
      rec.active_storm = static_cast<std::int64_t>(r.read_u64()) - 1;
      rec.storm_until = r.read_u64();
      rec.window = r.read_u8_vec();
      if (rec.state > static_cast<std::uint32_t>(BreakerState::kShedding))
        return cold("fleet manifest breaker state out of range: " + path);
      if (rec.active_storm >= 0 &&
          static_cast<std::size_t>(rec.active_storm) >= storm_.events.size())
        return cold("fleet manifest names a storm event not in the schedule: " +
                    path);
    }
    if (r.remaining() != 0)
      return cold("trailing bytes after fleet manifest payload: " + path);
    // One commit writes the whole set at one epoch; diverging records mean
    // a manifest this code never produced.
    for (const ShardRecord& rec : recs)
      if (rec.snap.checkpoint_epoch != recs[0].snap.checkpoint_epoch)
        return cold("fleet manifest shard epochs diverge: " + path);

    // Network weights per shard, from the slot the committed manifest
    // points at. A crash mid-commit may have left the *other* slot torn or
    // one epoch ahead — it is never read. The loaded file must echo the
    // manifest's epoch; anything else is a set this manifest didn't commit.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      Shard& sh = shards_[k];
      const std::uint64_t epoch = recs[k].snap.checkpoint_epoch;
      const Result<RuntimeSnapshot> res =
          load_checkpoint(*sh.net, shard_slot_path(sh.ckpt_base, epoch));
      if (!res.ok()) return cold(res.error().message);
      if (res.value().checkpoint_epoch != epoch)
        return cold("shard " + std::to_string(k) + " slot file epoch " +
                    std::to_string(res.value().checkpoint_epoch) +
                    " != manifest epoch " + std::to_string(epoch));
    }

    manifest_epoch_ = recs[0].snap.checkpoint_epoch;
    next_ticket_ = next_ticket;
    total_dispatched_ = total_dispatched;
    last_checkpoint_dispatched_ = total_dispatched;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      Shard& sh = shards_[k];
      const ShardRecord& rec = recs[k];
      // Manifest counters are authoritative: the manifest commits the set,
      // and the slot check above proved the loaded file belongs to it.
      sh.snap = rec.snap;
      sh.breaker.restore(static_cast<BreakerState>(rec.state), rec.trips);
      sh.sentinel.set_baseline_pct(rec.baseline_pct);
      sh.sentinel.restore_window(rec.window);
      sh.last_probe_served = rec.last_probe_served;
      sh.last_reattempt_dispatched = rec.last_reattempt_dispatched;
      sh.measure_serial = rec.measure_serial;
      sh.active_storm = rec.active_storm;
      sh.storm_until = rec.storm_until;
    }
    manifest_passes_ = passes;
    manifest_gpass_ = gpass;
    billed_local_j_.assign(static_cast<std::size_t>(nt), 0.0);
    batcher_.with_admission([&](AdmissionController& adm) {
      for (int t = 0; t < nt; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        adm.restore_scheduler(t, passes[ti], energy_j[ti]);
      }
      adm.restore_global_pass(gpass);
    });
    return true;
  } catch (const std::exception& e) {
    return cold(std::string("fleet manifest load failed: ") + e.what());
  }
}

FleetStats FleetRuntime::stats() const {
  FleetStats fs;
  fs.batcher = batcher_.stats();
  const int nt = tenant_count();
  fs.tenants.resize(static_cast<std::size_t>(nt));
  batcher_.with_admission([&](AdmissionController& adm) {
    for (int t = 0; t < nt; ++t)
      fs.tenants[static_cast<std::size_t>(t)] = adm.counters(t);
  });
  fs.alloc_measured_requests = alloc_measured_.load(std::memory_order_relaxed);
  fs.serve_request_allocs = hot_allocs_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> fl(fleet_mu_);
  fs.tenant_metered_j.reserve(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t)
    fs.tenant_metered_j.push_back(
        tenant_energy_[static_cast<std::size_t>(t)].joules());
  fs.total_dispatched = total_dispatched_;
  fs.fallback_served = fallback_served_;
  fs.shed = shed_;
  fs.failovers = failovers_.size();
  fs.checkpoints = checkpoints_;
  fs.shards.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    ShardStats ss;
    ss.served = sh.snap.requests_served;
    ss.state = sh.breaker.state();
    ss.trips = sh.breaker.trips();
    ss.baseline_pct = sh.sentinel.baseline_pct();
    ss.window_pct = sh.sentinel.window_accuracy_pct();
    fs.shards.push_back(ss);
  }
  return fs;
}

EnergySummary FleetRuntime::energy() const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return energy_;
}

std::vector<double> FleetRuntime::tenant_latencies_ms(int t) const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return tenant_latencies_.at(static_cast<std::size_t>(t));
}

std::vector<BreakerEvent> FleetRuntime::shard_breaker_events(int k) const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return shards_.at(static_cast<std::size_t>(k)).breaker.events();
}

std::vector<RecoveryRecord> FleetRuntime::shard_recoveries(int k) const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return shards_.at(static_cast<std::size_t>(k)).recoveries;
}

std::vector<FailoverEvent> FleetRuntime::failovers() const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return failovers_;
}

BreakerState FleetRuntime::shard_state(int k) const {
  std::lock_guard<std::mutex> fl(fleet_mu_);
  return shards_.at(static_cast<std::size_t>(k)).breaker.state();
}

}  // namespace sei::serve
