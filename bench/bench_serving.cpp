// Fleet serving soak: open-loop Poisson arrivals from mixed tenants against
// a sharded FleetRuntime, with scripted fault storms that stuck-fault whole
// shards mid-run. Reports per-tenant p50/p99 latency, availability, the
// Jain fairness index over weight-normalized service, failover/recovery
// timelines and checkpoint activity (schema sei-serving-v3).
//
// Arrival modes:
//   --rate > 0   open-loop Poisson at that many requests/second (arrival
//                times are independent of service times — queueing theory's
//                honest overload model);
//   --rate 0     closed-loop with a bounded in-flight window (--window),
//                i.e. sustained saturation — the mode for fairness gates.
//
// Gates (--min-availability, --min-fairness, --max-p99-ms,
// --max-request-allocs, --strict) make the bench CI-enforceable: the JSON is
// always written, the exit code says pass/fail. --strict is the one-shard
// serving contract (docs/serving.md §5): the first breaker trip at or after
// the --storm-at strike comes within 200 served requests, and the breaker
// closes again with accuracy within 2 points of the baseline, no restart.
//
// Flags: --network, --requests, --shards, --tenants "A:2,B:1", --queue,
// --quota-j, --rate, --window, --arrival-seed, --max-batch, --linger-us,
// --deadline-ms, --probe-every, --checkpoint-every, --checkpoint-dir,
// --storm-at, --storm-shard, --storm-stuck, --storm-duration, --json,
// gates above.
// SIGINT/SIGTERM drain gracefully and still write the JSON.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "core/adc_network.hpp"
#include "exec/thread_pool.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "telemetry/alloc.hpp"
#include "telemetry/flags.hpp"
#include "workloads/pipeline.hpp"

using namespace sei;

namespace {

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * (static_cast<double>(v.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Per-tenant tallies harvested from the response stream itself (the
/// client's view — availability is judged on what clients got back).
struct TenantTally {
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  // Rejection breakout by cause — "rejected" alone can't distinguish a
  // shedding fleet from a quota-starved tenant or a deadline too tight.
  std::uint64_t shed = 0;            // kShedding
  std::uint64_t quota_rejected = 0;  // kQuotaExceeded
  std::uint64_t queue_full = 0;      // kQueueFull
  std::uint64_t other_rejected = 0;  // any remaining rejection code
  std::vector<double> latencies_ms;

  double availability_pct() const {
    return answered == 0 ? 100.0
                         : 100.0 * static_cast<double>(ok + degraded) /
                               static_cast<double>(answered);
  }
};

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string net_name = cli.get("network", "network2");
  const int requests = cli.get_int("requests", 20000, "requests to submit");
  const int nshards = cli.get_int("shards", 3, "SEI replica count");
  const std::string tenant_spec =
      cli.get("tenants", "A:2,B:1", "tenant weights, name:weight[,...]");
  const int queue_cap =
      cli.get_int("queue", 64, "per-tenant admission queue bound");
  const double quota_j =
      cli.get_double("quota-j", 0.0, "per-tenant energy quota in J (0 = off)");
  const double rate = cli.get_double(
      "rate", 0.0, "Poisson arrival rate in req/s (0 = closed loop)");
  const int window = cli.get_int(
      "window", 0, "closed-loop in-flight window (0 = queue * tenants)");
  const std::uint64_t arrival_seed = static_cast<std::uint64_t>(
      cli.get_int("arrival-seed", 20260808, "arrival-process seed"));
  const int max_batch =
      cli.get_int("max-batch", 16, "micro-batch coalescing bound");
  const int linger_us =
      cli.get_int("linger-us", 0, "micro-batch linger in microseconds");
  const int deadline_ms =
      cli.get_int("deadline-ms", 0, "per-request deadline (0 = none)");
  const int probe_every =
      cli.get_int("probe-every", 16, "served requests per sentinel probe");
  const int ckpt_every = cli.get_int(
      "checkpoint-every", 0, "dispatches per checkpoint set (0 = off)");
  const std::string ckpt_dir =
      cli.get("checkpoint-dir", "", "checkpoint directory (empty = none)");
  const int storm_at = cli.get_int(
      "storm-at", 0, "storm strike at this dispatch count (0 = off)");
  const int storm_shard =
      cli.get_int("storm-shard", 0, "shard the storm stuck-faults");
  const double storm_stuck =
      cli.get_double("storm-stuck", 0.25, "stuck fraction of the strike");
  const int storm_duration = cli.get_int(
      "storm-duration", 0,
      "dispatches the storm persists (repair re-lands damage; 0 = one-shot)");
  const double min_availability = cli.get_double(
      "min-availability", 0.0, "gate: fail below this availability % (0=off)");
  const double min_fairness = cli.get_double(
      "min-fairness", 0.0, "gate: fail below this Jain index (0 = off)");
  const double max_p99 = cli.get_double(
      "max-p99-ms", 0.0, "gate: fail above this per-tenant p99 (0 = off)");
  const int max_request_allocs = cli.get_int(
      "max-request-allocs", -1,
      "gate: fail when post-warmup hot-path heap allocations exceed this "
      "(-1 = off; 0 enforces the zero-alloc contract, docs/plans.md)");
  const bool strict = cli.get_bool(
      "strict", false,
      "gate: fail unless the one shard trips within 200 served requests of "
      "--storm-at and closes within 2 pts of baseline");
  const std::string json_path = cli.get("json", "BENCH_serving.json");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("fleet serving soak: latency, fairness, storm survival"))
    return 0;
  SEI_CHECK_MSG(requests > 0, "requests must be positive");
  SEI_CHECK_MSG(nshards > 0, "shards must be positive");
  // A shard counts served requests, the storm counts fleet dispatches: the
  // two agree up to the strike only when one healthy shard takes them all.
  SEI_CHECK_MSG(!strict || (nshards == 1 && storm_at > 0),
                "--strict needs --shards 1 and a --storm-at strike");

  install_shutdown_handler();

  data::DataBundle data = workloads::load_default_data(true);
  workloads::Artifacts art = workloads::prepare_workload(net_name, data, {});

  // Independently-mapped replicas: distinct seeds give each shard its own
  // device variation and read-noise streams, like distinct physical chips.
  reliability::RepairReport repair_report;
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> shard_ptrs;
  for (int k = 0; k < nshards; ++k) {
    core::HardwareConfig hw;
    hw.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    hw.spare_row_fraction = 0.1;  // tier-1 repair needs spares to remap onto
    nets.push_back(std::make_unique<core::SeiNetwork>(
        art.qnet, hw,
        reliability::make_repair_hook(reliability::RepairConfig{},
                                      &repair_report)));
    shard_ptrs.push_back(nets.back().get());
  }
  core::AdcConfig adc_cfg;
  const core::AdcNetwork fallback(art.qnet, adc_cfg, data.train);

  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs(tenant_spec);
  for (serve::TenantConfig& t : fc.tenants) {
    t.queue_capacity = queue_cap;
    t.energy_quota_j = quota_j;
  }
  const int ntenants = static_cast<int>(fc.tenants.size());
  fc.batcher.max_batch = max_batch;
  fc.batcher.linger = std::chrono::microseconds(linger_us);
  fc.default_deadline = std::chrono::milliseconds(deadline_ms);
  fc.checkpoint_every = ckpt_every;
  fc.checkpoint_dir = ckpt_dir;
  fc.sentinel.probe_every = probe_every;
  fc.calibration.max_images = 200;
  serve::FleetRuntime fleet(shard_ptrs, art.qnet, data.test, data.train, fc,
                            &fallback);
  if (storm_at > 0) {
    serve::StormSchedule storm;
    storm.events.push_back({static_cast<std::uint64_t>(storm_at), storm_shard,
                            {0, -1, storm_stuck, 1.0},
                            static_cast<std::uint64_t>(storm_duration)});
    fleet.set_storm(storm);
  }
  fleet.start();
  std::printf(
      "fleet soak: %d requests, %d shards, tenants %s, %s arrivals%s\n",
      requests, nshards, tenant_spec.c_str(),
      rate > 0.0 ? "poisson" : "closed-loop",
      fleet.resumed_from_checkpoint() ? " (resumed from checkpoint)" : "");

  const std::size_t per_image =
      data.test.images.numel() / static_cast<std::size_t>(data.test.size());
  auto image = [&](int i) {
    const int k = i % data.test.size();
    return std::span<const float>{
        data.test.images.data() + static_cast<std::size_t>(k) * per_image,
        per_image};
  };

  std::vector<TenantTally> tally(static_cast<std::size_t>(ntenants));
  struct Inflight {
    std::future<serve::FleetResponse> fut;
  };
  std::deque<Inflight> inflight;
  auto settle_front = [&] {
    serve::FleetResponse r = inflight.front().fut.get();
    inflight.pop_front();
    TenantTally& tt = tally[static_cast<std::size_t>(r.tenant)];
    ++tt.answered;
    tt.latencies_ms.push_back(r.latency_ms);
    switch (r.status) {
      case serve::FleetResponseStatus::kOk: ++tt.ok; break;
      case serve::FleetResponseStatus::kDegraded: ++tt.degraded; break;
      case serve::FleetResponseStatus::kRejected:
        ++tt.rejected;
        switch (r.error) {
          case ErrorCode::kDeadlineExceeded: ++tt.deadline_misses; break;
          case ErrorCode::kShedding: ++tt.shed; break;
          case ErrorCode::kQuotaExceeded: ++tt.quota_rejected; break;
          case ErrorCode::kQueueFull: ++tt.queue_full; break;
          default: ++tt.other_rejected; break;
        }
        break;
    }
  };

  using Clock = std::chrono::steady_clock;
  Rng arrivals = Rng::fork(arrival_seed, 0);
  const int inflight_cap =
      window > 0 ? window : std::max(1, queue_cap * ntenants);
  const Clock::time_point t_start = Clock::now();
  Clock::time_point next_arrival = t_start;
  int submitted = 0;
  for (; submitted < requests && !shutdown_requested(); ++submitted) {
    const int tenant = static_cast<int>(
        arrivals.below(static_cast<std::uint64_t>(ntenants)));
    if (rate > 0.0) {
      // Exponential inter-arrival: the open-loop clock never waits for
      // responses, so overload actually overloads.
      const double gap_s = -std::log(1.0 - arrivals.uniform()) / rate;
      next_arrival +=
          std::chrono::nanoseconds(static_cast<long long>(gap_s * 1e9));
      std::this_thread::sleep_until(next_arrival);
      while (!inflight.empty() &&
             inflight.front().fut.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready)
        settle_front();
    } else {
      while (static_cast<int>(inflight.size()) >= inflight_cap)
        settle_front();
    }
    inflight.push_back({fleet.submit(tenant, image(submitted))});
  }
  while (!inflight.empty()) settle_front();
  fleet.stop();  // drain + final checkpoint set + energy publish
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  const serve::FleetStats st = fleet.stats();
  const auto failovers = fleet.failovers();

  // Weight-normalized Jain fairness over delivered service.
  std::vector<double> normalized;
  for (int t = 0; t < ntenants; ++t) {
    const TenantTally& tt = tally[static_cast<std::size_t>(t)];
    normalized.push_back(
        static_cast<double>(tt.ok + tt.degraded) /
        fc.tenants[static_cast<std::size_t>(t)].weight);
  }
  const double fairness = serve::jain_fairness(normalized);

  std::uint64_t answered = 0, available = 0;
  double worst_p99 = 0.0;
  for (int t = 0; t < ntenants; ++t) {
    const TenantTally& tt = tally[static_cast<std::size_t>(t)];
    answered += tt.answered;
    available += tt.ok + tt.degraded;
    worst_p99 = std::max(worst_p99, percentile(tt.latencies_ms, 99.0));
  }
  const double availability =
      answered == 0 ? 100.0
                    : 100.0 * static_cast<double>(available) /
                          static_cast<double>(answered);

  std::printf("\n%.1f req/s over %.2f s  availability %.2f%%  jain %.4f  "
              "failovers %llu  checkpoints %llu\n",
              static_cast<double>(answered) / wall_s, wall_s, availability,
              fairness, static_cast<unsigned long long>(st.failovers),
              static_cast<unsigned long long>(st.checkpoints));
  for (int t = 0; t < ntenants; ++t) {
    const TenantTally& tt = tally[static_cast<std::size_t>(t)];
    std::printf("tenant %s (w=%.1f): answered %llu  ok %llu  degraded %llu  "
                "rejected %llu  p50 %.3f ms  p99 %.3f ms  avail %.2f%%  "
                "energy %.3g J\n",
                fc.tenants[static_cast<std::size_t>(t)].name.c_str(),
                fc.tenants[static_cast<std::size_t>(t)].weight,
                static_cast<unsigned long long>(tt.answered),
                static_cast<unsigned long long>(tt.ok),
                static_cast<unsigned long long>(tt.degraded),
                static_cast<unsigned long long>(tt.rejected),
                percentile(tt.latencies_ms, 50.0),
                percentile(tt.latencies_ms, 99.0), tt.availability_pct(),
                st.tenants[static_cast<std::size_t>(t)].energy_j);
  }
  for (int k = 0; k < nshards; ++k) {
    const serve::ShardStats& ss = st.shards[static_cast<std::size_t>(k)];
    std::printf("shard %d: served %llu  state %s  trips %d  baseline %.2f%%\n",
                k, static_cast<unsigned long long>(ss.served),
                serve::to_string(ss.state), ss.trips, ss.baseline_pct);
    for (const serve::RecoveryRecord& r : fleet.shard_recoveries(k))
      std::printf("  recovery: tripped @%llu (%.2f%%), %s @%llu "
                  "(dispatched %llu, tier %d, %.2f%%, %.1f ms)\n",
                  static_cast<unsigned long long>(r.tripped_at_served),
                  r.acc_before_pct, r.closed ? "closed" : "parked",
                  static_cast<unsigned long long>(r.resolved_at_served),
                  static_cast<unsigned long long>(r.resolved_at_dispatched),
                  r.tier_reached, r.acc_after_pct, r.duration_ms);
  }

  JsonWriter j(json_path);
  j.begin_object();
  j.kv("schema", "sei-serving-v3");
  j.kv("network", net_name);
  j.kv("requests", static_cast<long long>(requests));
  j.kv("submitted", static_cast<long long>(submitted));
  j.kv("shards", static_cast<long long>(nshards));
  j.kv("tenant_spec", tenant_spec);
  j.kv("rate_per_s", rate);
  j.kv("max_batch", static_cast<long long>(max_batch));
  j.kv("deadline_ms", static_cast<long long>(deadline_ms));
  j.kv("storm_at", static_cast<long long>(storm_at));
  j.kv("storm_shard", static_cast<long long>(storm_shard));
  j.kv("storm_stuck", storm_stuck);
  j.kv("storm_duration", static_cast<long long>(storm_duration));
  j.kv("interrupted", shutdown_requested());
  j.kv("resumed_from_checkpoint", fleet.resumed_from_checkpoint());
  j.kv("wall_s", wall_s);
  j.kv("throughput_per_s", static_cast<double>(answered) / wall_s);
  j.kv("availability_pct", availability);
  j.kv("jain_fairness", fairness);
  // Zero-alloc contract evidence: post-warmup heap allocations on the
  // evaluation hot path (docs/plans.md §4). alloc_counting distinguishes a
  // true zero from "counters compiled out".
  j.kv("alloc_counting", telemetry::alloc_counting_available());
  j.kv("alloc_measured_requests",
       static_cast<long long>(st.alloc_measured_requests));
  j.kv("serve_request_allocs",
       static_cast<long long>(st.serve_request_allocs));
  j.key("tenants");
  j.begin_array();
  for (int t = 0; t < ntenants; ++t) {
    const TenantTally& tt = tally[static_cast<std::size_t>(t)];
    const serve::TenantCounters& c = st.tenants[static_cast<std::size_t>(t)];
    j.begin_object();
    j.kv("name", fc.tenants[static_cast<std::size_t>(t)].name);
    j.kv("weight", fc.tenants[static_cast<std::size_t>(t)].weight);
    j.kv("answered", static_cast<long long>(tt.answered));
    j.kv("ok", static_cast<long long>(tt.ok));
    j.kv("degraded", static_cast<long long>(tt.degraded));
    j.kv("rejected", static_cast<long long>(tt.rejected));
    j.kv("deadline_misses", static_cast<long long>(tt.deadline_misses));
    j.kv("shed", static_cast<long long>(tt.shed));
    j.kv("quota_rejected", static_cast<long long>(tt.quota_rejected));
    j.kv("queue_full", static_cast<long long>(tt.queue_full));
    j.kv("other_rejected", static_cast<long long>(tt.other_rejected));
    j.kv("queue_rejections", static_cast<long long>(c.queue_rejections));
    j.kv("quota_rejections", static_cast<long long>(c.quota_rejections));
    j.kv("dropped_expired", static_cast<long long>(c.dropped_expired));
    j.kv("p50_latency_ms", percentile(tt.latencies_ms, 50.0));
    j.kv("p99_latency_ms", percentile(tt.latencies_ms, 99.0));
    j.kv("availability_pct", tt.availability_pct());
    j.kv("energy_j", c.energy_j);
    j.end_object();
  }
  j.end_array();
  j.key("counts");
  j.begin_object();
  j.kv("total_dispatched", static_cast<long long>(st.total_dispatched));
  j.kv("fallback_served", static_cast<long long>(st.fallback_served));
  j.kv("shed", static_cast<long long>(st.shed));
  j.kv("failovers", static_cast<long long>(st.failovers));
  j.kv("checkpoints", static_cast<long long>(st.checkpoints));
  j.kv("batches", static_cast<long long>(st.batcher.batches));
  j.kv("coalesced", static_cast<long long>(st.batcher.coalesced));
  j.kv("dropped_expired", static_cast<long long>(st.batcher.dropped_expired));
  j.end_object();
  j.key("shards");
  j.begin_array();
  for (int k = 0; k < nshards; ++k) {
    const serve::ShardStats& ss = st.shards[static_cast<std::size_t>(k)];
    j.begin_object();
    j.kv("served", static_cast<long long>(ss.served));
    j.kv("state", serve::to_string(ss.state));
    j.kv("trips", ss.trips);
    j.kv("baseline_pct", ss.baseline_pct);
    j.key("breaker_events");
    j.begin_array();
    for (const serve::BreakerEvent& e : fleet.shard_breaker_events(k)) {
      j.begin_object();
      j.kv("at_served", static_cast<long long>(e.at_served));
      j.kv("from", serve::to_string(e.from));
      j.kv("to", serve::to_string(e.to));
      j.kv("tier", e.tier);
      j.kv("note", e.note);
      j.end_object();
    }
    j.end_array();
    j.key("recoveries");
    j.begin_array();
    for (const serve::RecoveryRecord& r : fleet.shard_recoveries(k)) {
      j.begin_object();
      j.kv("tripped_at_served", static_cast<long long>(r.tripped_at_served));
      j.kv("resolved_at_served", static_cast<long long>(r.resolved_at_served));
      j.kv("resolved_at_dispatched",
           static_cast<long long>(r.resolved_at_dispatched));
      j.kv("tier_reached", r.tier_reached);
      j.kv("closed", r.closed);
      j.kv("acc_before_pct", r.acc_before_pct);
      j.kv("acc_after_pct", r.acc_after_pct);
      j.kv("duration_ms", r.duration_ms);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.kv("failover_count", static_cast<long long>(failovers.size()));
  j.end_object();
  j.commit();
  std::printf("wrote %s\n", json_path.c_str());
  telemetry::telemetry_flush(tel);

  // Gates last: the JSON above is the evidence either way.
  bool gate_failed = false;
  if (!shutdown_requested()) {
    if (min_availability > 0.0 && availability < min_availability) {
      std::fprintf(stderr, "GATE FAILED: availability %.2f%% < %.2f%%\n",
                   availability, min_availability);
      gate_failed = true;
    }
    if (min_fairness > 0.0 && fairness < min_fairness) {
      std::fprintf(stderr, "GATE FAILED: jain fairness %.4f < %.4f\n",
                   fairness, min_fairness);
      gate_failed = true;
    }
    if (max_p99 > 0.0 && worst_p99 > max_p99) {
      std::fprintf(stderr, "GATE FAILED: worst tenant p99 %.3f ms > %.3f ms\n",
                   worst_p99, max_p99);
      gate_failed = true;
    }
    if (max_request_allocs >= 0) {
      if (!telemetry::alloc_counting_available()) {
        std::fprintf(stderr,
                     "GATE FAILED: --max-request-allocs needs the allocation "
                     "counters (build with SEI_ALLOC_COUNTERS=ON, no "
                     "sanitizers)\n");
        gate_failed = true;
      } else if (st.alloc_measured_requests == 0) {
        std::fprintf(stderr,
                     "GATE FAILED: no post-warmup requests were measured — "
                     "raise --requests above the warmup threshold\n");
        gate_failed = true;
      } else if (st.serve_request_allocs >
                 static_cast<std::uint64_t>(max_request_allocs)) {
        std::fprintf(
            stderr,
            "GATE FAILED: %llu heap allocations on the post-warmup hot path "
            "(over %llu measured requests) > %d\n",
            static_cast<unsigned long long>(st.serve_request_allocs),
            static_cast<unsigned long long>(st.alloc_measured_requests),
            max_request_allocs);
        gate_failed = true;
      }
    }
    if (strict) {
      const std::uint64_t strike = static_cast<std::uint64_t>(storm_at);
      const double baseline = st.shards[0].baseline_pct;
      const std::vector<serve::RecoveryRecord> recs = fleet.shard_recoveries(0);
      const auto first = std::find_if(
          recs.begin(), recs.end(), [&](const serve::RecoveryRecord& r) {
            return r.tripped_at_served >= strike;
          });
      if (first == recs.end() || first->tripped_at_served > strike + 200 ||
          !first->closed || first->acc_after_pct < baseline - 2.0) {
        std::fprintf(stderr,
                     "GATE FAILED: the breaker did not trip within 200 "
                     "requests of the strike and close within 2 pts of the "
                     "%.2f%% baseline\n",
                     baseline);
        gate_failed = true;
      }
    }
  }
  return gate_failed ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
