// Long-running serving walkthrough: a SEI chip serves a request stream,
// a mid-service fault silently damages the arrays, the canary sentinel
// notices the accuracy drop, the circuit breaker trips and the chip
// repairs itself without a restart — with durable checkpoints the whole
// time, so a kill -9 resumes from the last saved state. The chip is a
// FleetRuntime with one shard and one tenant; the fault is a one-shot
// storm strike on that shard.
//
// Used by CI as a soak test: --min-availability fails the run (exit 1)
// when too many requests were rejected, and --strict additionally requires
// the breaker to have tripped and closed again with accuracy restored.
// SIGINT/SIGTERM drain gracefully, checkpoint and exit 0.
//
// Flags: --network network2, --requests 3000, --fault-at (default
// requests/3), --fault-stuck 0.05, --probe-every 8, --checkpoint-every 500,
// --checkpoint serve_demo_ckpt (a directory), --deadline-ms 0,
// --min-availability 0, --strict.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "common/cli.hpp"
#include "common/signals.hpp"
#include "core/adc_network.hpp"
#include "exec/thread_pool.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "telemetry/flags.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/pipeline.hpp"

namespace {

/// Exact quantile (linear interpolation) of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

using namespace sei;

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string net_name = cli.get("network", "network2");
  const int requests = cli.get_int("requests", 3000, "requests to serve");
  const int fault_at = cli.get_int("fault-at", requests / 3,
                                   "served count of the fault (0 = none)");
  const double fault_stuck =
      cli.get_double("fault-stuck", 0.05, "stuck-cell fraction");
  const int probe_every =
      cli.get_int("probe-every", 8, "served requests per sentinel probe");
  const int ckpt_every =
      cli.get_int("checkpoint-every", 500, "requests per checkpoint set");
  const std::string ckpt_dir = cli.get("checkpoint", "serve_demo_ckpt",
                                       "durable checkpoint directory");
  const int deadline_ms =
      cli.get_int("deadline-ms", 0, "per-request deadline (0 = none)");
  const double min_availability = cli.get_double(
      "min-availability", 0.0, "fail when availability drops below this %");
  const bool strict =
      cli.get_bool("strict", false, "require trip + closed recovery");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("fault-tolerant serving runtime walkthrough / soak test"))
    return 0;
  SEI_CHECK_MSG(requests > 0, "requests must be positive");

  install_shutdown_handler();

  data::DataBundle data = workloads::load_default_data(true);
  workloads::Artifacts art = workloads::prepare_workload(net_name, data, {});

  core::HardwareConfig hw;
  hw.spare_row_fraction = 0.1;
  core::SeiNetwork net(
      art.qnet, hw,
      reliability::make_repair_hook(reliability::RepairConfig{}, nullptr));
  const core::AdcNetwork fallback(art.qnet, core::AdcConfig{}, data.train);

  constexpr int kInflight = 64;  // client window == the tenant's queue bound
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs("serve");
  fc.tenants[0].queue_capacity = kInflight;
  fc.default_deadline = std::chrono::milliseconds(deadline_ms);
  fc.checkpoint_every = ckpt_every;
  fc.checkpoint_dir = ckpt_dir;
  fc.sentinel.probe_every = probe_every;
  fc.calibration.max_images = 200;
  serve::FleetRuntime runtime({&net}, art.qnet, data.test, data.train, fc,
                              &fallback);
  if (fault_at > 0) {
    serve::StormSchedule storm;
    storm.events.push_back({static_cast<std::uint64_t>(fault_at), 0,
                            {0, -1, fault_stuck, 1.0}, 0});
    runtime.set_storm(storm);
  }
  runtime.start();
  const double baseline = runtime.stats().shards[0].baseline_pct;
  std::printf("[serve] %s from %s (baseline %.2f%%), %d requests, fault at "
              "%d (%.1f%% stuck)\n",
              runtime.resumed_from_checkpoint() ? "resumed" : "cold start",
              ckpt_dir.c_str(), baseline, requests, fault_at,
              100.0 * fault_stuck);

  const std::size_t per_image =
      data.test.images.numel() / static_cast<std::size_t>(data.test.size());
  std::uint64_t answered = 0, available = 0;
  std::deque<std::future<serve::FleetResponse>> inflight;
  auto settle_front = [&] {
    const serve::FleetResponse r = inflight.front().get();
    inflight.pop_front();
    ++answered;
    if (r.status != serve::FleetResponseStatus::kRejected) ++available;
  };
  for (int i = 0; i < requests && !shutdown_requested(); ++i) {
    const int k = i % data.test.size();
    inflight.push_back(runtime.submit(
        0, {data.test.images.data() + static_cast<std::size_t>(k) * per_image,
            per_image}));
    while (static_cast<int>(inflight.size()) >= kInflight) settle_front();
  }
  while (!inflight.empty()) settle_front();
  runtime.stop();
  if (shutdown_requested())
    std::printf("[serve] interrupted; drained and checkpointed\n");

  const serve::FleetStats st = runtime.stats();
  const serve::TenantCounters& tc = st.tenants[0];
  const double availability =
      answered == 0 ? 100.0
                    : 100.0 * static_cast<double>(available) /
                          static_cast<double>(answered);
  std::printf("[serve] answered %llu: ok %llu, degraded %llu, rejected %llu "
              "-> availability %.2f%%\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(tc.ok),
              static_cast<unsigned long long>(tc.degraded),
              static_cast<unsigned long long>(answered - available),
              availability);
  std::printf("[serve] checkpoints %llu, breaker trips %d\n",
              static_cast<unsigned long long>(st.checkpoints),
              st.shards[0].trips);
  for (const serve::BreakerEvent& e : runtime.shard_breaker_events(0))
    std::printf("[breaker] @%-6llu %s -> %s (tier %d): %s\n",
                static_cast<unsigned long long>(e.at_served),
                serve::to_string(e.from), serve::to_string(e.to), e.tier,
                e.note.c_str());

  bool recovered_ok = false;
  for (const serve::RecoveryRecord& r : runtime.shard_recoveries(0)) {
    std::printf("[recover] tripped @%llu (%.2f%%), %s @%llu at tier %d "
                "(%.2f%%, %.1f ms)\n",
                static_cast<unsigned long long>(r.tripped_at_served),
                r.acc_before_pct, r.closed ? "closed" : "degraded",
                static_cast<unsigned long long>(r.resolved_at_served),
                r.tier_reached, r.acc_after_pct, r.duration_ms);
    if (r.closed && r.acc_after_pct >= baseline - 2.0 &&
        (fault_at == 0 ||
         r.tripped_at_served <= static_cast<std::uint64_t>(fault_at) + 200))
      recovered_ok = true;
  }

  // ---- Telemetry summary: exact latency percentiles, metered joules per
  // inference by path, and the paper's Fig. 1 interface-vs-array story.
  // Everything printed here is also set as gauges so --metrics-out carries it.
  auto& reg = telemetry::MetricsRegistry::global();
  std::vector<double> lat = runtime.tenant_latencies_ms(0);
  std::sort(lat.begin(), lat.end());
  const double p50 = quantile(lat, 0.50), p99 = quantile(lat, 0.99);
  reg.gauge("serve_latency_p50_ms").set(p50);
  reg.gauge("serve_latency_p99_ms").set(p99);
  std::printf("[serve] latency p50 %.3f ms, p99 %.3f ms (%zu samples)\n", p50,
              p99, lat.size());

  const serve::EnergySummary energy = runtime.energy();
  auto report_path = [&](const char* path, const telemetry::EnergyAccum& a) {
    if (a.images == 0) return;
    const double iface_pct = 100.0 * a.pj.interface() / a.pj.total();
    const double array_pct = 100.0 * a.pj.array() / a.pj.total();
    reg.gauge("serve_energy_uj_per_inference{path=\"" + std::string(path) +
              "\"}").set(a.joules_per_image() * 1e6);
    reg.gauge("serve_interface_energy_pct{path=\"" + std::string(path) +
              "\"}").set(iface_pct);
    reg.gauge("serve_array_energy_pct{path=\"" + std::string(path) + "\"}")
        .set(array_pct);
    std::printf("[energy] %-5s %6llu images, %.3f uJ/inference "
                "(interface %.1f%%, array %.1f%%)\n",
                path, static_cast<unsigned long long>(a.images),
                a.joules_per_image() * 1e6, iface_pct, array_pct);
  };
  report_path("sei", energy.sei);
  report_path("adc", energy.adc);
  report_path("probe", energy.probe);

  // Fig. 1 direction check on the static per-picture price lists (always
  // available, even when the breaker never reached the ADC fallback): the
  // conventional DAC/ADC interface must dominate its budget while SEI's
  // sense-amp interface is the cheaper slice.
  const telemetry::EnergyBreakdown sei_pj =
      arch::make_energy_meter(art.qnet, hw, core::StructureKind::kSei)
          .network_pj();
  const telemetry::EnergyBreakdown adc_pj =
      arch::make_energy_meter(art.qnet, hw, core::StructureKind::kBinInputAdc)
          .network_pj();
  const double iface_ratio = adc_pj.interface() / sei_pj.interface();
  const bool fig1_ok =
      iface_ratio > 1.0 && adc_pj.interface() / adc_pj.total() >
                               sei_pj.interface() / sei_pj.total();
  reg.gauge("serve_interface_ratio_adc_vs_sei").set(iface_ratio);
  reg.gauge("serve_fig1_direction_ok").set(fig1_ok ? 1.0 : 0.0);
  std::printf("[energy] interface energy ADC/SEI = %.2fx; interface share "
              "ADC %.1f%% vs SEI %.1f%% -> Fig. 1 direction %s\n",
              iface_ratio, 100.0 * adc_pj.interface() / adc_pj.total(),
              100.0 * sei_pj.interface() / sei_pj.total(),
              fig1_ok ? "reproduced" : "NOT reproduced");

  int exit_code = 0;
  if (min_availability > 0.0 && availability < min_availability &&
      !shutdown_requested()) {
    std::fprintf(stderr, "FAIL: availability %.2f%% < %.2f%%\n", availability,
                 min_availability);
    exit_code = 1;
  }
  if (strict && fault_at > 0 && !shutdown_requested() && !recovered_ok) {
    std::fprintf(stderr,
                 "FAIL: breaker never tripped+closed with accuracy within "
                 "2 pts of baseline\n");
    exit_code = 1;
  }
  telemetry::telemetry_flush(tel);
  return exit_code;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
