// Chaos harness driver: compound fault soak + crash-point matrix, with CI
// gates (schema sei-chaos-v1).
//
// Two phases, both on by default (--mode soak|matrix|both):
//
//   soak    — run_chaos_scenario: a sharded fleet under scripted storms,
//             probabilistic IO faults and short writes on every durable
//             writer, thread-pool stragglers, admission bursts and
//             deadline pressure, all seeded; afterwards the invariant
//             sweep (ticket conservation, billing conservation, plan
//             coherence, arena re-bind safety) must come back clean.
//   matrix  — run_crash_matrix: kill the fleet at every write offset of
//             the checkpoint commit sequence (--stride 1 = 100% coverage)
//             under each thread-pool width in --threads-list, and require
//             bit-identical resume + replay with bills within 1e-6 pJ.
//
// Gates: --max-violations (default 0), --min-availability (soak, %),
// --require-full-coverage (matrix must hit every offset). The JSON is
// always written; the exit code says pass/fail. docs/chaos.md documents
// the protocol.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "chaos/crash_matrix.hpp"
#include "chaos/invariants.hpp"
#include "chaos/scenario.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "core/adc_network.hpp"
#include "exec/thread_pool.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "telemetry/flags.hpp"
#include "workloads/pipeline.hpp"

using namespace sei;

namespace {

std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(std::stoi(item));
    pos = comma + 1;
  }
  return out;
}

void write_violations(JsonWriter& j,
                      const std::vector<chaos::InvariantViolation>& vs) {
  j.key("violations");
  j.begin_array();
  for (const chaos::InvariantViolation& v : vs) {
    j.begin_object();
    j.kv("invariant", v.invariant);
    j.kv("detail", v.detail);
    j.end_object();
  }
  j.end_array();
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string net_name = cli.get("network", "network2");
  const std::string mode = cli.get("mode", "both", "soak | matrix | both");
  const std::uint64_t seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 20260808, "chaos injection seed"));
  // Soak knobs.
  const int requests =
      cli.get_int("requests", 10000, "soak: requests to submit");
  const int nshards = cli.get_int("shards", 3, "soak: SEI replica count");
  const std::string tenant_spec =
      cli.get("tenants", "A:2,B:1", "tenant weights, name:weight[,...]");
  const int window = cli.get_int("window", 16, "soak: in-flight window");
  const int burst_every =
      cli.get_int("burst-every", 97, "soak: submissions per burst (0 = off)");
  const int burst_size = cli.get_int("burst-size", 24, "soak: burst length");
  const double tight_frac = cli.get_double(
      "tight-deadline-frac", 0.02, "soak: fraction with a tight deadline");
  const double io_fail = cli.get_double(
      "io-fail-prob", 0.10, "soak: P(injected IO failure) per operation");
  const double io_short = cli.get_double(
      "io-short-prob", 0.05, "soak: P(injected short write) per operation");
  const int stall_every = cli.get_int(
      "stall-every", 17, "soak: thread-pool chunks per stall (0 = off)");
  const int skip_bound = cli.get_int(
      "skip-bound", -1,
      "soak: skip bound on every SEI stage (-1 = uniform billing, 0 = bill "
      "by rows driven and check the billing envelope; docs/sparsity.md)");
  const int ckpt_every = cli.get_int(
      "checkpoint-every", 200, "soak: dispatches per checkpoint set");
  const int storm_at = cli.get_int(
      "storm-at", 2000, "soak: storm strike at this dispatch (0 = off)");
  const int storm_duration =
      cli.get_int("storm-duration", 4000, "soak: dispatches the storm holds");
  // Matrix knobs.
  const int cut1 = cli.get_int("cut1", 40, "matrix: first commit point");
  const int cut2 = cli.get_int("cut2", 60, "matrix: crashed commit point");
  const int total = cli.get_int("total", 80, "matrix: full stream length");
  const int stride =
      cli.get_int("stride", 1, "matrix: crash-offset stride (1 = full)");
  const std::string threads_list =
      cli.get("threads-list", "1,2,8", "matrix: thread-pool widths");
  const int matrix_storm_at = cli.get_int(
      "matrix-storm-at", 50, "matrix: storm strike between the cuts (0=off)");
  // Gates.
  const int max_violations =
      cli.get_int("max-violations", 0, "gate: fail above this many");
  const double min_availability = cli.get_double(
      "min-availability", 0.0, "gate: soak availability % floor (0 = off)");
  const bool require_full_coverage =
      cli.get_int("require-full-coverage", 0,
                  "gate: matrix must cover 100% of write offsets") != 0;
  const std::string work_dir =
      cli.get("work-dir", "bench_chaos_work", "checkpoint scratch directory");
  const std::string json_path = cli.get("json", "BENCH_chaos.json");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("chaos harness: compound fault soak + crash-point matrix"))
    return 0;
  const bool run_soak = mode == "soak" || mode == "both";
  const bool run_matrix = mode == "matrix" || mode == "both";
  SEI_CHECK_MSG(run_soak || run_matrix, "unknown --mode " << mode);

  data::DataBundle data = workloads::load_default_data(true);
  workloads::Artifacts art = workloads::prepare_workload(net_name, data, {});

  const auto fleet_config = [&](const std::string& dir, int every) {
    serve::FleetConfig fc;
    fc.tenants = serve::parse_tenant_specs(tenant_spec);
    for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 1024;
    fc.sentinel.probe_every = 16;
    fc.breaker.retry_backoff_ms = 1;
    fc.calibration.max_images = 200;
    fc.checkpoint_dir = dir;
    fc.checkpoint_every = every;
    return fc;
  };
  const auto make_nets = [&] {
    std::vector<std::unique_ptr<core::SeiNetwork>> nets;
    for (int k = 0; k < nshards; ++k) {
      core::HardwareConfig hw;
      hw.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
      hw.spare_row_fraction = 0.1;
      nets.push_back(std::make_unique<core::SeiNetwork>(
          art.qnet, hw,
          reliability::make_repair_hook(reliability::RepairConfig{},
                                        nullptr)));
      if (skip_bound >= 0)
        nets.back()->set_skip_bounds(std::vector<int>(
            static_cast<std::size_t>(nets.back()->stage_count()), skip_bound));
    }
    return nets;
  };

  chaos::ChaosScenarioReport soak;
  if (run_soak) {
    auto nets = make_nets();
    std::vector<core::SeiNetwork*> ptrs;
    for (auto& n : nets) ptrs.push_back(n.get());
    const core::AdcNetwork fallback(art.qnet, core::AdcConfig{}, data.train);
    const std::string dir = work_dir + "/soak_ckpt";
    std::filesystem::remove_all(dir);
    serve::FleetRuntime fleet(ptrs, art.qnet, data.test, data.train,
                              fleet_config(dir, ckpt_every), &fallback);
    if (storm_at > 0) {
      serve::StormSchedule storm;
      storm.events.push_back({static_cast<std::uint64_t>(storm_at), 0,
                              {0, -1, 0.10, 1.0},
                              static_cast<std::uint64_t>(storm_duration)});
      fleet.set_storm(storm);
    }
    chaos::ChaosScenarioConfig cc;
    cc.seed = seed;
    cc.requests = requests;
    cc.window = window;
    cc.burst_every = burst_every;
    cc.burst_size = burst_size;
    cc.tight_deadline_frac = tight_frac;
    cc.io_fail_prob = io_fail;
    cc.io_short_write_prob = io_short;
    cc.stall_every = stall_every;
    if (skip_bound >= 0) {
      // Sparse bills vary per image; the envelope invariant brackets each
      // tenant's metered delta with the structural [floor, ceiling] prices.
      const core::HardwareConfig& hw0 = ptrs[0]->config();
      const telemetry::EnergyMeter sei_m =
          arch::make_energy_meter(art.qnet, hw0, core::StructureKind::kSei);
      const telemetry::EnergyMeter adc_m = arch::make_energy_meter(
          art.qnet, hw0, core::StructureKind::kBinInputAdc);
      cc.check_envelope = true;
      cc.envelope.sei_min_image_j = sei_m.network_floor_pj().total() * 1e-12;
      cc.envelope.sei_max_image_j = sei_m.network_pj().total() * 1e-12;
      cc.envelope.adc_image_j = adc_m.network_pj().total() * 1e-12;
    }
    std::printf("chaos soak: %d requests, %d shards, tenants %s, seed %llu\n",
                requests, nshards, tenant_spec.c_str(),
                static_cast<unsigned long long>(seed));
    soak = chaos::run_chaos_scenario(fleet, ptrs, data.test, cc);
    std::filesystem::remove_all(dir);
    std::printf(
        "soak: ok %llu  degraded %llu  shed %llu  deadline %llu  quota %llu  "
        "queue %llu  other %llu  availability %.2f%%\n"
        "soak: io faults injected %llu  stalls %llu  violations %zu\n",
        static_cast<unsigned long long>(soak.ok),
        static_cast<unsigned long long>(soak.degraded),
        static_cast<unsigned long long>(soak.shed),
        static_cast<unsigned long long>(soak.deadline_expired),
        static_cast<unsigned long long>(soak.quota_rejected),
        static_cast<unsigned long long>(soak.queue_full),
        static_cast<unsigned long long>(soak.other_rejected),
        100.0 * soak.availability,
        static_cast<unsigned long long>(soak.io_faults_injected),
        static_cast<unsigned long long>(soak.stalls_injected),
        soak.violations.size());
  }

  chaos::CrashMatrixReport matrix;
  if (run_matrix) {
    std::vector<std::unique_ptr<core::SeiNetwork>> nets;
    const chaos::FleetFactory factory =
        [&](const std::string& dir) -> std::unique_ptr<serve::FleetRuntime> {
      nets = make_nets();
      std::vector<core::SeiNetwork*> ptrs;
      for (auto& n : nets) ptrs.push_back(n.get());
      auto fleet = std::make_unique<serve::FleetRuntime>(
          ptrs, art.qnet, data.test, data.train, fleet_config(dir, 0));
      if (matrix_storm_at > 0) {
        serve::StormSchedule storm;
        storm.events.push_back({static_cast<std::uint64_t>(matrix_storm_at), 0,
                                {0, -1, 0.10, 1.0}, 10000});
        fleet->set_storm(storm);
      }
      return fleet;
    };
    chaos::CrashMatrixConfig mc;
    mc.dir = work_dir + "/matrix_ckpt";
    mc.cut1 = cut1;
    mc.cut2 = cut2;
    mc.total = total;
    mc.stride = stride;
    mc.threads = parse_int_list(threads_list);
    std::printf("crash matrix: cuts %d/%d/%d, stride %d, threads %s\n", cut1,
                cut2, total, stride, threads_list.c_str());
    matrix = chaos::run_crash_matrix(factory, data.test, mc);
    std::printf(
        "matrix: %d commit steps, %d legs, coverage %.1f%%  "
        "(resumed old %d / new %d)  violations %zu\n",
        matrix.commit_steps, matrix.steps_tested, matrix.coverage_pct,
        matrix.resumed_from_old, matrix.resumed_from_new,
        matrix.violations.size());
  }
  std::filesystem::remove_all(work_dir);

  const std::size_t violations_total =
      soak.violations.size() + matrix.violations.size();
  for (const chaos::InvariantViolation& v : soak.violations)
    std::fprintf(stderr, "soak violation [%s] %s\n", v.invariant.c_str(),
                 v.detail.c_str());
  for (const chaos::InvariantViolation& v : matrix.violations)
    std::fprintf(stderr, "matrix violation [%s] %s\n", v.invariant.c_str(),
                 v.detail.c_str());

  JsonWriter j(json_path);
  j.begin_object();
  j.kv("schema", "sei-chaos-v1");
  j.kv("network", net_name);
  j.kv("mode", mode);
  j.kv("seed", static_cast<long long>(seed));
  j.kv("violations_total", static_cast<long long>(violations_total));
  if (run_soak) {
    j.key("soak");
    j.begin_object();
    j.kv("requests", static_cast<long long>(requests));
    j.kv("shards", static_cast<long long>(nshards));
    j.kv("tenant_spec", tenant_spec);
    j.kv("submitted", static_cast<long long>(soak.submitted));
    j.kv("dispatched", static_cast<long long>(soak.dispatched));
    j.kv("ok", static_cast<long long>(soak.ok));
    j.kv("degraded", static_cast<long long>(soak.degraded));
    j.kv("shed", static_cast<long long>(soak.shed));
    j.kv("deadline_expired", static_cast<long long>(soak.deadline_expired));
    j.kv("quota_rejected", static_cast<long long>(soak.quota_rejected));
    j.kv("queue_full", static_cast<long long>(soak.queue_full));
    j.kv("other_rejected", static_cast<long long>(soak.other_rejected));
    j.kv("io_faults_injected",
         static_cast<long long>(soak.io_faults_injected));
    j.kv("stalls_injected", static_cast<long long>(soak.stalls_injected));
    j.kv("availability_pct", 100.0 * soak.availability);
    write_violations(j, soak.violations);
    j.end_object();
  }
  if (run_matrix) {
    j.key("matrix");
    j.begin_object();
    j.kv("cut1", static_cast<long long>(cut1));
    j.kv("cut2", static_cast<long long>(cut2));
    j.kv("total", static_cast<long long>(total));
    j.kv("stride", static_cast<long long>(stride));
    j.kv("threads_list", threads_list);
    j.kv("commit_steps", static_cast<long long>(matrix.commit_steps));
    j.kv("steps_tested", static_cast<long long>(matrix.steps_tested));
    j.kv("resumed_from_old", static_cast<long long>(matrix.resumed_from_old));
    j.kv("resumed_from_new", static_cast<long long>(matrix.resumed_from_new));
    j.kv("coverage_pct", matrix.coverage_pct);
    write_violations(j, matrix.violations);
    j.end_object();
  }
  j.end_object();
  j.commit();
  std::printf("wrote %s\n", json_path.c_str());
  telemetry::telemetry_flush(tel);

  bool gate_failed = false;
  if (violations_total > static_cast<std::size_t>(max_violations)) {
    std::fprintf(stderr, "GATE FAILED: %zu invariant violations > %d\n",
                 violations_total, max_violations);
    gate_failed = true;
  }
  if (run_soak && min_availability > 0.0 &&
      100.0 * soak.availability < min_availability) {
    std::fprintf(stderr, "GATE FAILED: soak availability %.2f%% < %.2f%%\n",
                 100.0 * soak.availability, min_availability);
    gate_failed = true;
  }
  if (run_matrix && require_full_coverage && matrix.coverage_pct < 100.0) {
    std::fprintf(stderr,
                 "GATE FAILED: crash matrix covered %.1f%% of write offsets "
                 "(stride %d leaves gaps; run --stride 1)\n",
                 matrix.coverage_pct, stride);
    gate_failed = true;
  }
  return gate_failed ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
