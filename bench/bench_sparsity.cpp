// Dense vs row-billed energy for the SEI structure (docs/sparsity.md):
// each workload runs the test set once with every stage charged its
// uniform per-picture price and once with row billing on
// (set_skip_bounds all zero) — each SEI stage then charges only the rows
// whose 1-bit inputs actually drove them (Table 1), counted by the dense
// kernels. The activity estimator reports the share of all-zero 9-row
// input words ("skip rate") and of driven rows.
//
// Acts as the sparsity gate for CI: exits nonzero if row billing changes
// any prediction, or if a whole-crossbar workload drops more than
// --max-accuracy-drop percentage points of accuracy or leaves fewer than
// --min-skip-rate percent of its sub-crossbar input words idle.
//
// Flags: --networks (csv), --images, --min-skip-rate, --max-accuracy-drop,
// --json, plus the shared telemetry flags. Writes BENCH_sparsity.json
// (schema sei-sparsity-v2).
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/signals.hpp"
#include "common/table.hpp"
#include "core/sei_network.hpp"
#include "exec/thread_pool.hpp"
#include "sparsity/activity.hpp"
#include "telemetry/flags.hpp"
#include "telemetry/span.hpp"
#include "workloads/pipeline.hpp"

using namespace sei;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Per-image metered energy over the first `n` test images; with row
/// billing on every SEI stage charges its actual driven rows.
telemetry::EnergyAccum measure_energy(const core::SeiNetwork& net,
                                      const telemetry::EnergyMeter& meter,
                                      const data::Dataset& d, int n) {
  const std::size_t per_image =
      d.images.numel() / static_cast<std::size_t>(d.size());
  return exec::parallel_reduce<telemetry::EnergyAccum>(
      n, exec::kEvalGrain, telemetry::EnergyAccum{},
      [&](int lo, int hi) {
        telemetry::EnergyAccum acc;
        core::EvalContext ctx;
        ctx.meter = &meter;
        ctx.energy = &acc;
        for (int i = lo; i < hi; ++i) {
          const std::span<const float> img{
              d.images.data() + static_cast<std::size_t>(i) * per_image,
              per_image};
          net.predict(img, ctx, i);
        }
        acc.images = static_cast<std::uint64_t>(hi - lo);
        return acc;
      },
      [](telemetry::EnergyAccum acc, const telemetry::EnergyAccum& part) {
        acc.merge(part);
        return acc;
      });
}

struct Row {
  std::string network;
  std::string variant;
  bool gated = false;  // whole-crossbar rows carry the CI gate
  double dense_error_pct = 0.0;
  double dense_uj_per_image = 0.0;
  // Row-billed point (all-zero skip bounds).
  std::vector<int> bounds;
  double error_pct = 0.0;
  double skip_rate = 0.0;     // all-zero words / evaluated words
  double row_activity = 0.0;  // driven rows / nominal rows
  double charged_rows = 0.0;  // charged rows / nominal rows
  double uj_per_image = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string networks_csv =
      cli.get("networks", "network1,network2,network3");
  const int images = cli.get_int("images", 1000, "test images to meter");
  const double min_skip_rate = cli.get_double(
      "min-skip-rate", 30.0, "gate: min % of idle input words (whole rows)");
  const double max_drop = cli.get_double(
      "max-accuracy-drop", 0.5, "gate: max accuracy drop vs dense, pct");
  const std::string json_path = cli.get("json", "BENCH_sparsity.json");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("SEI row billing: dense vs activation-proportional "
                    "energy, idle input words")) {
    telemetry::telemetry_flush(tel);
    return 0;
  }
  SEI_CHECK_MSG(images > 0, "images must be positive");
  install_shutdown_handler();

  std::printf("Sparsity: dense vs row-billed energy, %d test images "
              "(gate: skip >= %.0f%%, drop <= %.2f pts)\n\n",
              images, min_skip_rate, max_drop);

  data::DataBundle data = workloads::load_default_data(true);
  const int n = std::min(images, data.test.size());

  struct Variant {
    const char* tag;
    int max_rows;
    bool homogenize;
    bool gated;
  };
  const Variant variants[] = {{"whole", 0, true, true},
                              {"split64", 64, true, false},
                              {"split64-natural", 64, false, false}};

  std::vector<Row> rows;
  bool gate_ok = true;

  for (const std::string& name : split_csv(networks_csv)) {
    if (shutdown_requested()) break;
    telemetry::Span span("bench.sparsity.workload");
    workloads::Artifacts art = workloads::prepare_workload(name, data, {});
    for (const Variant& v : variants) {
      if (shutdown_requested()) break;
      core::HardwareConfig cfg;
      if (v.max_rows > 0) cfg.limits.max_rows = v.max_rows;
      cfg.homogenize = v.homogenize;
      core::SeiNetwork net(art.qnet, cfg);
      const telemetry::EnergyMeter meter =
          arch::make_energy_meter(art.qnet, cfg, core::StructureKind::kSei);

      Row row;
      row.network = name;
      row.variant = v.tag;
      row.gated = v.gated;
      row.dense_error_pct = net.error_rate(data.test, n);
      row.dense_uj_per_image = meter.network_pj().total() * 1e-6;

      row.bounds.assign(static_cast<std::size_t>(net.stage_count()), 0);
      net.set_skip_bounds(row.bounds);
      row.error_pct = net.error_rate(data.test, n);
      const sparsity::ActivityEstimator act =
          sparsity::estimate_activity(net, data.test, n);
      row.skip_rate = act.skip_rate();
      row.row_activity = act.row_activity();
      row.charged_rows = act.charged_fraction();
      row.uj_per_image =
          measure_energy(net, meter, data.test, n).joules_per_image() * 1e6;

      // Row billing is a meter: it must not move a single prediction.
      if (row.error_pct != row.dense_error_pct) {
        gate_ok = false;
        std::fprintf(stderr,
                     "BIT-IDENTITY VIOLATION: %s/%s row-billed error %.6f%% "
                     "vs dense %.6f%%\n",
                     name.c_str(), v.tag, row.error_pct, row.dense_error_pct);
      }
      if (row.gated) {
        const double drop = row.error_pct - row.dense_error_pct;
        if (drop > max_drop || 100.0 * row.skip_rate < min_skip_rate) {
          gate_ok = false;
          std::fprintf(stderr,
                       "SPARSITY GATE FAILED: %s drop %.2f pts (max %.2f), "
                       "skip rate %.1f%% (min %.0f%%)\n",
                       name.c_str(), drop, max_drop, 100.0 * row.skip_rate,
                       min_skip_rate);
        }
      }
      rows.push_back(std::move(row));
    }
  }

  TextTable table("row-billed sub-crossbar activity (test set)");
  table.header({"Network", "Variant", "Dense %", "Billed %", "Skip %",
                "Rows %", "uJ dense", "uJ billed", "Saved %"});
  for (const Row& r : rows) {
    const double saved = 100.0 * (1.0 - r.uj_per_image / r.dense_uj_per_image);
    table.row({r.network, r.variant, TextTable::num(r.dense_error_pct, 2),
               TextTable::num(r.error_pct, 2),
               TextTable::num(100.0 * r.skip_rate, 1),
               TextTable::num(100.0 * r.charged_rows, 1),
               TextTable::num(r.dense_uj_per_image, 3),
               TextTable::num(r.uj_per_image, 3), TextTable::num(saved, 1)});
  }
  std::printf("%s\n", table.str().c_str());

  JsonWriter j(json_path);
  j.begin_object();
  j.kv("schema", "sei-sparsity-v2");
  j.kv("images", static_cast<long long>(n));
  j.kv("min_skip_rate_pct", min_skip_rate);
  j.kv("max_accuracy_drop_pct", max_drop);
  j.kv("gate_ok", gate_ok);
  j.kv("interrupted", shutdown_requested());
  j.key("workloads");
  j.begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.kv("network", r.network);
    j.kv("variant", r.variant);
    j.kv("gated", r.gated);
    j.kv("dense_error_pct", r.dense_error_pct);
    j.kv("dense_uj_per_image", r.dense_uj_per_image);
    j.kv("energy_saved_pct",
         100.0 * (1.0 - r.uj_per_image / r.dense_uj_per_image));
    j.key("row_billed");
    j.begin_object();
    j.key("bounds");
    j.begin_array();
    for (const int b : r.bounds) j.value(static_cast<long long>(b));
    j.end_array();
    j.kv("error_pct", r.error_pct);
    j.kv("skip_rate", r.skip_rate);
    j.kv("row_activity", r.row_activity);
    j.kv("charged_row_fraction", r.charged_rows);
    j.kv("energy_uj_per_image", r.uj_per_image);
    j.end_object();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.commit();
  std::printf("wrote %s (gate %s)\n", json_path.c_str(),
              gate_ok ? "ok" : "FAILED");

  telemetry::telemetry_flush(tel);
  return gate_ok && !shutdown_requested() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_sparsity: %s\n", e.what());
  return 1;
}
