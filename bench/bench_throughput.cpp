// Batch-evaluation throughput of the SEI engines: images/sec of
// SeiNetwork::error_rate for the bit-packed kernels vs the
// scalar reference path (both run in one invocation, single-threaded),
// plus the N-thread packed run for the parallelism determinism contract.
//
// The packed-vs-scalar ratio is the headline: on this class of host the
// cgroup clamps the process to ~1 effective core, so per-core kernel
// speed is the only lever (docs/kernels.md). Error percentages must be
// bit-identical between the two engines and across thread counts —
// both are checked and the process exits nonzero on a mismatch.
//
// Flags: --networks (csv), --images, --repeats, --threads, --read-noise,
// --json, --metrics-out, --trace-out. Read noise defaults to 0 so the
// comparison measures the kernels, not the gaussian sampler; pass
// --read-noise 0.02 to exercise the RNG path (identical draws by
// construction — decide_position consumes identical block sums).
// Writes BENCH_throughput.json (schema sei-throughput-v3).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/signals.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/sei_network.hpp"
#include "exec/thread_pool.hpp"
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

struct Measurement {
  std::vector<double> seconds;  // one entry per repeat
  double best_seconds = 0.0;
  double error_pct = 0.0;
};

/// Times `repeats` error_rate batches (after one untimed warmup that pages
/// in the dataset and spins up the pool).
Measurement measure(const core::SeiNetwork& net, const data::Dataset& d,
                    int images, int repeats) {
  Measurement m;
  (void)net.error_rate(d, images);  // warmup, untimed
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    m.error_pct = net.error_rate(d, images);
    const double s = timer.seconds();
    m.seconds.push_back(s);
    if (r == 0 || s < m.best_seconds) m.best_seconds = s;
  }
  return m;
}

void write_repeats(JsonWriter& j, const char* key,
                   const std::vector<double>& seconds) {
  j.key(key);
  j.begin_array();
  for (double s : seconds) j.value(s);
  j.end_array();
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string networks_csv =
      cli.get("networks", "network1,network2,network3");
  const int images = cli.get_int("images", 2000, "test images per batch");
  const int repeats = cli.get_int("repeats", 3, "timed runs, best taken");
  const double read_noise = cli.get_double(
      "read-noise", 0.0, "read noise sigma (0 = pure-kernel comparison)");
  const int skip_bound = cli.get_int(
      "skip-bound", -1,
      "skip bound on every SEI stage (-1 = uniform billing, 0 = bill by "
      "rows driven; docs/sparsity.md)");
  const std::string json_path = cli.get("json", "BENCH_throughput.json");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("SEI throughput: packed kernels vs scalar reference, "
                    "plus N-thread determinism")) {
    telemetry::telemetry_flush(tel);
    return 0;
  }
  SEI_CHECK_MSG(images > 0 && repeats > 0, "images/repeats must be positive");
  install_shutdown_handler();  // SIGINT/SIGTERM: finish the row, write JSON

  const int wide = exec::default_threads();
  const int effective = exec::ThreadPool::effective_concurrency();
  std::printf("Throughput: SeiNetwork::error_rate, %d images, best of %d, "
              "packed vs scalar at 1 thread (+%d-thread packed run, "
              "effective cores: %d, read noise %g)\n\n",
              images, repeats, wide, effective, read_noise);

  data::DataBundle data = workloads::load_default_data(true);

  struct Row {
    std::string network;
    Measurement packed1, scalar1, packedn;
    double packed_speedup = 0.0;  // scalar 1t / packed 1t
    double thread_speedup = 0.0;  // packed 1t / packed Nt
    int packed_stages = 0;
    int stage_count = 0;
    telemetry::EnergyBreakdown per_image_pj;
  };
  std::vector<Row> rows;
  std::vector<telemetry::EnergyMeter> meters;  // stable for the net lifetime
  meters.reserve(8);
  bool identical = true;

  for (const std::string& name : split_csv(networks_csv)) {
    if (shutdown_requested()) break;
    telemetry::Span span("bench.throughput.workload");
    workloads::Artifacts art = workloads::prepare_workload(name, data, {});
    core::HardwareConfig cfg;
    cfg.device.read_noise_sigma = read_noise;
    core::SeiNetwork net(art.qnet, cfg);
    if (skip_bound >= 0)
      net.set_skip_bounds(std::vector<int>(
          static_cast<std::size_t>(net.stage_count()), skip_bound));
    meters.push_back(
        arch::make_energy_meter(art.qnet, cfg, core::StructureKind::kSei));
    net.set_meter(&meters.back());
    const int n = std::min(images, data.test.size());

    Row row;
    row.network = name;
    row.per_image_pj = meters.back().network_pj();
    row.packed_stages = net.packed_stage_count();
    row.stage_count = net.stage_count();

    exec::set_default_threads(1);
    net.set_packed_eval(true);
    row.packed1 = measure(net, data.test, n, repeats);
    net.set_packed_eval(false);
    row.scalar1 = measure(net, data.test, n, repeats);
    net.set_packed_eval(true);
    exec::set_default_threads(wide);
    row.packedn = measure(net, data.test, n, repeats);

    // Best-of-repeats on BOTH sides: the ratio of two minima, not of
    // whichever single pair happened to land together.
    row.packed_speedup = row.scalar1.best_seconds / row.packed1.best_seconds;
    row.thread_speedup = row.packed1.best_seconds / row.packedn.best_seconds;
    if (row.scalar1.error_pct != row.packed1.error_pct) {
      identical = false;
      std::fprintf(stderr,
                   "ENGINE MISMATCH: %s error %.6f%% (scalar) vs %.6f%% "
                   "(packed)\n",
                   name.c_str(), row.scalar1.error_pct, row.packed1.error_pct);
    }
    if (row.packedn.error_pct != row.packed1.error_pct) {
      identical = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s error %.6f%% (1 thread) vs "
                   "%.6f%% (%d threads)\n",
                   name.c_str(), row.packed1.error_pct, row.packedn.error_pct,
                   wide);
    }
    rows.push_back(std::move(row));
  }

  TextTable table("images/sec, packed vs scalar (1 thread)");
  table.header({"Network", "Error %", "Scalar", "Packed", "Speedup",
                "Stages", "uJ/image"});
  for (const Row& r : rows) {
    const int n = std::min(images, data.test.size());
    table.row({r.network, TextTable::num(r.packed1.error_pct, 2),
               TextTable::num(n / r.scalar1.best_seconds, 1),
               TextTable::num(n / r.packed1.best_seconds, 1),
               TextTable::num(r.packed_speedup, 2) + "x",
               std::to_string(r.packed_stages) + "/" +
                   std::to_string(r.stage_count),
               TextTable::num(r.per_image_pj.total() * 1e-6, 3)});
  }
  std::printf("%s\n", table.str().c_str());

  JsonWriter j(json_path);
  j.begin_object();
  j.kv("schema", "sei-throughput-v3");
  j.kv("images", static_cast<long long>(images));
  j.kv("repeats", static_cast<long long>(repeats));
  j.kv("threads_wide", static_cast<long long>(wide));
  j.kv("effective_cores", static_cast<long long>(effective));
  j.kv("read_noise_sigma", read_noise);
  j.kv("engines_identical", identical);
  j.kv("interrupted", shutdown_requested());
  j.key("workloads");
  j.begin_array();
  for (const Row& r : rows) {
    const int n = std::min(images, data.test.size());
    j.begin_object();
    j.kv("network", r.network);
    j.kv("error_pct", r.packed1.error_pct);
    j.kv("error_pct_scalar", r.scalar1.error_pct);
    j.kv("images_per_sec_scalar_1t", n / r.scalar1.best_seconds);
    j.kv("images_per_sec_packed_1t", n / r.packed1.best_seconds);
    j.kv("images_per_sec_packed_nt", n / r.packedn.best_seconds);
    j.kv("packed_speedup", r.packed_speedup);
    j.kv("thread_speedup", r.thread_speedup);
    j.kv("packed_stages", static_cast<long long>(r.packed_stages));
    j.kv("stage_count", static_cast<long long>(r.stage_count));
    write_repeats(j, "seconds_scalar_1t", r.scalar1.seconds);
    write_repeats(j, "seconds_packed_1t", r.packed1.seconds);
    write_repeats(j, "seconds_packed_nt", r.packedn.seconds);
    j.kv("energy_uj_per_image", r.per_image_pj.total() * 1e-6);
    j.kv("interface_energy_pct",
         100.0 * r.per_image_pj.interface() / r.per_image_pj.total());
    j.end_object();
  }
  j.end_array();

  // Honest context for the thread_speedup column: on a quota-limited box
  // the N-thread run cannot beat 1 thread, which is exactly why the
  // packed-vs-scalar per-core comparison is the headline number.
  j.key("diagnosis");
  j.begin_object();
  j.kv("threads_resolve_to_effective_cores", wide <= effective);
  j.kv("single_core_host", effective == 1);
  j.kv("note",
       effective == 1
           ? "1 effective core: thread_speedup is bounded at 1.0x; the "
             "packed_speedup column is the per-core kernel comparison"
           : "thread_speedup is bounded by effective_cores");
  j.end_object();
  j.end_object();
  j.commit();
  std::printf("wrote %s\n", json_path.c_str());

  telemetry::telemetry_flush(tel);
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
