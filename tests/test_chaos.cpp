// Chaos harness: IO fault hook semantics (fail / short write / simulated
// kill -9), thread-pool stall hook, the cross-cutting invariant checkers,
// the compound scenario runner, and a sampled crash-point matrix. Every
// suite here is named Chaos* so the TSan CI job picks it up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/live_energy.hpp"
#include "chaos/crash_matrix.hpp"
#include "chaos/invariants.hpp"
#include "chaos/scenario.hpp"
#include "common/check.hpp"
#include "common/io.hpp"
#include "core/adc_network.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "exec/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "quant/threshold_search.hpp"
#include "reliability/repair.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fault_schedule.hpp"
#include "serve/fleet.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

/// Small trained + quantized network2 shared across tests (mirrors
/// test_serve.cpp's fixture).
struct Fixture {
  workloads::Workload wl = workloads::network2();
  data::Dataset train = data::generate_synthetic(800, 81);
  data::Dataset test = data::generate_synthetic(240, 82);
  quant::QNetwork qnet;

  Fixture() {
    nn::Network net = workloads::build_float_network(wl.topo, 52);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
    quant::SearchConfig sc;
    sc.max_search_images = 300;
    sc.step = 0.05;
    qnet = quant::quantize_network(net, wl.topo, train, sc).qnet;
  }

  std::span<const float> image(int i) const {
    const std::size_t per_image =
        test.images.numel() / static_cast<std::size_t>(test.size());
    const int k = i % test.size();
    return {test.images.data() + static_cast<std::size_t>(k) * per_image,
            per_image};
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct HookClear {
  ~HookClear() {
    set_io_fault_hook(IoFaultHook{});
    exec::set_chunk_delay_hook({});
  }
};

void print_violations(const std::vector<chaos::InvariantViolation>& vs) {
  for (const chaos::InvariantViolation& v : vs)
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
}

// ---------------------------------------------------------------------------
// IO fault hook semantics on the CRC/fsync-rename writers.

TEST(ChaosIoHook, FailAbortsWriteAndCleansUpTmp) {
  HookClear clear;
  const std::string path = tmp_path("sei_chaos_io_fail.bin");
  std::filesystem::remove(path);
  set_io_fault_hook([](const IoFaultSite& s) {
    return s.op == IoOp::kWrite ? IoFaultAction::kFail : IoFaultAction::kNone;
  });
  EXPECT_THROW(
      {
        BinaryWriter w(path);
        w.write_u64(42);
        w.commit();
      },
      CheckError);
  set_io_fault_hook(IoFaultHook{});
  // A failed (non-crash) write is an error the process survives: the
  // writer's destructor must remove its half-written tmp file.
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ChaosIoHook, ShortWriteIsDetectedAndTmpRemoved) {
  HookClear clear;
  const std::string path = tmp_path("sei_chaos_io_short.bin");
  std::filesystem::remove(path);
  std::atomic<int> n{0};
  set_io_fault_hook([&](const IoFaultSite& s) {
    if (s.op == IoOp::kWrite && n.fetch_add(1) == 0)
      return IoFaultAction::kShortWrite;
    return IoFaultAction::kNone;
  });
  EXPECT_THROW(
      {
        BinaryWriter w(path);
        w.write_u64(42);
        w.commit();
      },
      CheckError);
  set_io_fault_hook(IoFaultHook{});
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ChaosIoHook, CrashDuringWriteLeavesTornTmpLikeKillMinus9) {
  HookClear clear;
  const std::string path = tmp_path("sei_chaos_io_crash.bin");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  set_io_fault_hook([](const IoFaultSite& s) {
    return s.op == IoOp::kWrite ? IoFaultAction::kCrash : IoFaultAction::kNone;
  });
  EXPECT_THROW(
      {
        BinaryWriter w(path);
        w.write_u64(42);
      },
      InjectedCrash);
  set_io_fault_hook(IoFaultHook{});
  // kill -9 leaves wreckage: the torn tmp stays on disk, the destination
  // never appears — exactly what a resuming process must cope with.
  EXPECT_TRUE(file_exists(path + ".tmp"));
  EXPECT_FALSE(file_exists(path));
  std::filesystem::remove(path + ".tmp");
}

TEST(ChaosIoHook, CrashAtRenamePreservesCommittedFile) {
  HookClear clear;
  const std::string path = tmp_path("sei_chaos_io_rename.bin");
  std::filesystem::remove(path);
  {
    BinaryWriter w(path);
    w.write_u64(1);
    w.commit();
  }
  set_io_fault_hook([](const IoFaultSite& s) {
    return s.op == IoOp::kRename ? IoFaultAction::kCrash
                                 : IoFaultAction::kNone;
  });
  EXPECT_THROW(
      {
        BinaryWriter w(path);
        w.write_u64(2);
        w.commit();
      },
      InjectedCrash);
  set_io_fault_hook(IoFaultHook{});
  {
    BinaryReader r(path);
    EXPECT_EQ(r.read_u64(), 1u) << "crash before rename must not touch v1";
  }
  // And the survivor can still commit over the wreckage.
  {
    BinaryWriter w(path);
    w.write_u64(3);
    w.commit();
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_u64(), 3u);
}

TEST(ChaosIoHook, CheckpointRetryRidesOverInjectedFailure) {
  HookClear clear;
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  const std::string path = tmp_path("sei_chaos_ckpt_retry.bin");
  std::filesystem::remove(path);
  std::atomic<int> n{0};
  // First write of the first attempt fails; the retry goes clean.
  set_io_fault_hook([&](const IoFaultSite& s) {
    if (s.op == IoOp::kWrite && n.fetch_add(1) == 0)
      return IoFaultAction::kFail;
    return IoFaultAction::kNone;
  });
  serve::CheckpointRetryPolicy pol;
  pol.max_attempts = 3;
  pol.backoff_ms = 1;
  const Status st = serve::save_checkpoint_with_retry(
      net, serve::RuntimeSnapshot{}, path, pol);
  set_io_fault_hook(IoFaultHook{});
  ASSERT_TRUE(st.ok()) << st.error().message;
  EXPECT_TRUE(file_exists(path));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Thread-pool stall hook: stragglers change timing, never results.

TEST(ChaosStallHook, StalledChunksProduceIdenticalResults) {
  HookClear clear;
  exec::set_default_threads(4);
  const int n = 512;
  std::vector<int> plain(static_cast<std::size_t>(n), 0);
  exec::parallel_for(n, [&](int i) {
    plain[static_cast<std::size_t>(i)] = i * i;
  });
  std::atomic<int> stalls{0};
  exec::set_chunk_delay_hook([&](int) {
    stalls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  EXPECT_TRUE(exec::chunk_delay_hook_installed());
  std::vector<int> stalled(static_cast<std::size_t>(n), 0);
  exec::parallel_for(n, [&](int i) {
    stalled[static_cast<std::size_t>(i)] = i * i;
  });
  exec::set_chunk_delay_hook({});
  exec::set_default_threads(0);
  EXPECT_GT(stalls.load(), 0);
  EXPECT_EQ(plain, stalled);
}

// ---------------------------------------------------------------------------
// Invariant checkers.

TEST(ChaosInvariants, TicketConservationAcceptsExactInterval) {
  std::vector<serve::FleetResponse> rs(4);
  for (int i = 0; i < 3; ++i) rs[static_cast<std::size_t>(i)].ticket = 5 + i;
  rs[3].ticket = serve::kNoTicket;  // never dispatched: excluded
  std::vector<chaos::InvariantViolation> out;
  chaos::check_ticket_conservation(rs, 5, 3, out);
  EXPECT_TRUE(out.empty());
}

TEST(ChaosInvariants, TicketConservationFlagsLostAndDuplicate) {
  std::vector<serve::FleetResponse> rs(3);
  rs[0].ticket = 5;
  rs[1].ticket = 6;
  rs[2].ticket = 7;
  std::vector<chaos::InvariantViolation> lost;
  chaos::check_ticket_conservation(rs, 5, 4, lost);  // ticket 8 never answered
  ASSERT_FALSE(lost.empty());
  EXPECT_EQ(lost[0].invariant, "ticket");

  rs[2].ticket = 6;  // 6 served twice, 7 lost
  std::vector<chaos::InvariantViolation> dup;
  chaos::check_ticket_conservation(rs, 5, 3, dup);
  ASSERT_FALSE(dup.empty());
  EXPECT_NE(dup[0].detail.find("more than once"), std::string::npos);
}

TEST(ChaosInvariants, BillingConservationFlagsDrift) {
  serve::FleetStats st;
  st.tenants.resize(1);
  st.tenants[0].energy_j = 10e-6;
  st.tenant_metered_j = {10e-6};
  std::vector<chaos::InvariantViolation> ok;
  chaos::check_billing_conservation(st, {0.0}, 1e-12, ok);
  EXPECT_TRUE(ok.empty());

  std::vector<chaos::InvariantViolation> bad;
  chaos::check_billing_conservation(st, {1e-6}, 1e-12, bad);
  ASSERT_FALSE(bad.empty());
  EXPECT_EQ(bad[0].invariant, "billing");
}

TEST(ChaosInvariants, PlanAndArenaChecksPassOnDamagedNetwork) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::FaultEvent ev;
  ev.stage = -1;
  ev.stuck_fraction = 0.15;
  serve::apply_fault(net, ev, /*seed=*/1234, /*event_index=*/0);
  std::vector<chaos::InvariantViolation> out;
  chaos::check_plan_coherence(net, f.test, 16, "damaged", out);
  chaos::check_arena_rebind_safety(net, f.test, 16, "damaged", out);
  print_violations(out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Compound scenario: storms + IO faults + stalls + bursts + deadlines, all
// at once, with the invariant sweep at the end.

TEST(ChaosScenario, CompoundSoakHoldsEveryInvariant) {
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < 2; ++k) {
    core::HardwareConfig cfg;
    cfg.spare_row_fraction = 0.2;
    cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    nets.push_back(std::make_unique<core::SeiNetwork>(
        f.qnet, cfg,
        reliability::make_repair_hook(reliability::RepairConfig{}, nullptr)));
    ptrs.push_back(nets.back().get());
  }
  core::AdcNetwork fallback(f.qnet, core::AdcConfig{}, f.train);

  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs("A:2,B:1");
  for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 1024;
  fc.sentinel.probe_every = 4;
  fc.sentinel.probe_count = 48;
  fc.sentinel.window = 24;
  fc.sentinel.min_probes = 12;
  fc.breaker.max_retries = 1;
  fc.breaker.retry_backoff_ms = 1;
  fc.breaker.reattempt_interval = 64;
  fc.calibration.max_images = 240;
  fc.calibration.gamma_min = 1.0;
  fc.calibration.gamma_max = 1.0;
  fc.calibration.gamma_step = 0.1;
  const std::string dir = tmp_path("sei_chaos_soak_ckpt");
  std::filesystem::remove_all(dir);
  fc.checkpoint_dir = dir;
  fc.checkpoint_every = 25;

  serve::FleetRuntime fleet(ptrs, f.qnet, f.test, f.train, fc, &fallback);
  serve::StormSchedule storm;
  storm.events.push_back({60, 0, {0, -1, 0.10, 1.0}, 10000});
  fleet.set_storm(storm);

  chaos::ChaosScenarioConfig cc;
  cc.seed = 7;
  cc.requests = 240;
  cc.window = 8;
  cc.burst_every = 40;
  cc.burst_size = 12;
  cc.tight_deadline_frac = 0.05;
  cc.tight_deadline = std::chrono::milliseconds(2);
  cc.io_fail_prob = 0.15;
  cc.io_short_write_prob = 0.10;
  cc.stall_every = 5;
  cc.stall = std::chrono::microseconds(100);
  cc.coherence_images = 8;

  const chaos::ChaosScenarioReport rep =
      chaos::run_chaos_scenario(fleet, ptrs, f.test, cc);
  std::filesystem::remove_all(dir);

  print_violations(rep.violations);
  EXPECT_TRUE(rep.violations.empty());
  EXPECT_EQ(rep.submitted, 240u);
  EXPECT_EQ(rep.ok + rep.degraded + rep.shed + rep.deadline_expired +
                rep.quota_rejected + rep.queue_full + rep.other_rejected,
            rep.submitted);
  EXPECT_GT(rep.dispatched, 0u);
  EXPECT_GE(rep.availability, 0.9);
  EXPECT_FALSE(io_fault_hook_installed()) << "scenario must remove its hook";
  EXPECT_FALSE(exec::chunk_delay_hook_installed());
}

// Sparse shards: per-image varying bills (activation-proportional row
// charge) must still conserve exactly AND stay inside the structural
// price envelope [floor, ceiling] per answered request — under the same
// compound adversity (storm, bursts, stalls, deadline pressure).
TEST(ChaosScenario, SparseShardBillsConserveAndFitEnvelope) {
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < 2; ++k) {
    core::HardwareConfig cfg;
    cfg.spare_row_fraction = 0.2;
    cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    nets.push_back(std::make_unique<core::SeiNetwork>(
        f.qnet, cfg,
        reliability::make_repair_hook(reliability::RepairConfig{}, nullptr)));
    // Row billing on every eligible stage: each bill varies per image with
    // the rows its 1-bit inputs drive (synthetic digits leave many 9-row
    // input words idle).
    nets.back()->set_skip_bounds(
        std::vector<int>(static_cast<std::size_t>(nets.back()->stage_count()),
                         0));
    ptrs.push_back(nets.back().get());
  }
  core::AdcNetwork fallback(f.qnet, core::AdcConfig{}, f.train);

  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs("A:2,B:1");
  for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 1024;
  fc.sentinel.probe_every = 4;
  fc.sentinel.probe_count = 48;
  fc.sentinel.window = 24;
  fc.sentinel.min_probes = 12;
  fc.breaker.max_retries = 1;
  fc.breaker.retry_backoff_ms = 1;
  fc.breaker.reattempt_interval = 64;
  fc.calibration.max_images = 240;
  fc.calibration.gamma_min = 1.0;
  fc.calibration.gamma_max = 1.0;
  fc.calibration.gamma_step = 0.1;
  serve::FleetRuntime fleet(ptrs, f.qnet, f.test, f.train, fc, &fallback);
  serve::StormSchedule storm;
  storm.events.push_back({60, 0, {0, -1, 0.10, 1.0}, 10000});
  fleet.set_storm(storm);

  chaos::ChaosScenarioConfig cc;
  cc.seed = 11;
  cc.requests = 240;
  cc.window = 8;
  cc.burst_every = 40;
  cc.burst_size = 12;
  cc.tight_deadline_frac = 0.05;
  cc.stall_every = 5;
  cc.stall = std::chrono::microseconds(100);
  cc.coherence_images = 8;
  cc.check_envelope = true;
  const core::HardwareConfig& cfg0 = ptrs[0]->config();
  const telemetry::EnergyMeter sei_meter =
      arch::make_energy_meter(f.qnet, cfg0, core::StructureKind::kSei);
  const telemetry::EnergyMeter adc_meter =
      arch::make_energy_meter(f.qnet, cfg0, core::StructureKind::kBinInputAdc);
  cc.envelope.sei_min_image_j = sei_meter.network_floor_pj().total() * 1e-12;
  cc.envelope.sei_max_image_j = sei_meter.network_pj().total() * 1e-12;
  cc.envelope.adc_image_j = adc_meter.network_pj().total() * 1e-12;

  const chaos::ChaosScenarioReport rep =
      chaos::run_chaos_scenario(fleet, ptrs, f.test, cc);

  print_violations(rep.violations);
  EXPECT_TRUE(rep.violations.empty());
  EXPECT_GT(rep.ok, 0u);
  // Sparsity must actually have engaged: the fleet-wide SEI-path bill for
  // the ok answers sits strictly below the dense ceiling.
  const serve::FleetStats st = fleet.stats();
  double metered = 0.0;
  std::uint64_t ok_total = 0;
  for (std::size_t t = 0; t < st.tenants.size(); ++t) ok_total += st.tenants[t].ok;
  for (const double j : st.tenant_metered_j) metered += j;
  double adc_answers_j = 0.0;
  for (const serve::TenantCounters& c : st.tenants)
    adc_answers_j += static_cast<double>(c.degraded) * cc.envelope.adc_image_j;
  EXPECT_LT(metered - adc_answers_j,
            static_cast<double>(ok_total) * cc.envelope.sei_max_image_j)
      << "sparse bills should be below the every-row-active ceiling";
}

// ---------------------------------------------------------------------------
// Crash-point matrix (sampled offsets; the full stride-1 sweep is
// bench_chaos's job).

TEST(ChaosCrashMatrix, SampledOffsetsResumeBitIdentically) {
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  const chaos::FleetFactory factory =
      [&](const std::string& dir) -> std::unique_ptr<serve::FleetRuntime> {
    nets.clear();
    std::vector<core::SeiNetwork*> ptrs;
    for (int k = 0; k < 2; ++k) {
      core::HardwareConfig cfg;
      cfg.spare_row_fraction = 0.2;
      cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
      nets.push_back(std::make_unique<core::SeiNetwork>(
          f.qnet, cfg,
          reliability::make_repair_hook(reliability::RepairConfig{},
                                        nullptr)));
      ptrs.push_back(nets.back().get());
    }
    serve::FleetConfig fc;
    fc.tenants = serve::parse_tenant_specs("A:2,B:1");
    for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 1024;
    fc.sentinel.probe_every = 4;
    fc.sentinel.probe_count = 48;
    fc.sentinel.window = 24;
    fc.sentinel.min_probes = 12;
    fc.breaker.max_retries = 1;
    fc.breaker.retry_backoff_ms = 1;
    fc.breaker.reattempt_interval = 64;
    fc.calibration.max_images = 240;
    fc.calibration.gamma_min = 1.0;
    fc.calibration.gamma_max = 1.0;
    fc.calibration.gamma_step = 0.1;
    fc.checkpoint_dir = dir;
    fc.checkpoint_every = 0;
    auto fleet = std::make_unique<serve::FleetRuntime>(ptrs, f.qnet, f.test,
                                                       f.train, fc);
    // Storm inside (cut1, cut2): every crash leg dies holding active-storm
    // recovery state, which the resume must reconstruct.
    serve::StormSchedule storm;
    storm.events.push_back({16, 0, {0, -1, 0.10, 1.0}, 10000});
    fleet->set_storm(storm);
    return fleet;
  };

  chaos::CrashMatrixConfig mc;
  mc.dir = tmp_path("sei_chaos_matrix");
  mc.cut1 = 12;
  mc.cut2 = 20;
  mc.total = 28;
  mc.stride = 37;  // sample the offsets; bench_chaos runs stride 1
  mc.threads = {2, 8};
  const chaos::CrashMatrixReport rep =
      chaos::run_crash_matrix(factory, f.test, mc);

  print_violations(rep.violations);
  EXPECT_TRUE(rep.violations.empty());
  EXPECT_GT(rep.commit_steps, 0);
  EXPECT_GT(rep.steps_tested, 0);
  EXPECT_GE(rep.resumed_from_old, 1)
      << "crash step 0 must land on the previous committed set";
  EXPECT_GT(rep.coverage_pct, 0.0);
  EXPECT_FALSE(io_fault_hook_installed());
}

}  // namespace
}  // namespace sei
