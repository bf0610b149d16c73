// Serving: structured errors, cooperative deadlines, checkpoint integrity,
// canary sentinel, and circuit-breaker trip → repair → close. Fleet layer:
// weighted-fair admission, micro-batch deadline drops, checkpoint retry,
// replica failover, corrupt-manifest cold start, and crash-resume replay
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/io.hpp"
#include "core/adc_network.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "exec/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "quant/threshold_search.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

/// Small trained + quantized network2 shared across tests.
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

TEST(TryPredict, CancelledTokenYieldsStructuredError) {
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  core::EvalContext ctx;
  exec::CancelToken token;
  token.cancel();
  ctx.cancel = &token;
  const Result<int> res = hw.try_predict(f.image(0), ctx, 0);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.code(), ErrorCode::kCancelled);
}

TEST(TryPredict, ExpiredDeadlineYieldsDeadlineExceeded) {
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  core::EvalContext ctx;
  exec::CancelToken token;
  token.set_deadline(exec::CancelToken::Clock::now() -
                     std::chrono::milliseconds(1));
  ctx.cancel = &token;
  const Result<int> res = hw.try_predict(f.image(0), ctx, 0);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.code(), ErrorCode::kDeadlineExceeded);
}

TEST(TryPredict, CompletedPredictionBitIdenticalWithToken) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);
  core::EvalContext ctx;
  exec::CancelToken token;  // armed far in the future: never fires
  token.set_deadline_after(std::chrono::hours(1));
  for (int i = 0; i < 20; ++i) {
    const int plain = hw.predict(f.image(i), ctx, i);
    ctx.cancel = &token;
    const Result<int> tokened = hw.try_predict(f.image(i), ctx, i);
    ctx.cancel = nullptr;
    ASSERT_TRUE(tokened.ok());
    EXPECT_EQ(tokened.value(), plain) << "image " << i;
  }
}

TEST(Checkpoint, RoundTripRestoresExactState) {
  Fixture& f = fixture();
  const std::string path = tmp_path("sei_ckpt_roundtrip.bin");
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.02;
  core::SeiNetwork a(f.qnet, cfg);
  // Mutate post-construction state the way serving does (threshold trims).
  for (int s = 0; s < a.stage_count(); ++s)
    for (float& t : a.layer(s).col_threshold) t *= 1.05f;
  serve::RuntimeSnapshot snap;
  snap.next_sequence = 123;
  snap.requests_served = 130;
  snap.checkpoint_epoch = 7;
  snap.probe_cursor = 9;
  ASSERT_TRUE(serve::save_checkpoint(a, snap, path).ok());

  core::SeiNetwork b(f.qnet, cfg);
  const Result<serve::RuntimeSnapshot> loaded = serve::load_checkpoint(b, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().next_sequence, 123u);
  EXPECT_EQ(loaded.value().requests_served, 130u);
  EXPECT_EQ(loaded.value().checkpoint_epoch, 7u);
  EXPECT_EQ(loaded.value().probe_cursor, 9u);
  for (int s = 0; s < a.stage_count(); ++s) {
    EXPECT_EQ(b.layer(s).eff, a.layer(s).eff) << "stage " << s;
    EXPECT_EQ(b.layer(s).col_threshold, a.layer(s).col_threshold);
    EXPECT_EQ(b.layer(s).row_to_block, a.layer(s).row_to_block);
  }
  core::EvalContext ca, cb;
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(b.predict(f.image(i), cb, 1000 + i),
              a.predict(f.image(i), ca, 1000 + i));
  std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptAndTruncatedFilesAreRejected) {
  Fixture& f = fixture();
  const std::string path = tmp_path("sei_ckpt_corrupt.bin");
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::RuntimeSnapshot snap;
  ASSERT_TRUE(serve::save_checkpoint(net, snap, path).ok());

  // Bit flip inside the payload → CRC mismatch → kCorrupt.
  {
    std::fstream fs(path, std::ios::in | std::ios::out | std::ios::binary);
    fs.seekp(64);
    const char b = 0x7f;
    fs.write(&b, 1);
  }
  Result<serve::RuntimeSnapshot> r = serve::load_checkpoint(net, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kCorrupt);

  // Truncation (torn write without the rename barrier) → kCorrupt.
  ASSERT_TRUE(serve::save_checkpoint(net, snap, path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  r = serve::load_checkpoint(net, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kCorrupt);

  // Missing file → kIo ("cold start", not corruption).
  std::filesystem::remove(path);
  r = serve::load_checkpoint(net, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kIo);
}

TEST(Checkpoint, StrayTmpFromKilledWriterIsIgnored) {
  // A process killed mid-write leaves <path>.tmp; the durable file at
  // <path> must still load, and the next save must replace the leftovers.
  Fixture& f = fixture();
  const std::string path = tmp_path("sei_ckpt_straytmp.bin");
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::RuntimeSnapshot snap;
  snap.next_sequence = 55;
  ASSERT_TRUE(serve::save_checkpoint(net, snap, path).ok());
  {
    std::ofstream garbage(path + ".tmp", std::ios::binary);
    garbage << "partial checkpoint cut off by kill -9";
  }
  const Result<serve::RuntimeSnapshot> r = serve::load_checkpoint(net, path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().next_sequence, 55u);
  ASSERT_TRUE(serve::save_checkpoint(net, snap, path).ok());
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Weighted-fair admission policy (pure, single-threaded core).

std::unique_ptr<serve::FleetRequest> make_request(int tenant) {
  auto req = std::make_unique<serve::FleetRequest>();
  req->tenant = tenant;
  req->enqueued = std::chrono::steady_clock::now();
  return req;
}

TEST(Admission, StridePopOrderFollowsWeights) {
  serve::AdmissionController adm(serve::parse_tenant_specs("A:2,B:1"));
  for (int i = 0; i < 8; ++i) {
    auto a = make_request(0);
    auto b = make_request(1);
    EXPECT_FALSE(adm.try_admit(a).has_value());
    EXPECT_FALSE(adm.try_admit(b).has_value());
  }
  // Over any saturated window the pop ratio is the weight ratio 2:1.
  int a_pops = 0, b_pops = 0;
  for (int i = 0; i < 9; ++i) {
    auto req = adm.pop_next();
    ASSERT_NE(req, nullptr);
    (req->tenant == 0 ? a_pops : b_pops)++;
    // The promise is never fulfilled in this policy-only test; silence the
    // broken-promise exception by satisfying it here.
    req->promise.set_value(serve::FleetResponse{});
  }
  EXPECT_EQ(a_pops, 6);
  EXPECT_EQ(b_pops, 3);
}

TEST(Admission, QueueBoundRejectsWithQueueFull) {
  std::vector<serve::TenantConfig> tenants = serve::parse_tenant_specs("A:1");
  tenants[0].queue_capacity = 2;
  serve::AdmissionController adm(tenants);
  auto r1 = make_request(0);
  auto r2 = make_request(0);
  auto r3 = make_request(0);
  EXPECT_FALSE(adm.try_admit(r1).has_value());
  EXPECT_FALSE(adm.try_admit(r2).has_value());
  const auto rej = adm.try_admit(r3);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(*rej, ErrorCode::kQueueFull);
  ASSERT_NE(r3, nullptr);  // ownership stays with the caller on rejection
  EXPECT_EQ(adm.counters(0).queue_rejections, 1u);
  while (auto req = adm.pop_next()) req->promise.set_value({});
}

TEST(Admission, QuotaExhaustionRejectsNewRequests) {
  std::vector<serve::TenantConfig> tenants = serve::parse_tenant_specs("A:1");
  tenants[0].energy_quota_j = 1.0e-6;
  serve::AdmissionController adm(tenants);
  auto ok = make_request(0);
  EXPECT_FALSE(adm.try_admit(ok).has_value());
  adm.charge_energy(0, 2.0e-6);  // bill past the quota
  auto rejected = make_request(0);
  const auto rej = adm.try_admit(rejected);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(*rej, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(adm.counters(0).quota_rejections, 1u);
  while (auto req = adm.pop_next()) req->promise.set_value({});
}

TEST(Admission, IdleTenantRejoinsAtGlobalPassWithoutBurst) {
  serve::AdmissionController adm(serve::parse_tenant_specs("A:1,B:1"));
  for (int i = 0; i < 6; ++i) {
    auto a = make_request(0);
    ASSERT_FALSE(adm.try_admit(a).has_value());
  }
  for (int i = 0; i < 6; ++i) adm.pop_next()->promise.set_value({});
  // B was idle the whole time; it must rejoin at the current global pass,
  // not claim 6 backdated pops in a row.
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    auto a = make_request(0);
    auto b = make_request(1);
    ASSERT_FALSE(adm.try_admit(a).has_value());
    ASSERT_FALSE(adm.try_admit(b).has_value());
  }
  for (int i = 0; i < 4; ++i) {
    auto req = adm.pop_next();
    order.push_back(req->tenant);
    req->promise.set_value({});
  }
  EXPECT_EQ(std::count(order.begin(), order.begin() + 2, 1), 1)
      << "idle tenant must not monopolize the first pops after rejoining";
}

TEST(Admission, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(serve::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(serve::jain_fairness({5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(serve::jain_fairness({1.0, 0.0}), 0.5);
}

// ---------------------------------------------------------------------------
// Micro-batcher: deadline-expired requests die at batch assembly.

TEST(Batcher, DropsExpiredRequestsAtAssembly) {
  serve::AdmissionController adm(serve::parse_tenant_specs("A:1"));
  serve::MicroBatcher batcher(adm, serve::BatcherConfig{});
  auto expired = make_request(0);
  expired->token.set_deadline(std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1));
  auto fresh = make_request(0);
  std::future<serve::FleetResponse> expired_fut =
      batcher.submit(std::move(expired));
  std::future<serve::FleetResponse> fresh_fut =
      batcher.submit(std::move(fresh));
  std::vector<std::unique_ptr<serve::FleetRequest>> batch =
      batcher.next_batch();
  ASSERT_EQ(batch.size(), 1u) << "expired request must not reach the batch";
  const serve::FleetResponse r = expired_fut.get();
  EXPECT_EQ(r.status, serve::FleetResponseStatus::kRejected);
  EXPECT_EQ(r.error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.stats().dropped_expired, 1u);
  EXPECT_EQ(adm.counters(0).dropped_expired, 1u);
  batch[0]->promise.set_value({});
  (void)fresh_fut;
}

// ---------------------------------------------------------------------------
// Checkpoint IO retry with exponential backoff.

TEST(CheckpointRetry, TransientIoFailureRetriesUntilSuccess) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::RuntimeSnapshot snap;
  snap.next_sequence = 7;
  snap.requests_served = 7;
  const std::string path = tmp_path("sei_fleet_retry.ckpt");
  int attempts = 0;
  serve::CheckpointRetryPolicy pol;
  pol.max_attempts = 3;
  pol.backoff_ms = 1;
  pol.inject_failure = [&](int attempt) -> Status {
    ++attempts;
    if (attempt < 3) return Error{ErrorCode::kIo, "transient write failure"};
    return serve::save_checkpoint(net, snap, path);
  };
  const Status st = serve::save_checkpoint_with_retry(net, snap, path, pol);
  ASSERT_TRUE(st.ok()) << st.error().message;
  EXPECT_EQ(attempts, 3);
  core::SeiNetwork restored(f.qnet, core::HardwareConfig{});
  const Result<serve::RuntimeSnapshot> loaded =
      serve::load_checkpoint(restored, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().next_sequence, 7u);
  std::filesystem::remove(path);
}

TEST(CheckpointRetry, PermanentIoFailureGivesUpAfterMaxAttempts) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  int attempts = 0;
  serve::CheckpointRetryPolicy pol;
  pol.max_attempts = 3;
  pol.backoff_ms = 1;
  pol.inject_failure = [&](int) -> Status {
    ++attempts;
    return Error{ErrorCode::kIo, "disk on fire"};
  };
  const Status st = serve::save_checkpoint_with_retry(
      net, serve::RuntimeSnapshot{}, tmp_path("sei_fleet_retry2.ckpt"), pol);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kIo);
  EXPECT_EQ(attempts, 3);
}

TEST(CheckpointRetry, NonTransientErrorIsNotRetried) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  int attempts = 0;
  serve::CheckpointRetryPolicy pol;
  pol.max_attempts = 3;
  pol.backoff_ms = 1;
  pol.inject_failure = [&](int) -> Status {
    ++attempts;
    return Error{ErrorCode::kCorrupt, "not an IO problem"};
  };
  const Status st = serve::save_checkpoint_with_retry(
      net, serve::RuntimeSnapshot{}, tmp_path("sei_fleet_retry3.ckpt"), pol);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kCorrupt);
  EXPECT_EQ(attempts, 1) << "only kIo counts as transient";
}

// ---------------------------------------------------------------------------
// Fleet runtime: routing, failover, quotas, crash-resume determinism.

/// Fleet config that never probes or trips — for pure routing tests.
serve::FleetConfig quiet_fleet_config(const std::string& spec) {
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs(spec);
  for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 1024;
  fc.sentinel.probe_every = 1 << 20;
  fc.breaker.trip_drop_pct = 1000.0;
  return fc;
}

/// Fleet config with a live sentinel/breaker tuned for the weak fixture.
/// Recalibration is pinned to the nominal thresholds: on this fixture
/// (baseline ~75%) a trim that gains on the train-set batch routinely loses
/// on the 48 test probes, which would mask the repair result.
serve::FleetConfig storm_fleet_config(const std::string& spec) {
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs(spec);
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
  return fc;
}

TEST(Fleet, ServedLabelsMatchReferenceAcrossShards) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.03;
  core::HardwareConfig cfg1 = cfg;
  cfg1.seed += 1000003;
  core::SeiNetwork s0(f.qnet, cfg), s1(f.qnet, cfg1);
  core::SeiNetwork twin0(f.qnet, cfg), twin1(f.qnet, cfg1);

  serve::FleetRuntime fleet({&s0, &s1}, f.qnet, f.test, f.train,
                            quiet_fleet_config("A:1"));
  fleet.start();
  const int n = 40;
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < n; ++i) futs.push_back(fleet.submit(0, f.image(i)));
  core::EvalContext ctx;
  for (int i = 0; i < n; ++i) {
    const serve::FleetResponse r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk) << "request " << i;
    // Round-robin home placement: ticket i lands on shard i % 2 with
    // shard-local sequence i / 2 — and the label matches an offline twin
    // evaluated at exactly that RNG index.
    EXPECT_EQ(r.ticket, static_cast<std::uint64_t>(i));
    ASSERT_EQ(r.shard, i % 2);
    EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(i / 2));
    core::SeiNetwork& twin = r.shard == 0 ? twin0 : twin1;
    EXPECT_EQ(r.label, twin.predict(f.image(i), ctx,
                                    static_cast<long long>(r.sequence)));
  }
  fleet.stop();
  const serve::FleetStats st = fleet.stats();
  EXPECT_EQ(st.total_dispatched, static_cast<std::uint64_t>(n));
  EXPECT_EQ(st.failovers, 0u);
  EXPECT_EQ(st.shed, 0u);
}

TEST(Fleet, StormHealResolvesAfterItsTrip) {
  // A storm that passes: shard 0 trips, parks while the storm is overhead,
  // and a periodic re-attempt heals it once the storm has moved on. The
  // healed record's served count is frozen at the trip (a parked shard
  // serves nothing); its dispatch count shows when the shard came back.
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < 3; ++k) {
    core::HardwareConfig cfg;
    cfg.spare_row_fraction = 0.2;
    cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    nets.push_back(std::make_unique<core::SeiNetwork>(
        f.qnet, cfg,
        reliability::make_repair_hook(reliability::RepairConfig{}, nullptr)));
    ptrs.push_back(nets.back().get());
  }
  core::AdcNetwork fallback(f.qnet, core::AdcConfig{}, f.train);
  serve::FleetRuntime fleet(ptrs, f.qnet, f.test, f.train,
                            storm_fleet_config("A:1"), &fallback);
  const std::uint64_t strike = 60, duration = 120;
  serve::StormSchedule storm;
  storm.events.push_back({strike, 0, {0, -1, 0.10, 1.0}, duration});
  fleet.set_storm(storm);

  fleet.start();
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < 600; ++i) futs.push_back(fleet.submit(0, f.image(i)));
  for (auto& fu : futs) (void)fu.get();
  fleet.stop();

  const std::vector<serve::RecoveryRecord> recs = fleet.shard_recoveries(0);
  const auto healed = std::find_if(
      recs.begin(), recs.end(), [](const serve::RecoveryRecord& r) {
        return r.tier_reached >= 2 && r.closed;
      });
  ASSERT_NE(healed, recs.end()) << "shard 0 must park, then heal";
  EXPECT_EQ(healed->resolved_at_served, healed->tripped_at_served);
  EXPECT_GE(healed->resolved_at_dispatched, strike + duration)
      << "a heal cannot land while the storm is overhead";
  EXPECT_EQ(fleet.shard_state(0), serve::BreakerState::kClosed);
}

TEST(Fleet, StormFailoverKeepsServingOnReplicas) {
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < 3; ++k) {
    core::HardwareConfig cfg;
    cfg.spare_row_fraction = 0.2;
    cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    nets.push_back(std::make_unique<core::SeiNetwork>(
        f.qnet, cfg,
        reliability::make_repair_hook(reliability::RepairConfig{}, nullptr)));
    ptrs.push_back(nets.back().get());
  }
  core::AdcNetwork fallback(f.qnet, core::AdcConfig{}, f.train);

  serve::FleetRuntime fleet(ptrs, f.qnet, f.test, f.train,
                            storm_fleet_config("A:1"), &fallback);
  // A storm that outlives the test: repair re-lands the damage, so shard 0
  // must park and its traffic must fail over to the replicas.
  serve::StormSchedule storm;
  storm.events.push_back({60, 0, {0, -1, 0.10, 1.0}, 1u << 20});
  fleet.set_storm(storm);

  fleet.start();
  const int n = 400;
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < n; ++i) futs.push_back(fleet.submit(0, f.image(i)));
  int ok = 0;
  for (auto& fu : futs)
    if (fu.get().status == serve::FleetResponseStatus::kOk) ++ok;
  fleet.stop();

  // Availability through the storm: replicas absorb everything on the SEI
  // path — nothing sheds, nothing degrades.
  EXPECT_EQ(ok, n);
  const serve::FleetStats st = fleet.stats();
  EXPECT_GT(st.failovers, 0u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.fallback_served, 0u);
  EXPECT_EQ(fleet.shard_state(0), serve::BreakerState::kFallback)
      << "shard 0 must stay parked while the storm is overhead";
  EXPECT_EQ(fleet.shard_state(1), serve::BreakerState::kClosed);
  EXPECT_EQ(fleet.shard_state(2), serve::BreakerState::kClosed);
  ASSERT_FALSE(fleet.failovers().empty());
  EXPECT_EQ(fleet.failovers().front().home_shard, 0);
}

TEST(Fleet, TenantEnergyQuotaRejectsAfterExhaustion) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::FleetConfig fc = quiet_fleet_config("A:1");
  fc.tenants[0].energy_quota_j = 1.0e-9;  // less than one evaluation
  serve::FleetRuntime fleet({&net}, f.qnet, f.test, f.train, fc);
  fleet.start();
  // First request is admitted (bill is zero) and billed at flush.
  EXPECT_EQ(fleet.submit(0, f.image(0)).get().status,
            serve::FleetResponseStatus::kOk);
  // Its bill now exceeds the quota: everything further is rejected.
  const serve::FleetResponse r = fleet.submit(0, f.image(1)).get();
  EXPECT_EQ(r.status, serve::FleetResponseStatus::kRejected);
  EXPECT_EQ(r.error, ErrorCode::kQuotaExceeded);
  fleet.stop();
  EXPECT_GE(fleet.stats().tenants[0].quota_rejections, 1u);
  EXPECT_GT(fleet.stats().tenants[0].energy_j, 1.0e-9);
}

// ---------------------------------------------------------------------------
// Single-chip serving: the runtime is a one-shard, one-tenant FleetRuntime.

TEST(Runtime, ServedLabelsMatchDirectPredictions) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.03;
  core::SeiNetwork served(f.qnet, cfg);
  core::SeiNetwork reference(f.qnet, cfg);  // identical twin

  serve::FleetRuntime rt({&served}, f.qnet, f.test, f.train,
                         quiet_fleet_config("A:1"));
  rt.start();
  const int n = 60;
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < n; ++i) futs.push_back(rt.submit(0, f.image(i)));
  core::EvalContext ctx;
  for (int i = 0; i < n; ++i) {
    const serve::FleetResponse r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk) << "request " << i;
    EXPECT_EQ(r.shard, 0);
    EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(i));
    EXPECT_EQ(r.label, reference.predict(f.image(i), ctx, i));
  }
  rt.stop();
  const serve::FleetStats st = rt.stats();
  EXPECT_EQ(st.total_dispatched, static_cast<std::uint64_t>(n));
  EXPECT_EQ(st.tenants[0].ok, static_cast<std::uint64_t>(n));
  EXPECT_EQ(st.tenants[0].queue_rejections, 0u);
}

TEST(Runtime, ExpiredDeadlineIsRejectedNotServed) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::FleetRuntime rt({&net}, f.qnet, f.test, f.train,
                         quiet_fleet_config("A:1"));
  // Queue before start(): the 1 ms deadline has long passed by the time the
  // dispatcher assembles its first batch, so the request is dropped there.
  std::vector<std::future<serve::FleetResponse>> fillers;
  for (int i = 0; i < 20; ++i) fillers.push_back(rt.submit(0, f.image(i)));
  std::future<serve::FleetResponse> late =
      rt.submit(0, f.image(0), std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rt.start();
  const serve::FleetResponse r = late.get();
  for (auto& fu : fillers)
    EXPECT_EQ(fu.get().status, serve::FleetResponseStatus::kOk);
  rt.stop();
  EXPECT_EQ(r.status, serve::FleetResponseStatus::kRejected);
  EXPECT_EQ(r.error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(rt.stats().tenants[0].dropped_expired, 1u);
  EXPECT_EQ(rt.stats().total_dispatched, 20u);
}

TEST(Runtime, RejectsWhenNotAccepting) {
  Fixture& f = fixture();
  core::SeiNetwork net(f.qnet, core::HardwareConfig{});
  serve::FleetRuntime fleet({&net}, f.qnet, f.test, f.train,
                            quiet_fleet_config("A:1"));
  fleet.start();
  EXPECT_EQ(fleet.submit(0, f.image(0)).get().status,
            serve::FleetResponseStatus::kOk);
  fleet.stop();
  const serve::FleetResponse r = fleet.submit(0, f.image(0)).get();
  EXPECT_EQ(r.status, serve::FleetResponseStatus::kRejected);
  EXPECT_EQ(r.error, ErrorCode::kUnavailable);
}

TEST(Fleet, HealthyShardsNeverTripOverManyProbeCycles) {
  // No fault, no trip. Each shard's baseline keeps every probe's outcome,
  // and a window trips only against the baseline accuracy of the probes it
  // holds — so the first trusted window (min_probes of the probe set) and
  // every later one read no drop on a shard that still answers as it did
  // at startup, even when they hold more of the probes it always misses.
  // Three shards with distinct mapping seeds, four passes over the probes.
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < 3; ++k) {
    core::HardwareConfig cfg;
    cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    nets.push_back(std::make_unique<core::SeiNetwork>(f.qnet, cfg));
    ptrs.push_back(nets.back().get());
  }
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs("A:1");
  fc.tenants[0].queue_capacity = 1024;
  fc.sentinel.probe_every = 1;
  serve::FleetRuntime fleet(ptrs, f.qnet, f.test, f.train, fc);
  fleet.start();
  const int cycles = 4;
  const int n = cycles * fc.sentinel.probe_count * 3;  // < queue capacity
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < n; ++i) futs.push_back(fleet.submit(0, f.image(i)));
  for (auto& fu : futs) fu.get();
  fleet.stop();
  const serve::FleetStats st = fleet.stats();
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const serve::ShardStats& ss = st.shards[static_cast<std::size_t>(k)];
    EXPECT_GE(ss.served, static_cast<std::uint64_t>(
                             cycles * fc.sentinel.probe_count));
    EXPECT_LT(ss.baseline_pct, 100.0);  // some probes are always missed
    EXPECT_EQ(ss.trips, 0);
    EXPECT_TRUE(fleet.shard_recoveries(k).empty());
    EXPECT_EQ(ss.state, serve::BreakerState::kClosed);
  }
}

TEST(Runtime, BreakerTripsRepairsAndRecovers) {
  // The single-chip serving contract (bench_serving --shards 1 --strict): a
  // one-shot stuck-cell strike on the only shard trips the breaker within
  // 200 served requests, and tier-1 repair restores the SEI path to within
  // 2 points of baseline without a restart.
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.spare_row_fraction = 0.2;
  core::SeiNetwork net(
      f.qnet, cfg,
      reliability::make_repair_hook(reliability::RepairConfig{}, nullptr));
  const core::AdcNetwork fallback(f.qnet, core::AdcConfig{}, f.train);

  serve::FleetConfig fc = storm_fleet_config("A:1");
  fc.sentinel.probe_every = 2;
  serve::FleetRuntime fleet({&net}, f.qnet, f.test, f.train, fc, &fallback);
  const std::uint64_t fault_at = 60;
  serve::StormSchedule storm;
  storm.events.push_back({fault_at, 0, {0, -1, 0.05, 1.0}, 0});
  fleet.set_storm(storm);

  fleet.start();
  const double baseline = fleet.stats().shards[0].baseline_pct;
  std::vector<std::future<serve::FleetResponse>> futs;
  for (int i = 0; i < 400; ++i) futs.push_back(fleet.submit(0, f.image(i)));
  for (auto& fu : futs) fu.get();
  fleet.stop();

  // A healthy shard never trips: the first recovery is the strike's.
  const std::vector<serve::RecoveryRecord> recs = fleet.shard_recoveries(0);
  ASSERT_FALSE(recs.empty()) << "breaker never tripped on the injected fault";
  const serve::RecoveryRecord* rec = &recs.front();
  EXPECT_GE(rec->tripped_at_served, fault_at)
      << "breaker tripped before the strike";
  EXPECT_LE(rec->tripped_at_served, fault_at + 200);
  EXPECT_TRUE(rec->closed);
  EXPECT_LE(rec->tier_reached, 1);
  EXPECT_GE(rec->acc_after_pct, baseline - 2.0);
  EXPECT_EQ(fleet.shard_state(0), serve::BreakerState::kClosed);
}

TEST(Fleet, CorruptManifestStartsCold) {
  // A torn or bit-flipped manifest must mean "cold start", never a crash or
  // a half-restored fleet: the request stream restarts at sequence 0 and
  // every label matches a direct predict on an untouched twin.
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;  // stochastic readout: RNG keying matters
  serve::FleetConfig fc = quiet_fleet_config("A:1");
  fc.checkpoint_every = 0;  // only stop() commits
  for (const bool truncate : {true, false}) {
    SCOPED_TRACE(truncate ? "truncated" : "bit-flipped");
    fc.checkpoint_dir = tmp_path(truncate ? "sei_fleet_manifest_truncated"
                                          : "sei_fleet_manifest_flipped");
    std::filesystem::remove_all(fc.checkpoint_dir);
    {  // Commit a set at dispatch 30.
      core::SeiNetwork net(f.qnet, cfg);
      serve::FleetRuntime fleet({&net}, f.qnet, f.test, f.train, fc);
      fleet.start();
      std::vector<std::future<serve::FleetResponse>> futs;
      for (int i = 0; i < 30; ++i) futs.push_back(fleet.submit(0, f.image(i)));
      for (auto& fu : futs) fu.get();
      fleet.stop();
    }
    const std::string manifest = fc.checkpoint_dir + "/fleet.manifest";
    ASSERT_TRUE(file_exists(manifest));
    if (truncate) {
      std::filesystem::resize_file(manifest,
                                   std::filesystem::file_size(manifest) / 2);
    } else {
      std::fstream fs(manifest, std::ios::in | std::ios::out | std::ios::binary);
      fs.seekg(12);
      const char b = static_cast<char>(fs.get() ^ 0x5a);
      fs.seekp(12);
      fs.write(&b, 1);
    }

    core::SeiNetwork net(f.qnet, cfg);
    core::SeiNetwork twin(f.qnet, cfg);
    serve::FleetRuntime fleet({&net}, f.qnet, f.test, f.train, fc);
    fleet.start();
    EXPECT_FALSE(fleet.resumed_from_checkpoint());
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = 0; i < 20; ++i) futs.push_back(fleet.submit(0, f.image(i)));
    core::EvalContext ctx;
    for (int i = 0; i < 20; ++i) {
      const serve::FleetResponse r = futs[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk) << "request " << i;
      EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(i));
      EXPECT_EQ(r.label, twin.predict(f.image(i), ctx, i)) << "request " << i;
    }
    fleet.stop();
    std::filesystem::remove_all(fc.checkpoint_dir);
  }
}

TEST(FaultSchedule, PlanRebuiltAfterApplyFault) {
  // apply_fault mutates the live effective weights, so it must rebuild the
  // packed decompositions and recompile the plan — a stale plan would keep
  // dispatching engines (and packed words) programmed for the healthy
  // weights. The packed plan must agree with the plan recompiled onto the
  // scalar engines on the damaged state, and the rebuild must bump the
  // epoch.
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  const std::uint64_t epoch_before = hw.plan().epoch;

  serve::FaultEvent ev;
  ev.stage = -1;  // damage every stage
  ev.stuck_fraction = 0.15;
  serve::apply_fault(hw, ev, /*seed=*/1234, /*event_index=*/0);
  EXPECT_GT(hw.plan().epoch, epoch_before);

  // The scalar engines read the damaged `eff` directly — ground truth.
  std::vector<int> scalar_ref;
  hw.set_packed_eval(false);
  core::EvalContext ctx;
  for (int i = 0; i < 40; ++i) scalar_ref.push_back(hw.predict(f.image(i), ctx, i));
  hw.set_packed_eval(true);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(hw.predict(f.image(i), ctx, i),
              scalar_ref[static_cast<std::size_t>(i)])
        << "image " << i;
}

TEST(Checkpoint, ResumeRebuildsPackedStateAndPlan) {
  // load_checkpoint overwrites `eff` wholesale, so the restore must rebuild
  // each stage's packed decomposition and recompile the plan; a restored
  // network that kept its pre-restore packed words would serve the old
  // weights through the packed engines while the scalar path served the
  // new ones.
  Fixture& f = fixture();
  const std::string path = tmp_path("sei_ckpt_plan_rebuild.bin");
  core::SeiNetwork a(f.qnet, core::HardwareConfig{});
  serve::FaultEvent ev;
  ev.stage = -1;
  ev.stuck_fraction = 0.10;
  serve::apply_fault(a, ev, /*seed=*/99, /*event_index=*/0);
  serve::RuntimeSnapshot snap;
  ASSERT_TRUE(serve::save_checkpoint(a, snap, path).ok());

  core::SeiNetwork b(f.qnet, core::HardwareConfig{});  // healthy pre-restore
  const std::uint64_t epoch_before = b.plan().epoch;
  ASSERT_TRUE(serve::load_checkpoint(b, path).ok());
  EXPECT_GT(b.plan().epoch, epoch_before);

  // b's compiled path must match a's, and must match b's own scalar
  // engines — any stale packed words or stale plan break one of these.
  core::EvalContext ca, cb;
  std::vector<int> restored;
  for (int i = 0; i < 40; ++i) restored.push_back(b.predict(f.image(i), cb, i));
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(restored[static_cast<std::size_t>(i)], a.predict(f.image(i), ca, i))
        << "image " << i;
  b.set_packed_eval(false);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(b.predict(f.image(i), cb, i),
              restored[static_cast<std::size_t>(i)])
        << "image " << i;
  std::filesystem::remove(path);
}

TEST(Fleet, CrashResumeReplaysBitIdentically) {
  Fixture& f = fixture();
  const auto make_nets = [&] {
    std::vector<std::unique_ptr<core::SeiNetwork>> nets;
    for (int k = 0; k < 2; ++k) {
      core::HardwareConfig cfg;
      cfg.spare_row_fraction = 0.2;
      cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
      nets.push_back(std::make_unique<core::SeiNetwork>(
          f.qnet, cfg,
          reliability::make_repair_hook(reliability::RepairConfig{},
                                        nullptr)));
    }
    return nets;
  };
  const auto ptrs_of = [](auto& nets) {
    std::vector<core::SeiNetwork*> p;
    for (auto& n : nets) p.push_back(n.get());
    return p;
  };
  // Storm lands at dispatch 50 and stays overhead past the kill point at
  // 100, so the manifest must carry the active-storm state across resume.
  serve::StormSchedule storm;
  storm.events.push_back({50, 0, {0, -1, 0.10, 1.0}, 10000});
  const int total = 160, cut = 100;

  struct Reply {
    serve::FleetResponseStatus status;
    int label, shard;
    std::uint64_t ticket, sequence;
  };
  const auto collect = [](std::vector<std::future<serve::FleetResponse>>& fs) {
    std::vector<Reply> out;
    for (auto& fu : fs) {
      const serve::FleetResponse r = fu.get();
      out.push_back({r.status, r.label, r.shard, r.ticket, r.sequence});
    }
    return out;
  };

  // Uninterrupted reference run at 1 thread, no checkpoints.
  exec::set_default_threads(1);
  std::vector<Reply> reference;
  {
    auto nets = make_nets();
    serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train,
                              storm_fleet_config("A:1"));
    fleet.set_storm(storm);
    fleet.start();
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = 0; i < total; ++i) futs.push_back(fleet.submit(0, f.image(i)));
    reference = collect(futs);
    fleet.stop();
  }
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(total));

  for (const int threads : {1, 2, 8}) {
    exec::set_default_threads(threads);
    const std::string dir =
        tmp_path("sei_fleet_resume_t" + std::to_string(threads));
    std::filesystem::remove_all(dir);

    // Leg 1: serve the first `cut` requests, then stop mid-storm. stop()
    // drains and commits a final checkpoint set at exactly `cut`.
    {
      auto nets = make_nets();
      serve::FleetConfig fc = storm_fleet_config("A:1");
      fc.checkpoint_every = 20;
      fc.checkpoint_dir = dir;
      serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train, fc);
      fleet.set_storm(storm);
      fleet.start();
      ASSERT_FALSE(fleet.resumed_from_checkpoint());
      std::vector<std::future<serve::FleetResponse>> futs;
      for (int i = 0; i < cut; ++i) futs.push_back(fleet.submit(0, f.image(i)));
      const std::vector<Reply> first = collect(futs);
      fleet.stop();
      for (int i = 0; i < cut; ++i) {
        EXPECT_EQ(first[i].status, reference[i].status) << "request " << i;
        EXPECT_EQ(first[i].label, reference[i].label) << "request " << i;
        EXPECT_EQ(first[i].shard, reference[i].shard) << "request " << i;
        EXPECT_EQ(first[i].sequence, reference[i].sequence) << "request " << i;
      }
    }

    // Leg 2: fresh process image (fresh networks!) resumes from the
    // checkpoint set and must replay the remaining stream bit-identically.
    {
      auto nets = make_nets();
      serve::FleetConfig fc = storm_fleet_config("A:1");
      fc.checkpoint_every = 20;
      fc.checkpoint_dir = dir;
      serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train, fc);
      fleet.set_storm(storm);
      fleet.start();
      ASSERT_TRUE(fleet.resumed_from_checkpoint())
          << "threads=" << threads << ": manifest not picked up";
      std::vector<std::future<serve::FleetResponse>> futs;
      for (int i = cut; i < total; ++i)
        futs.push_back(fleet.submit(0, f.image(i)));
      const std::vector<Reply> rest = collect(futs);
      fleet.stop();
      for (int i = 0; i < total - cut; ++i) {
        const Reply& got = rest[static_cast<std::size_t>(i)];
        const Reply& want = reference[static_cast<std::size_t>(cut + i)];
        EXPECT_EQ(got.status, want.status) << "resumed request " << cut + i;
        EXPECT_EQ(got.label, want.label) << "resumed request " << cut + i;
        EXPECT_EQ(got.shard, want.shard) << "resumed request " << cut + i;
        EXPECT_EQ(got.ticket, want.ticket) << "resumed request " << cut + i;
        EXPECT_EQ(got.sequence, want.sequence)
            << "resumed request " << cut + i;
      }
    }
    std::filesystem::remove_all(dir);
  }
  exec::set_default_threads(0);  // restore the suite default
}

// ---------------------------------------------------------------------------
// Tenant-spec CLI validation: malformed input fails fast with a suggestion.

TEST(Admission, TenantSpecParserRejectsMalformedSpecs) {
  EXPECT_THROW(serve::parse_tenant_specs("A:1,A:2"), CliError);  // duplicate
  EXPECT_THROW(serve::parse_tenant_specs("A:0"), CliError);      // zero weight
  EXPECT_THROW(serve::parse_tenant_specs("A:-1"), CliError);     // negative
  EXPECT_THROW(serve::parse_tenant_specs("A:x"), CliError);      // non-numeric
  EXPECT_THROW(serve::parse_tenant_specs(":2"), CliError);       // empty name
  try {
    serve::parse_tenant_specs("A;2");
    FAIL() << "separator typo must not parse as a weight-1 tenant named 'A;2'";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'A:2'"),
              std::string::npos)
        << e.what();
  }
  const std::vector<serve::TenantConfig> ok = serve::parse_tenant_specs("A:2,B");
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_DOUBLE_EQ(ok[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(ok[1].weight, 1.0);  // bare name defaults to weight 1
}

// ---------------------------------------------------------------------------
// Batcher linger measured against an injected clock: a 5 s window closes the
// moment the fake clock jumps past it, without 5 s of real waiting.

TEST(Batcher, InjectedClockDrivesLingerWithoutRealWaiting) {
  serve::AdmissionController adm(serve::parse_tenant_specs("A:1"));
  serve::BatcherConfig bc;
  bc.linger = std::chrono::seconds(5);
  serve::MicroBatcher batcher(adm, bc);
  std::atomic<std::int64_t> fake_us{0};
  batcher.set_time_source([&fake_us] {
    return serve::MicroBatcher::Clock::time_point(
        std::chrono::microseconds(fake_us.load()));
  });
  std::future<serve::FleetResponse> fut = batcher.submit(make_request(0));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<serve::FleetRequest>> batch;
  std::thread consumer([&] { batch = batcher.next_batch(); });
  // Let the consumer enter the linger wait on the frozen clock, then jump
  // the clock past the window; the poll loop must notice and dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fake_us.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::seconds(6))
          .count());
  consumer.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "the 5 s linger must be paid in fake time, not real time";
  batch[0]->promise.set_value({});
  batcher.close();
  (void)fut;
}

// ---------------------------------------------------------------------------
// Torn fleet-manifest commit: shard slot files land but the manifest write
// dies. The commit must be invisible — the previous manifest's slot files are
// untouched (they live in the other epoch-parity slot), so the next resume
// replays from the older cut bit-identically.

TEST(Fleet, TornManifestCommitResumesFromPriorEpoch) {
  Fixture& f = fixture();
  const auto make_nets = [&] {
    std::vector<std::unique_ptr<core::SeiNetwork>> nets;
    for (int k = 0; k < 2; ++k) {
      core::HardwareConfig cfg;
      cfg.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
      nets.push_back(std::make_unique<core::SeiNetwork>(f.qnet, cfg));
    }
    return nets;
  };
  const auto ptrs_of = [](auto& nets) {
    std::vector<core::SeiNetwork*> p;
    for (auto& n : nets) p.push_back(n.get());
    return p;
  };
  struct Reply {
    serve::FleetResponseStatus status;
    int label, shard;
    std::uint64_t ticket, sequence;
  };
  const auto serve_range = [&](serve::FleetRuntime& fleet, int lo, int hi) {
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = lo; i < hi; ++i) futs.push_back(fleet.submit(0, f.image(i)));
    std::vector<Reply> out;
    for (auto& fu : futs) {
      const serve::FleetResponse r = fu.get();
      out.push_back({r.status, r.label, r.shard, r.ticket, r.sequence});
    }
    return out;
  };
  const int cut1 = 30, cut2 = 45, total = 60;
  const std::string dir = tmp_path("sei_fleet_torn_manifest");
  std::filesystem::remove_all(dir);

  // Uninterrupted reference run, no checkpoints.
  std::vector<Reply> reference;
  {
    auto nets = make_nets();
    serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train,
                              quiet_fleet_config("A:1"));
    fleet.start();
    reference = serve_range(fleet, 0, total);
    fleet.stop();
  }

  serve::FleetConfig fc = quiet_fleet_config("A:1");
  fc.checkpoint_every = 0;  // only stop() commits — one set per leg
  fc.checkpoint_dir = dir;

  // Leg 1: commit a clean set at cut1.
  {
    auto nets = make_nets();
    serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train, fc);
    fleet.start();
    serve_range(fleet, 0, cut1);
    fleet.stop();
  }

  // Leg 2: resume, serve to cut2, then tear the commit — every write to the
  // manifest fails, after the shard slot files have already been written.
  {
    auto nets = make_nets();
    serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train, fc);
    fleet.start();
    ASSERT_TRUE(fleet.resumed_from_checkpoint());
    ASSERT_EQ(fleet.stats().total_dispatched,
              static_cast<std::uint64_t>(cut1));
    serve_range(fleet, cut1, cut2);
    set_io_fault_hook([](const IoFaultSite& site) {
      return site.op == IoOp::kWrite &&
                     site.path.find("fleet.manifest") != std::string::npos
                 ? IoFaultAction::kFail
                 : IoFaultAction::kNone;
    });
    fleet.stop();  // commit aborts at the manifest; warning, not an error
    set_io_fault_hook(IoFaultHook{});
  }

  // Leg 3: the torn commit must be invisible — resume lands on cut1 and the
  // replay from there matches the uninterrupted reference field-for-field.
  {
    auto nets = make_nets();
    serve::FleetRuntime fleet(ptrs_of(nets), f.qnet, f.test, f.train, fc);
    fleet.start();
    ASSERT_TRUE(fleet.resumed_from_checkpoint());
    ASSERT_EQ(fleet.stats().total_dispatched, static_cast<std::uint64_t>(cut1))
        << "torn manifest must not advance the committed cut";
    const std::vector<Reply> rest = serve_range(fleet, cut1, total);
    fleet.stop();
    for (int i = 0; i < total - cut1; ++i) {
      const Reply& got = rest[static_cast<std::size_t>(i)];
      const Reply& want = reference[static_cast<std::size_t>(cut1 + i)];
      EXPECT_EQ(got.status, want.status) << "resumed request " << cut1 + i;
      EXPECT_EQ(got.label, want.label) << "resumed request " << cut1 + i;
      EXPECT_EQ(got.shard, want.shard) << "resumed request " << cut1 + i;
      EXPECT_EQ(got.ticket, want.ticket) << "resumed request " << cut1 + i;
      EXPECT_EQ(got.sequence, want.sequence) << "resumed request " << cut1 + i;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sei
