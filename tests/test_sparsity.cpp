// Row-billing contracts (docs/sparsity.md): billing by rows driven is a
// meter — predictions stay bit-identical to the dense network; the packed
// kernels (every sub-kernel the plan can select) and the scalar oracle
// report the same driven rows, so activation-proportional energy agrees
// across engines; the activity histogram counts exactly the rows that are
// billed; and a skip bound above 0 is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "common/check.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "exec/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "quant/threshold_search.hpp"
#include "sparsity/activity.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

/// Small trained + quantized network2 shared across tests.
struct Fixture {
  workloads::Workload wl = workloads::network2();
  data::Dataset train = data::generate_synthetic(800, 91);
  data::Dataset test = data::generate_synthetic(240, 92);
  quant::QNetwork qnet;

  Fixture() {
    nn::Network net = workloads::build_float_network(wl.topo, 61);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
    quant::SearchConfig sc;
    sc.max_search_images = 300;
    sc.step = 0.05;
    qnet = quant::quantize_network(net, wl.topo, train, sc).qnet;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

struct ThreadGuard {
  ~ThreadGuard() { exec::set_default_threads(0); }
};

std::span<const float> image_of(const data::Dataset& d, int i) {
  const std::size_t per_image = 28 * 28;
  return {d.images.data() + static_cast<std::size_t>(i) * per_image,
          per_image};
}

std::vector<int> uniform_bounds(const core::SeiNetwork& hw, int bound) {
  return std::vector<int>(static_cast<std::size_t>(hw.stage_count()), bound);
}

/// Engine-pair agreement harness with row billing on: the packed kernels
/// and the scalar oracle must produce bit-identical predictions, identical
/// error rates at 1/2/8 threads, and energy equal to 1e-6 pJ — both count
/// the same driven rows and charge them through the same charge_stage_rows
/// arithmetic.
void expect_row_billed_engines_agree(const quant::QNetwork& qnet,
                                     core::SeiNetwork& hw,
                                     const data::Dataset& test, int n) {
  ThreadGuard guard;
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(qnet, hw.config(), core::StructureKind::kSei);
  hw.set_skip_bounds(uniform_bounds(hw, 0));
  std::vector<int> pred[2];
  telemetry::EnergyAccum energy[2];
  std::vector<double> err[2];
  for (int p = 0; p < 2; ++p) {
    hw.set_packed_eval(p == 0);
    core::EvalContext ctx;
    ctx.meter = &meter;
    ctx.energy = &energy[p];
    for (int i = 0; i < n; ++i)
      pred[p].push_back(hw.predict(image_of(test, i), ctx, i));
    for (const int threads : {1, 2, 8}) {
      exec::set_default_threads(threads);
      err[p].push_back(hw.error_rate(test, n));
    }
  }
  hw.set_packed_eval(true);
  EXPECT_EQ(pred[1], pred[0]);
  EXPECT_EQ(err[1], err[0]);
  EXPECT_NEAR(energy[1].pj.total(), energy[0].pj.total(), 1e-6);
  EXPECT_NEAR(energy[1].pj.interface(), energy[0].pj.interface(), 1e-6);
  EXPECT_EQ(energy[1].events.cell_activations,
            energy[0].events.cell_activations);
  EXPECT_EQ(energy[1].events.driver_ops, energy[0].events.driver_ops);
  EXPECT_EQ(energy[1].stages, energy[0].stages);
}

TEST(Sparsity, BoundZeroPredictionsBitIdenticalToDense) {
  // All three paper networks under every mapping shape: turning row
  // billing on must not flip a single prediction — even under read noise,
  // because the kernels and every RNG draw are the dense ones.
  data::Dataset train = data::generate_synthetic(500, 93);
  data::Dataset test = data::generate_synthetic(120, 94);
  for (const char* name : {"network1", "network2", "network3"}) {
    const workloads::Workload wl = workloads::workload_by_name(name);
    nn::Network net = workloads::build_float_network(wl.topo, 63);
    nn::TrainConfig tc;
    tc.epochs = 1;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
    quant::SearchConfig sc;
    sc.max_search_images = 150;
    sc.step = 0.1;
    quant::QNetwork qnet =
        quant::quantize_network(net, wl.topo, train, sc).qnet;

    struct Variant {
      const char* tag;
      int max_rows;
      bool homogenize;
      double noise;
    };
    for (const Variant& v :
         {Variant{"whole", 0, true, 0.0},
          Variant{"whole noisy", 0, true, 0.05},
          Variant{"split homogenized", 64, true, 0.05},
          Variant{"split natural", 64, false, 0.05}}) {
      core::HardwareConfig cfg;
      if (v.max_rows > 0) cfg.limits.max_rows = v.max_rows;
      cfg.homogenize = v.homogenize;
      cfg.device.read_noise_sigma = v.noise;
      core::SeiNetwork hw(qnet, cfg);
      SCOPED_TRACE(std::string(name) + " / " + v.tag);

      std::vector<int> dense;
      for (int i = 0; i < 120; ++i)
        dense.push_back(hw.predict(image_of(test, i)));
      const double dense_err = hw.error_rate(test, 120);

      hw.set_skip_bounds(uniform_bounds(hw, 0));
      std::vector<int> sparse;
      for (int i = 0; i < 120; ++i)
        sparse.push_back(hw.predict(image_of(test, i)));
      EXPECT_EQ(sparse, dense);
      EXPECT_EQ(hw.error_rate(test, 120), dense_err);

      hw.set_skip_bounds({});  // off again: uniform billing
      EXPECT_EQ(hw.error_rate(test, 120), dense_err);
    }
  }
}

TEST(Sparsity, EnginesAgreeAtBoundZeroAndNonzero) {
  // Bound 0 bills by rows driven and every engine agrees; a nonzero bound
  // would drop active rows and is rejected.
  Fixture& f = fixture();
  struct Variant {
    const char* tag;
    int max_rows;
    bool homogenize;
    double noise;
  };
  for (const Variant& v : {Variant{"whole", 0, true, 0.0},
                           Variant{"whole noisy", 0, true, 0.05},
                           Variant{"split homogenized", 64, true, 0.0},
                           Variant{"split natural", 64, false, 0.05}}) {
    core::HardwareConfig cfg;
    if (v.max_rows > 0) cfg.limits.max_rows = v.max_rows;
    cfg.homogenize = v.homogenize;
    cfg.device.read_noise_sigma = v.noise;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE(v.tag);
    expect_row_billed_engines_agree(f.qnet, hw, f.test, 60);
    EXPECT_THROW(hw.set_skip_bounds(uniform_bounds(hw, 3)), CheckError);
  }
}

TEST(Sparsity, EnginesAgreeOnNonIntegralFallback) {
  // Programming noise forces every stage onto the scalar oracle — its
  // driven-row count and per-row charging must behave identically there.
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.program_sigma = 0.03;
  core::SeiNetwork hw(f.qnet, cfg);
  EXPECT_EQ(hw.packed_stage_count(), 0);
  expect_row_billed_engines_agree(f.qnet, hw, f.test, 60);
}

TEST(Sparsity, RowBilledEnergyMatchesAcrossPackedKernels) {
  // The row-scatter kernel counts driven rows as the taps it walks, the
  // scalar oracle as Σ n_active per position; each must bill what the
  // all-scalar plan bills. network2's single-block hidden conv and its
  // classifier run kRow16Cmp, noise-free and under read noise. Scaling the
  // hidden weights 4096× overflows the int16 row table, which lowers the
  // hidden conv to the scalar oracle between two packed stages.
  Fixture& f = fixture();
  struct Variant {
    const char* tag;
    double noise;
    float scale;
  };
  for (const Variant& v : {Variant{"noise-free", 0.0, 1.0f},
                           Variant{"noisy", 0.05, 1.0f},
                           Variant{"wide weights", 0.0, 4096.0f}}) {
    core::HardwareConfig cfg;
    cfg.device.read_noise_sigma = v.noise;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE(v.tag);
    const bool wide = v.scale != 1.0f;
    if (wide) {
      core::MappedLayer& m = hw.layer(1);
      for (float& w : m.eff) w *= v.scale;
      for (float& t : m.col_threshold) t *= v.scale;
      m.mean_abs_eff *= v.scale;
      hw.rebuild_packed(1);
      hw.rebuild_plan();
      ASSERT_FALSE(m.packed.rows_ok);
    }
    const std::vector<core::StageOp>& ops = hw.plan().ops;
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[1].engine, wide ? core::StageEngine::kScalarBits
                                  : core::StageEngine::kPackedBits);
    EXPECT_EQ(ops[2].packed_kernel, core::PackedKernel::kRow16Cmp);
    ASSERT_EQ(hw.packed_stage_count(), hw.stage_count() - (wide ? 1 : 0));
    expect_row_billed_engines_agree(f.qnet, hw, f.test, 60);
  }
}

TEST(Sparsity, PlanResolvesBoundPolicy) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  core::SeiNetwork hw(f.qnet, cfg);
  // Off: every op carries the sentinel.
  for (const core::StageOp& op : hw.plan().ops)
    EXPECT_LT(op.skip_bound, 0) << "stage " << op.stage;
  // On: stage 0 stays exempt (DAC-driven rows have no transmission
  // gates); hidden/classifier stages bill by rows, with negative entries
  // and short-vector padding read as 0.
  hw.set_skip_bounds({0, -4});
  ASSERT_GE(hw.stage_count(), 2);
  EXPECT_EQ(hw.plan().ops[0].skip_bound, -1);
  for (int s = 1; s < hw.stage_count(); ++s)
    EXPECT_EQ(hw.plan().ops[static_cast<std::size_t>(s)].skip_bound, 0);
  hw.set_skip_bounds({});
  for (const core::StageOp& op : hw.plan().ops)
    EXPECT_LT(op.skip_bound, 0) << "stage " << op.stage;
}

TEST(Sparsity, PositiveBoundIsRejected) {
  // A bound above 0 would switch off words that carry active rows. It
  // fails before touching the network: the plan and its epoch stay put.
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  hw.set_skip_bounds({0, 0, 0});
  const std::uint64_t epoch = hw.plan().epoch;
  EXPECT_THROW(hw.set_skip_bounds({0, 1, 0}), CheckError);
  EXPECT_EQ(hw.plan().epoch, epoch);
  EXPECT_TRUE(hw.sparsity_enabled());
  for (int s = 1; s < hw.stage_count(); ++s)
    EXPECT_EQ(hw.plan().ops[static_cast<std::size_t>(s)].skip_bound, 0);
}

TEST(Sparsity, EnergyIsActivationProportionalAndMonotone) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  core::SeiNetwork hw(f.qnet, cfg);
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(f.qnet, cfg, core::StructureKind::kSei);
  const int n = 60;

  auto measure = [&] {
    core::EvalContext ctx;
    telemetry::EnergyAccum acc;
    ctx.meter = &meter;
    ctx.energy = &acc;
    for (int i = 0; i < n; ++i) hw.predict(image_of(f.test, i), ctx, i);
    return acc;
  };

  const telemetry::EnergyAccum dense = measure();
  hw.set_skip_bounds(uniform_bounds(hw, 0));
  const telemetry::EnergyAccum billed = measure();
  // Charging only driven rows can never exceed the dense table, and on
  // digit images (idle margins) it is strictly cheaper.
  EXPECT_LT(billed.pj.total(), dense.pj.total());
  EXPECT_LT(billed.events.cell_activations, dense.events.cell_activations);
  // Fixed-cost components are untouched: DACs convert every input either
  // way.
  EXPECT_EQ(billed.events.dac_conversions, dense.events.dac_conversions);
  EXPECT_EQ(billed.events.sa_compares, dense.events.sa_compares);

  // Per image, the bill is exactly the uniform stage-0 price plus each
  // row-billed stage charged for the rows the activity meter saw — and,
  // per-row prices being non-negative, an image that drives at least as
  // many rows in every stage never costs less.
  const int stages = hw.stage_count();
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(n));
  std::vector<double> bill(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<core::EvalContext::StageActivity> cells(
        static_cast<std::size_t>(stages));
    core::EvalContext ctx;
    telemetry::EnergyAccum got, want;
    ctx.meter = &meter;
    ctx.energy = &got;
    ctx.activity = cells.data();
    hw.predict(image_of(f.test, i), ctx, i);
    meter.charge_stage(0, want);
    for (int s = 1; s < stages; ++s) {
      const std::int64_t r = cells[static_cast<std::size_t>(s)].rows_charged;
      rows[static_cast<std::size_t>(i)].push_back(r);
      meter.charge_stage_rows(static_cast<std::size_t>(s), r, want);
    }
    EXPECT_EQ(got.pj.total(), want.pj.total()) << "image " << i;
    EXPECT_EQ(got.events.cell_activations, want.events.cell_activations)
        << "image " << i;
    bill[static_cast<std::size_t>(i)] = got.pj.total();
  }
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      const auto& ra = rows[static_cast<std::size_t>(a)];
      const auto& rb = rows[static_cast<std::size_t>(b)];
      bool dominates = true;
      for (std::size_t s = 0; s < ra.size(); ++s)
        dominates = dominates && ra[s] >= rb[s];
      if (dominates) {
        EXPECT_GE(bill[static_cast<std::size_t>(a)],
                  bill[static_cast<std::size_t>(b)])
            << "images " << a << " vs " << b;
      }
    }
}

TEST(Sparsity, ActivityEstimateDeterministicAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);
  hw.set_skip_bounds(uniform_bounds(hw, 0));

  exec::set_default_threads(1);
  const sparsity::ActivityEstimator serial =
      sparsity::estimate_activity(hw, f.test, 120);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    const sparsity::ActivityEstimator wide =
        sparsity::estimate_activity(hw, f.test, 120);
    ASSERT_EQ(wide.stage_count(), serial.stage_count());
    for (int s = 0; s < serial.stage_count(); ++s) {
      const auto& a = serial.stage(s);
      const auto& b = wide.stage(s);
      EXPECT_EQ(b.positions, a.positions) << "stage " << s;
      EXPECT_EQ(b.words, a.words) << "stage " << s;
      EXPECT_EQ(b.words_skipped, a.words_skipped) << "stage " << s;
      EXPECT_EQ(b.rows_active, a.rows_active) << "stage " << s;
      EXPECT_EQ(b.rows_charged, a.rows_charged) << "stage " << s;
      for (int h = 0; h < 11; ++h)
        EXPECT_EQ(b.hist[h], a.hist[h]) << "stage " << s << " bin " << h;
    }
  }
}

TEST(Sparsity, ActivityCountersAreInternallyConsistent) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  core::SeiNetwork hw(f.qnet, cfg);
  hw.set_skip_bounds(uniform_bounds(hw, 0));
  const sparsity::ActivityEstimator est =
      sparsity::estimate_activity(hw, f.test, 120);
  // Stage 0 is exempt: its cell must stay empty.
  EXPECT_EQ(est.stage(0).words, 0);
  bool saw_data = false;
  for (int s = 1; s < est.stage_count(); ++s) {
    const auto& c = est.stage(s);
    if (c.words == 0) continue;
    saw_data = true;
    std::int64_t hist_total = 0;
    for (int h = 0; h < 11; ++h) hist_total += c.hist[h];
    EXPECT_EQ(hist_total, c.words) << "stage " << s;
    EXPECT_LE(c.rows_charged, c.rows_active) << "stage " << s;
    EXPECT_LE(c.rows_active, c.rows_nominal) << "stage " << s;
    // The skip count is the zero bin (all-zero words drive no row), and
    // every driven row is billed.
    EXPECT_EQ(c.words_skipped, c.hist[0]) << "stage " << s;
    EXPECT_EQ(c.rows_charged, c.rows_active) << "stage " << s;
  }
  EXPECT_TRUE(saw_data);
  EXPECT_GT(est.skip_rate(), 0.0);
  EXPECT_LT(est.row_activity(), 1.0);
}

TEST(Sparsity, BatchEnergyAccountsPerImageUnderSparsity) {
  // error_rate with row billing on publishes per-image metered energy
  // (each image costs its actual driven rows); the fixed-point publish
  // makes the registry totals bit-identical at any thread count.
  Fixture& f = fixture();
  ThreadGuard guard;
  core::HardwareConfig cfg;
  core::SeiNetwork hw(f.qnet, cfg);
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(f.qnet, cfg, core::StructureKind::kSei);
  hw.set_meter(&meter);
  hw.set_skip_bounds(uniform_bounds(hw, 0));
  const int n = 120;

  // Reference: sum the per-image energies sequentially.
  telemetry::EnergyAccum want;
  {
    core::EvalContext ctx;
    ctx.meter = &meter;
    ctx.energy = &want;
    for (int i = 0; i < n; ++i) hw.predict(image_of(f.test, i), ctx, i);
  }
  auto published_fj = [&] {
    auto& reg = telemetry::MetricsRegistry::global();
    std::uint64_t total = 0;
    for (const char* c : {"dac", "adc", "sense_amp", "driver", "rram",
                          "decoder", "digital", "buffer", "wta"})
      total += reg.counter(std::string("sei_energy_fj_total{path=\"sei_"
                                       "batch\",component=\"") +
                           c + "\"}")
                   .value();
    return total;
  };
  auto batch_fj = [&](int threads) {
    exec::set_default_threads(threads);
    const std::uint64_t before = published_fj();
    hw.error_rate(f.test, n);
    return published_fj() - before;
  };
  const std::uint64_t serial_fj = batch_fj(1);
  // publish_energy rounds each chunk accumulator to femtojoules once.
  EXPECT_NEAR(static_cast<double>(serial_fj) / 1000.0, want.pj.total(), 1.0);
  for (const int threads : {2, 8})
    EXPECT_EQ(batch_fj(threads), serial_fj) << "threads=" << threads;
  hw.set_meter(nullptr);
}

}  // namespace
}  // namespace sei
