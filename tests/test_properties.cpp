// Cross-module property tests (parameterized sweeps over configurations).
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "arch/cost_model.hpp"
#include "arch/live_energy.hpp"
#include "core/mapping.hpp"
#include "core/sei_network.hpp"
#include "exec/thread_pool.hpp"
#include "split/homogenize.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

// ---------------------------------------------------------------------------
// Mapping exactness: for ideal devices, the SEI mapping must reconstruct the
// quantized integer weights exactly for every (sign mode, device bits,
// weight bits) combination where the slicing is well-formed.
class MappingSweep
    : public ::testing::TestWithParam<std::tuple<core::SignMode, int, int>> {};

TEST_P(MappingSweep, IdealEffectiveEqualsQuantized) {
  const auto [mode, device_bits, weight_bits] = GetParam();
  quant::QLayer l;
  l.geom.kind = quant::StageSpec::Kind::Fc;
  l.geom.in_h = 1;
  l.geom.in_w = 12;
  l.geom.in_ch = 1;
  l.geom.out_h = l.geom.out_w = l.geom.pooled_h = l.geom.pooled_w = 1;
  l.geom.rows = 12;
  l.geom.cols = 5;
  l.weight = nn::Tensor({12, 5});
  l.bias = nn::Tensor({5});
  Rng wr(static_cast<std::uint64_t>(device_bits * 100 + weight_bits));
  for (float& v : l.weight.flat()) v = static_cast<float>(wr.uniform(-1, 1));

  core::HardwareConfig cfg;
  cfg.sign_mode = mode;
  cfg.device.bits = device_bits;
  cfg.weight_bits = weight_bits;
  Rng rng(1);
  const core::MappedLayer m =
      core::map_layer(l, cfg, split::natural_order(12), rng);
  const quant::QuantizedMatrix q =
      quant::quantize_weights(l.weight, weight_bits);
  for (int r = 0; r < 12; ++r)
    for (int c = 0; c < 5; ++c)
      EXPECT_NEAR(m.effective(r, c), static_cast<double>(q.at(r, c)), 1e-6)
          << "mode=" << static_cast<int>(mode) << " db=" << device_bits
          << " wb=" << weight_bits << " at (" << r << "," << c << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MappingSweep,
    ::testing::Combine(::testing::Values(core::SignMode::kBipolarPort,
                                         core::SignMode::kUnipolarDynThresh),
                       ::testing::Values(2, 3, 4, 6, 8),  // device bits
                       ::testing::Values(4, 6, 8, 10)));  // weight bits

// ---------------------------------------------------------------------------
// Cost-model dominance: for every network and crossbar size, SEI must cost
// less energy and area than 1-bit+ADC, which must cost less than the
// baseline. The network name is a std::string, not a const char*: gtest
// prints a C string parameter with its address, which would put an
// ASLR-dependent pointer into every generated test name.
class CostSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CostSweep, StructureDominanceHolds) {
  const auto [name, size] = GetParam();
  core::HardwareConfig cfg;
  cfg.limits.max_rows = size;
  cfg.limits.max_cols = size;
  const auto topo = workloads::workload_by_name(name).topo;
  const auto base =
      arch::estimate_cost(topo, cfg, core::StructureKind::kDacAdc8);
  const auto bin =
      arch::estimate_cost(topo, cfg, core::StructureKind::kBinInputAdc);
  const auto sei = arch::estimate_cost(topo, cfg, core::StructureKind::kSei);
  EXPECT_LT(bin.energy_pj.total(), base.energy_pj.total());
  EXPECT_LT(sei.energy_pj.total(), bin.energy_pj.total());
  EXPECT_LT(bin.area_um2.total(), base.area_um2.total());
  EXPECT_LT(sei.area_um2.total(), bin.area_um2.total());
  // All components non-negative.
  for (const auto* b : {&base, &bin, &sei}) {
    EXPECT_GE(b->energy_pj.other(), 0.0);
    EXPECT_GE(b->area_um2.other(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndSizes, CostSweep,
    ::testing::Combine(::testing::Values(std::string("network1"),
                                                         std::string("network2"),
                                                         std::string("network3")),
                       ::testing::Values(128, 256, 512)));

// ---------------------------------------------------------------------------
// Binarization monotonicity: a higher threshold can only clear bits.
TEST(Properties, BinarizeMonotoneInThreshold) {
  quant::QLayer l;
  l.geom.kind = quant::StageSpec::Kind::Conv;
  l.geom.kernel = 1;
  l.geom.in_h = l.geom.in_w = 4;
  l.geom.in_ch = 1;
  l.geom.out_h = l.geom.out_w = 4;
  l.geom.pool_after = true;
  l.geom.pooled_h = l.geom.pooled_w = 2;
  l.geom.rows = 1;
  l.geom.cols = 1;
  Rng rng(3);
  std::vector<float> sums(16);
  for (auto& v : sums) v = static_cast<float>(rng.uniform(0, 1));
  quant::BitMap prev;
  for (float t : {0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 1.0f}) {
    l.threshold = t;
    quant::BitMap bits = quant::binarize_and_pool(l, sums);
    if (!prev.empty()) {
      for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_LE(bits[i], prev[i]) << "threshold " << t;
    }
    prev = bits;
  }
}

// ---------------------------------------------------------------------------
// Homogenization dominance: the optimized order never has a larger distance
// than the natural order, across random matrices.
class HomogenizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HomogenizeSweep, BeatsNaturalOrder) {
  const auto [rows, cols, blocks] = GetParam();
  nn::Tensor w({rows, cols});
  Rng rng(static_cast<std::uint64_t>(rows * 31 + cols * 7 + blocks));
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-1, 1));
  split::HomogenizeConfig cfg;
  cfg.iterations = 4000;
  const auto res = split::homogenize_rows(w, blocks, cfg);
  const double natural = split::partition_distance(
      w, split::partition_from_order(split::natural_order(rows), blocks));
  EXPECT_LE(res.final_distance, natural + 1e-12);
  // And the claimed final distance is honest.
  EXPECT_NEAR(res.final_distance,
              split::partition_distance(
                  w, split::partition_from_order(res.order, blocks)),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HomogenizeSweep,
                         ::testing::Values(std::make_tuple(30, 4, 2),
                                           std::make_tuple(60, 8, 3),
                                           std::make_tuple(100, 16, 5),
                                           std::make_tuple(300, 64, 3)));

// ---------------------------------------------------------------------------
// Geometry consistency: for every Table 2 network, stage input sizes chain
// (stage i+1 consumes exactly stage i's pooled output).
TEST(Properties, GeometryChains) {
  for (const char* name : {"network1", "network2", "network3"}) {
    const auto topo = workloads::workload_by_name(name).topo;
    const auto g = quant::resolve_geometry(topo);
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
      const long long produced = static_cast<long long>(g[i].pooled_h) *
                                 g[i].pooled_w * g[i].cols;
      const long long consumed =
          static_cast<long long>(g[i + 1].in_h) * g[i + 1].in_w *
          g[i + 1].in_ch;
      EXPECT_EQ(produced, consumed) << name << " stage " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Hidden-stage differential test: the packed hidden kernels against the
// scalar oracle on seeded random geometries — stage-1 kernels 1..7 (every
// border clip of the row scatter), 1..16 input channels, output widths that
// are not multiples of 8 or 16, window rows that are not a multiple of 64
// (9-row input words straddling a u64), 1..k blocks in homogenized
// round-robin or natural order, 1..64 columns, conv and FC hidden stages,
// pooling, SA offsets, dynamic thresholds, read noise on and off, output
// rows processed in several accumulator bands, and weights scaled past the
// int16 row table (!rows_ok, which the generic kernel runs). Row billing is
// on: a probe meter that prices one event per driven row pins the rows each
// kernel reports driving, stage by stage, and the activity histograms pin
// the 9-row word counts.

/// An energy meter whose only charge is one cell activation per row stage
/// 1 drives and one driver op per row stage 2 drives: the accumulated
/// events are those stages' rows driven.
telemetry::EnergyMeter rows_probe_meter() {
  std::vector<telemetry::StageEnergy> st(3);
  for (telemetry::StageEnergy& s : st) s.nominal_rows = 1;
  st[0].nominal_rows = 0;  // stage 0 keeps its (zero) uniform price
  st[1].row_cells = 1;
  st[2].row_drivers = 1;
  return telemetry::EnergyMeter(std::move(st));
}

TEST(HiddenStage, PackedMatchesScalarOnRandomGeometries) {
  Rng gen(2024);
  const telemetry::EnergyMeter probe = rows_probe_meter();
  int split = 0, wide = 0, noisy = 0, pooled = 0, straddle = 0, row16 = 0,
      fc_row16 = 0, mixed = 0, dynamic_split = 0, banded = 0, odd_width = 0;
  int kernels[8] = {};
  constexpr int kTrials = 42;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Every fourth trial makes stage 1 an FC stage over stage 0's whole
    // output map, of at most 3 channels so it splits into ≤ 64 blocks.
    // Every seventh is a wide stage (33..64 columns, ≥ 10 output rows)
    // whose accumulators take several bands.
    const bool fc1 = trial % 4 == 3;
    const bool big = trial % 7 == 5;
    const int channels0 = 1 + static_cast<int>(gen.below(16));
    const int in_ch = fc1 ? 1 + channels0 % 3 : channels0;
    const int cols = big ? 33 + static_cast<int>(gen.below(32))
                         : 1 + static_cast<int>(gen.below(64));
    const int kernel0 = gen.below(2) ? 3 : 5;
    const int kernel1 = 1 + trial % 7;
    const bool pool1 = gen.below(2) == 0 && !fc1;
    // Stage 1's output side: even when pooled.
    const int out1 = big ? 10 + 2 * static_cast<int>(gen.below(3))
                     : pool1 ? 2 * (1 + static_cast<int>(gen.below(5)))
                             : 1 + static_cast<int>(gen.below(11));
    const int input = fc1 ? 3 + static_cast<int>(gen.below(4)) + kernel0 - 1
                          : out1 + kernel1 - 1 + kernel0 - 1;
    quant::Topology topo;
    topo.name = "hidden-random";
    topo.input_size = input;
    topo.stages = {{quant::StageSpec::Kind::Conv, kernel0, in_ch, false},
                   fc1 ? quant::StageSpec{quant::StageSpec::Kind::Fc, 0, cols,
                                          false}
                       : quant::StageSpec{quant::StageSpec::Kind::Conv,
                                          kernel1, cols, pool1},
                   {quant::StageSpec::Kind::Fc, 0, 10, false}};
    nn::Network net = workloads::build_float_network(topo, gen());
    quant::QNetwork qnet = quant::build_qnetwork(net, topo);
    qnet.layers[0].threshold = static_cast<float>(gen.uniform(-0.2, 0.2));
    qnet.layers[1].threshold = static_cast<float>(gen.uniform(-0.3, 0.3));

    core::HardwareConfig cfg;
    // A row limit of L keeps L / 4 logical rows per block (four physical
    // lines per input): the tighter limits only where k stays ≤ 64.
    const int limits[] = {0, 64, 40, 24};
    const int rows1 = fc1 ? 0 : kernel1 * kernel1 * in_ch;
    int pick = big ? 1 : static_cast<int>(gen.below(4));
    while (pick > 1 && rows1 > 16 * limits[pick]) --pick;
    if (limits[pick] > 0) cfg.limits.max_rows = limits[pick];
    cfg.homogenize = gen.below(2) == 0;
    cfg.homogenize_iterations = 200;
    cfg.sa_offset_sigma = gen.below(2) ? 1.5 : 0.0;
    cfg.device.read_noise_sigma = gen.below(2) ? 0.05 : 0.0;
    core::SeiNetwork hw(qnet, cfg);
    core::MappedLayer& m = hw.layer(1);
    const float betas[] = {0.0f, 0.4f, -0.3f};
    m.dyn_beta = betas[gen.below(3)];
    const bool scale = gen.below(4) == 0 && !big;
    if (scale) {  // Σ|w| past int16: no row table
      for (float& w : m.eff) w *= 4096.0f;
      for (float& t : m.col_threshold) t *= 4096.0f;
      m.mean_abs_eff *= 4096.0f;
      hw.rebuild_packed(1);
      hw.rebuild_plan();
    }
    hw.set_skip_bounds(std::vector<int>(static_cast<std::size_t>(
                                            hw.stage_count()),
                                        0));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": rows " +
                 std::to_string(m.geom.rows) + " kernel " +
                 std::to_string(kernel1) + " in_ch " + std::to_string(in_ch) +
                 " out " + std::to_string(m.geom.out_w) + " cols " +
                 std::to_string(cols) + " k " +
                 std::to_string(m.block_count) + " sigma " +
                 std::to_string(cfg.device.read_noise_sigma) + " beta " +
                 std::to_string(m.dyn_beta) + (scale ? " scaled" : "") +
                 (pool1 ? " pooled" : "") + (fc1 ? " fc" : ""));
    // A copy: set_packed_eval below rebuilds the plan.
    const core::StageOp op = hw.plan().ops[1];
    ASSERT_EQ(op.engine, core::StageEngine::kPackedBits);
    ASSERT_LE(m.block_count, core::kRowMaxBlocks);
    EXPECT_EQ(m.packed.rows_ok, !scale);
    EXPECT_EQ(op.packed_kernel, scale ? core::PackedKernel::kGeneric
                                      : core::PackedKernel::kRow16Cmp);

    data::Dataset d;
    const int n = 12;
    d.images = nn::Tensor({n, input, input, 1});
    for (float& v : d.images.flat())
      v = gen.below(3) == 0 ? 0.0f : static_cast<float>(gen.uniform(0.0, 1.0));
    std::vector<int> pred[2];
    std::vector<std::uint64_t> rows[2];
    std::vector<std::int64_t> hist[2];
    for (int p = 0; p < 2; ++p) {
      hw.set_packed_eval(p == 0);
      core::EvalContext ctx;
      std::vector<core::EvalContext::StageActivity> act(
          static_cast<std::size_t>(hw.stage_count()));
      ctx.activity = act.data();
      ctx.meter = &probe;
      for (int i = 0; i < n; ++i) {
        telemetry::EnergyAccum e;
        ctx.energy = &e;
        const std::size_t px = static_cast<std::size_t>(input) * input;
        pred[p].push_back(hw.predict(
            {d.images.data() + static_cast<std::size_t>(i) * px, px}, ctx, i));
        rows[p].push_back(e.events.cell_activations);
        rows[p].push_back(e.events.driver_ops);
      }
      for (const auto& a : act) {
        hist[p].insert(hist[p].end(), std::begin(a.hist), std::end(a.hist));
        hist[p].push_back(a.rows_active);
        hist[p].push_back(a.words_skipped);
      }
    }
    EXPECT_EQ(pred[0], pred[1]);
    EXPECT_EQ(rows[0], rows[1]);
    EXPECT_EQ(hist[0], hist[1]);
    if constexpr (telemetry::kEnabled) {
      // Stage 1's rows driven are its active window rows, which the
      // activity histogram counts independently of either kernel.
      std::uint64_t stage1 = 0;
      for (std::size_t i = 0; i < rows[0].size(); i += 2) stage1 += rows[0][i];
      EXPECT_EQ(static_cast<std::int64_t>(stage1), hist[0][11 + 13]);
    }
    // Stage 1's output bits themselves, and that they are not constant.
    hw.set_packed_eval(true);
    const std::vector<quant::BitMap> packed = hw.cache_stage_inputs(d, 2);
    hw.set_packed_eval(false);
    EXPECT_EQ(hw.cache_stage_inputs(d, 2), packed);
    std::size_t ones = 0, bits = 0;
    for (const quant::BitMap& b : packed) {
      for (const std::uint8_t v : b) ones += v;
      bits += b.size();
    }
    mixed += ones > 0 && ones < bits;
    split += m.block_count > 1;
    wide += scale;
    noisy += cfg.device.read_noise_sigma > 0.0;
    pooled += pool1;
    straddle += m.geom.rows % 64 != 0 && m.geom.rows > 64;
    row16 += !scale;
    fc_row16 += fc1 && !scale;
    dynamic_split += !scale && m.block_count > 1 && m.dyn_beta != 0.0f;
    if (!scale && !fc1) {
      banded += op.scatter.band_rows < m.geom.out_h;
      odd_width += m.geom.out_w % 8 != 0;
      ++kernels[kernel1];
    }
  }
  // The sweep reached every case it is meant to cover.
  EXPECT_GT(split, 0);
  EXPECT_GT(wide, 0);
  EXPECT_GT(noisy, 0);
  EXPECT_GT(pooled, 0);
  EXPECT_GT(straddle, 0);
  EXPECT_GT(row16, 0);
  EXPECT_GT(fc_row16, 0);
  EXPECT_GT(dynamic_split, 0);
  EXPECT_GT(banded, 0);
  EXPECT_GT(odd_width, 0);
  for (int kk = 1; kk <= 7; ++kk) EXPECT_GT(kernels[kk], 0) << "kernel " << kk;
  EXPECT_GT(mixed, kTrials * 3 / 4);  // most trials' compares bite both ways
  std::printf("hidden-stage sweep: %d split, %d dynamic split, %d generic, "
              "%d noisy, %d pooled, %d straddling, %d row-scatter FC, "
              "%d banded, %d odd widths, %d mixed of %d\n",
              split, dynamic_split, wide, noisy, pooled, straddle, fc_row16,
              banded, odd_width, mixed, kTrials);
}

// ---------------------------------------------------------------------------
// Per-stage kernel state (the row scatter's target map) belongs to each
// network's plan: networks of one geometry and different weights, evaluated
// alternately through one context on one thread and through the pool, each
// match their own scalar oracle — and so does a network built in place of
// a destroyed one, where a cache keyed by thread or by address would serve
// stale state.
TEST(HiddenStage, SameGeometryNetworksKeepTheirOwnState) {
  quant::Topology topo;
  topo.name = "shared-geometry";
  topo.input_size = 14;
  topo.stages = {{quant::StageSpec::Kind::Conv, 3, 6, false},
                 {quant::StageSpec::Kind::Conv, 5, 20, true},
                 {quant::StageSpec::Kind::Fc, 0, 10, false}};
  Rng gen(77);
  const int n = 64;
  data::Dataset d;
  d.images = nn::Tensor({n, topo.input_size, topo.input_size, 1});
  for (float& v : d.images.flat())
    v = gen.below(3) == 0 ? 0.0f : static_cast<float>(gen.uniform(0.0, 1.0));
  const std::size_t px =
      static_cast<std::size_t>(topo.input_size) * topo.input_size;
  const auto image = [&](int i) {
    return std::span<const float>{
        d.images.data() + static_cast<std::size_t>(i) * px, px};
  };
  for (const double sigma : {0.0, 0.05}) {
    core::HardwareConfig cfg;
    cfg.limits.max_rows = 64;  // stage 1 splits
    cfg.device.read_noise_sigma = sigma;
    std::vector<quant::QNetwork> qnets;
    for (int w = 0; w < 3; ++w) {
      nn::Network net = workloads::build_float_network(topo, 500 + w);
      qnets.push_back(quant::build_qnetwork(net, topo));
      qnets.back().layers[1].threshold =
          static_cast<float>(gen.uniform(-0.3, 0.3));
    }
    // Each network's scalar-oracle predictions.
    std::vector<std::vector<int>> want;
    for (const quant::QNetwork& q : qnets) {
      core::HardwareConfig scalar = cfg;
      scalar.packed_eval = false;
      const core::SeiNetwork oracle(q, scalar);
      std::vector<int>& w = want.emplace_back();
      core::EvalContext ctx;
      for (int i = 0; i < n; ++i) w.push_back(oracle.predict(image(i), ctx, i));
    }
    ASSERT_NE(want[0], want[1]);  // the weights differ where it shows

    std::optional<core::SeiNetwork> a(std::in_place, qnets[0], cfg);
    const core::SeiNetwork b(qnets[1], cfg);
    ASSERT_EQ(a->plan().ops[1].packed_kernel, core::PackedKernel::kRow16Cmp);
    ASSERT_GT(a->layer(1).block_count, 1);
    // One context, one thread, the networks alternating per image.
    core::EvalContext ctx;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(a->predict(image(i), ctx, i), want[0][static_cast<std::size_t>(i)]);
      EXPECT_EQ(b.predict(image(i), ctx, i), want[1][static_cast<std::size_t>(i)]);
    }
    // Through the pool: every chunk alternates the two networks.
    std::vector<int> got_a(static_cast<std::size_t>(n)),
        got_b(static_cast<std::size_t>(n));
    exec::parallel_for_chunks(n, 4, [&](int lo, int hi) {
      core::EvalContext c;
      for (int i = lo; i < hi; ++i) {
        got_a[static_cast<std::size_t>(i)] = a->predict(image(i), c, i);
        got_b[static_cast<std::size_t>(i)] = b.predict(image(i), c, i);
      }
    });
    EXPECT_EQ(got_a, want[0]);
    EXPECT_EQ(got_b, want[1]);
    // A third network built where the first one was, same context.
    a.reset();
    a.emplace(qnets[2], cfg);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(a->predict(image(i), ctx, i), want[2][static_cast<std::size_t>(i)]);
      EXPECT_EQ(b.predict(image(i), ctx, i), want[1][static_cast<std::size_t>(i)]);
    }
  }
}

}  // namespace
}  // namespace sei
