// Cross-module property tests (parameterized sweeps over configurations).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "arch/cost_model.hpp"
#include "core/mapping.hpp"
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

}  // namespace
}  // namespace sei
