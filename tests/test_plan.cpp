// Plan compilation and arena-backed scratch (docs/plans.md): lowering
// invariants (resolved engines, explicit converts, exact scratch bounds,
// baked prices), the capacity-based context binding contract, and the
// zero-allocation guarantee a bound context gives the serving hot path.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "arch/live_energy.hpp"
#include "core/arena.hpp"
#include "core/plan.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/trainer.hpp"
#include "quant/qnet.hpp"
#include "quant/threshold_search.hpp"
#include "telemetry/alloc.hpp"
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
    nn::Network net = workloads::build_float_network(wl.topo, 54);
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

TEST(Arena, CarveIsAlignedAndBounded) {
  core::Arena a;
  a.reset(256);
  EXPECT_GE(a.capacity(), 256u);
  void* p1 = a.carve(10);  // rounds up to one 64B line
  void* p2 = a.carve(64);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % core::Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % core::Arena::kAlign, 0u);
  EXPECT_EQ(static_cast<std::byte*>(p2) - static_cast<std::byte*>(p1), 64);
  // 128 of 256 bytes carved; a 256-byte ask exceeds what remains.
  EXPECT_EQ(a.carve(256), nullptr);
}

TEST(Arena, ResetReusesCapacityAndRestartsCarving) {
  core::Arena a;
  a.reset(512);
  void* first = a.carve(100);
  ASSERT_NE(first, nullptr);
  a.reset(256);  // smaller ask: block kept, carving restarts at the front
  EXPECT_GE(a.capacity(), 512u);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.carve(100), first);
}

TEST(Arena, ScratchResizesWithinBindWithoutMovingStorage) {
  core::Arena a;
  a.reset(1024);
  core::Scratch<double> s;
  s.bind(a, 64);
  ASSERT_TRUE(s.is_bound());
  s.resize(10);
  double* p = s.data();
  s.assign(64, 1.5);  // full carved capacity — still the same storage
  EXPECT_EQ(s.data(), p);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_EQ(s[63], 1.5);
}

TEST(Arena, ScratchFallsBackBeyondCarvedCapacity) {
  // Correctness never depends on the plan's bounds: an over-capacity resize
  // silently degrades to the owned vector (the allocation counters are what
  // police the hot path, not a crash).
  core::Arena a;
  a.reset(1024);
  core::Scratch<int> s;
  s.bind(a, 8);
  s.assign(100, 7);  // exceeds the carved 8 elements
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s[99], 7);
  s.resize(4);  // back within bounds: arena span again
  EXPECT_EQ(s.size(), 4u);
}

TEST(Plan, LowersEveryStageWithResolvedEnginesAndForms) {
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  const core::CompiledPlan& plan = hw.plan();
  ASSERT_TRUE(plan.valid());
  ASSERT_EQ(static_cast<int>(plan.ops.size()), hw.stage_count());
  // Integral weights: every stage resolves to its packed engine.
  ASSERT_EQ(hw.packed_stage_count(), hw.stage_count());

  core::ActForm live = core::ActForm::kImage;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const core::StageOp& op = plan.ops[i];
    EXPECT_EQ(op.stage, static_cast<int>(i));
    EXPECT_EQ(op.engine, i == 0 ? core::StageEngine::kDacDense
                                : core::StageEngine::kPackedBits);
    // The convert chain must be coherent: after an explicit pack/unpack the
    // op's input form matches what the previous op left live.
    if (op.pack_input) {
      EXPECT_EQ(live, core::ActForm::kBytes);
      EXPECT_EQ(op.in_form, core::ActForm::kPacked);
    } else if (op.unpack_input) {
      EXPECT_EQ(live, core::ActForm::kPacked);
      EXPECT_EQ(op.in_form, core::ActForm::kBytes);
    } else {
      EXPECT_EQ(op.in_form, live);
    }
    live = op.out_form;
    EXPECT_EQ(op.classifier, i + 1 == plan.ops.size());
  }
  EXPECT_EQ(live, core::ActForm::kScores);
}

TEST(Plan, InsertsExplicitConvertsAroundScalarIsland) {
  // Break one hidden stage's integer decomposition: the plan must lower it
  // to the scalar-bits engine and bridge the form mismatch with explicit
  // converts (packed → bytes entering the island, bytes → packed leaving
  // it), and the compiled result must still match the scalar reference.
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  ASSERT_GE(hw.stage_count(), 3);
  ASSERT_EQ(hw.packed_stage_count(), hw.stage_count());

  core::MappedLayer& m = hw.layer(1);
  ASSERT_FALSE(m.eff.empty());
  m.eff[0] += 0.37f;  // no integer decomposition fits this weight any more
  hw.rebuild_packed(1);
  hw.rebuild_plan();

  const core::CompiledPlan& plan = hw.plan();
  EXPECT_EQ(plan.ops[0].engine, core::StageEngine::kDacDense);
  EXPECT_EQ(plan.ops[1].engine, core::StageEngine::kScalarBits);
  EXPECT_TRUE(plan.ops[1].unpack_input);
  EXPECT_EQ(plan.ops[2].engine, core::StageEngine::kPackedBits);
  EXPECT_TRUE(plan.ops[2].pack_input);

  std::vector<int> compiled;
  core::EvalContext ctx;
  for (int i = 0; i < 40; ++i) compiled.push_back(hw.predict(f.image(i), ctx, i));
  hw.set_packed_eval(false);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(hw.predict(f.image(i), ctx, i),
              compiled[static_cast<std::size_t>(i)])
        << "image " << i;
}

TEST(Plan, StageZeroRunsTheDacTileOrTheScalarReference) {
  // The DAC column tile is the only packed stage-0 kernel. The three paper
  // networks lower stage 0 to it; a split stage 0 and a multi-channel one
  // lower to the scalar reference, and stage 1 packs the byte map it emits.
  for (const char* name : {"network1", "network2", "network3"}) {
    SCOPED_TRACE(name);
    const workloads::Workload wl = workloads::workload_by_name(name);
    nn::Network net = workloads::build_float_network(wl.topo, 7);
    const quant::QNetwork qnet = quant::build_qnetwork(net, wl.topo);
    core::SeiNetwork hw(qnet, core::HardwareConfig{});
    EXPECT_EQ(hw.plan().ops[0].engine, core::StageEngine::kDacDense);
    EXPECT_EQ(hw.plan().ops[0].dac_kernel, core::DacKernel::kDenseTranspose);
    EXPECT_EQ(hw.packed_stage_count(), hw.stage_count());
  }

  Fixture& f = fixture();
  core::HardwareConfig split;
  split.limits.max_rows = 16;
  core::SeiNetwork split_hw(f.qnet, split);
  ASSERT_GE(split_hw.layer(0).block_count, 2);

  quant::Topology topo;
  topo.name = "two-channel";
  topo.input_size = 12;
  topo.input_channels = 2;
  topo.stages = {{quant::StageSpec::Kind::Conv, 3, 6, true},
                 {quant::StageSpec::Kind::Fc, 0, 10, false}};
  nn::Network two_ch_net = workloads::build_float_network(topo, 11);
  const quant::QNetwork two_ch = quant::build_qnetwork(two_ch_net, topo);
  core::SeiNetwork two_ch_hw(two_ch, core::HardwareConfig{});
  ASSERT_EQ(two_ch_hw.layer(0).geom.in_ch, 2);

  for (core::SeiNetwork* hw : {&split_hw, &two_ch_hw}) {
    const core::CompiledPlan& plan = hw->plan();
    EXPECT_EQ(plan.ops[0].engine, core::StageEngine::kScalarFloat);
    EXPECT_EQ(plan.ops[0].dac_kernel, core::DacKernel::kNone);
    EXPECT_EQ(plan.ops[0].out_form, core::ActForm::kBytes);
    EXPECT_EQ(plan.ops[1].engine, core::StageEngine::kPackedBits);
    EXPECT_TRUE(plan.ops[1].pack_input);
    EXPECT_EQ(hw->packed_stage_count(), hw->stage_count() - 1);
  }
}

TEST(Plan, ScratchCoversIsComponentwise) {
  core::ScratchPlan a;
  a.block_sums = 100;
  a.scores = 10;
  a.finalize();
  core::ScratchPlan b;
  b.block_sums = 50;
  b.scores = 10;
  b.finalize();
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  b.packed_words = 4;  // one axis b exceeds a on — neither covers now
  b.finalize();
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  core::ScratchPlan m = a;
  m.merge(b);
  EXPECT_TRUE(m.covers(a));
  EXPECT_TRUE(m.covers(b));
}

TEST(Plan, EpochBumpsOnEveryRebuildTrigger) {
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  std::uint64_t last = hw.plan().epoch;
  hw.set_packed_eval(false);
  EXPECT_GT(hw.plan().epoch, last);
  last = hw.plan().epoch;
  hw.set_packed_eval(true);
  EXPECT_GT(hw.plan().epoch, last);
  last = hw.plan().epoch;
  std::vector<int> order;
  for (int r = 0; r < hw.layer(1).geom.rows; ++r) order.push_back(r);
  hw.remap_layer(1, order);
  EXPECT_GT(hw.plan().epoch, last);
}

TEST(Plan, BakesPricesFromTheAttachedMeter) {
  Fixture& f = fixture();
  core::SeiNetwork hw(f.qnet, core::HardwareConfig{});
  EXPECT_EQ(hw.plan().priced_for, nullptr);
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(f.qnet, hw.config(), core::StructureKind::kSei);
  hw.set_meter(&meter);
  const core::CompiledPlan& plan = hw.plan();
  EXPECT_EQ(plan.priced_for, &meter);
  for (const core::StageOp& op : plan.ops) {
    if constexpr (telemetry::kEnabled) {
      EXPECT_TRUE(op.priced);
      // The baked numbers are the meter's own: charging the stage
      // dynamically must produce the identical breakdown.
      telemetry::EnergyAccum dyn;
      meter.charge_stage(static_cast<std::size_t>(op.stage), dyn);
      EXPECT_DOUBLE_EQ(op.price.pj.total(), dyn.pj.total());
      EXPECT_EQ(op.price.events.sa_compares, dyn.events.sa_compares);
    }
  }
  hw.set_meter(nullptr);
  EXPECT_EQ(hw.plan().priced_for, nullptr);
}

TEST(Plan, BoundContextServesWithoutHeapAllocation) {
  // The zero-alloc contract at its smallest scope: once prepare() has bound
  // a context to the plan, steady-state predicts perform no heap
  // allocation. This is the same property CI gates end-to-end through
  // bench_serving; here it pins the core executor in isolation.
  if (!telemetry::alloc_counting_available())
    GTEST_SKIP() << "allocation counters compiled out";
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;  // noise draws must not allocate either
  core::SeiNetwork hw(f.qnet, cfg);
  core::EvalContext ctx;
  hw.prepare(ctx);
  for (int i = 0; i < 4; ++i) hw.predict(f.image(i), ctx, i);  // warm
  telemetry::AllocGuard guard;
  for (int i = 0; i < 64; ++i) hw.predict(f.image(i), ctx, i);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(Plan, PlanBoundsCoverTheLazyNoisyDecide) {
  // The lazy noisy decide's band scratch is sized by the plan: the very
  // first predict after prepare() allocates nothing, where an unbound
  // buffer would fall back to a heap vector there (and only there).
  if (!telemetry::alloc_counting_available())
    GTEST_SKIP() << "allocation counters compiled out";
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  cfg.limits.max_rows = 16;  // hidden stages vote across blocks
  core::SeiNetwork hw(f.qnet, cfg);
  core::EvalContext ctx;
  hw.prepare(ctx);
  telemetry::AllocGuard guard;
  hw.predict(f.image(0), ctx, 0);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(Plan, ContextHopsBetweenCoveredNetworksWithoutRebinding) {
  // Capacity-based binding: a context bound to the union of two replicas'
  // bounds serves either one allocation-free — the fleet's chunk workers
  // hop shards on every adjacent item.
  if (!telemetry::alloc_counting_available())
    GTEST_SKIP() << "allocation counters compiled out";
  Fixture& f = fixture();
  core::HardwareConfig ca, cb;
  cb.seed += 1000003ULL;
  core::SeiNetwork a(f.qnet, ca), b(f.qnet, cb);
  core::EvalContext ctx;
  a.prepare(ctx);
  b.prepare(ctx);  // same geometry: must already be covered
  for (int i = 0; i < 4; ++i) {
    a.predict(f.image(i), ctx, i);
    b.predict(f.image(i), ctx, i);
  }
  telemetry::AllocGuard guard;
  for (int i = 0; i < 32; ++i) {
    a.predict(f.image(i), ctx, i);
    b.predict(f.image(i), ctx, i);
  }
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
}  // namespace sei
