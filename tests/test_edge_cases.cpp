// Additional edge-case coverage across modules.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/trainer.hpp"
#include "quant/qnet.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

TEST(RngEdges, BetweenCoversInclusiveBounds) {
  Rng r(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngEdges, BelowOneIsAlwaysZero) {
  Rng r(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(TimerEdges, MonotoneNonNegative) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b + 1.0);
}

TEST(QnetEdges, FcStageWithFloatInput) {
  // The MLP input stage path: FC geometry fed analog (DAC) values.
  quant::QLayer l;
  l.geom.kind = quant::StageSpec::Kind::Fc;
  l.geom.in_h = 1;
  l.geom.in_w = 3;
  l.geom.in_ch = 1;
  l.geom.out_h = l.geom.out_w = l.geom.pooled_h = l.geom.pooled_w = 1;
  l.geom.rows = 3;
  l.geom.cols = 2;
  l.weight = nn::Tensor({3, 2});
  l.weight.at(0, 0) = 1.0f;
  l.weight.at(1, 0) = 2.0f;
  l.weight.at(2, 1) = -1.0f;
  l.bias = nn::Tensor({2});
  l.bias.at(1) = 0.25f;
  std::vector<float> in{0.5f, 0.0f, 1.0f};
  std::vector<float> out;
  quant::eval_stage_image_input(l, in, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 0.5f);           // 0.5·1 + 0·2
  EXPECT_FLOAT_EQ(out[1], -1.0f + 0.25f);  // 1·(−1) + bias
}

TEST(QnetEdges, NoPoolBinarizePassesThrough) {
  quant::QLayer l;
  l.geom.kind = quant::StageSpec::Kind::Fc;
  l.geom.out_h = l.geom.out_w = 1;
  l.geom.pooled_h = l.geom.pooled_w = 1;
  l.geom.pool_after = false;
  l.geom.rows = 1;
  l.geom.cols = 3;
  l.threshold = 0.5f;
  std::vector<float> sums{0.4f, 0.6f, 0.5f};
  const quant::BitMap bits = quant::binarize_and_pool(l, sums);
  EXPECT_EQ(bits, (quant::BitMap{0, 1, 0}));  // strictly greater
}

TEST(SynthEdges, CustomImageSizeRenders) {
  data::SynthConfig cfg;
  cfg.image_size = 20;
  Rng rng(3);
  std::vector<float> img(400, -1.0f);
  data::render_digit(5, cfg, rng, img.data());
  float mx = 0;
  for (float v : img) {
    EXPECT_GE(v, 0.0f);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx, 0.5f);  // the digit is inked
}

TEST(TrainerEdges, SingleEpochSingleBatch) {
  data::Dataset d = data::generate_synthetic(8, 4);
  auto wl = workloads::network2();
  nn::Network net = workloads::build_float_network(wl.topo, 6);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;  // larger than the dataset
  const nn::EpochStats s = nn::Trainer(tc).fit(net, d.images, d.label_span());
  EXPECT_EQ(s.epoch, 1);
  EXPECT_GE(s.train_loss, 0.0);
}

TEST(WorkloadEdges, AllWorkloadsBuildAndForward) {
  for (const char* name : {"network1", "network2", "network3", "mlp"}) {
    auto wl = workloads::workload_by_name(name);
    nn::Network net = workloads::build_float_network(wl.topo, 7);
    nn::Tensor img({1, 28, 28, 1});
    nn::Tensor out = net.forward(img);
    EXPECT_EQ(out.numel(), 10u) << name;
  }
}

}  // namespace
}  // namespace sei
