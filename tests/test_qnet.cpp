// QNetwork: geometry resolution (Table 2), binary stage evaluation, OR-pool
// equivalence, and consistency with the float network on the first stage.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "quant/qnet.hpp"
#include "workloads/networks.hpp"

namespace sei::quant {
namespace {

TEST(Geometry, Network1MatchesTable2) {
  const auto g = resolve_geometry(workloads::network1().topo);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].rows, 25);   // weight matrix 1: 25 × 12
  EXPECT_EQ(g[0].cols, 12);
  EXPECT_EQ(g[0].out_h, 24);
  EXPECT_EQ(g[0].pooled_h, 12);
  EXPECT_EQ(g[1].rows, 300);  // weight matrix 2: 300 × 64
  EXPECT_EQ(g[1].cols, 64);
  EXPECT_EQ(g[1].out_h, 8);
  EXPECT_EQ(g[1].pooled_h, 4);
  EXPECT_EQ(g[2].rows, 1024);  // FC 1024 × 10
  EXPECT_EQ(g[2].cols, 10);
}

TEST(Geometry, Network2MatchesTable2) {
  const auto g = resolve_geometry(workloads::network2().topo);
  EXPECT_EQ(g[0].rows, 9);
  EXPECT_EQ(g[0].cols, 4);
  EXPECT_EQ(g[1].rows, 36);
  EXPECT_EQ(g[1].cols, 8);
  EXPECT_EQ(g[2].rows, 200);
  EXPECT_EQ(g[2].cols, 10);
}

TEST(Geometry, Network3MatchesTable2) {
  const auto g = resolve_geometry(workloads::network3().topo);
  EXPECT_EQ(g[0].rows, 9);
  EXPECT_EQ(g[0].cols, 6);
  EXPECT_EQ(g[1].rows, 54);
  EXPECT_EQ(g[1].cols, 12);
  EXPECT_EQ(g[2].rows, 300);
  EXPECT_EQ(g[2].cols, 10);
}

TEST(Geometry, MacsCountPositions) {
  const auto g = resolve_geometry(workloads::network1().topo);
  EXPECT_EQ(g[0].macs(), 24LL * 24 * 25 * 12);
  EXPECT_EQ(g[1].macs(), 8LL * 8 * 300 * 64);
  EXPECT_EQ(g[2].macs(), 1024LL * 10);
}

/// Tiny hand-checkable stage: 2×2 kernel, 1 input channel, 1 kernel.
QLayer tiny_conv_layer(bool pool) {
  QLayer l;
  l.geom.kind = StageSpec::Kind::Conv;
  l.geom.kernel = 2;
  l.geom.in_h = 3;
  l.geom.in_w = 3;
  l.geom.in_ch = 1;
  l.geom.out_h = 2;
  l.geom.out_w = 2;
  l.geom.pool_after = pool;
  l.geom.pooled_h = pool ? 1 : 2;
  l.geom.pooled_w = pool ? 1 : 2;
  l.geom.rows = 4;
  l.geom.cols = 1;
  l.weight = nn::Tensor({4, 1});
  l.weight.at(0, 0) = 1.0f;   // top-left of window
  l.weight.at(3, 0) = -2.0f;  // bottom-right of window
  l.bias = nn::Tensor({1});
  l.bias.at(0) = 0.5f;
  l.threshold = 0.9f;
  return l;
}

TEST(QNet, FloatStageEvaluation) {
  QLayer l = tiny_conv_layer(false);
  // Input: 3×3 ramp 0..8.
  std::vector<float> in(9);
  for (int i = 0; i < 9; ++i) in[static_cast<std::size_t>(i)] = static_cast<float>(i);
  std::vector<float> out;
  eval_stage_image_input(l, in, out);
  ASSERT_EQ(out.size(), 4u);
  // Position (0,0): 1·in[0] − 2·in[4] + 0.5 = 0 − 8 + 0.5 = −7.5.
  EXPECT_FLOAT_EQ(out[0], -7.5f);
  // Position (1,1): 1·in[4] − 2·in[8] + 0.5 = 4 − 16 + 0.5 = −11.5.
  EXPECT_FLOAT_EQ(out[3], -11.5f);
}

TEST(QNet, BinaryStageEvaluation) {
  QLayer l = tiny_conv_layer(false);
  BitMap in(9, 0);
  in[0] = 1;  // only the top-left pixel active
  std::vector<float> out;
  eval_stage_binary_input(l, in, out);
  // Position (0,0): w[0] + bias = 1.5; others see only bias or nothing.
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
}

TEST(QNet, BinarizeThenOrPoolEqualsThresholdOfMax) {
  QLayer l = tiny_conv_layer(true);
  // Pre-threshold sums for the 2×2 output, one channel.
  std::vector<float> sums{0.1f, 0.95f, 0.2f, 0.3f};
  BitMap pooled = binarize_and_pool(l, sums);
  ASSERT_EQ(pooled.size(), 1u);
  EXPECT_EQ(pooled[0], 1);  // max = 0.95 > 0.9

  std::vector<float> low{0.1f, 0.85f, 0.2f, 0.3f};
  EXPECT_EQ(binarize_and_pool(l, low)[0], 0);
}

TEST(QNet, BuildFromFloatNetworkAndPredict) {
  auto wl = workloads::network2();
  nn::Network net = workloads::build_float_network(wl.topo, 7);
  QNetwork q = build_qnetwork(net, wl.topo);
  ASSERT_EQ(q.layers.size(), 3u);
  EXPECT_TRUE(q.layers[0].binarize);
  EXPECT_FALSE(q.layers[2].binarize);

  // First-stage float evaluation must equal the float conv layer exactly.
  Rng rng(3);
  nn::Tensor img({1, 28, 28, 1});
  for (float& v : img.flat())
    v = rng.bernoulli(0.7) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  nn::Tensor conv_out = net.forward_range(img, 0, 1, false);
  std::vector<float> qnet_out;
  eval_stage_image_input(q.layers[0], {img.data(), img.numel()}, qnet_out);
  ASSERT_EQ(qnet_out.size(), conv_out.numel());
  for (std::size_t i = 0; i < qnet_out.size(); ++i)
    EXPECT_NEAR(qnet_out[i], conv_out[i], 1e-4f);

  // Predict returns a class index and is deterministic.
  const int p1 = q.predict({img.data(), img.numel()});
  const int p2 = q.predict({img.data(), img.numel()});
  EXPECT_EQ(p1, p2);
  EXPECT_GE(p1, 0);
  EXPECT_LT(p1, 10);
}

TEST(QNet, FinalScoresMatchFcSum) {
  auto wl = workloads::network2();
  nn::Network net = workloads::build_float_network(wl.topo, 8);
  QNetwork q = build_qnetwork(net, wl.topo);
  // With thresholds at 0, all positive sums binarize to 1.
  q.layers[0].threshold = 0.0f;
  q.layers[1].threshold = 0.0f;
  nn::Tensor img({1, 28, 28, 1});
  img.fill(0.3f);
  const auto scores = q.final_scores({img.data(), img.numel()});
  ASSERT_EQ(scores.size(), 10u);
  // Rebuild by hand: bits after stage 1 → FC affine.
  BitMap bits = q.binary_activations({img.data(), img.numel()}, 1);
  double expect0 = q.layers[2].bias.at(0);
  for (int r = 0; r < q.layers[2].geom.rows; ++r)
    if (bits[static_cast<std::size_t>(r)])
      expect0 += q.layers[2].weight.at(r, 0);
  EXPECT_NEAR(scores[0], expect0, 1e-3);
}

TEST(Geometry, RejectsBadTopologies) {
  Topology t;
  t.name = "bad";
  EXPECT_THROW(resolve_geometry(t), CheckError);  // empty

  t.stages = {StageSpec{StageSpec::Kind::Conv, 31, 4, false}};
  EXPECT_THROW(resolve_geometry(t), CheckError);  // kernel > input

  StageSpec fc;
  fc.kind = StageSpec::Kind::Fc;
  fc.out_channels = 10;
  fc.pool_after = true;
  t.stages = {fc};
  EXPECT_THROW(resolve_geometry(t), CheckError);  // pool after FC
}

}  // namespace
}  // namespace sei::quant
