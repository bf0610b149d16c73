// Algorithm 1 on a small trained network.
#include <gtest/gtest.h>

#include "data/synthetic_digits.hpp"
#include "nn/trainer.hpp"
#include "quant/threshold_search.hpp"
#include "workloads/networks.hpp"

namespace sei::quant {
namespace {

struct Fixture {
  workloads::Workload wl = workloads::network2();
  nn::Network net;
  data::Dataset train = data::generate_synthetic(1200, 31);
  data::Dataset test = data::generate_synthetic(400, 32);

  Fixture() : net(workloads::build_float_network(wl.topo, 21)) {
    nn::TrainConfig tc;
    tc.epochs = 3;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
  }
};

TEST(ThresholdSearch, ProducesThresholdsInGrid) {
  Fixture f;
  SearchConfig cfg;
  cfg.max_search_images = 400;
  cfg.step = 0.02;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  ASSERT_EQ(res.traces.size(), 2u);  // two hidden stages
  for (const auto& tr : res.traces) {
    EXPECT_GE(tr.best_threshold, cfg.thres_min);
    EXPECT_LE(tr.best_threshold, cfg.thres_max + 1e-6);
    EXPECT_GT(tr.scale, 0.0f);
    EXPECT_FALSE(tr.curve.empty());
    // Best accuracy equals the max of the curve.
    double mx = 0;
    for (auto& [t, a] : tr.curve) mx = std::max(mx, a);
    EXPECT_DOUBLE_EQ(tr.best_accuracy_pct, mx);
  }
  // Thresholds propagate into the QNetwork.
  EXPECT_FLOAT_EQ(res.qnet.layers[0].threshold, res.traces[0].best_threshold);
  EXPECT_FLOAT_EQ(res.qnet.layers[1].threshold, res.traces[1].best_threshold);
  EXPECT_FALSE(res.qnet.layers[2].binarize);
}

TEST(ThresholdSearch, RescaleBoundsStageOutputs) {
  Fixture f;
  SearchConfig cfg;
  cfg.max_search_images = 300;
  cfg.step = 0.05;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  // After re-scaling, stage-0 outputs over the search set lie in ≤ 1.
  const QLayer& l0 = res.qnet.layers[0];
  const std::size_t per_image = 28 * 28;
  float mx = 0;
  std::vector<float> sums;
  for (int i = 0; i < 100; ++i) {
    eval_stage_image_input(
        l0, {f.train.images.data() + static_cast<std::size_t>(i) * per_image, per_image},
        sums);
    for (float v : sums) mx = std::max(mx, v);
  }
  EXPECT_LE(mx, 1.0f + 1e-4f);
}

TEST(ThresholdSearch, QuantizedAccuracyIsUsable) {
  Fixture f;
  const double float_err =
      f.net.error_rate(f.test.images, f.test.label_span());
  SearchConfig cfg;
  cfg.max_search_images = 800;
  cfg.step = 0.02;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  const double qerr = res.qnet.error_rate(f.test);
  // Undertrained tiny fixture: just require the binary network stays far
  // from chance and within a sane band of the float baseline.
  EXPECT_LT(qerr, 50.0);
  EXPECT_LT(float_err, qerr + 60.0);
}

TEST(ThresholdSearch, SearchAccuracyMatchesAssembledNetwork) {
  // The accuracy the greedy search reports for the LAST hidden stage must
  // equal the assembled QNetwork's accuracy on the search subset — they
  // evaluate the same function (cached sums + float classifier).
  Fixture f;
  SearchConfig cfg;
  cfg.max_search_images = 300;
  cfg.step = 0.05;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  data::Dataset head = f.train.head(300);
  const double assembled_err = res.qnet.error_rate(head);
  EXPECT_NEAR(assembled_err, 100.0 - res.traces.back().best_accuracy_pct,
              1e-6);
}

TEST(ThresholdSearch, DriveCalibrationOffKeepsUnitDrive) {
  Fixture f;
  SearchConfig cfg;
  cfg.max_search_images = 200;
  cfg.step = 0.1;
  cfg.calibrate_drive = false;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  for (const auto& tr : res.traces) EXPECT_FLOAT_EQ(tr.drive_level, 1.0f);
}

TEST(ThresholdSearch, DriveLevelIsSupraThresholdMean) {
  Fixture f;
  SearchConfig cfg;
  cfg.max_search_images = 200;
  cfg.step = 0.1;
  QuantizationResult res = quantize_network(f.net, f.wl.topo, f.train, cfg);
  for (const auto& tr : res.traces) {
    EXPECT_GT(tr.drive_level, tr.best_threshold);  // mean of values > t
    EXPECT_LE(tr.drive_level, 1.0f + 1e-5f);       // outputs rescaled to ≤ 1
  }
}

TEST(ThresholdSearch, RejectsDegenerateConfigs) {
  Fixture f;
  SearchConfig cfg;
  cfg.step = 0.0;
  EXPECT_THROW(quantize_network(f.net, f.wl.topo, f.train, cfg), CheckError);
}

}  // namespace
}  // namespace sei::quant
