#include "quant/threshold_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exec/thread_pool.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "nn/softmax.hpp"

namespace sei::quant {

namespace {

/// Index of the first float-net layer *after* the conv/relu/pool group of
/// the matrix layer at `mat_index` — where the float tail evaluation starts.
std::size_t tail_begin_index(nn::Network& net, std::size_t mat_index,
                             bool pool_after) {
  std::size_t j = mat_index + 1;
  if (j < net.size() && dynamic_cast<nn::ReLU*>(&net.layer(j))) ++j;
  if (pool_after) {
    SEI_CHECK_MSG(j < net.size() &&
                      dynamic_cast<nn::MaxPool2x2*>(&net.layer(j)),
                  "topology says pool_after but float net has no pool here");
    ++j;
  }
  return j;
}

void rescale_matrix_layer(nn::MatrixLayer& layer, float inv_scale) {
  layer.weight_matrix().scale(inv_scale);
  layer.bias().scale(inv_scale);
}

}  // namespace

std::vector<float> threshold_grid(double lo, double hi, double step) {
  SEI_CHECK_MSG(step > 0.0, "threshold grid step must be positive");
  SEI_CHECK_MSG(hi >= lo, "threshold grid range is empty");
  std::vector<float> grid;
  grid.reserve(static_cast<std::size_t>((hi - lo) / step) + 2);
  for (double t = lo; t <= hi + 1e-12; t += step)
    grid.push_back(static_cast<float>(t));
  return grid;
}

QuantizationResult quantize_network(nn::Network& float_net,
                                    const Topology& topo,
                                    const data::Dataset& train,
                                    const SearchConfig& cfg) {
  SEI_CHECK(cfg.step > 0 && cfg.thres_max >= cfg.thres_min);
  QuantizationResult result;
  result.qnet = build_qnetwork(float_net, topo);
  QNetwork& qnet = result.qnet;
  const int stages = static_cast<int>(qnet.layers.size());
  SEI_CHECK_MSG(stages >= 2, "need at least one hidden stage + classifier");

  const int n = std::min(train.size(), cfg.max_search_images);
  SEI_CHECK(n > 0);
  const std::size_t per_image =
      train.images.numel() / static_cast<std::size_t>(train.size());

  auto mats = float_net.matrix_layers();
  const auto mat_idx = float_net.matrix_layer_indices();

  // Cached pre-threshold outputs of the current stage, per image.
  std::vector<std::vector<float>> sums(static_cast<std::size_t>(n));
  // Cached binary inputs of the current stage (empty for stage 0).
  std::vector<BitMap> bits(static_cast<std::size_t>(n));

  for (int L = 0; L + 1 < stages; ++L) {
    QLayer& ql = qnet.layers[static_cast<std::size_t>(L)];

    // Step 1: stage outputs with the front layers binarized. Per-image
    // slots, max combined in fixed chunk order → thread-count independent.
    const float max_out = exec::parallel_reduce<float>(
        n, exec::kEvalGrain, 0.0f,
        [&](int lo, int hi) {
          float m = 0.0f;
          for (int i = lo; i < hi; ++i) {
            auto& s = sums[static_cast<std::size_t>(i)];
            if (L == 0) {
              const std::span<const float> img{
                  train.images.data() + static_cast<std::size_t>(i) * per_image,
                  per_image};
              eval_stage_image_input(ql, img, s);
            } else {
              eval_stage_binary_input(ql, bits[static_cast<std::size_t>(i)], s);
            }
            for (float v : s) m = std::max(m, v);
          }
          return m;
        },
        [](float a, float b) { return std::max(a, b); });

    // Step 2: weight re-scaling so the stage output lies in [0, 1].
    const float scale = std::max(max_out, 1e-6f);
    const float inv = 1.0f / scale;
    ql.weight.scale(inv);
    ql.bias.scale(inv);
    rescale_matrix_layer(*mats[static_cast<std::size_t>(L)], inv);
    exec::parallel_for(n, [&](int i) {
      for (float& v : sums[static_cast<std::size_t>(i)]) v *= inv;
    });

    // Step 3: brute-force threshold search, float tail.
    const std::size_t tb = tail_begin_index(
        float_net, mat_idx[static_cast<std::size_t>(L)], ql.geom.pool_after);
    const int ph = ql.geom.pooled_h, pw = ql.geom.pooled_w,
              ch = ql.geom.cols;
    const std::size_t bits_len =
        static_cast<std::size_t>(ph) * pw * ch;

    LayerSearchTrace trace;
    trace.stage = L;
    trace.scale = scale;
    int best_correct = -1;
    float best_t = static_cast<float>(cfg.thres_min);

    // Mean supra-threshold activation — the calibrated drive level fed to
    // the float tail (and later folded into the next layer's weights).
    auto drive_level = [&](float t) -> float {
      if (!cfg.calibrate_drive) return 1.0f;
      double sum = 0.0;
      std::size_t count = 0;
      for (const auto& s : sums)
        for (float v : s)
          if (v > t) {
            sum += v;
            ++count;
          }
      return count ? static_cast<float>(sum / static_cast<double>(count))
                   : 1.0f;
    };

    // Candidate thresholds are independent: sweep the grid in parallel
    // (each worker binarizes at its own explicit threshold — ql is never
    // mutated), then scan the per-candidate counts sequentially so the
    // first-max tie-break matches the serial sweep exactly.
    const std::vector<float> grid =
        threshold_grid(cfg.thres_min, cfg.thres_max, cfg.step);
    std::vector<int> grid_correct(grid.size(), 0);
    exec::parallel_for(
        static_cast<int>(grid.size()),
        [&](int gi) {
          const float t = grid[static_cast<std::size_t>(gi)];
          const float drive = drive_level(t);
          int correct = 0;
          for (int begin = 0; begin < n; begin += cfg.tail_batch) {
            const int end = std::min(n, begin + cfg.tail_batch);
            nn::Tensor batch({end - begin, ph, pw, ch});
            float* dst = batch.data();
            for (int i = begin; i < end; ++i, dst += bits_len) {
              const BitMap bm =
                  binarize_and_pool(ql, sums[static_cast<std::size_t>(i)], t);
              for (std::size_t k = 0; k < bits_len; ++k)
                dst[k] = bm[k] ? drive : 0.0f;
            }
            nn::Tensor logits =
                float_net.forward_range(batch, tb, float_net.size());
            logits.reshape({end - begin,
                            static_cast<int>(logits.numel()) / (end - begin)});
            for (int i = begin; i < end; ++i)
              if (nn::argmax_row(logits, i - begin) ==
                  train.labels[static_cast<std::size_t>(i)])
                ++correct;
          }
          grid_correct[static_cast<std::size_t>(gi)] = correct;
        },
        nullptr, /*grain=*/1);
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      const int correct = grid_correct[gi];
      trace.curve.emplace_back(grid[gi], 100.0 * correct / n);
      if (correct > best_correct) {
        best_correct = correct;
        best_t = grid[gi];
      }
    }

    ql.threshold = best_t;
    trace.best_threshold = best_t;
    trace.drive_level = drive_level(best_t);
    trace.best_accuracy_pct = 100.0 * best_correct / n;
    if (cfg.verbose)
      std::printf(
          "  stage %d: scale %.4g, threshold %.4f, drive %.3f, "
          "train-acc %.2f%%\n",
          L, scale, best_t, trace.drive_level, trace.best_accuracy_pct);

    // Fold the drive level into the consuming layer's weights (bias stays):
    // a binary input then contributes drive·w, matching what the tail saw.
    if (cfg.calibrate_drive && trace.drive_level != 1.0f) {
      QLayer& next = qnet.layers[static_cast<std::size_t>(L + 1)];
      next.weight.scale(trace.drive_level);
      mats[static_cast<std::size_t>(L + 1)]->weight_matrix().scale(
          trace.drive_level);
    }
    result.traces.push_back(std::move(trace));

    // Step 4: binary inputs for the next stage from the cached outputs.
    exec::parallel_for(n, [&](int i) {
      bits[static_cast<std::size_t>(i)] =
          binarize_and_pool(ql, sums[static_cast<std::size_t>(i)]);
    });
  }

  return result;
}

}  // namespace sei::quant
