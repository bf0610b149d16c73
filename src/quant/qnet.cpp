#include "quant/qnet.hpp"

#include <algorithm>
#include <cstring>

namespace sei::quant {

std::vector<StageGeometry> resolve_geometry(const Topology& topo) {
  SEI_CHECK_MSG(!topo.stages.empty(), "topology has no stages");
  std::vector<StageGeometry> out;
  int h = topo.input_size, w = topo.input_size, c = topo.input_channels;
  for (const StageSpec& s : topo.stages) {
    StageGeometry g;
    g.kind = s.kind;
    g.in_h = h;
    g.in_w = w;
    g.in_ch = c;
    g.pool_after = s.pool_after;
    if (s.kind == StageSpec::Kind::Conv) {
      SEI_CHECK_MSG(s.kernel >= 1 && h >= s.kernel && w >= s.kernel,
                    "conv kernel larger than input");
      g.kernel = s.kernel;
      g.out_h = h - s.kernel + 1;
      g.out_w = w - s.kernel + 1;
      g.rows = s.kernel * s.kernel * c;
      g.cols = s.out_channels;
    } else {
      SEI_CHECK_MSG(!s.pool_after, "pooling after FC is not supported");
      g.kernel = 0;
      g.out_h = 1;
      g.out_w = 1;
      g.rows = h * w * c;
      g.cols = s.out_channels;
    }
    g.pooled_h = s.pool_after ? g.out_h / 2 : g.out_h;
    g.pooled_w = s.pool_after ? g.out_w / 2 : g.out_w;
    SEI_CHECK_MSG(g.pooled_h >= 1 && g.pooled_w >= 1, "stage output vanished");
    out.push_back(g);
    if (s.kind == StageSpec::Kind::Conv) {
      h = g.pooled_h;
      w = g.pooled_w;
      c = g.cols;
    } else {
      h = 1;
      w = g.cols;
      c = 1;
    }
  }
  return out;
}

void eval_stage_image_input(const QLayer& l, std::span<const float> input,
                            std::vector<float>& out) {
  const StageGeometry& g = l.geom;
  SEI_CHECK(input.size() ==
            static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  out.assign(positions * g.cols, 0.0f);
  const float* wm = l.weight.data();
  const float* bias = l.bias.data();
  const int cols = g.cols;

  if (g.kind == StageSpec::Kind::Fc) {
    float* row = out.data();
    for (int c = 0; c < cols; ++c) row[c] = bias[c];
    for (int r = 0; r < g.rows; ++r) {
      const float v = input[static_cast<std::size_t>(r)];
      if (v == 0.0f) continue;
      const float* wrow = wm + static_cast<std::size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) row[c] += v * wrow[c];
    }
    return;
  }

  const int k = g.kernel, ch = g.in_ch, iw = g.in_w;
  float* orow = out.data();
  for (int y = 0; y < g.out_h; ++y) {
    for (int x = 0; x < g.out_w; ++x, orow += cols) {
      for (int c = 0; c < cols; ++c) orow[c] = bias[c];
      int r = 0;
      for (int di = 0; di < k; ++di) {
        const float* in_px =
            input.data() + (static_cast<std::size_t>(y + di) * iw + x) * ch;
        for (int t = 0; t < k * ch; ++t, ++r) {
          const float v = in_px[t];
          if (v == 0.0f) continue;
          const float* wrow = wm + static_cast<std::size_t>(r) * cols;
          for (int c = 0; c < cols; ++c) orow[c] += v * wrow[c];
        }
      }
    }
  }
}

void eval_stage_binary_input(const QLayer& l, const BitMap& input,
                             std::vector<float>& out) {
  const StageGeometry& g = l.geom;
  SEI_CHECK(input.size() ==
            static_cast<std::size_t>(g.in_h) * g.in_w * g.in_ch);
  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  out.assign(positions * g.cols, 0.0f);
  const float* wm = l.weight.data();
  const float* bias = l.bias.data();
  const int cols = g.cols;

  if (g.kind == StageSpec::Kind::Fc) {
    float* row = out.data();
    for (int c = 0; c < cols; ++c) row[c] = bias[c];
    for (int r = 0; r < g.rows; ++r) {
      if (!input[static_cast<std::size_t>(r)]) continue;
      const float* wrow = wm + static_cast<std::size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) row[c] += wrow[c];
    }
    return;
  }

  const int k = g.kernel, ch = g.in_ch, iw = g.in_w;
  float* orow = out.data();
  for (int y = 0; y < g.out_h; ++y) {
    for (int x = 0; x < g.out_w; ++x, orow += cols) {
      for (int c = 0; c < cols; ++c) orow[c] = bias[c];
      int r = 0;
      for (int di = 0; di < k; ++di) {
        const std::uint8_t* in_px =
            input.data() + (static_cast<std::size_t>(y + di) * iw + x) * ch;
        for (int t = 0; t < k * ch; ++t, ++r) {
          if (!in_px[t]) continue;
          const float* wrow = wm + static_cast<std::size_t>(r) * cols;
          for (int c = 0; c < cols; ++c) orow[c] += wrow[c];
        }
      }
    }
  }
}

BitMap binarize_and_pool(const QLayer& l, std::span<const float> sums) {
  return binarize_and_pool(l, sums, l.threshold);
}

BitMap binarize_and_pool(const QLayer& l, std::span<const float> sums,
                         float threshold) {
  const StageGeometry& g = l.geom;
  const std::size_t positions = static_cast<std::size_t>(g.out_h) * g.out_w;
  SEI_CHECK(sums.size() == positions * static_cast<std::size_t>(g.cols));
  const float t = threshold;

  if (!g.pool_after) {
    BitMap bits(sums.size());
    for (std::size_t i = 0; i < sums.size(); ++i)
      bits[i] = sums[i] > t ? 1 : 0;
    return bits;
  }

  // Binarize then 2×2 OR-pool in one pass. Equivalent to thresholding the
  // max (the paper's observation that pooling degenerates to OR).
  const int ph = g.pooled_h, pw = g.pooled_w, cols = g.cols, ow = g.out_w;
  BitMap bits(static_cast<std::size_t>(ph) * pw * cols, 0);
  for (int y = 0; y < ph; ++y) {
    for (int x = 0; x < pw; ++x) {
      std::uint8_t* opx =
          bits.data() + (static_cast<std::size_t>(y) * pw + x) * cols;
      for (int dy = 0; dy < 2; ++dy) {
        const float* ipx =
            sums.data() +
            (static_cast<std::size_t>(2 * y + dy) * ow + 2 * x) * cols;
        for (int c = 0; c < cols; ++c) {
          if (ipx[c] > t || ipx[cols + c] > t) opx[c] = 1;
        }
      }
    }
  }
  return bits;
}

int QNetwork::predict(std::span<const float> image) const {
  const std::vector<float> scores = final_scores(image);
  return static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

std::vector<float> QNetwork::final_scores(std::span<const float> image) const {
  SEI_CHECK(!layers.empty());
  std::vector<float> sums;
  BitMap bits;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const QLayer& l = layers[i];
    if (i == 0)
      eval_stage_image_input(l, image, sums);
    else
      eval_stage_binary_input(l, bits, sums);
    if (i + 1 == layers.size()) {
      SEI_CHECK_MSG(!l.binarize, "final stage must not be binarized");
      return sums;
    }
    SEI_CHECK_MSG(l.binarize, "hidden stage must be binarized");
    bits = binarize_and_pool(l, sums);
  }
  return sums;  // unreachable
}

BitMap QNetwork::binary_activations(std::span<const float> image,
                                    int stage) const {
  SEI_CHECK(stage >= 0 && stage < static_cast<int>(layers.size()));
  std::vector<float> sums;
  BitMap bits;
  for (int i = 0; i <= stage; ++i) {
    const QLayer& l = layers[static_cast<std::size_t>(i)];
    if (i == 0)
      eval_stage_image_input(l, image, sums);
    else
      eval_stage_binary_input(l, bits, sums);
    SEI_CHECK_MSG(l.binarize, "binary_activations beyond binarized stages");
    bits = binarize_and_pool(l, sums);
  }
  return bits;
}

double QNetwork::error_rate(const data::Dataset& d) const {
  const int n = d.size();
  SEI_CHECK(n > 0);
  const std::size_t per_image =
      d.images.numel() / static_cast<std::size_t>(n);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const std::span<const float> img{
        d.images.data() + static_cast<std::size_t>(i) * per_image, per_image};
    if (predict(img) == d.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return 100.0 * (1.0 - static_cast<double>(correct) / n);
}

QNetwork build_qnetwork(nn::Network& float_net, const Topology& topo) {
  QNetwork q;
  q.name = topo.name;
  const auto geoms = resolve_geometry(topo);
  auto mats = float_net.matrix_layers();
  SEI_CHECK_MSG(mats.size() == geoms.size(),
                "float network has " << mats.size()
                                     << " matrix layers, topology expects "
                                     << geoms.size());
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    SEI_CHECK_MSG(mats[i]->matrix_rows() == geoms[i].rows &&
                      mats[i]->matrix_cols() == geoms[i].cols,
                  "stage " << i << " matrix shape mismatch");
    QLayer l;
    l.geom = geoms[i];
    l.weight = mats[i]->weight_matrix();
    l.bias = mats[i]->bias();
    l.binarize = i + 1 != geoms.size();
    q.layers.push_back(std::move(l));
  }
  return q;
}

}  // namespace sei::quant
