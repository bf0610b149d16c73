// Quantized-network representation shared by the software quantization path
// (Table 3) and the hardware SEI simulation (Tables 4/5).
//
// A QNetwork is the paper's Equ. (4) pipeline: each hidden stage computes
//   out_i = [ Σ_{input_j = 1} w_ij + b_i > threshold ]
// with max-pooling degenerated to a logical OR of bits; the final classifier
// stage keeps its analog output and is read out by argmax (winner-take-all).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace sei::quant {

/// Static description of one crossbar-mapped stage of a Table 2 network.
struct StageSpec {
  enum class Kind { Conv, Fc };
  Kind kind = Kind::Conv;
  int kernel = 0;        // conv: spatial kernel size S
  int out_channels = 0;  // conv kernels or FC outputs
  bool pool_after = false;
};

/// Network topology: stage list plus the input geometry.
struct Topology {
  std::string name;
  std::vector<StageSpec> stages;
  int input_size = 28;
  int input_channels = 1;
};

/// Per-stage geometry resolved against the input size.
struct StageGeometry {
  StageSpec::Kind kind = StageSpec::Kind::Conv;
  int kernel = 0;
  int in_h = 0, in_w = 0, in_ch = 0;
  int out_h = 0, out_w = 0;      // pre-pool spatial size (1×1 for FC)
  int pooled_h = 0, pooled_w = 0;  // post-pool size (== out for no pool)
  int rows = 0, cols = 0;          // crossbar matrix dims
  bool pool_after = false;

  /// Crossbar activations needed per picture (one per output position).
  long long activations() const {
    return static_cast<long long>(out_h) * out_w;
  }
  /// Multiply–accumulate count per picture for this stage.
  long long macs() const {
    return activations() * static_cast<long long>(rows) * cols;
  }
};

/// Resolves all stage geometries; throws if a pool stage has odd input.
std::vector<StageGeometry> resolve_geometry(const Topology& topo);

/// One quantized stage: rescaled float weights + binarization threshold.
struct QLayer {
  StageGeometry geom;
  nn::Tensor weight;     // [rows × cols]
  nn::Tensor bias;       // [cols]
  float threshold = 0.0f;  // ignored when binarize == false
  bool binarize = true;    // false only for the final classifier stage
};

/// Binary activation map for one stage (pooled output), bit per element.
using BitMap = std::vector<std::uint8_t>;

class QNetwork {
 public:
  std::vector<QLayer> layers;
  std::string name;

  /// Classifies one image (row-major in_h×in_w×in_ch floats).
  int predict(std::span<const float> image) const;

  /// Classification error in percent over a dataset.
  double error_rate(const data::Dataset& d) const;

  /// Computes the binary (post-threshold, post-OR-pool) activations of
  /// stage `stage` for one image — input for stage+1. Used by the threshold
  /// search and the split experiments to cache intermediate bits.
  BitMap binary_activations(std::span<const float> image, int stage) const;

  /// Raw pre-threshold column sums of the final stage (classifier scores).
  std::vector<float> final_scores(std::span<const float> image) const;
};

/// Evaluates one stage given its input.
/// For stage 0 the input is the float image; hidden stages take bits.
/// `out` receives the pre-threshold sums, [out_h*out_w × cols] row-major.
void eval_stage_image_input(const QLayer& l, std::span<const float> input,
                            std::vector<float>& out);
void eval_stage_binary_input(const QLayer& l, const BitMap& input,
                             std::vector<float>& out);

/// Binarize pre-threshold sums at l.threshold, then 2×2 OR-pool if requested.
BitMap binarize_and_pool(const QLayer& l, std::span<const float> sums);

/// Same, at an explicit threshold — lets sweeps evaluate candidate
/// thresholds concurrently without mutating the layer.
BitMap binarize_and_pool(const QLayer& l, std::span<const float> sums,
                         float threshold);

/// Builds a QNetwork by copying weights/biases out of a trained float
/// network whose MatrixLayer order matches `topo`'s stage order.
/// Thresholds are zero-initialized (fill via threshold search).
QNetwork build_qnetwork(nn::Network& float_net, const Topology& topo);

}  // namespace sei::quant
