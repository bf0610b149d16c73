// google-benchmark micro kernels: the hot loops of the simulator.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/bitpack.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "quant/bitpack.hpp"
#include "quant/qnet.hpp"
#include "rram/crossbar.hpp"
#include "workloads/networks.hpp"

namespace {

using namespace sei;

void BM_Gemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_Gemm)->Args({64, 300, 64})->Args({576, 25, 12});

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2D conv(5, 12, 64, rng);
  nn::Tensor in({1, 12, 12, 12});
  for (float& v : in.flat()) v = static_cast<float>(rng.uniform(0, 1));
  for (auto _ : state) {
    nn::Tensor out = conv.forward(in, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_CrossbarMvm(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  Rng rng(3);
  rram::Crossbar xb(rows, cols, rram::DeviceConfig{}, rng);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      xb.program(r, c, static_cast<int>(rng.below(16)));
  std::vector<double> in(static_cast<std::size_t>(rows));
  for (auto& v : in) v = rng.uniform();
  std::vector<double> out(static_cast<std::size_t>(cols));
  Rng read_rng(4);
  for (auto _ : state) {
    xb.mvm(in, out, read_rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(rows) *
                          cols);
}
BENCHMARK(BM_CrossbarMvm)->Args({400, 64})->Args({512, 512});

void BM_CrossbarSelected(benchmark::State& state) {
  const int rows = 400, cols = 64;
  Rng rng(5);
  rram::Crossbar xb(rows, cols, rram::DeviceConfig{}, rng);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      xb.program(r, c, static_cast<int>(rng.below(16)));
  std::vector<std::uint8_t> select(rows);
  for (auto& s : select) s = rng.bernoulli(0.15) ? 1 : 0;  // sparse inputs
  std::vector<double> coeff(rows, 16.0);
  std::vector<double> out(cols);
  Rng read_rng(6);
  for (auto _ : state) {
    xb.mvm_selected(select, coeff, out, read_rng);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CrossbarSelected);

void BM_BinaryStageEval(benchmark::State& state) {
  // Network 1 conv2-shaped binary stage evaluation — the simulator's
  // dominant inner loop during Table 4/5 accuracy runs.
  auto topo = workloads::network1().topo;
  auto geoms = quant::resolve_geometry(topo);
  quant::QLayer l;
  l.geom = geoms[1];
  l.weight = nn::Tensor({l.geom.rows, l.geom.cols});
  l.bias = nn::Tensor({l.geom.cols});
  Rng rng(7);
  for (float& v : l.weight.flat()) v = static_cast<float>(rng.uniform(-1, 1));
  quant::BitMap in(static_cast<std::size_t>(l.geom.in_h) * l.geom.in_w *
                   l.geom.in_ch);
  for (auto& b : in) b = rng.bernoulli(0.15) ? 1 : 0;
  std::vector<float> out;
  for (auto _ : state) {
    quant::eval_stage_binary_input(l, in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BinaryStageEval);

// --- core/bitpack kernels --------------------------------------------------

void BM_PackBits(benchmark::State& state) {
  Rng rng(9);
  quant::BitMap in(4096);
  for (auto& b : in) b = rng.bernoulli(0.15) ? 1 : 0;
  quant::PackedBits out;
  for (auto _ : state) {
    quant::pack_bits(in, out);
    benchmark::DoNotOptimize(out.words.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(in.size()));
}
BENCHMARK(BM_PackBits);

void BM_UnpackBits(benchmark::State& state) {
  Rng rng(10);
  quant::BitMap src(4096);
  for (auto& b : src) b = rng.bernoulli(0.15) ? 1 : 0;
  const quant::PackedBits in = quant::pack_bits(src);
  quant::BitMap out;
  for (auto _ : state) {
    quant::unpack_bits(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(src.size()));
}
BENCHMARK(BM_UnpackBits);

// 2×2 OR-pool: byte map vs packed words. Network-1 conv1 output shape.
void BM_OrPoolBytes(benchmark::State& state) {
  const int h = 24, w = 24, c = 12;
  Rng rng(13);
  quant::BitMap in(static_cast<std::size_t>(h) * w * c);
  for (auto& b : in) b = rng.bernoulli(0.3) ? 1 : 0;
  quant::BitMap out;
  for (auto _ : state) {
    core::or_pool_bytes(in, h, w, c, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(in.size()));
}
BENCHMARK(BM_OrPoolBytes);

void BM_OrPoolPacked(benchmark::State& state) {
  const int h = 24, w = 24, c = 12;
  Rng rng(13);
  quant::BitMap bytes(static_cast<std::size_t>(h) * w * c);
  for (auto& b : bytes) b = rng.bernoulli(0.3) ? 1 : 0;
  const quant::PackedBits in = quant::pack_bits(bytes);
  quant::PackedBits out;
  for (auto _ : state) {
    core::or_pool_packed(in, h, w, c, out);
    benchmark::DoNotOptimize(out.words.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(bytes.size()));
}
BENCHMARK(BM_OrPoolPacked);

// --- plan dispatch ---------------------------------------------------------

/// Tiny untrained FC stack with integral weights: per-stage evaluation is a
/// few hundred nanoseconds, so BM_PredictCompiled measures the per-request
/// cost of the plan executor itself (op walk, converts, charge hooks) on
/// top of near-empty kernels. Every stage takes the packed engines.
quant::QNetwork make_bench_qnet() {
  quant::QNetwork qnet;
  qnet.name = "bench_plan";
  quant::Topology topo;
  topo.name = "bench_plan";
  topo.input_size = 8;
  topo.stages = {{quant::StageSpec::Kind::Fc, 0, 16, false},
                 {quant::StageSpec::Kind::Fc, 0, 16, false},
                 {quant::StageSpec::Kind::Fc, 0, 10, false}};
  auto geoms = quant::resolve_geometry(topo);
  Rng rng(11);
  for (std::size_t s = 0; s < geoms.size(); ++s) {
    quant::QLayer l;
    l.geom = geoms[s];
    l.weight = nn::Tensor({l.geom.rows, l.geom.cols});
    l.bias = nn::Tensor({l.geom.cols});
    for (float& v : l.weight.flat())
      v = static_cast<float>(static_cast<int>(rng.below(9)) - 4);
    l.threshold = 2.0f;
    l.binarize = s + 1 < geoms.size();
    qnet.layers.push_back(std::move(l));
  }
  return qnet;
}

void BM_PredictCompiled(benchmark::State& state) {
  static quant::QNetwork qnet = make_bench_qnet();
  core::SeiNetwork hw(qnet, core::HardwareConfig{});
  Rng rng(12);
  std::vector<float> img(64);
  for (float& v : img) v = static_cast<float>(rng.uniform(0, 1));
  core::EvalContext ctx;
  hw.prepare(ctx);
  long long i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw.predict(img, ctx, i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictCompiled);

void BM_SyntheticDigitRender(benchmark::State& state) {
  data::SynthConfig cfg;
  Rng rng(8);
  std::vector<float> img(64);
  int digit = 0;
  for (auto _ : state) {
    data::render_digit(digit, cfg, rng, img.data());
    digit = (digit + 1) % 10;
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_SyntheticDigitRender);

}  // namespace
