// Determinism contract of the parallel evaluation engine
// (docs/parallelism.md): every batch result is bit-identical at any thread
// count and independent of the order images are evaluated in, including
// under stochastic device effects (read noise, programming variation). The
// serving runtime resumes a checkpointed request stream bit-identically and
// starts cold on a torn checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "arch/live_energy.hpp"
#include "core/adc_network.hpp"
#include "core/lazy_decide.hpp"
#include "core/sei_network.hpp"
#include "data/synthetic_digits.hpp"
#include "exec/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "quant/qnet.hpp"
#include "quant/threshold_search.hpp"
#include "reliability/campaign.hpp"
#include "serve/fleet.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/networks.hpp"

namespace sei {
namespace {

/// Small trained + quantized network2 shared across tests.
struct Fixture {
  workloads::Workload wl = workloads::network2();
  data::Dataset train = data::generate_synthetic(800, 71);
  data::Dataset test = data::generate_synthetic(240, 72);
  quant::QNetwork qnet;

  Fixture() {
    nn::Network net = workloads::build_float_network(wl.topo, 51);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
    quant::SearchConfig sc;
    sc.max_search_images = 300;
    sc.step = 0.05;
    qnet = quant::quantize_network(net, wl.topo, train, sc).qnet;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Restores the default pool to auto sizing when a test scope ends.
struct ThreadGuard {
  ~ThreadGuard() { exec::set_default_threads(0); }
};

TEST(Determinism, SeiErrorRateIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;  // stochastic readout in the loop
  cfg.device.program_sigma = 0.03;
  core::SeiNetwork hw(f.qnet, cfg);

  exec::set_default_threads(1);
  const double serial = hw.error_rate(f.test);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    EXPECT_EQ(hw.error_rate(f.test), serial) << "threads=" << threads;
  }
}

TEST(Determinism, PredictionsIndependentOfEvaluationOrder) {
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);
  const std::size_t per_image = 28 * 28;
  const int n = 60;

  auto image = [&](int i) {
    return std::span<const float>{
        f.test.images.data() + static_cast<std::size_t>(i) * per_image,
        per_image};
  };
  std::vector<int> forward(static_cast<std::size_t>(n));
  std::vector<int> reverse(static_cast<std::size_t>(n));
  core::EvalContext ctx;
  for (int i = 0; i < n; ++i)
    forward[static_cast<std::size_t>(i)] = hw.predict(image(i), ctx, i);
  for (int i = n - 1; i >= 0; --i)
    reverse[static_cast<std::size_t>(i)] = hw.predict(image(i), ctx, i);
  EXPECT_EQ(forward, reverse);
}

TEST(Determinism, CachedTailReplaysFullEvaluationUnderNoise) {
  // The per-(image, stage) streams guarantee that re-evaluating only the
  // tail stages from cached activations draws exactly the noise a full
  // predict would — so split experiments remain comparable under noise.
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);
  const int n = 120;
  const double full = hw.error_rate(f.test, n);
  for (int stage = 1; stage < hw.stage_count(); ++stage) {
    const auto cached = hw.cache_stage_inputs(f.test, stage, n);
    EXPECT_EQ(hw.error_rate_from(f.test, stage, cached), full)
        << "stage=" << stage;
  }
}

/// Everything error_rate & co. published under path "sei_batch": per-
/// component femtojoules, then stage, image and per-op event counts.
std::vector<std::uint64_t> published_batch_counters() {
  auto& reg = telemetry::MetricsRegistry::global();
  const std::string p = "{path=\"sei_batch\"";
  std::vector<std::uint64_t> out;
  for (const char* c : {"dac", "adc", "sense_amp", "driver", "rram",
                        "decoder", "digital", "buffer", "wta"})
    out.push_back(reg.counter("sei_energy_fj_total" + p + ",component=\"" +
                              c + "\"}")
                      .value());
  out.push_back(reg.counter("sei_stages_total" + p + "}").value());
  out.push_back(reg.counter("sei_images_total" + p + "}").value());
  for (const char* op : {"crossbar_read", "cell_activation", "sa_compare",
                         "adc_conversion", "dac_conversion", "driver_op",
                         "digital_add", "buffer_bit", "wta_read"})
    out.push_back(
        reg.counter("sei_ops_total" + p + ",op=\"" + op + "\"}").value());
  return out;
}

TEST(Determinism, CachedHeadAndTailMatchFullPassWithRowBilling) {
  // cache_stage_inputs and error_rate_from run ranges of the same plan a
  // full pass runs: for every split stage, on both engines, with read noise,
  // the tail reproduces the full error rate and head + tail publish the full
  // pass's sei_batch energy — event counts exactly, femtojoules up to one
  // rounding per published chunk. Both billing branches of the batch
  // driver: per-image metering with row billing on, bulk stage prices with
  // it off.
  Fixture& f = fixture();
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(f.qnet, cfg, core::StructureKind::kSei);
  hw.set_meter(&meter);
  const int n = 120;
  const auto delta = [](const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
    std::vector<std::uint64_t> d(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) d[i] = b[i] - a[i];
    return d;
  };
  for (const bool row_billing : {true, false}) {
    hw.set_skip_bounds(row_billing
                           ? std::vector<int>(
                                 static_cast<std::size_t>(hw.stage_count()), 0)
                           : std::vector<int>{});
    for (const bool packed : {true, false}) {
      hw.set_packed_eval(packed);
      const std::vector<std::uint64_t> c0 = published_batch_counters();
      const double full = hw.error_rate(f.test, n);
      const std::vector<std::uint64_t> want =
          delta(c0, published_batch_counters());
      for (int stage = 1; stage < hw.stage_count(); ++stage) {
        SCOPED_TRACE(std::string(row_billing ? "row-billed " : "dense ") +
                     (packed ? "packed" : "scalar") +
                     " stage=" + std::to_string(stage));
        const std::vector<std::uint64_t> before = published_batch_counters();
        const auto cached = hw.cache_stage_inputs(f.test, stage, n);
        EXPECT_EQ(hw.error_rate_from(f.test, stage, cached), full);
        const std::vector<std::uint64_t> got =
            delta(before, published_batch_counters());
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (i < 9)  // femtojoules: each publish rounds once
            EXPECT_NEAR(static_cast<double>(got[i]),
                        static_cast<double>(want[i]), n)
                << "counter " << i;
          else
            EXPECT_EQ(got[i], want[i]) << "counter " << i;
        }
      }
    }
  }
  hw.set_meter(nullptr);
}

/// Packed ops `hw` must lower to when row splitting leaves stage 0 more
/// than one block: the DAC column tile runs single-block stage 0s only, so
/// the plan hands a split stage 0 to the scalar reference and every later
/// stage stays packed.
int packed_ops_with_split_stage0(const core::SeiNetwork& hw) {
  EXPECT_GE(hw.layer(0).block_count, 2);
  EXPECT_EQ(hw.plan().ops[0].engine, core::StageEngine::kScalarFloat);
  EXPECT_EQ(hw.plan().ops[1].engine, core::StageEngine::kPackedBits);
  EXPECT_TRUE(hw.plan().ops[1].pack_input);
  return hw.stage_count() - 1;
}

/// Packed-vs-scalar equivalence harness (docs/kernels.md, docs/plans.md
/// §5): runs `n` images through the plan on both engine settings of the
/// same mapped network and requires bit-identical predictions, identical
/// batch error rates at 1/2/8 threads, and metered energy equal to 1e-6 pJ
/// with identical event counts. The packed pass runs with the meter also
/// attached to the network, the scalar pass without: attaching a meter must
/// not change what the per-image path charges. `min_packed` guards against
/// silently testing the fallback against itself.
void expect_engines_match(const quant::QNetwork& qnet, core::SeiNetwork& hw,
                          const data::Dataset& test, int n, int min_packed) {
  ThreadGuard guard;
  EXPECT_GE(hw.packed_stage_count(), min_packed);
  const telemetry::EnergyMeter meter =
      arch::make_energy_meter(qnet, hw.config(), core::StructureKind::kSei);
  const std::size_t per_image = 28 * 28;
  auto image = [&](int i) {
    return std::span<const float>{
        test.images.data() + static_cast<std::size_t>(i) * per_image,
        per_image};
  };
  std::vector<int> pred[2];
  telemetry::EnergyAccum energy[2];
  std::vector<double> err[2];
  for (int pass = 0; pass < 2; ++pass) {
    hw.set_packed_eval(pass == 0);
    hw.set_meter(pass == 0 ? &meter : nullptr);
    core::EvalContext ctx;
    ctx.meter = &meter;
    ctx.energy = &energy[pass];
    for (int i = 0; i < n; ++i)
      pred[pass].push_back(hw.predict(image(i), ctx, i));
    for (const int threads : {1, 2, 8}) {
      exec::set_default_threads(threads);
      err[pass].push_back(hw.error_rate(test, n));
    }
  }
  hw.set_packed_eval(true);
  hw.set_meter(nullptr);
  EXPECT_EQ(pred[0], pred[1]);
  EXPECT_EQ(err[0], err[1]);
  EXPECT_NEAR(energy[0].pj.total(), energy[1].pj.total(), 1e-6);
  EXPECT_NEAR(energy[0].pj.interface(), energy[1].pj.interface(), 1e-6);
  EXPECT_EQ(energy[0].stages, energy[1].stages);
  EXPECT_EQ(energy[0].events.sa_compares, energy[1].events.sa_compares);
  EXPECT_EQ(energy[0].events.cell_activations,
            energy[1].events.cell_activations);
  EXPECT_EQ(energy[0].events.dac_conversions, energy[1].events.dac_conversions);
}

TEST(Determinism, PackedEngineMatchesFloatAcrossNetworks) {
  // All three paper networks under every mapping shape (whole-matrix, split
  // with homogenized round-robin order, split with natural order), noise-
  // free and with stochastic readout in the loop: the packed kernels must
  // reproduce the scalar engines bit-for-bit in each combination.
  data::Dataset train = data::generate_synthetic(500, 81);
  data::Dataset test = data::generate_synthetic(120, 82);
  for (const char* name : {"network1", "network2", "network3"}) {
    const workloads::Workload wl = workloads::workload_by_name(name);
    nn::Network net = workloads::build_float_network(wl.topo, 53);
    nn::TrainConfig tc;
    tc.epochs = 1;
    nn::Trainer(tc).fit(net, train.images, train.label_span());
    quant::SearchConfig sc;
    sc.max_search_images = 150;
    sc.step = 0.1;
    quant::QNetwork qnet = quant::quantize_network(net, wl.topo, train, sc).qnet;
    struct Variant {
      const char* tag;
      int max_rows;
      bool homogenize;
    };
    for (const Variant& v : {Variant{"whole", 0, true},
                             Variant{"split homogenized", 64, true},
                             Variant{"split natural", 64, false}}) {
      for (const double noise : {0.0, 0.05}) {
        core::HardwareConfig cfg;
        cfg.device.read_noise_sigma = noise;
        if (v.max_rows > 0) cfg.limits.max_rows = v.max_rows;
        cfg.homogenize = v.homogenize;
        core::SeiNetwork hw(qnet, cfg);
        SCOPED_TRACE(std::string(name) + " / " + v.tag + " / noise " +
                     std::to_string(noise));
        // network1's stage 0 (25 weights × 4 cells) splits at 64 rows.
        expect_engines_match(qnet, hw, test, noise > 0.0 ? 60 : 120,
                             hw.layer(0).block_count > 1
                                 ? packed_ops_with_split_stage0(hw)
                                 : hw.stage_count());
      }
    }
  }
}

TEST(Determinism, PackedEngineMatchesFloatUnderNoiseAndSplitting) {
  Fixture& f = fixture();
  {  // Stochastic readout: the packed noisy paths share the scalar's draws.
    core::HardwareConfig cfg;
    cfg.device.read_noise_sigma = 0.05;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE("read noise");
    expect_engines_match(f.qnet, hw, f.test, 120, hw.stage_count());
  }
  {  // Forced row splitting, homogenized round-robin block-local masks.
    core::HardwareConfig cfg;
    cfg.limits.max_rows = 64;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE("split homogenized");
    expect_engines_match(f.qnet, hw, f.test, 120, hw.stage_count());
  }
  {  // Split with natural (contiguous) row order.
    core::HardwareConfig cfg;
    cfg.limits.max_rows = 64;
    cfg.homogenize = false;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE("split natural");
    expect_engines_match(f.qnet, hw, f.test, 120, hw.stage_count());
  }
  // Read noise with row splitting, both row orders, a mild and a heavy
  // sigma: the hidden conv stage votes across 3 blocks at 64 rows and 9 at
  // 16, so the lazy decide settles, skips and samples inside votes.
  for (const double sigma : {0.02, 0.25}) {
    for (const int max_rows : {64, 16}) {
      for (const bool homogenize : {true, false}) {
        core::HardwareConfig cfg;
        cfg.device.read_noise_sigma = sigma;
        cfg.limits.max_rows = max_rows;
        cfg.homogenize = homogenize;
        core::SeiNetwork hw(f.qnet, cfg);
        SCOPED_TRACE("noise " + std::to_string(sigma) + " max_rows " +
                     std::to_string(max_rows) +
                     (homogenize ? " homogenized" : " natural"));
        EXPECT_GE(hw.layer(1).block_count, 2);
        expect_engines_match(f.qnet, hw, f.test, 120,
                             max_rows == 16 ? packed_ops_with_split_stage0(hw)
                                            : hw.stage_count());
      }
    }
  }
  {  // A dynamic vote threshold moves each block's reference per position.
    core::HardwareConfig cfg;
    cfg.device.read_noise_sigma = 0.05;
    cfg.limits.max_rows = 16;
    core::SeiNetwork hw(f.qnet, cfg);
    hw.layer(1).dyn_beta = 0.4f;
    SCOPED_TRACE("noise with dynamic threshold");
    expect_engines_match(f.qnet, hw, f.test, 120,
                         packed_ops_with_split_stage0(hw));
  }
  // Noise-free dynamic thresholds: the fast decides of the packed kernels
  // against decide_position, at 3 and 9 blocks, either sign of β.
  for (const int max_rows : {64, 16}) {
    for (const float beta : {0.4f, -0.3f}) {
      core::HardwareConfig cfg;
      cfg.limits.max_rows = max_rows;
      core::SeiNetwork hw(f.qnet, cfg);
      hw.layer(1).dyn_beta = beta;
      SCOPED_TRACE("noise-free dynamic threshold " + std::to_string(beta) +
                   " max_rows " + std::to_string(max_rows));
      EXPECT_GE(hw.layer(1).block_count, 2);
      expect_engines_match(f.qnet, hw, f.test, 120,
                           max_rows == 16 ? packed_ops_with_split_stage0(hw)
                                          : hw.stage_count());
    }
  }
  {  // Programming noise breaks integrality: packed must fall back cleanly.
    core::HardwareConfig cfg;
    cfg.device.program_sigma = 0.03;
    core::SeiNetwork hw(f.qnet, cfg);
    SCOPED_TRACE("non-integral fallback");
    EXPECT_EQ(hw.packed_stage_count(), 0);
    expect_engines_match(f.qnet, hw, f.test, 120, 0);
  }
}

/// Random images of size in×in, a third of the pixels exactly zero.
data::Dataset random_images(Rng& gen, int n, int in) {
  data::Dataset d;
  d.images = nn::Tensor({n, in, in, 1});
  for (std::size_t i = 0; i < d.images.numel(); ++i)
    d.images[i] =
        gen.below(3) == 0 ? 0.0f : static_cast<float>(gen.uniform(0.0, 1.0));
  for (int i = 0; i < n; ++i)
    d.labels.push_back(static_cast<std::uint8_t>(gen.below(10)));
  return d;
}

TEST(Determinism, Stage0TileMatchesScalarOnRandomGeometries) {
  // The stage-0 dense kernel splits the columns into register tiles of at
  // most kConv0MaxCols and walks eight-position strips. These geometries
  // hit every tile width remainder and K = 3, 5 and 7, with rows whose
  // strips straddle a 64-bit position word (out_w 22 and 26), SA offsets
  // and read noise. The byte maps stage 0 emits and the error rates must
  // equal the scalar engine's. Under noise every geometry must leave some
  // reads open after the tile's band, so the sampling of open reads is
  // what those cases compare.
  Rng gen(97);
  // Input sizes per K: out_w 22/26/11 at K = 3, 23/26/8 at 5, 22/9/15 at 7.
  const int sizes[3][3] = {{24, 28, 13}, {27, 30, 12}, {28, 15, 21}};
  int straddling = 0;
  for (int ki = 0; ki < 3; ++ki) {
    const int kernel = 3 + 2 * ki;
    int wi = 0;
    for (const int cols : {1, 4, 5, 6, 7, 8, 9, 12, 13, 20}) {
      const int in = sizes[ki][(wi++ + ki) % 3];
      const int out = in - kernel + 1;
      quant::Topology topo;
      topo.name = "stage0-random";
      topo.input_size = in;
      topo.stages = {
          {quant::StageSpec::Kind::Conv, kernel, cols,
           out % 2 == 0 && gen.below(2) == 0},
          {quant::StageSpec::Kind::Fc, 0, 10, false}};
      nn::Network net = workloads::build_float_network(topo, gen());
      quant::QNetwork qnet = quant::build_qnetwork(net, topo);
      qnet.layers[0].threshold = static_cast<float>(gen.uniform(-0.2, 0.2));
      const data::Dataset d = random_images(gen, 16, in);
      for (int y = 0; y < out; ++y)
        for (int x = 0; x < out; x += 8)
          if ((y * out + x) % 64 + std::min(8, out - x) > 64) ++straddling;
      for (const bool offsets : {false, true}) {
        for (const double sigma : {0.0, 0.05}) {
          core::HardwareConfig cfg;
          cfg.sa_offset_sigma = offsets ? 1.5 : 0.0;
          cfg.device.read_noise_sigma = sigma;
          core::SeiNetwork hw(qnet, cfg);
          SCOPED_TRACE("K " + std::to_string(kernel) + " cols " +
                       std::to_string(cols) + " out_w " + std::to_string(out) +
                       (offsets ? " offsets" : "") + " sigma " +
                       std::to_string(sigma));
          ASSERT_EQ(hw.plan().ops[0].engine, core::StageEngine::kDacDense);
          ASSERT_EQ(hw.plan().ops[0].dac_kernel,
                    core::DacKernel::kDenseTranspose);
          const std::vector<quant::BitMap> packed = hw.cache_stage_inputs(d, 1);
          const double packed_err = hw.error_rate(d);
          if (sigma > 0.0) {
            // col_open keeps the open-read marks of the last stage 0 run.
            core::EvalContext ctx;
            const std::size_t px = static_cast<std::size_t>(in) * in;
            std::size_t open = 0;
            for (int i = 0; i < 16; ++i) {
              hw.predict({d.images.data() + i * px, px}, ctx, i);
              for (const std::uint64_t w : ctx.col_open)
                open += static_cast<std::size_t>(std::popcount(w));
            }
            EXPECT_GT(open, 0u);
          }
          hw.set_packed_eval(false);
          EXPECT_EQ(hw.cache_stage_inputs(d, 1), packed);
          EXPECT_EQ(hw.error_rate(d), packed_err);
          std::size_t ones = 0, bits = 0;
          for (const quant::BitMap& m : packed) {
            ones += static_cast<std::size_t>(std::count(m.begin(), m.end(), 1));
            bits += m.size();
          }
          EXPECT_GT(ones, 0u);  // both outcomes occur: the compares bite
          EXPECT_LT(ones, bits);
        }
      }
    }
  }
  EXPECT_GT(straddling, 0);
}

/// Stage-1 parameters of DynamicThresholdIsOneFusedMultiplyAdd: block 0
/// holds n0 active inputs, block 1 one and the rest none, every input
/// weighs `w`. At dyn_beta = beta (mean_abs_eff 1) and col_threshold = ct,
/// block 0's fused reference lies below its sum w·n0 while
/// share + round(β·(n0 − mean)) does not, and the share is so negative that
/// every other block always votes. n0 = 0 when the search finds none.
struct Straddle {
  int n0 = 0;
  float beta = 0.0f, ct = 0.0f;
};

Straddle find_straddle(double w, int k, int max_n0) {
  for (int n0 = 5; n0 <= max_n0; ++n0) {
    const double mean = static_cast<double>(n0 + 1) / k;
    const double dev0 = static_cast<double>(n0) - mean;
    const double sum0 = w * n0;
    for (int q = 1; q < 64; q += 2) {
      for (int j = -8; j <= 12; ++j) {
        const float beta = std::ldexp(static_cast<float>(q), j);
        const double bs = static_cast<double>(beta);
        volatile double product = bs * dev0;  // rounded on its own
        const float share = static_cast<float>(sum0 - product);
        const float ct = share * static_cast<float>(k);
        if (static_cast<double>(ct) / k != static_cast<double>(share)) continue;
        volatile double unfused = share + product;
        if (!(sum0 > core::block_reference(share, bs, dev0, 0.0)) ||
            sum0 > unfused)
          continue;
        bool others_vote = true;
        for (int b = 1; b < k; ++b) {
          const int nb = b == 1 ? 1 : 0;
          others_vote = others_vote &&
                        w * nb > core::block_reference(
                                     share, bs, nb - mean, 0.0) + 1.0;
        }
        if (others_vote) return {n0, beta, ct};
      }
    }
  }
  return {};
}

TEST(Determinism, DynamicThresholdIsOneFusedMultiplyAdd) {
  // Every decide evaluates a k > 1 block reference as
  // fma(β, n_b − mean, share) + offset (core::block_reference). Here the
  // parameters put that reference just below an integer block sum while
  // share + round(β·(n_b − mean)) lands on it, so a decide that rounded
  // the product first would flip the bit. Stage 1 is a five-block vote at
  // one position over inputs chosen per block, and the classifier reads
  // its bit back as the label. At 16 channels stage 1 runs the row-scatter
  // kernel; at 160 its Σ|w| overflows the int16 row table and it runs the
  // scalar oracle in both plans. A vanishing read noise routes the kernel
  // through the lazy band.
  for (const int channels : {16, 160}) {
    quant::Topology topo;
    topo.name = "fused-threshold";
    topo.input_size = 3;
    topo.stages = {{quant::StageSpec::Kind::Conv, 1, channels, false},
                   {quant::StageSpec::Kind::Conv, 3, 1, false},
                   {quant::StageSpec::Kind::Fc, 0, 10, false}};
    nn::Network net = workloads::build_float_network(topo, 5);
    quant::QNetwork qnet = quant::build_qnetwork(net, topo);
    qnet.layers[1].weight.fill(1.0f);  // every block sum is w·n_b
    qnet.layers[1].bias.zero();
    qnet.layers[2].weight.fill(-1.0f);  // label = stage 1's bit
    qnet.layers[2].weight[1] = 1.0f;
    qnet.layers[2].bias.zero();
    const int rows = 9 * channels;
    for (const double sigma : {0.0, 1e-30}) {
      core::HardwareConfig cfg;
      cfg.limits.max_rows = cfg.cells_per_weight() * ((rows + 4) / 5);
      cfg.homogenize = false;
      cfg.device.read_noise_sigma = sigma;
      core::SeiNetwork hw(qnet, cfg);
      core::MappedLayer& m = hw.layer(1);
      SCOPED_TRACE("channels " + std::to_string(channels) + " sigma " +
                   std::to_string(sigma));
      const int k = m.block_count;
      ASSERT_EQ(k, 5);
      const double w = m.eff[0];
      for (const float e : m.eff) ASSERT_EQ(e, m.eff[0]);
      EXPECT_EQ(hw.plan().ops[1].engine,
                channels == 16 ? core::StageEngine::kPackedBits
                               : core::StageEngine::kScalarBits);
      EXPECT_EQ(m.packed.rows_ok, channels == 16);
      const Straddle st = find_straddle(w, k, rows / k);
      ASSERT_GT(st.n0, 0);
      const int n[5] = {st.n0, 1, 0, 0, 0};
      m.col_threshold[0] = st.ct;
      m.dyn_beta = st.beta;
      m.mean_abs_eff = 1.0f;
      m.vote_threshold = k;
      quant::BitMap input(static_cast<std::size_t>(rows), 0);
      int active[5] = {};
      for (int r = 0; r < rows; ++r) {
        const int b = m.row_to_block[static_cast<std::size_t>(r)];
        if (active[b] < n[b]) {
          ++active[b];
          input[static_cast<std::size_t>(r)] = 1;
        }
      }
      data::Dataset d;
      d.images = nn::Tensor({1, 3, 3, 1});
      d.labels = {1};  // the fused reference lies below the sum: a vote
      for (const bool packed : {true, false}) {
        hw.set_packed_eval(packed);
        EXPECT_EQ(hw.error_rate_from(d, 1, {input}), 0.0)
            << (packed ? "packed" : "scalar");
      }
    }
  }
}

/// decide_position's noisy loop, kept here as the reference the lazy
/// decide is checked against: one keyed draw per read, read (c, b) of the
/// position being `first_read + c·k + b` — but taken in a shuffled order,
/// which keyed draws make immaterial.
void eager_decide(const core::MappedLayer& m, const core::ReadNoise& noise,
                  std::uint64_t first_read, const double* sums,
                  const int* n_active, std::uint8_t* out, Rng& shuffle) {
  const int cols = m.geom.cols, k = m.block_count;
  const float* offsets = m.sa_offset.empty() ? nullptr : m.sa_offset.data();
  int total_active = 0;
  for (int b = 0; b < k; ++b) total_active += n_active[b];
  const double mean_active = static_cast<double>(total_active) / k;
  const double beta_scale = static_cast<double>(m.dyn_beta) * m.mean_abs_eff;
  std::vector<int> reads(static_cast<std::size_t>(k) * cols);
  for (std::size_t i = 0; i < reads.size(); ++i) reads[i] = static_cast<int>(i);
  shuffle.shuffle(reads);
  std::vector<int> votes(static_cast<std::size_t>(cols), 0);
  for (const int read : reads) {
    const int c = read / k, b = read % k;
    const double ct =
        static_cast<double>(m.col_threshold[static_cast<std::size_t>(c)]);
    const std::size_t i = static_cast<std::size_t>(b) * cols + c;
    const double t =
        k == 1 ? ct + (offsets ? offsets[c] : 0.0)
               : core::block_reference(
                     ct / k, beta_scale,
                     static_cast<double>(n_active[b]) - mean_active,
                     offsets ? offsets[i] : 0.0);
    const double g = keyed_gaussian(
        noise.key, first_read + static_cast<std::uint64_t>(read));
    if (sums[i] * (1.0 + noise.sigma * g) > t)
      ++votes[static_cast<std::size_t>(c)];
  }
  const int vote = k == 1 ? 1 : m.vote_threshold;
  for (int c = 0; c < cols; ++c)
    out[c] = votes[static_cast<std::size_t>(c)] >= vote ? 1 : 0;
}

core::MappedLayer random_decide_layer(Rng& gen, int cols, int k, int vote,
                                      bool offsets, bool dynamic) {
  core::MappedLayer m;
  m.geom.cols = cols;
  m.block_count = k;
  m.vote_threshold = vote;
  for (int c = 0; c < cols; ++c)
    m.col_threshold.push_back(static_cast<float>(k * gen.uniform(-20, 20)));
  if (offsets)
    for (int i = 0; i < k * cols; ++i)
      m.sa_offset.push_back(static_cast<float>(gen.gaussian(0.0, 1.5)));
  m.dyn_beta = dynamic ? 0.37f : 0.0f;
  m.mean_abs_eff = 1.7f;
  return m;
}

/// A block sum against threshold `t`: zero, a small signed integer, a read
/// whose noise band straddles t, or one whose band edge raw·(1 ± 9σ) sits
/// within two ulps of t.
double random_sum(Rng& gen, double t, double sigma) {
  switch (gen.below(5)) {
    case 0:
      return 0.0;
    case 1:
      return static_cast<double>(gen.between(-40, 40));
    case 2:
      return t * (1.0 + gen.uniform(-3 * sigma, 3 * sigma));
    default: {
      const double edge = gen.below(2) ? core::kGaussianBound
                                       : -core::kGaussianBound;
      double raw = t / (1.0 + sigma * edge);
      for (std::int64_t s = gen.between(-2, 2); s != 0; s += s > 0 ? -1 : 1)
        raw = std::nextafter(raw, s > 0 ? HUGE_VAL : -HUGE_VAL);
      return raw;
    }
  }
}

TEST(LazyDecide, MatchesEagerPerReadLoop) {
  Rng gen(91);
  for (const double sigma : {0.02, 0.25}) {
    for (int k = 1; k <= 16; ++k) {
      for (int vote = 0; vote <= k + 1; ++vote) {
        for (const bool offsets : {false, true}) {
          for (const bool dynamic : {false, true}) {
            // Mostly narrow; one layer in four is wider than 64 columns.
            const int cols =
                1 + static_cast<int>(gen.below(gen.below(4) == 0 ? 150 : 20));
            const core::MappedLayer m =
                random_decide_layer(gen, cols, k, vote, offsets, dynamic);
            const std::size_t n = static_cast<std::size_t>(k) * cols;
            std::vector<double> t(n), sums(n);
            std::vector<std::uint8_t> want(cols);
            const core::ReadNoise noise{sigma, gen()};
            for (int pos = 0; pos < 4; ++pos) {
              const std::uint64_t first_read =
                  static_cast<std::uint64_t>(pos) * cols * k;
              std::vector<int> n_active(static_cast<std::size_t>(k));
              int total = 0;
              for (int& a : n_active) {
                a = static_cast<int>(gen.below(12));
                total += a;
              }
              core::block_thresholds(m, n_active.data(), t.data());
              for (std::size_t i = 0; i < n; ++i)
                sums[i] = random_sum(gen, t[i], sigma);
              eager_decide(m, noise, first_read, sums.data(), n_active.data(),
                           want.data(), gen);
              for (int c = 0; c < cols; ++c)
                ASSERT_EQ(core::decide_column_lazy(m, noise, first_read, c,
                                                   sums.data(), t.data()),
                          want[static_cast<std::size_t>(c)] != 0)
                    << "sigma " << sigma << " k " << k << " vote " << vote
                    << " pos " << pos << " col " << c;
            }
          }
        }
      }
    }
  }
}

TEST(Determinism, PackedErrorRateIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  core::SeiNetwork hw(f.qnet, cfg);

  exec::set_default_threads(1);
  hw.set_packed_eval(false);
  const double serial_float = hw.error_rate(f.test);
  hw.set_packed_eval(true);
  for (const int threads : {1, 2, 8}) {
    exec::set_default_threads(threads);
    EXPECT_EQ(hw.error_rate(f.test), serial_float) << "threads=" << threads;
  }
}

TEST(Determinism, AdcCalibrationAndErrorRateIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  core::AdcConfig cfg;
  cfg.calibration_images = 100;

  exec::set_default_threads(1);
  const core::AdcNetwork serial(f.qnet, cfg, f.train);
  const double serial_err = serial.error_rate(f.test, 150);

  exec::set_default_threads(8);
  const core::AdcNetwork wide(f.qnet, cfg, f.train);
  for (int s = 0; s < serial.stage_count(); ++s)
    EXPECT_EQ(wide.full_scale(s), serial.full_scale(s)) << "stage=" << s;
  EXPECT_EQ(wide.error_rate(f.test, 150), serial_err);
  exec::set_default_threads(1);
  EXPECT_EQ(wide.error_rate(f.test, 150), serial_err);
}

TEST(Determinism, CampaignIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  reliability::CampaignConfig cfg;
  cfg.points = {{0.01, 0.05, 0.02, 0.0, "mixed"},
                {0.02, 0.0, 0.0, 0.0, "stuck2pct"}};
  cfg.trials = 2;
  cfg.eval_images = 60;
  cfg.calib_cfg.max_images = 40;

  exec::set_default_threads(1);
  const auto serial = run_campaign(f.qnet, f.test, f.train, cfg);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    const auto wide = run_campaign(f.qnet, f.test, f.train, cfg);
    ASSERT_EQ(wide.points.size(), serial.points.size());
    EXPECT_EQ(wide.healthy_error_pct, serial.healthy_error_pct);
    for (std::size_t p = 0; p < serial.points.size(); ++p) {
      EXPECT_EQ(wide.points[p].faulty.mean, serial.points[p].faulty.mean);
      EXPECT_EQ(wide.points[p].repaired.mean, serial.points[p].repaired.mean);
      ASSERT_EQ(wide.points[p].trials.size(), serial.points[p].trials.size());
      for (std::size_t t = 0; t < serial.points[p].trials.size(); ++t) {
        const auto& a = serial.points[p].trials[t];
        const auto& b = wide.points[p].trials[t];
        EXPECT_EQ(b.seed, a.seed);
        EXPECT_EQ(b.faulty_error_pct, a.faulty_error_pct);
        EXPECT_EQ(b.pre_recalib_error_pct, a.pre_recalib_error_pct);
        EXPECT_EQ(b.repaired_error_pct, a.repaired_error_pct);
      }
    }
  }
}

TEST(Determinism, ThresholdSearchIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  ThreadGuard guard;
  quant::SearchConfig sc;
  sc.max_search_images = 200;
  sc.step = 0.05;

  auto search_with = [&](int threads) {
    exec::set_default_threads(threads);
    nn::Network net = workloads::build_float_network(f.wl.topo, 51);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::Trainer(tc).fit(net, f.train.images, f.train.label_span());
    return quant::quantize_network(net, f.wl.topo, f.train, sc);
  };
  const auto serial = search_with(1);
  const auto wide = search_with(4);
  ASSERT_EQ(wide.qnet.layers.size(), serial.qnet.layers.size());
  for (std::size_t l = 0; l < serial.qnet.layers.size(); ++l)
    EXPECT_EQ(wide.qnet.layers[l].threshold, serial.qnet.layers[l].threshold)
        << "stage=" << l;
  ASSERT_EQ(wide.traces.size(), serial.traces.size());
  for (std::size_t l = 0; l < serial.traces.size(); ++l) {
    EXPECT_EQ(wide.traces[l].best_threshold, serial.traces[l].best_threshold);
    EXPECT_EQ(wide.traces[l].drive_level, serial.traces[l].drive_level);
    EXPECT_EQ(wide.traces[l].curve, serial.traces[l].curve);
  }
}

/// One-shard, one-tenant serving config with sentinel/breaker quiesced:
/// these tests are about the request stream alone, so maintenance must
/// never mutate the network. Only stop() commits a checkpoint set.
serve::FleetConfig quiet_serving(const std::string& checkpoint_dir) {
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs("A:1");
  fc.tenants[0].queue_capacity = 256;
  fc.sentinel.probe_every = 1 << 20;
  fc.breaker.trip_drop_pct = 1000.0;
  fc.checkpoint_every = 0;
  fc.checkpoint_dir = checkpoint_dir;
  return fc;
}

std::span<const float> test_image(const Fixture& f, int i) {
  const std::size_t per_image = 28 * 28;
  const int k = i % f.test.size();
  return {f.test.images.data() + static_cast<std::size_t>(k) * per_image,
          per_image};
}

TEST(Determinism, CheckpointResumeReplaysBitIdentically) {
  // The crash-safety contract (docs/serving.md): a process killed after a
  // durable checkpoint resumes the exact request stream a never-killed
  // process would have produced — predictions are pure functions of
  // (network state, image, sequence) and the sequence counter is part of
  // the checkpoint.
  Fixture& f = fixture();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sei_resume_ckpt").string();
  std::filesystem::remove_all(dir);
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;  // stochastic readout: RNG keying matters
  const int total = 150, cut = 100;    // "crash" after request `cut`

  // Reference stream from an uninterrupted network.
  core::SeiNetwork ref(f.qnet, cfg);
  core::EvalContext rctx;
  std::vector<int> want(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i)
    want[static_cast<std::size_t>(i)] = ref.predict(test_image(f, i), rctx, i);

  {  // First process: serve the head of the stream, checkpoint on stop.
    core::SeiNetwork net(f.qnet, cfg);
    serve::FleetRuntime rt({&net}, f.qnet, f.test, f.train,
                           quiet_serving(dir));
    rt.start();
    EXPECT_FALSE(rt.resumed_from_checkpoint());
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = 0; i < cut; ++i) futs.push_back(rt.submit(0, test_image(f, i)));
    for (int i = 0; i < cut; ++i) {
      const serve::FleetResponse r = futs[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk) << "request " << i;
      EXPECT_EQ(r.label, want[static_cast<std::size_t>(i)]) << "request " << i;
    }
    rt.stop();  // commits the final checkpoint set (next_sequence == cut)
  }
  {  // kill -9 mid-write simulation: a torn temp file beside the manifest.
    std::ofstream garbage(dir + "/fleet.manifest.tmp", std::ios::binary);
    garbage << "checkpoint write cut off by kill -9";
  }
  {  // Restarted process: resumes at `cut` and replays the tail identically.
    core::SeiNetwork net(f.qnet, cfg);
    serve::FleetRuntime rt({&net}, f.qnet, f.test, f.train,
                           quiet_serving(dir));
    rt.start();
    EXPECT_TRUE(rt.resumed_from_checkpoint());
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = cut; i < total; ++i)
      futs.push_back(rt.submit(0, test_image(f, i)));
    for (int i = cut; i < total; ++i) {
      const serve::FleetResponse r =
          futs[static_cast<std::size_t>(i - cut)].get();
      ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk) << "request " << i;
      EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(i));
      EXPECT_EQ(r.label, want[static_cast<std::size_t>(i)]) << "request " << i;
    }
    rt.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(Determinism, TruncatedCheckpointFallsBackToColdStart) {
  // A torn shard checkpoint under an intact manifest must mean "cold
  // start", never a crash or a half-restored network: the stream restarts
  // at sequence 0 and labels match an untouched twin.
  Fixture& f = fixture();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sei_torn_ckpt").string();
  std::filesystem::remove_all(dir);
  core::HardwareConfig cfg;
  cfg.device.read_noise_sigma = 0.05;
  {  // Commit a set at sequence 40.
    core::SeiNetwork net(f.qnet, cfg);
    serve::FleetRuntime rt({&net}, f.qnet, f.test, f.train,
                           quiet_serving(dir));
    rt.start();
    std::vector<std::future<serve::FleetResponse>> futs;
    for (int i = 0; i < 40; ++i) futs.push_back(rt.submit(0, test_image(f, i)));
    for (auto& fu : futs) fu.get();
    rt.stop();
  }
  int torn = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".ckpt") continue;
    std::filesystem::resize_file(e.path(), e.file_size() / 3);
    ++torn;
  }
  ASSERT_GT(torn, 0) << "no shard checkpoint was written";

  core::SeiNetwork net(f.qnet, cfg);
  core::SeiNetwork twin(f.qnet, cfg);
  serve::FleetRuntime rt({&net}, f.qnet, f.test, f.train, quiet_serving(dir));
  rt.start();
  EXPECT_FALSE(rt.resumed_from_checkpoint());
  const serve::FleetResponse r = rt.submit(0, test_image(f, 0)).get();
  rt.stop();
  ASSERT_EQ(r.status, serve::FleetResponseStatus::kOk);
  EXPECT_EQ(r.sequence, 0u);  // sequence counter started fresh
  core::EvalContext ctx;
  EXPECT_EQ(r.label, twin.predict(test_image(f, 0), ctx, 0));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sei
