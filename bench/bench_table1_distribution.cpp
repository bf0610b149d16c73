// Reproduces Table 1: distribution of normalized intermediate data of the
// Conv layers. The paper analyzes CaffeNet on ImageNet; that substrate is
// unavailable offline, so — as the paper itself notes that "all the
// networks have a similar data distribution with CaffeNet" — we analyze
// the Table 2 networks on the test set (see DESIGN.md §3).
//
// Paper's claim: the large majority of conv outputs (≈95–98% for CaffeNet)
// sit in the lowest bin [0, 1/16) of the normalized range; only ≲1% exceed
// 1/4. This long tail is what makes 1-bit quantization viable.
//
// Next to the static float-activation bins, the JSON also records each
// network's RUNTIME per-stage 9-bit input-word popcount histogram
// (sparsity::estimate_activity at all-zero bounds — a pure observation of
// the dense network): the paper's Table 1 groups inputs into 9-bit words
// and counts ones per word, and this is that exact distribution as the
// mapped SEI hardware sees it — the rows row billing charges
// (docs/sparsity.md).
//
// Flags: --images N (default all test images), --json PATH.
#include <cstdio>

#include "common/cli.hpp"
#include "common/io.hpp"
#include "telemetry/flags.hpp"
#include "exec/thread_pool.hpp"
#include "common/table.hpp"
#include "core/sei_network.hpp"
#include "quant/distribution.hpp"
#include "sparsity/activity.hpp"
#include "workloads/pipeline.hpp"

using namespace sei;

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const int max_images = cli.get_int("images", -1);
  const std::string json_path = cli.get("json", "BENCH_table1.json");
  const auto tel = telemetry::telemetry_flags(cli);
  if (!cli.validate("Table 1: normalized intermediate-data distribution"))
    return 0;

  data::DataBundle data = workloads::load_default_data(true);
  nn::Tensor images = data.test.images;
  if (max_images > 0 && max_images < data.test.size())
    images = nn::Network::slice_batch(data.test.images, 0, max_images);

  std::printf("Table 1 reproduction — conv-layer activation distribution\n");
  std::printf("(paper analyzed CaffeNet layers 1-5; rows below are the\n");
  std::printf(" Table 2 networks' conv layers on %d test images)\n\n",
              images.dim(0));

  const int act_images = max_images > 0
                             ? std::min(max_images, data.test.size())
                             : data.test.size();

  JsonWriter j(json_path);
  j.begin_object();
  j.kv("schema", "sei-table1-v2");
  j.kv("images", static_cast<long long>(images.dim(0)));
  j.key("networks");
  j.begin_array();

  TextTable t;
  t.header({"Network / layer", "0~1/16", "1/16~1/8", "1/8~1/4", "1/4~1"});
  t.row({"CaffeNet all layers (paper)", "98.63%", "1.20%", "0.16%", "0.01%"});
  t.separator();
  TextTable wt("runtime 9-bit input-word popcount distribution (SEI "
               "stages, % of words)");
  wt.header({"Network / stage", "0", "1", "2", "3", "4", "5+"});
  for (const char* name : {"network1", "network2", "network3"}) {
    workloads::Artifacts art =
        workloads::prepare_workload(name, data, {});
    // Re-load the un-rescaled trained model for the distribution analysis
    // (prepare_workload's quantization step re-scales the weights).
    nn::Network net = workloads::load_or_train(art.wl, data, false);
    const quant::DistributionReport rep =
        quant::analyze_conv_distribution(net, images);
    j.begin_object();
    j.kv("network", name);
    j.key("static_bins");
    j.begin_array();
    for (const auto& l : rep.layers) {
      t.row({std::string(name) + " " + l.layer_name,
             TextTable::pct(100 * l.fractions[0]),
             TextTable::pct(100 * l.fractions[1]),
             TextTable::pct(100 * l.fractions[2]),
             TextTable::pct(100 * l.fractions[3])});
      j.begin_object();
      j.kv("layer", l.layer_name);
      j.key("fractions");
      j.begin_array();
      for (const double f : l.fractions) j.value(f);
      j.end_array();
      j.end_object();
    }
    t.row({std::string(name) + " all layers",
           TextTable::pct(100 * rep.all.fractions[0]),
           TextTable::pct(100 * rep.all.fractions[1]),
           TextTable::pct(100 * rep.all.fractions[2]),
           TextTable::pct(100 * rep.all.fractions[3])});
    t.separator();
    j.end_array();

    // Runtime twin: the mapped network's per-stage word-popcount
    // histogram, observed at all-zero bounds (bit-identical to dense).
    core::SeiNetwork hw(art.qnet, core::HardwareConfig{});
    hw.set_skip_bounds(
        std::vector<int>(static_cast<std::size_t>(hw.stage_count()), 0));
    const sparsity::ActivityEstimator est =
        sparsity::estimate_activity(hw, data.test, act_images);
    j.key("runtime_word_popcounts");
    j.begin_array();
    for (int s = 0; s < est.stage_count(); ++s) {
      const auto& c = est.stage(s);
      if (c.words == 0) continue;  // stage 0 / non-SEI: no word decisions
      j.begin_object();
      j.kv("stage", static_cast<long long>(s));
      j.kv("words", static_cast<long long>(c.words));
      j.key("hist");
      j.begin_array();
      for (int h = 0; h <= core::SeiNetwork::kWordRows; ++h)
        j.value(static_cast<long long>(c.hist[h]));
      j.end_array();
      j.end_object();
      const double total = static_cast<double>(c.words);
      std::int64_t tail = 0;
      for (int h = 5; h <= core::SeiNetwork::kWordRows; ++h)
        tail += c.hist[h];
      wt.row({std::string(name) + " stage " + std::to_string(s),
              TextTable::pct(100.0 * c.hist[0] / total),
              TextTable::pct(100.0 * c.hist[1] / total),
              TextTable::pct(100.0 * c.hist[2] / total),
              TextTable::pct(100.0 * c.hist[3] / total),
              TextTable::pct(100.0 * c.hist[4] / total),
              TextTable::pct(100.0 * tail / total)});
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.commit();
  std::printf("%s\n", t.str().c_str());
  std::printf("%s\n", wt.str().c_str());
  std::printf(
      "Shape check: the lowest bin dominates every layer and the top bin\n"
      "is a small minority — the long-tail property Algorithm 1 relies "
      "on. The runtime word histogram shows the same shape per 9-bit\n"
      "input word: the zero bin is the words that drive no row and\n"
      "cost nothing under row billing (docs/sparsity.md). Wrote %s.\n",
      json_path.c_str());
  telemetry::telemetry_flush(tel);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
