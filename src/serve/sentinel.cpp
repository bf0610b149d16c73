#include "serve/sentinel.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace sei::serve {

Sentinel::Sentinel(const data::Dataset& labeled, const SentinelConfig& cfg)
    : cfg_(cfg) {
  SEI_CHECK_MSG(cfg.probe_every > 0, "probe_every must be positive");
  SEI_CHECK_MSG(cfg.window > 0, "sentinel window must be positive");
  SEI_CHECK_MSG(labeled.size() > 0, "sentinel needs a labeled probe set");
  const int n = std::min(cfg.probe_count, labeled.size());
  SEI_CHECK_MSG(n > 0, "probe_count must be positive");
  per_image_ = labeled.images.numel() / static_cast<std::size_t>(labeled.size());
  images_.assign(labeled.images.data(),
                 labeled.images.data() + static_cast<std::size_t>(n) * per_image_);
  labels_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) labels_.push_back(labeled.labels[static_cast<std::size_t>(i)]);
}

std::span<const float> Sentinel::image(int probe) const {
  SEI_CHECK(probe >= 0 && probe < probe_count());
  return {images_.data() + static_cast<std::size_t>(probe) * per_image_,
          per_image_};
}

void Sentinel::record(int probe, bool correct) {
  const bool at_baseline = baseline_.at(static_cast<std::size_t>(probe)) != 0;
  push(static_cast<std::uint8_t>((correct ? 1 : 0) | (at_baseline ? 2 : 0)));
}

void Sentinel::push(std::uint8_t o) {
  outcomes_.push_back(o);
  window_correct_ += o & 1;
  window_baseline_correct_ += o >> 1;
  if (static_cast<int>(outcomes_.size()) > cfg_.window) {
    window_correct_ -= outcomes_.front() & 1;
    window_baseline_correct_ -= outcomes_.front() >> 1;
    outcomes_.pop_front();
  }
}

double Sentinel::window_accuracy_pct() const {
  if (!ready()) return -1.0;
  return 100.0 * window_correct_ / static_cast<double>(outcomes_.size());
}

double Sentinel::window_baseline_pct() const {
  if (!ready()) return -1.0;
  return 100.0 * window_baseline_correct_ /
         static_cast<double>(outcomes_.size());
}

void Sentinel::reset_window() {
  outcomes_.clear();
  window_correct_ = 0;
  window_baseline_correct_ = 0;
}

void Sentinel::restore_window(const std::vector<std::uint8_t>& outcomes) {
  reset_window();
  for (const std::uint8_t o : outcomes) push(o & 3);
}

void Sentinel::set_baseline(std::vector<std::uint8_t> outcomes) {
  SEI_CHECK_MSG(static_cast<int>(outcomes.size()) == probe_count(),
                "sentinel baseline needs one outcome per probe");
  int correct = 0;
  for (const std::uint8_t o : outcomes) correct += o != 0 ? 1 : 0;
  baseline_ = std::move(outcomes);
  baseline_pct_ = 100.0 * correct / static_cast<double>(probe_count());
}

}  // namespace sei::serve
