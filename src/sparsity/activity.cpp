#include "sparsity/activity.hpp"

#include <span>

#include "core/sei_network.hpp"
#include "exec/thread_pool.hpp"

namespace sei::sparsity {

double ActivityEstimator::skip_rate() const {
  std::int64_t words = 0, skipped = 0;
  for (const StageActivity& c : cells_) {
    words += c.words;
    skipped += c.words_skipped;
  }
  return words > 0 ? static_cast<double>(skipped) / words : 0.0;
}

double ActivityEstimator::row_activity() const {
  std::int64_t nominal = 0, active = 0;
  for (const StageActivity& c : cells_) {
    nominal += c.rows_nominal;
    active += c.rows_active;
  }
  return nominal > 0 ? static_cast<double>(active) / nominal : 0.0;
}

double ActivityEstimator::charged_fraction() const {
  std::int64_t nominal = 0, charged = 0;
  for (const StageActivity& c : cells_) {
    nominal += c.rows_nominal;
    charged += c.rows_charged;
  }
  return nominal > 0 ? static_cast<double>(charged) / nominal : 0.0;
}

ActivityEstimator estimate_activity(const core::SeiNetwork& net,
                                    const data::Dataset& d, int max_images) {
  SEI_CHECK_MSG(net.sparsity_enabled(),
                "estimate_activity needs row billing on (all-zero skip "
                "bounds)");
  const int n = max_images < 0 ? d.size() : std::min(max_images, d.size());
  SEI_CHECK(n > 0);
  const std::size_t per_image =
      d.images.numel() / static_cast<std::size_t>(d.size());
  const int stages = net.stage_count();
  return exec::parallel_reduce<ActivityEstimator>(
      n, exec::kEvalGrain, ActivityEstimator(stages),
      [&](int lo, int hi) {
        ActivityEstimator part(stages);
        core::EvalContext ctx;
        ctx.activity = part.cells();
        for (int i = lo; i < hi; ++i) {
          const std::span<const float> img{
              d.images.data() + static_cast<std::size_t>(i) * per_image,
              per_image};
          net.predict(img, ctx, i);
        }
        return part;
      },
      [](ActivityEstimator acc, const ActivityEstimator& part) {
        acc.merge(part);
        return acc;
      });
}

}  // namespace sei::sparsity
