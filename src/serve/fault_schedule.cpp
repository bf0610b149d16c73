#include "serve/fault_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/bitpack.hpp"
#include "core/mapping.hpp"

namespace sei::serve {
namespace {

void damage_stage(core::MappedLayer& m, const FaultEvent& ev, Rng& rng) {
  float max_mag = 0.0f;
  for (const float v : m.eff) max_mag = std::max(max_mag, std::fabs(v));
  for (float& v : m.eff) {
    if (ev.drift_factor != 1.0)
      v = static_cast<float>(v * ev.drift_factor);
    if (ev.stuck_fraction > 0.0 && rng.uniform() < ev.stuck_fraction) {
      // Stuck-open cells read as zero; stuck-short cells as full scale.
      v = rng.uniform() < 0.5
              ? 0.0f
              : (rng.uniform() < 0.5 ? max_mag : -max_mag);
    }
  }
}

}  // namespace

void apply_fault(core::SeiNetwork& net, const FaultEvent& ev,
                 std::uint64_t seed, int event_index) {
  for (int s = 0; s < net.stage_count(); ++s) {
    if (ev.stage >= 0 && ev.stage != s) continue;
    Rng rng = Rng::fork(seed, (static_cast<std::uint64_t>(event_index) << 16) |
                                  static_cast<std::uint64_t>(s));
    core::MappedLayer& m = net.layer(s);
    damage_stage(m, ev, rng);
    // The packed int16 row table is derived from `eff` at map
    // time; without a rebuild the packed engine would keep evaluating the
    // pre-fault weights and the damage would be invisible to serving.
    net.rebuild_packed(s);
  }
  // Damage can flip a stage's engine (non-integral weights forfeit the
  // packed path): recompile the plan so dispatch and scratch bounds track
  // the post-fault network, and bound contexts re-bind on next prepare.
  net.rebuild_plan();
}

}  // namespace sei::serve
