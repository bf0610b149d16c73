// Scripted in-service fault injection for soak tests and demos.
//
// Mapping-time fault models (rram::DeviceConfig) exercise a chip that was
// born faulty; a serving fleet also has to survive faults that appear while
// it is live. A StormSchedule lists strikes keyed on the fleet dispatch
// counter; FleetRuntime fires each one exactly once when the counter passes
// it, mutating the target shard's live MappedLayer effective weights
// deterministically (counter-based RNG — the damage depends only on the
// schedule seed, the event index and the stage, never on timing or thread
// count).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sei_network.hpp"

namespace sei::serve {

struct FaultEvent {
  std::uint64_t at_served = 0;  // unused: StormEvent::at_dispatched keys it
  int stage = -1;               // -1 = every stage
  // Fraction of effective cells slammed to a stuck value (half to zero,
  // half to ± the stage's maximum magnitude).
  double stuck_fraction = 0.0;
  // Multiplicative conductance decay applied to every cell (1 = none).
  double drift_factor = 1.0;
};

/// Applies one event to the live network. `event_index` keys the RNG stream
/// so replaying a storm reproduces the identical damage.
void apply_fault(core::SeiNetwork& net, const FaultEvent& ev,
                 std::uint64_t seed, int event_index);

/// One scripted fault-storm strike against a specific fleet shard, keyed on
/// the fleet-wide dispatch counter (FaultEvent::at_served is ignored here —
/// the storm clock is the fleet's, not the shard's, so a parked shard can
/// still be hit again while it sheds).
struct StormEvent {
  std::uint64_t at_dispatched = 0;  // fires when total dispatches reach this
  int shard = 0;                    // target shard index
  FaultEvent fault;
  // How long the hostile condition persists, in fleet dispatches. While a
  // strike is active, any repair re-lands the identical damage right after
  // remapping — a re-flash cannot outrun a storm that is still overhead —
  // so the shard parks and traffic fails over to its replicas. Once the
  // fleet dispatch counter passes at_dispatched + duration, the periodic
  // repair re-attempt heals the shard for good. 0 = one-shot strike
  // (repairable immediately).
  std::uint64_t duration = 0;
};

struct StormSchedule {
  std::vector<StormEvent> events;  // fired in at_dispatched order
  std::uint64_t seed = 20260805;
};

}  // namespace sei::serve
