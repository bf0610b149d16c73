// Cross-cutting invariant checkers for the chaos harness (docs/chaos.md).
//
// Fault injection alone only proves the system *survives*; these checkers
// prove it stays *correct* while surviving. Each checker is a pure function
// over observable fleet state — the response stream, the stats snapshot,
// the shard networks — and appends a record per violation. None of them
// consults internal fleet state beyond the public API, so they hold for any
// composition of storms, IO faults, stalls, saturation and crash/resume:
//
//  * ticket conservation — every dispatched request is answered exactly
//    once: the tickets carried by the responses of a run are precisely the
//    interval [first_ticket, first_ticket + dispatched), no gap (lost
//    request), no repeat (double serve), across any failover interleaving.
//  * billing conservation — what tenants are billed equals what the live
//    EnergyMeter metered: admission bill == restored manifest base + this
//    process's metered joules, per tenant, to tolerance.
//  * plan coherence — after any fault/remap/restore interleaving, the
//    compiled plan still agrees bit-for-bit with the same network's plan
//    on the scalar engines on probe images, and the plan epoch never
//    moves backwards.
//  * arena re-bind safety — a context whose arena binding no longer covers
//    the (rebuilt) plan must fall back to owned buffers and stay
//    bit-identical, never serve through stale scratch.
//
// publish_violations() mirrors every record onto the
// chaos_invariant_violations_total{invariant="..."} telemetry counters so a
// soak's metrics export carries the verdict alongside the JSON report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sei_network.hpp"
#include "data/dataset.hpp"
#include "serve/admission.hpp"
#include "serve/fleet.hpp"

namespace sei::chaos {

/// One invariant breach. `invariant` is the counter label ("ticket",
/// "billing", "plan_epoch", "arena_rebind", "replay", "crash_matrix");
/// `detail` is a human-readable account of the mismatch.
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

/// RNG stream base for chaos probe evaluations — its own index space, far
/// from request sequences (< 2^40) and the serve-side probe/measure bases
/// (2^40, 2^41), so checker draws never collide with anything replayed.
inline constexpr long long kChaosProbeIndexBase = 1LL << 42;

/// Bumps chaos_invariant_violations_total{invariant="..."} once per record.
void publish_violations(const std::vector<InvariantViolation>& violations);

/// Ticket conservation over one run's complete response stream. Responses
/// with ticket == serve::kNoTicket never reached dispatch (admission
/// rejections, assembly drops) and are excluded; the remaining tickets must
/// be exactly {first_ticket, ..., first_ticket + dispatched - 1}, each
/// once. `first_ticket`/`dispatched` come from FleetStats::total_dispatched
/// read after start() and after the run (tickets and the dispatch counter
/// advance together).
void check_ticket_conservation(
    const std::vector<serve::FleetResponse>& responses,
    std::uint64_t first_ticket, std::uint64_t dispatched,
    std::vector<InvariantViolation>& out);

/// Billing conservation per tenant: stats.tenants[t].energy_j (the
/// admission-side bill, manifest-restored base included) must equal
/// base_bill_j[t] (the bill right after start()) + stats.tenant_metered_j[t]
/// (this process's metered joules) within tol_j. Chaos runs use
/// 1e-12 J == 1e-6 µJ.
void check_billing_conservation(const serve::FleetStats& stats,
                                const std::vector<double>& base_bill_j,
                                double tol_j,
                                std::vector<InvariantViolation>& out);

/// Per-image price bounds for the billing-envelope check. Under sparsity
/// accounting a SEI answer's bill varies per image with the rows it
/// activated (docs/sparsity.md), so exact per-answer prices cannot be
/// asserted from outside — but every bill is bounded: the meter's
/// network_floor_pj (zero rows active anywhere) below and network_pj
/// (every nominal row active) above. A dense fleet collapses the interval
/// (min == max == the flat price), turning the same check into an
/// exactness assertion.
struct BillingEnvelope {
  double sei_min_image_j = 0.0;  // sei network_floor_pj().total() in J
  double sei_max_image_j = 0.0;  // sei network_pj().total() in J
  double adc_image_j = 0.0;      // adc fallback flat per-image price in J
};

/// Billing envelope per tenant, over the [base, end) stats window: the
/// metered joules delta must lie within
///   [ok·sei_min + degraded·adc − tol, ok·sei_max + degraded·adc + tol]
/// where ok/degraded are that tenant's answered-count deltas. Holds for
/// any mix of dense and sparse shards as long as env brackets both (a
/// dense shard's flat price sits inside [floor, ceiling] by construction).
/// Rejected/abandoned work bills nothing and is excluded by using the
/// answered counters.
void check_billing_envelope(const serve::FleetStats& base,
                            const serve::FleetStats& end,
                            const BillingEnvelope& env, double tol_j,
                            std::vector<InvariantViolation>& out);

/// Plan coherence on `net` (quiescent — call after stop()): the live plan
/// and a plan recompiled onto the scalar engines (packed_eval off) must
/// agree on `images` probe images drawn from `probes` at chaos RNG
/// indices, and the plan epoch must never decrease across the check. `who`
/// tags the violation (e.g. "shard0"). Restores the packed switch before
/// returning.
void check_plan_coherence(core::SeiNetwork& net, const data::Dataset& probes,
                          int images, const std::string& who,
                          std::vector<InvariantViolation>& out);

/// Arena re-bind safety on `net` (quiescent): evaluating through a context
/// bound to bounds that do NOT cover the current plan (the re-bind-miss
/// case) must produce bit-identical labels via the owned-buffer fallback.
void check_arena_rebind_safety(core::SeiNetwork& net,
                               const data::Dataset& probes, int images,
                               const std::string& who,
                               std::vector<InvariantViolation>& out);

}  // namespace sei::chaos
