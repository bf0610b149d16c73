#include "chaos/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/eval_context.hpp"
#include "telemetry/metrics.hpp"

namespace sei::chaos {

namespace {

std::span<const float> probe_image(const data::Dataset& probes, int i) {
  const std::size_t per_image =
      probes.images.numel() / static_cast<std::size_t>(probes.size());
  const int k = i % probes.size();
  return {probes.images.data() + static_cast<std::size_t>(k) * per_image,
          per_image};
}

}  // namespace

void publish_violations(const std::vector<InvariantViolation>& violations) {
  auto& reg = telemetry::MetricsRegistry::global();
  for (const InvariantViolation& v : violations)
    reg.counter("chaos_invariant_violations_total{invariant=\"" + v.invariant +
                "\"}")
        .add();
}

void check_ticket_conservation(
    const std::vector<serve::FleetResponse>& responses,
    std::uint64_t first_ticket, std::uint64_t dispatched,
    std::vector<InvariantViolation>& out) {
  std::vector<std::uint64_t> tickets;
  tickets.reserve(responses.size());
  for (const serve::FleetResponse& r : responses)
    if (r.ticket != serve::kNoTicket) tickets.push_back(r.ticket);
  std::sort(tickets.begin(), tickets.end());
  if (tickets.size() != dispatched) {
    out.push_back({"ticket",
                   "response stream carries " + std::to_string(tickets.size()) +
                       " tickets but the fleet dispatched " +
                       std::to_string(dispatched)});
  }
  const std::size_t n =
      std::min(tickets.size(), static_cast<std::size_t>(dispatched));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t want = first_ticket + i;
    if (tickets[i] == want) continue;
    out.push_back(
        {"ticket", tickets[i] < want
                       ? "ticket " + std::to_string(tickets[i]) +
                             " served more than once"
                       : "ticket " + std::to_string(want) +
                             " dispatched but never answered"});
    return;  // one anchor per run; subsequent offsets are the same defect
  }
}

void check_billing_conservation(const serve::FleetStats& stats,
                                const std::vector<double>& base_bill_j,
                                double tol_j,
                                std::vector<InvariantViolation>& out) {
  if (stats.tenant_metered_j.size() != stats.tenants.size() ||
      base_bill_j.size() != stats.tenants.size()) {
    out.push_back({"billing", "stats vectors disagree on tenant count"});
    return;
  }
  for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
    const double billed = stats.tenants[t].energy_j;
    const double expect = base_bill_j[t] + stats.tenant_metered_j[t];
    const double err = std::abs(billed - expect);
    if (err > tol_j)
      out.push_back(
          {"billing", "tenant " + std::to_string(t) + " billed " +
                          std::to_string(billed * 1e6) + " uJ, metered base+" +
                          std::to_string(stats.tenant_metered_j[t] * 1e6) +
                          " uJ => expected " + std::to_string(expect * 1e6) +
                          " uJ (err " + std::to_string(err * 1e12) + " pJ)"});
  }
}

void check_billing_envelope(const serve::FleetStats& base,
                            const serve::FleetStats& end,
                            const BillingEnvelope& env, double tol_j,
                            std::vector<InvariantViolation>& out) {
  if (end.tenants.size() != base.tenants.size() ||
      end.tenant_metered_j.size() != end.tenants.size() ||
      base.tenant_metered_j.size() != base.tenants.size()) {
    out.push_back({"billing", "envelope: stats windows disagree on tenants"});
    return;
  }
  for (std::size_t t = 0; t < end.tenants.size(); ++t) {
    const double metered =
        end.tenant_metered_j[t] - base.tenant_metered_j[t];
    const double ok =
        static_cast<double>(end.tenants[t].ok - base.tenants[t].ok);
    const double degraded = static_cast<double>(end.tenants[t].degraded -
                                                base.tenants[t].degraded);
    const double lo = ok * env.sei_min_image_j + degraded * env.adc_image_j;
    const double hi = ok * env.sei_max_image_j + degraded * env.adc_image_j;
    if (metered < lo - tol_j || metered > hi + tol_j)
      out.push_back(
          {"billing",
           "tenant " + std::to_string(t) + " metered " +
               std::to_string(metered * 1e6) + " uJ outside envelope [" +
               std::to_string(lo * 1e6) + ", " + std::to_string(hi * 1e6) +
               "] uJ for " + std::to_string(end.tenants[t].ok -
                                            base.tenants[t].ok) +
               " sei + " +
               std::to_string(end.tenants[t].degraded -
                              base.tenants[t].degraded) +
               " adc answers"});
  }
}

void check_plan_coherence(core::SeiNetwork& net, const data::Dataset& probes,
                          int images, const std::string& who,
                          std::vector<InvariantViolation>& out) {
  const std::uint64_t epoch_before = net.plan().epoch;
  core::EvalContext ctx;
  std::vector<int> planned(static_cast<std::size_t>(images));
  for (int i = 0; i < images; ++i)
    planned[static_cast<std::size_t>(i)] =
        net.predict(probe_image(probes, i), ctx, kChaosProbeIndexBase + i);
  // The scalar engines read the live effective weights directly — ground
  // truth for whatever fault/remap state the network is in.
  const bool packed = net.packed_eval();
  net.set_packed_eval(false);
  for (int i = 0; i < images; ++i) {
    const int scalar =
        net.predict(probe_image(probes, i), ctx, kChaosProbeIndexBase + i);
    if (scalar != planned[static_cast<std::size_t>(i)]) {
      out.push_back({"plan_epoch",
                     who + ": plan (epoch " + std::to_string(epoch_before) +
                         ") predicts " +
                         std::to_string(planned[static_cast<std::size_t>(i)]) +
                         " but the scalar engines say " +
                         std::to_string(scalar) + " on probe " +
                         std::to_string(i)});
      break;
    }
  }
  net.set_packed_eval(packed);
  if (net.plan().epoch < epoch_before)
    out.push_back({"plan_epoch", who + ": plan epoch moved backwards (" +
                                     std::to_string(epoch_before) + " -> " +
                                     std::to_string(net.plan().epoch) + ")"});
}

void check_arena_rebind_safety(core::SeiNetwork& net,
                               const data::Dataset& probes, int images,
                               const std::string& who,
                               std::vector<InvariantViolation>& out) {
  // A context bound to empty bounds is the maximal re-bind miss: every
  // Scratch carve failed, so each buffer must take the owned-vector
  // fallback. Results must still match a fresh (never-bound) context.
  core::EvalContext fresh;
  core::EvalContext stale;
  stale.bind(core::ScratchPlan{});
  for (int i = 0; i < images; ++i) {
    const int want =
        net.predict(probe_image(probes, i), fresh, kChaosProbeIndexBase + i);
    const int got =
        net.predict(probe_image(probes, i), stale, kChaosProbeIndexBase + i);
    if (got != want) {
      out.push_back({"arena_rebind",
                     who + ": stale-bound context predicts " +
                         std::to_string(got) + " vs " + std::to_string(want) +
                         " on probe " + std::to_string(i)});
      return;
    }
  }
}

}  // namespace sei::chaos
