// Fleet serving walkthrough, operator's view: three independently-mapped
// SEI replicas serve two tenants with weighted-fair admission, a fault
// storm takes shard 1 out mid-run, traffic fails over to its replicas with
// zero shed requests, and once the storm passes the periodic repair heals
// the shard and it rejoins the rotation.
//
// The printout is the story an on-call engineer would reconstruct from the
// telemetry: a failover timeline, each shard's breaker transitions, and the
// per-tenant service/fairness table.
//
// Flags: --network network2, --requests 9000, --shards 3, --tenants A:2,B:1,
// --storm-at (default requests/3), --storm-stuck 0.5, --storm-duration
// (default requests/3), --probe-every 8.
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "core/adc_network.hpp"
#include "exec/thread_pool.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "workloads/pipeline.hpp"

using namespace sei;

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  exec::set_default_threads(cli.get_threads());
  const std::string net_name = cli.get("network", "network2");
  const int requests = cli.get_int("requests", 9000, "requests to submit");
  const int nshards = cli.get_int("shards", 3, "SEI replica count");
  const std::string tenant_spec =
      cli.get("tenants", "A:2,B:1", "tenant weights, name:weight[,...]");
  const int storm_at = cli.get_int("storm-at", requests / 3,
                                   "storm strike dispatch count (0 = none)");
  const double storm_stuck =
      cli.get_double("storm-stuck", 0.5, "stuck fraction of the strike");
  const int storm_duration = cli.get_int(
      "storm-duration", requests / 3, "dispatches the storm persists");
  const int probe_every =
      cli.get_int("probe-every", 8, "served requests per sentinel probe");
  const int skip_bound = cli.get_int(
      "skip-bound", -1,
      "skip bound on every SEI stage (-1 = uniform billing, 0 = tenants "
      "are billed per driven row; docs/sparsity.md)");
  if (!cli.validate("fleet serving demo: failover and weighted fairness"))
    return 0;
  install_shutdown_handler();

  data::DataBundle data = workloads::load_default_data(true);
  workloads::Artifacts art = workloads::prepare_workload(net_name, data, {});

  std::printf("== building %d replicas of %s ==\n", nshards, net_name.c_str());
  std::vector<std::unique_ptr<core::SeiNetwork>> nets;
  std::vector<core::SeiNetwork*> ptrs;
  for (int k = 0; k < nshards; ++k) {
    core::HardwareConfig hw;
    hw.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
    hw.spare_row_fraction = 0.1;
    nets.push_back(std::make_unique<core::SeiNetwork>(
        art.qnet, hw,
        reliability::make_repair_hook(reliability::RepairConfig{}, nullptr)));
    if (skip_bound >= 0)
      nets.back()->set_skip_bounds(std::vector<int>(
          static_cast<std::size_t>(nets.back()->stage_count()), skip_bound));
    ptrs.push_back(nets.back().get());
  }
  core::AdcNetwork fallback(art.qnet, core::AdcConfig{}, data.train);

  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs(tenant_spec);
  for (serve::TenantConfig& t : fc.tenants) t.queue_capacity = 256;
  fc.sentinel.probe_every = probe_every;
  fc.calibration.max_images = 200;
  serve::FleetRuntime fleet(ptrs, art.qnet, data.test, data.train, fc,
                            &fallback);
  if (storm_at > 0) {
    serve::StormSchedule storm;
    storm.events.push_back({static_cast<std::uint64_t>(storm_at), 1,
                            {0, -1, storm_stuck, 1.0},
                            static_cast<std::uint64_t>(storm_duration)});
    fleet.set_storm(storm);
    std::printf("storm scheduled: shard 1, strike @%d, stuck %.0f%%, "
                "overhead for %d dispatches\n",
                storm_at, 100.0 * storm_stuck, storm_duration);
  }

  fleet.start();
  const int ntenants = fleet.tenant_count();
  const std::size_t per_image =
      data.test.images.numel() / static_cast<std::size_t>(data.test.size());
  auto image = [&](int i) {
    const int k = i % data.test.size();
    return std::span<const float>{
        data.test.images.data() + static_cast<std::size_t>(k) * per_image,
        per_image};
  };

  std::printf("\n== serving %d requests across %d tenants ==\n", requests,
              ntenants);
  std::deque<std::future<serve::FleetResponse>> inflight;
  std::vector<std::uint64_t> served(static_cast<std::size_t>(ntenants), 0);
  Rng arrivals = Rng::fork(4242, 0);
  for (int i = 0; i < requests && !shutdown_requested(); ++i) {
    while (inflight.size() >= 128) {
      const serve::FleetResponse r = inflight.front().get();
      inflight.pop_front();
      if (r.status != serve::FleetResponseStatus::kRejected)
        ++served[static_cast<std::size_t>(r.tenant)];
    }
    const int tenant = static_cast<int>(
        arrivals.below(static_cast<std::uint64_t>(ntenants)));
    inflight.push_back(fleet.submit(tenant, image(i)));
  }
  while (!inflight.empty()) {
    const serve::FleetResponse r = inflight.front().get();
    inflight.pop_front();
    if (r.status != serve::FleetResponseStatus::kRejected)
      ++served[static_cast<std::size_t>(r.tenant)];
  }
  fleet.stop();

  const serve::FleetStats st = fleet.stats();
  std::printf("\n== failover timeline ==\n");
  const std::vector<serve::FailoverEvent> fo = fleet.failovers();
  if (fo.empty()) {
    std::printf("(no failovers — every request served on its home shard)\n");
  } else {
    std::printf("%zu re-routes; first @dispatch %llu (shard %d -> %d), "
                "last @dispatch %llu\n",
                fo.size(),
                static_cast<unsigned long long>(fo.front().at_dispatched),
                fo.front().home_shard, fo.front().to_shard,
                static_cast<unsigned long long>(fo.back().at_dispatched));
  }

  std::printf("\n== shard timelines ==\n");
  for (int k = 0; k < nshards; ++k) {
    const serve::ShardStats& ss = st.shards[static_cast<std::size_t>(k)];
    std::printf("shard %d: served %llu, final state %s, trips %d\n", k,
                static_cast<unsigned long long>(ss.served),
                serve::to_string(ss.state), ss.trips);
    for (const serve::BreakerEvent& e : fleet.shard_breaker_events(k))
      std::printf("  @served %-6llu %-8s -> %-8s  %s\n",
                  static_cast<unsigned long long>(e.at_served),
                  serve::to_string(e.from), serve::to_string(e.to),
                  e.note.c_str());
  }

  std::printf("\n== tenant service table (weighted-fair) ==\n");
  std::printf("%-8s %-7s %-9s %-9s %-9s %-10s\n", "tenant", "weight",
              "admitted", "served", "rejected", "energy (J)");
  std::vector<double> normalized;
  for (int t = 0; t < ntenants; ++t) {
    const serve::TenantCounters& c = st.tenants[static_cast<std::size_t>(t)];
    const serve::TenantConfig& tc = fc.tenants[static_cast<std::size_t>(t)];
    std::printf("%-8s %-7.1f %-9llu %-9llu %-9llu %-10.3g\n",
                tc.name.c_str(), tc.weight,
                static_cast<unsigned long long>(c.admitted),
                static_cast<unsigned long long>(c.ok + c.degraded),
                static_cast<unsigned long long>(c.rejected),
                c.energy_j);
    normalized.push_back(
        static_cast<double>(served[static_cast<std::size_t>(t)]) / tc.weight);
  }
  std::printf("jain fairness (weight-normalized service): %.4f\n",
              serve::jain_fairness(normalized));
  std::printf("fleet: %llu dispatched, %llu failovers, %llu degraded, "
              "%llu shed\n",
              static_cast<unsigned long long>(st.total_dispatched),
              static_cast<unsigned long long>(st.failovers),
              static_cast<unsigned long long>(st.fallback_served),
              static_cast<unsigned long long>(st.shed));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
