// Quickstart: the whole pipeline in ~60 lines.
//
//  1. Generate a synthetic enterprise estate (30 days of hourly traces).
//  2. Look at its burstiness — the reason consolidation pays.
//  3. Plan consolidation three ways (vanilla semi-static, stochastic PCP,
//     dynamic with a 20% live-migration reservation).
//  4. Replay the actual traces through the emulator and compare cost,
//     utilization and contention.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "analysis/burstiness.h"
#include "analysis/resource_ratio.h"
#include "core/study.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/table.h"

using namespace vmcw;

int main() {
  // 1. A small Banking-flavored estate: 120 physical Windows servers.
  const WorkloadSpec spec = scaled_down(banking_spec(), 120, kHoursPerMonth);
  const Datacenter dc = generate_datacenter(spec, /*seed=*/2014);
  std::printf("generated %zu servers x %zu hours (%s)\n", dc.servers.size(),
              dc.hours(), dc.industry.c_str());

  // 2. Why consolidate dynamically? CPU is bursty... but memory is not,
  //    and memory is what fills a consolidated host.
  const auto cpu = burstiness(dc, Resource::kCpu, 1);
  const auto mem = burstiness(dc, Resource::kMemory, 1);
  std::printf("\nburstiness: CPU median P2A %.1f (heavy-tailed servers %s), "
              "memory median P2A %.2f (%s)\n",
              p2a_cdf(cpu).quantile(0.5),
              fmt_pct(heavy_tailed_fraction(cpu)).c_str(),
              p2a_cdf(mem).quantile(0.5),
              fmt_pct(heavy_tailed_fraction(mem)).c_str());
  std::printf("memory-constrained intervals vs HS23 blade: %s\n",
              fmt_pct(memory_constrained_fraction(dc, 2, 336)).c_str());

  // 3 + 4. Plan all three ways and replay the real traces.
  StudySettings settings;  // Table 3 defaults: 14-day window, 2h intervals,
                           // 20% CPU+memory reserved for live migration
  const StudyResult study = run_study(dc, settings);

  TextTable table({"algorithm", "hosts", "space (norm)", "power (norm)",
                   "contention time", "migrations"});
  for (const auto& r : study.results) {
    table.add_row({to_string(r.strategy), std::to_string(r.provisioned_hosts),
                   fmt(study.normalized_space_cost(r.strategy), 3),
                   fmt(study.normalized_power_cost(r.strategy), 3),
                   fmt_pct(r.emulation.contention_time_fraction()),
                   std::to_string(r.total_migrations)});
  }
  std::printf("\n%s", table.str().c_str());
  std::printf(
      "\nreading the result like the paper does: stochastic semi-static\n"
      "recovers most of dynamic consolidation's space savings without live\n"
      "migration; dynamic wins on power for bursty estates — at the price\n"
      "of contention risk.\n");
  return 0;
}
