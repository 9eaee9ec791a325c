// Example: full consolidation-planning study for one (or every) data center.
//
// Runs the paper's Section 5 comparison — vanilla Semi-Static, Stochastic
// (PCP) and Dynamic consolidation — through the trace-replay emulator and
// prints the Fig 7/8 style cost and contention summary, plus migration
// statistics for the dynamic plan.
//
// Usage: datacenter_planning [workload] [servers] [utilization_bound]
//   workload          "A".."D" or industry name; "all" (default) runs all 4
//   servers           fleet size override (default: full Table 2 size)
//   utilization_bound dynamic-consolidation bound U (default 0.8)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/study.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/table.h"

using namespace vmcw;

namespace {

void run_one(const WorkloadSpec& spec, double utilization_bound) {
  const Datacenter dc = generate_datacenter(spec, kStudySeed);
  StudySettings settings;
  settings.dynamic_utilization_bound = utilization_bound;
  const StudyResult study = run_study(dc, settings);

  std::printf("\n=== %s (%s), %zu servers, U=%.2f ===\n", dc.name.c_str(),
              dc.industry.c_str(), dc.servers.size(), utilization_bound);
  TextTable table({"algorithm", "hosts", "space (norm)", "power (norm)",
                   "contention time", "avg util p50", "peak util p50",
                   "migrations"});
  for (const auto& r : study.results) {
    const auto& em = r.emulation;
    std::vector<double> avg = em.host_avg_cpu_util;
    std::vector<double> peak = em.host_peak_cpu_util;
    std::sort(avg.begin(), avg.end());
    std::sort(peak.begin(), peak.end());
    const double avg_p50 = avg.empty() ? 0 : avg[avg.size() / 2];
    const double peak_p50 = peak.empty() ? 0 : peak[peak.size() / 2];
    table.add_row({to_string(r.strategy), std::to_string(r.provisioned_hosts),
                   fmt(study.normalized_space_cost(r.strategy), 3),
                   fmt(study.normalized_power_cost(r.strategy), 3),
                   fmt_pct(em.contention_time_fraction()), fmt(avg_p50, 2),
                   fmt(peak_p50, 2), std::to_string(r.total_migrations)});
  }
  std::printf("%s", table.str().c_str());

  const auto& dyn = study.get(Strategy::kDynamic).emulation;
  std::vector<std::size_t> active = dyn.active_hosts_per_interval;
  std::sort(active.begin(), active.end());
  if (!active.empty()) {
    std::printf(
        "dynamic active hosts: min=%zu p10=%zu p50=%zu p90=%zu max=%zu "
        "(cpu contention events: %zu, mem: %zu)\n",
        active.front(), active[active.size() / 10], active[active.size() / 2],
        active[active.size() * 9 / 10], active.back(),
        dyn.cpu_contention_samples.size(), dyn.mem_contention_samples.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "all";
  const int servers = argc > 2 ? std::atoi(argv[2]) : 0;
  const double bound = argc > 3 ? std::atof(argv[3]) : 0.8;

  for (const auto& preset : all_workload_specs()) {
    if (which != "all" && preset.name != which && preset.industry != which)
      continue;
    const WorkloadSpec spec =
        servers > 0 ? scaled_down(preset, servers, preset.hours) : preset;
    run_one(spec, bound);
  }
  return 0;
}
