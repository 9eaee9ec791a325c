// Ablation (Section 7, "Enabling Shorter Consolidation Intervals") — how
// the dynamic consolidation interval length trades footprint, power,
// migration churn and contention.
//
// The paper fixes 2 hours as "a practical number based on the time taken
// by live migration today"; faster migration would enable shorter
// intervals and finer consolidation. This sweep quantifies what each
// interval length buys on the Banking estate.

#include <cstdio>

#include "common.h"
#include "core/migration_scheduler.h"
#include "core/planners.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Ablation — consolidation interval",
                      "Banking, dynamic consolidation at 1/2/4/8/12h");
  const int servers = argc > 1 ? std::atoi(argv[1]) : 400;
  const auto spec = scaled_down(banking_spec(), servers, kHoursPerMonth);
  const Datacenter dc = generate_datacenter(spec, kStudySeed);
  std::printf("workload: %s (%zu servers)\n\n", dc.industry.c_str(),
              dc.servers.size());

  const auto vms = to_vm_workloads(dc);
  TextTable table({"interval", "intervals", "hosts", "power (norm. to 2h)",
                   "migrations/interval", "contention time",
                   "worst exec makespan", "infeasible intervals"});
  double power_2h = 0;
  std::vector<std::vector<std::string>> rows;
  for (std::size_t hours : {1u, 2u, 4u, 8u, 12u}) {
    StudySettings settings = bench::baseline_settings();
    settings.interval_hours = hours;
    const auto study = run_study(dc, settings);
    const auto& dyn = study.get(Strategy::kDynamic);
    if (hours == 2) power_2h = dyn.power_cost;

    // Execution step: can the migrations of each interval actually finish
    // inside it? (2 concurrent migrations per host, 1 GbE, pre-copy.)
    const auto plan = plan_strategy(Strategy::kDynamic, vms, settings);
    ExecutionFeasibility feasibility;
    if (plan)
      feasibility = execution_feasibility(plan->schedule, vms,
                                          settings.eval_begin(),
                                          settings.interval_hours,
                                          MigrationConfig{});
    rows.push_back(
        {std::to_string(hours) + "h", std::to_string(settings.intervals()),
         std::to_string(dyn.provisioned_hosts), fmt(dyn.power_cost, 1),
         fmt(static_cast<double>(dyn.total_migrations) /
                 static_cast<double>(settings.intervals()),
             1),
         fmt_pct(dyn.emulation.contention_time_fraction()),
         fmt(feasibility.worst_makespan_s / 60.0, 1) + " min (" +
             fmt_pct(feasibility.worst_utilization) + " of interval)",
         std::to_string(feasibility.infeasible_intervals)});
  }
  for (auto& row : rows) {
    row[3] = fmt(std::stod(row[3]) / power_2h, 3);
    table.add_row(row);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nshorter intervals track demand more closely (lower power) at the\n"
      "cost of proportionally more migration time per interval — the\n"
      "execution-makespan column is the paper's Section 7 argument for 2h\n"
      "as the practical floor with today's live migration.\n");
  return 0;
}
