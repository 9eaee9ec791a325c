// Ablation — demand-predictor design for dynamic consolidation.
//
// Sweeps the seasonal-max predictor's lookback horizon and CPU safety
// margin, reporting the dynamic footprint and the contention that
// prediction misses cause. This quantifies the prediction/provisioning
// trade-off behind the paper's "highly bursty and *predictable* workloads
// can benefit from dynamic consolidation" conclusion.

#include <cstdio>

#include "common.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Ablation — demand predictor",
                      "lookback x safety margin, Banking, dynamic");
  const int servers = argc > 1 ? std::atoi(argv[1]) : 400;
  const auto spec = scaled_down(banking_spec(), servers, kHoursPerMonth);
  const Datacenter dc = generate_datacenter(spec, kStudySeed);
  std::printf("workload: %s (%zu servers)\n\n", dc.industry.c_str(),
              dc.servers.size());

  TextTable table({"lookback (days)", "cpu margin", "hosts",
                   "migrations/interval", "contention time",
                   "cpu contention events"});
  for (int lookback : {1, 3, 7, 14}) {
    for (double margin : {1.0, 1.1, 1.25}) {
      StudySettings settings = bench::baseline_settings();
      settings.predictor.lookback_days = lookback;
      settings.predictor.cpu_safety_margin = margin;
      const auto study = run_study(dc, settings);
      const auto& dyn = study.get(Strategy::kDynamic);
      table.add_row(
          {std::to_string(lookback), fmt(margin, 2),
           std::to_string(dyn.provisioned_hosts),
           fmt(static_cast<double>(dyn.total_migrations) /
                   static_cast<double>(settings.intervals()),
               1),
           fmt_pct(dyn.emulation.contention_time_fraction()),
           std::to_string(dyn.emulation.cpu_contention_samples.size())});
    }
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nshort lookbacks miss weekly seasonality (smaller footprint, more\n"
      "contention); longer lookbacks and fatter margins buy safety with\n"
      "hosts. The baseline (7 days, 1.10) keeps Banking's contention at\n"
      "the Fig 8 level without forfeiting dynamic consolidation's gains.\n");
  return 0;
}
