#include "core/study.h"

#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"

namespace vmcw {

const StrategyResult& StudyResult::get(Strategy s) const {
  for (const auto& r : results)
    if (r.strategy == s) return r;
  throw std::out_of_range("strategy not present in study result");
}

double StudyResult::normalized_space_cost(Strategy s) const {
  const double base = get(Strategy::kSemiStatic).space_cost;
  return base > 0 ? get(s).space_cost / base : 0.0;
}

double StudyResult::normalized_power_cost(Strategy s) const {
  const double base = get(Strategy::kSemiStatic).power_cost;
  return base > 0 ? get(s).power_cost / base : 0.0;
}

StudyResult run_study(std::string workload_name,
                      std::span<const VmWorkload> vms,
                      const StudySettings& settings,
                      const ConstraintSet& constraints,
                      const CostModel& costs) {
  Stopwatch span("study.wall_seconds");
  StudyResult study;
  study.workload = std::move(workload_name);
  study.settings = settings;

  // The three strategies plan and replay independently; fan them out
  // across the pool, each writing its fixed slot, so the result order (and
  // every byte of it) is identical at any thread count. ConstraintSet is
  // physically const-clean (no compression under const), so all tasks
  // share the caller's set directly.
  struct Cell {
    Strategy strategy;
    const char* span;
  };
  static constexpr Cell kCells[] = {
      {Strategy::kSemiStatic, "study.semi_static_seconds"},
      {Strategy::kStochastic, "study.stochastic_seconds"},
      {Strategy::kDynamic, "study.dynamic_seconds"},
  };
  study.results.resize(std::size(kCells));
  parallel_for(0, std::size(kCells), [&](std::size_t i) {
    const Strategy strategy = kCells[i].strategy;
    Stopwatch plan_span(kCells[i].span);
    auto plan = plan_strategy(strategy, vms, settings, constraints);
    if (!plan)
      throw std::runtime_error(std::string(to_string(strategy)) +
                               " planning failed");
    StrategyResult& result = study.results[i];
    result.strategy = strategy;
    result.emulation =
        emulate(vms, plan->schedule, settings, live_migrates(strategy));
    result.provisioned_hosts = plan->provisioned_hosts;
    result.space_cost = costs.space_hardware_cost(
        settings.target, result.provisioned_hosts,
        static_cast<double>(settings.eval_hours) / 24.0);
    result.power_cost = costs.power_cost(result.emulation.energy_wh);
    result.migrations_per_interval = std::move(plan->migrations_per_interval);
    result.total_migrations = plan->total_migrations;
  });
  return study;
}

StudyResult run_study(const Datacenter& dc, const StudySettings& settings,
                      const ConstraintSet& constraints,
                      const CostModel& costs) {
  const auto vms = to_vm_workloads(dc);
  return run_study(dc.industry, vms, settings, constraints, costs);
}

SensitivityResult sensitivity_sweep(
    const Datacenter& dc, const StudySettings& base_settings,
    std::span<const double> utilization_bounds) {
  Stopwatch span("sensitivity.wall_seconds");
  SensitivityResult result;
  result.workload = dc.industry;
  const auto vms = to_vm_workloads(dc);

  // The reference plans and every utilization-bound point are independent
  // cells of one grid: cells 0-1 are the U-independent references, cell
  // 2+i is Dynamic at utilization_bounds[i]. Run them all on the pool,
  // each writing its own slot.
  std::vector<std::pair<Strategy, StudySettings>> cells{
      {Strategy::kSemiStatic, base_settings},
      {Strategy::kStochastic, base_settings}};
  for (const double bound : utilization_bounds) {
    cells.emplace_back(Strategy::kDynamic, base_settings);
    cells.back().second.dynamic_utilization_bound = bound;
  }
  std::vector<std::size_t> hosts(cells.size(), 0);
  parallel_for(0, cells.size(), [&](std::size_t i) {
    const auto plan = plan_strategy(cells[i].first, vms, cells[i].second);
    if (!plan)
      throw std::runtime_error(std::string(to_string(cells[i].first)) +
                               " planning failed in sensitivity sweep");
    hosts[i] = plan->provisioned_hosts;
  });

  result.semi_static_hosts = hosts[0];
  result.stochastic_hosts = hosts[1];
  result.dynamic_points.reserve(utilization_bounds.size());
  for (std::size_t i = 0; i < utilization_bounds.size(); ++i)
    result.dynamic_points.push_back(
        SensitivityPoint{utilization_bounds[i], hosts[2 + i]});
  return result;
}

}  // namespace vmcw
