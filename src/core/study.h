// The Section-5 experimental study: run all three consolidation approaches
// on one data center and collect every performance parameter the paper
// compares (space & hardware cost, power cost, utilization, contention),
// plus the Fig 13-16 sensitivity sweep over the utilization bound.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/dynamic.h"
#include "core/emulator.h"
#include "core/planners.h"
#include "hardware/cost_model.h"
#include "trace/server_trace.h"

namespace vmcw {

struct StrategyResult {
  Strategy strategy = Strategy::kSemiStatic;
  std::size_t provisioned_hosts = 0;
  double space_cost = 0;  ///< space + hardware over the window
  double power_cost = 0;
  EmulationReport emulation;
  std::vector<std::size_t> migrations_per_interval;  ///< dynamic only
  std::size_t total_migrations = 0;
};

struct StudyResult {
  std::string workload;
  StudySettings settings;
  /// Semi-Static, Stochastic, Dynamic — in that order.
  std::vector<StrategyResult> results;

  const StrategyResult& get(Strategy s) const;

  /// Fig 7 normalization: cost of `s` / cost of vanilla Semi-Static.
  double normalized_space_cost(Strategy s) const;
  double normalized_power_cost(Strategy s) const;
};

/// Run the full three-way comparison (Semi-Static, Stochastic, Dynamic)
/// on the given workloads directly — the ground truth, not a monitored
/// view. Throws std::runtime_error if any planner fails (a VM larger than
/// a host, or unsatisfiable constraints).
StudyResult run_study(const Datacenter& dc, const StudySettings& settings,
                      const ConstraintSet& constraints = {},
                      const CostModel& costs = CostModel{});

/// Same, starting from pre-converted VM workloads (lets callers reuse the
/// conversion across settings, e.g. in the sensitivity sweep).
StudyResult run_study(std::string workload_name,
                      std::span<const VmWorkload> vms,
                      const StudySettings& settings,
                      const ConstraintSet& constraints = {},
                      const CostModel& costs = CostModel{});

/// Fig 13-16: servers provisioned by dynamic consolidation as a function of
/// the utilization bound U, with the (U-independent) semi-static and
/// stochastic requirements for reference.
struct SensitivityPoint {
  double utilization_bound = 0;
  std::size_t dynamic_hosts = 0;
};

struct SensitivityResult {
  std::string workload;
  std::size_t semi_static_hosts = 0;
  std::size_t stochastic_hosts = 0;
  std::vector<SensitivityPoint> dynamic_points;
};

SensitivityResult sensitivity_sweep(const Datacenter& dc,
                                    const StudySettings& base_settings,
                                    std::span<const double> utilization_bounds);

}  // namespace vmcw
