// Semi-static planners: vanilla (peak + FFD) and stochastic (PCP).
//
// Both produce one placement that stays fixed for the whole 14-day
// evaluation window; re-planning happens only at the next consolidation
// event (with downtime + relocation, hence no live-migration reservation).
//
// Also the strategy vocabulary every driver shares (the study, the engine,
// the sweep) and plan_strategy, the one dispatch from a Strategy to its
// planner.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/binpack.h"
#include "core/constraints.h"
#include "core/settings.h"
#include "core/vm.h"

namespace vmcw {

struct StaticPlan {
  Placement placement;
  std::size_t hosts_used = 0;
  std::vector<ResourceVector> sizes;  ///< the demand estimate packed
};

/// Vanilla semi-static: size each VM at its *peak* demand over the planning
/// history, pack with FFD (Section 5.1 "Semi-Static Consolidation").
std::optional<StaticPlan> plan_semi_static(
    std::span<const VmWorkload> vms, const StudySettings& settings,
    const ConstraintSet& constraints = {});

/// Pure static consolidation (Section 2.2.1): one-time placement sized at
/// the expected peak over the *whole workload lifetime* — history and
/// future alike — so the placement never needs to change. This is the
/// most conservative (and in the wild, the most common) variant; it
/// differs from semi-static only in the sizing horizon, since semi-static
/// re-plans at every maintenance window and can size on the recent past.
std::optional<StaticPlan> plan_static(
    std::span<const VmWorkload> vms, const StudySettings& settings,
    const ConstraintSet& constraints = {});

/// Stochastic semi-static: PCP with body = 90th percentile, tail = max
/// (Section 5.1 "Stochastic Consolidation").
std::optional<StaticPlan> plan_stochastic(
    std::span<const VmWorkload> vms, const StudySettings& settings,
    const ConstraintSet& constraints = {});

/// The consolidation strategies: the paper's three compared approaches
/// (Semi-Static, Stochastic, Dynamic) plus pure Static and the hybrid
/// extension. The sweep journal stores a Strategy as its u8 value, so the
/// enumerators keep their order.
enum class Strategy {
  kStatic,
  kSemiStatic,
  kStochastic,
  kDynamic,
  kHybrid,
};

const char* to_string(Strategy strategy) noexcept;

/// True for the strategies that live-migrate between intervals (Dynamic,
/// Hybrid): they reserve migration headroom (the dynamic utilization
/// bound), power off empty hosts when replayed, and get an
/// execution-feasibility check.
constexpr bool live_migrates(Strategy strategy) noexcept {
  return strategy == Strategy::kDynamic || strategy == Strategy::kHybrid;
}

/// What any strategy's planner produces, in one shape.
struct StrategyPlan {
  std::vector<Placement> schedule;  ///< 1 entry for the fixed strategies
  std::size_t provisioned_hosts = 0;
  std::size_t total_migrations = 0;
  /// Migrations vs the previous interval (Dynamic only; empty otherwise).
  std::vector<std::size_t> migrations_per_interval;
};

/// Plan `strategy` over `vms`; std::nullopt when its planner fails (a VM
/// larger than a host, or unsatisfiable constraints). `hybrid_fraction` is
/// the share of VMs Hybrid consolidates dynamically; the other strategies
/// ignore it.
std::optional<StrategyPlan> plan_strategy(Strategy strategy,
                                          std::span<const VmWorkload> vms,
                                          const StudySettings& settings,
                                          const ConstraintSet& constraints = {},
                                          double hybrid_fraction = 0.25);

}  // namespace vmcw
