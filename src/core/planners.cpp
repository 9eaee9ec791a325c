#include "core/planners.h"

#include "core/dynamic.h"
#include "core/hybrid.h"
#include "core/pcp.h"

namespace vmcw {

std::optional<StaticPlan> plan_semi_static(std::span<const VmWorkload> vms,
                                           const StudySettings& settings,
                                           const ConstraintSet& constraints) {
  std::vector<ResourceVector> sizes(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i)
    sizes[i] = vms[i].size_over(0, settings.history_hours, WindowReducer::kMax);

  auto packed = ffd_pack(sizes, settings.capacity(settings.static_utilization_bound),
                         constraints);
  if (!packed) return std::nullopt;
  return StaticPlan{std::move(packed->placement), packed->hosts_used,
                    std::move(sizes)};
}

std::optional<StaticPlan> plan_static(std::span<const VmWorkload> vms,
                                      const StudySettings& settings,
                                      const ConstraintSet& constraints) {
  std::vector<ResourceVector> sizes(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i)
    sizes[i] = vms[i].size_over(0, vms[i].hours(), WindowReducer::kMax);

  auto packed = ffd_pack(sizes, settings.capacity(settings.static_utilization_bound),
                         constraints);
  if (!packed) return std::nullopt;
  return StaticPlan{std::move(packed->placement), packed->hosts_used,
                    std::move(sizes)};
}

std::optional<StaticPlan> plan_stochastic(std::span<const VmWorkload> vms,
                                          const StudySettings& settings,
                                          const ConstraintSet& constraints) {
  const auto items =
      make_stochastic_items(vms, 0, settings.history_hours,
                            settings.body_percentile,
                            settings.cluster_similarity,
                            settings.stochastic_memory_percentile);
  auto packed = pcp_pack(items, settings.capacity(settings.static_utilization_bound),
                         constraints);
  if (!packed) return std::nullopt;

  StaticPlan plan;
  plan.placement = std::move(packed->placement);
  plan.hosts_used = packed->hosts_used;
  plan.sizes.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    plan.sizes[i] = items[i].body;  // the always-provisioned part
  return plan;
}

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kStatic:
      return "Static";
    case Strategy::kSemiStatic:
      return "Semi-Static";
    case Strategy::kStochastic:
      return "Stochastic";
    case Strategy::kDynamic:
      return "Dynamic";
    case Strategy::kHybrid:
      return "Hybrid";
  }
  return "?";
}

std::optional<StrategyPlan> plan_strategy(Strategy strategy,
                                          std::span<const VmWorkload> vms,
                                          const StudySettings& settings,
                                          const ConstraintSet& constraints,
                                          double hybrid_fraction) {
  std::optional<StaticPlan> fixed;
  switch (strategy) {
    case Strategy::kStatic:
      fixed = plan_static(vms, settings, constraints);
      break;
    case Strategy::kSemiStatic:
      fixed = plan_semi_static(vms, settings, constraints);
      break;
    case Strategy::kStochastic:
      fixed = plan_stochastic(vms, settings, constraints);
      break;
    case Strategy::kDynamic: {
      auto dynamic = plan_dynamic(vms, settings, constraints);
      if (!dynamic) return std::nullopt;
      return StrategyPlan{std::move(dynamic->per_interval),
                          dynamic->max_active_hosts,
                          dynamic->total_migrations,
                          std::move(dynamic->migrations)};
    }
    case Strategy::kHybrid: {
      auto hybrid = plan_hybrid(vms, settings, hybrid_fraction, constraints);
      if (!hybrid) return std::nullopt;
      return StrategyPlan{std::move(hybrid->per_interval),
                          hybrid->provisioned_hosts(),
                          hybrid->total_migrations,
                          {}};
    }
  }
  if (!fixed) return std::nullopt;
  StrategyPlan plan;
  plan.schedule.push_back(std::move(fixed->placement));
  plan.provisioned_hosts = fixed->hosts_used;
  return plan;
}

}  // namespace vmcw
