#include "engine/engine.h"

#include <stdexcept>

#include "runtime/telemetry.h"
#include "topology/spread.h"

namespace vmcw {

ConsolidationEngine::ConsolidationEngine(Config config)
    : config_(std::move(config)) {}

void ConsolidationEngine::observe(const Datacenter& estate) {
  Stopwatch span("engine.observe_seconds");
  truth_ = estate;
  // collect_datacenter fans the per-server agents across the thread pool.
  const auto warehouse =
      collect_datacenter(estate, config_.agent, config_.monitoring_seed);
  view_ = reconstruct_datacenter(estate, warehouse);
  vms_ = to_vm_workloads(*view_);
}

const Datacenter& ConsolidationEngine::planner_view() const {
  if (!view_) throw std::logic_error("observe() an estate first");
  return *view_;
}

PipelineFidelity ConsolidationEngine::monitoring_fidelity() const {
  if (!truth_ || !view_) throw std::logic_error("observe() an estate first");
  return pipeline_fidelity(*truth_, *view_);
}

FailureDomainMap ConsolidationEngine::failure_domain_map() const {
  if (!view_) throw std::logic_error("observe() an estate first");
  const TopologySpec spec{config_.settings.domains.hosts_per_rack,
                          config_.settings.domains.racks_per_power_domain};
  return FailureDomainMap::generate(
      HostPool::uniform(config_.settings.target), vms_.size(), spec,
      config_.topology_seed);
}

ConstraintSet ConsolidationEngine::compiled_constraints() const {
  // Domain-aware planning: compile each application's spread rules once;
  // every strategy honors the resulting ConstraintSet. Both layers of the
  // topology are compiled — rack spread bounds the blast radius of a
  // ToR/rack outage, power-domain spread bounds a feed failure (which a
  // rack rule alone cannot: k racks may share one power domain).
  ConstraintSet constraints;
  if (config_.settings.domains.spread) {
    const auto groups = app_replica_groups(vms_);
    const FailureDomainMap topology = failure_domain_map();
    spread_across_domains(constraints, groups, topology, DomainKind::kRack,
                          config_.settings.domains.spread_k);
    spread_across_domains(constraints, groups, topology,
                          DomainKind::kPowerDomain,
                          config_.settings.domains.spread_k);
  }
  return constraints;
}

double ConsolidationEngine::bound_for(Strategy strategy) const noexcept {
  return live_migrates(strategy) ? config_.settings.dynamic_utilization_bound
                                 : config_.settings.static_utilization_bound;
}

std::optional<ConsolidationEngine::Recommendation>
ConsolidationEngine::recommend(Strategy strategy) const {
  if (!view_) throw std::logic_error("observe() an estate first");
  Stopwatch span(std::string("engine.recommend_seconds.") +
                 to_string(strategy));
  auto plan = plan_strategy(strategy, vms_, config_.settings,
                            compiled_constraints(), config_.hybrid_fraction);
  if (!plan) return std::nullopt;

  Recommendation rec{std::move(*plan), strategy, std::nullopt};
  if (live_migrates(strategy))
    rec.execution = execution_feasibility(
        rec.schedule, vms_, config_.settings.eval_begin(),
        config_.settings.interval_hours, MigrationConfig{});
  return rec;
}

std::optional<ConsolidationEngine::OnlineAdmission>
ConsolidationEngine::admit_one_vm(const Recommendation& rec,
                                  const VmWorkload& newcomer) const {
  if (!view_) throw std::logic_error("observe() an estate first");
  if (rec.schedule.empty()) return std::nullopt;
  const ConstraintSet constraints = compiled_constraints();
  const double bound = bound_for(rec.strategy);
  const HostPool pool = HostPool::uniform(config_.settings.target);
  const std::size_t history = config_.settings.history_hours;

  OnlineAdmission admission;
  admission.placement = Placement(vms_.size() + 1);
  const Placement& final_placement = rec.schedule.back();
  std::vector<ResourceVector> host_load(final_placement.host_index_bound());
  for (std::size_t vm = 0; vm < vms_.size(); ++vm) {
    const std::int32_t host = final_placement.host_of(vm);
    admission.placement.assign(vm, host);
    if (host != Placement::kUnplaced)
      host_load[static_cast<std::size_t>(host)] +=
          vms_[vm].size_over(0, history, WindowReducer::kMax);
  }

  const auto host = admit_one(
      vms_.size(), newcomer.size_over(0, history, WindowReducer::kMax),
      host_load, pool, bound, constraints, admission.placement, {});
  if (!host) return std::nullopt;
  admission.host = *host;
  return admission;
}

RepairOutcome ConsolidationEngine::partial_replan(Recommendation& rec,
                                                  std::size_t hour,
                                                  double drain_below) const {
  if (!view_) throw std::logic_error("observe() an estate first");
  if (rec.schedule.empty()) return {};
  const ConstraintSet constraints = compiled_constraints();
  const double bound = bound_for(rec.strategy);
  const HostPool pool = HostPool::uniform(config_.settings.target);

  // Size every VM at the requested hour's interval — the demand the
  // thresholds are judged against.
  std::vector<ResourceVector> sizes(vms_.size());
  for (std::size_t vm = 0; vm < vms_.size(); ++vm)
    sizes[vm] = vms_[vm].size_over(hour, config_.settings.interval_hours,
                                   WindowReducer::kMax);

  Placement& placement = rec.schedule.back();
  std::vector<ResourceVector> host_load(placement.host_index_bound());
  for (std::size_t vm = 0; vm < vms_.size(); ++vm) {
    const std::int32_t host = placement.host_of(vm);
    if (host != Placement::kUnplaced)
      host_load[static_cast<std::size_t>(host)] += sizes[vm];
  }

  RepairOutcome outcome = repair_and_drain(sizes, placement, host_load, pool,
                                           bound, drain_below, constraints);
  rec.total_migrations +=
      outcome.repair_moves.size() + outcome.drain_moves.size();
  rec.provisioned_hosts =
      std::max(rec.provisioned_hosts, placement.active_host_count());
  return outcome;
}

EmulationReport ConsolidationEngine::evaluate(
    const Recommendation& recommendation) const {
  if (!truth_) throw std::logic_error("observe() an estate first");
  Stopwatch span("engine.evaluate_seconds");
  const auto truth_vms = to_vm_workloads(*truth_);
  return emulate(truth_vms, recommendation.schedule, config_.settings,
                 live_migrates(recommendation.strategy));
}

RobustnessReport ConsolidationEngine::evaluate_under_faults(
    const Recommendation& recommendation, const FaultPlan& plan,
    const ChaosOptions& options) const {
  if (!truth_) throw std::logic_error("observe() an estate first");
  Stopwatch span("engine.evaluate_faults_seconds");
  const auto truth_vms = to_vm_workloads(*truth_);
  return replay_under_faults(truth_vms, recommendation.schedule,
                             config_.settings,
                             live_migrates(recommendation.strategy), plan,
                             options);
}

}  // namespace vmcw
