// Integration tests for the end-to-end consolidation engine
// (monitoring -> warehouse view -> plan -> execution check -> emulate).

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "trace/generator.h"
#include "trace/presets.h"

namespace vmcw {
namespace {

ConsolidationEngine::Config small_config() {
  ConsolidationEngine::Config config;
  config.settings.history_hours = 120;
  config.settings.eval_hours = 48;
  config.settings.interval_hours = 2;
  return config;
}

Datacenter small_estate(int servers = 50) {
  return generate_datacenter(scaled_down(banking_spec(), servers, 168), 21);
}

TEST(Engine, RequiresObservation) {
  ConsolidationEngine engine(small_config());
  EXPECT_THROW(engine.planner_view(), std::logic_error);
  EXPECT_THROW(engine.recommend(Strategy::kDynamic), std::logic_error);
  EXPECT_THROW(engine.monitoring_fidelity(), std::logic_error);
}

TEST(Engine, PlannerViewTracksTruth) {
  ConsolidationEngine engine(small_config());
  const auto estate = small_estate();
  engine.observe(estate);
  EXPECT_EQ(engine.planner_view().servers.size(), estate.servers.size());
  const auto fidelity = engine.monitoring_fidelity();
  EXPECT_LT(fidelity.cpu_mean_abs_rel_error, 0.06);
  EXPECT_LT(fidelity.mem_mean_abs_rel_error, 0.03);
}

TEST(Engine, AllStrategiesProduceRecommendations) {
  ConsolidationEngine engine(small_config());
  engine.observe(small_estate());
  for (Strategy s : {Strategy::kStatic, Strategy::kSemiStatic,
                     Strategy::kStochastic, Strategy::kDynamic,
                     Strategy::kHybrid}) {
    const auto rec = engine.recommend(s);
    ASSERT_TRUE(rec.has_value()) << to_string(s);
    EXPECT_GT(rec->provisioned_hosts, 0u) << to_string(s);
    EXPECT_FALSE(rec->schedule.empty()) << to_string(s);
  }
}

TEST(Engine, StaticVariantsHaveSingleScheduleEntryAndNoMigrations) {
  ConsolidationEngine engine(small_config());
  engine.observe(small_estate());
  for (Strategy s : {Strategy::kStatic, Strategy::kSemiStatic,
                     Strategy::kStochastic}) {
    const auto rec = engine.recommend(s);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->schedule.size(), 1u);
    EXPECT_EQ(rec->total_migrations, 0u);
  }
}

TEST(Engine, DynamicRecommendationIsExecutable) {
  ConsolidationEngine engine(small_config());
  engine.observe(small_estate());
  const auto rec = engine.recommend(Strategy::kDynamic);
  ASSERT_TRUE(rec.has_value());
  ASSERT_TRUE(rec->execution.has_value());
  EXPECT_EQ(rec->execution->infeasible_intervals, 0u);
}

TEST(Engine, EvaluationReplaysGroundTruth) {
  ConsolidationEngine engine(small_config());
  engine.observe(small_estate());
  const auto stochastic = engine.recommend(Strategy::kStochastic);
  const auto dynamic = engine.recommend(Strategy::kDynamic);
  ASSERT_TRUE(stochastic && dynamic);
  const auto stochastic_report = engine.evaluate(*stochastic);
  const auto dynamic_report = engine.evaluate(*dynamic);
  EXPECT_GT(stochastic_report.energy_wh, 0.0);
  // The bursty Banking estate: dynamic saves energy over the fixed plan.
  EXPECT_LT(dynamic_report.energy_wh, stochastic_report.energy_wh);
}

TEST(Engine, PlanningOnWarehouseViewMatchesTruthScale) {
  // Plan on the warehouse view vs directly on the truth: host counts agree
  // within one host — monitoring is good enough to plan on (the paper's
  // operating premise).
  ConsolidationEngine engine(small_config());
  const auto estate = small_estate(80);
  engine.observe(estate);
  const auto rec = engine.recommend(Strategy::kSemiStatic);
  ASSERT_TRUE(rec.has_value());
  const auto truth_plan =
      plan_semi_static(to_vm_workloads(estate), small_config().settings);
  ASSERT_TRUE(truth_plan.has_value());
  EXPECT_NEAR(static_cast<double>(rec->provisioned_hosts),
              static_cast<double>(truth_plan->hosts_used), 1.0);
}

// Byte-identity pin for the strategy dispatch: one FNV-1a over what
// recommend(), evaluate() and partial_replan() produce for every strategy
// on a fixed small estate. The constant was recorded at the commit before
// the per-strategy switches were folded into core's plan_strategy, and
// the paper-report pins never run Static or Hybrid; recompute only for a
// deliberate planner or emulator change.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add_bits(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

TEST(Engine, RecommendAndEvaluateBytesArePinned) {
  const auto config = small_config();
  ConsolidationEngine engine(config);
  engine.observe(small_estate(30));
  Fnv1a fnv;
  for (Strategy s : {Strategy::kStatic, Strategy::kSemiStatic,
                     Strategy::kStochastic, Strategy::kDynamic,
                     Strategy::kHybrid}) {
    auto rec = engine.recommend(s);
    ASSERT_TRUE(rec.has_value()) << to_string(s);
    fnv.add(rec->provisioned_hosts);
    fnv.add(rec->total_migrations);
    fnv.add(rec->schedule.size());
    for (const Placement& placement : rec->schedule)
      for (std::size_t vm = 0; vm < placement.vm_count(); ++vm)
        fnv.add(static_cast<std::uint64_t>(placement.host_of(vm)));

    const EmulationReport report = engine.evaluate(*rec);
    fnv.add_bits(report.energy_wh);
    fnv.add(report.hours_with_contention);
    fnv.add(report.total_vm_contention_hours);

    fnv.add(rec->execution.has_value());
    if (rec->execution) {
      for (double m : rec->execution->makespan_s) fnv.add_bits(m);
      fnv.add_bits(rec->execution->worst_makespan_s);
      fnv.add_bits(rec->execution->worst_utilization);
      fnv.add(rec->execution->infeasible_intervals);
    }

    // partial_replan judges hosts against the strategy's utilization bound.
    const RepairOutcome outcome = engine.partial_replan(
        *rec, config.settings.eval_begin(), /*drain_below=*/0.5);
    fnv.add(outcome.repair_moves.size());
    fnv.add(outcome.drain_moves.size());
    fnv.add(outcome.unresolved_hosts.size());
  }
  EXPECT_EQ(fnv.h, 8459684829985226376ULL);
}

TEST(StrategyNames, Stable) {
  EXPECT_STREQ(to_string(Strategy::kStatic), "Static");
  EXPECT_STREQ(to_string(Strategy::kHybrid), "Hybrid");
}

}  // namespace
}  // namespace vmcw
