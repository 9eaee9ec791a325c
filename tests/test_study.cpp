// Integration tests for the Section-5 study driver.

#include "core/study.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace vmcw {
namespace {

using testing::small_settings;

Datacenter small_dc(int servers = 80) {
  return generate_datacenter(scaled_down(banking_spec(), servers, 168), 42);
}

TEST(Study, RunsAllThreeAlgorithms) {
  const auto result = run_study(small_dc(), small_settings());
  ASSERT_EQ(result.results.size(), 3u);
  EXPECT_NO_THROW(result.get(Strategy::kSemiStatic));
  EXPECT_NO_THROW(result.get(Strategy::kStochastic));
  EXPECT_NO_THROW(result.get(Strategy::kDynamic));
  EXPECT_EQ(result.workload, "Banking");
}

TEST(Study, VanillaNormalizesToOne) {
  const auto result = run_study(small_dc(), small_settings());
  EXPECT_DOUBLE_EQ(result.normalized_space_cost(Strategy::kSemiStatic), 1.0);
  EXPECT_DOUBLE_EQ(result.normalized_power_cost(Strategy::kSemiStatic), 1.0);
}

TEST(Study, CostsArePositiveAndConsistentWithHosts) {
  const auto result = run_study(small_dc(), small_settings());
  for (const auto& r : result.results) {
    EXPECT_GT(r.provisioned_hosts, 0u);
    EXPECT_GT(r.space_cost, 0.0);
    EXPECT_GT(r.power_cost, 0.0);
  }
  // Space cost ordering matches host-count ordering.
  const auto& semi = result.get(Strategy::kSemiStatic);
  const auto& stoch = result.get(Strategy::kStochastic);
  EXPECT_EQ(stoch.space_cost < semi.space_cost,
            stoch.provisioned_hosts < semi.provisioned_hosts);
}

TEST(Study, StochasticBeatsVanillaOnSpace) {
  // Fig 7(a): intelligent semi-static <= vanilla for every workload.
  const auto result = run_study(small_dc(150), small_settings());
  EXPECT_LE(result.normalized_space_cost(Strategy::kStochastic), 1.0);
}

TEST(Study, DynamicSavesPowerOnBurstyWorkload) {
  // Fig 7(b): dynamic consolidation saves substantial power on the
  // Banking-like workload.
  const auto result = run_study(small_dc(150), small_settings());
  EXPECT_LT(result.normalized_power_cost(Strategy::kDynamic), 0.9);
}

TEST(Study, DynamicReportsMigrations) {
  const auto result = run_study(small_dc(), small_settings());
  const auto& dyn = result.get(Strategy::kDynamic);
  EXPECT_EQ(dyn.migrations_per_interval.size(),
            small_settings().intervals());
  EXPECT_GT(dyn.total_migrations, 0u);
  const auto& semi = result.get(Strategy::kSemiStatic);
  EXPECT_EQ(semi.total_migrations, 0u);
}

TEST(Study, StaticPlansKeepAllHostsActive) {
  const auto result = run_study(small_dc(), small_settings());
  const auto& semi = result.get(Strategy::kSemiStatic);
  for (auto active : semi.emulation.active_hosts_per_interval)
    EXPECT_EQ(active, semi.provisioned_hosts);
}

TEST(Study, DynamicVariesActiveHosts) {
  const auto result = run_study(small_dc(150), small_settings());
  const auto& dyn = result.get(Strategy::kDynamic);
  std::size_t lo = dyn.emulation.active_hosts_per_interval[0];
  std::size_t hi = lo;
  for (auto active : dyn.emulation.active_hosts_per_interval) {
    lo = std::min(lo, active);
    hi = std::max(hi, active);
  }
  EXPECT_LT(lo, hi);  // Fig 12: wide active-server distribution
}

TEST(Study, HonorsConstraints) {
  const auto dc = small_dc(40);
  ConstraintSet cs(dc.servers.size());
  cs.add_affinity(0, 1);
  cs.add_anti_affinity(2, 3);
  const auto result = run_study(dc, small_settings(), cs);
  for (const auto& r : result.results) EXPECT_GT(r.provisioned_hosts, 1u);
}

TEST(Study, GetUnknownAlgorithmThrows) {
  StudyResult empty;
  EXPECT_THROW(empty.get(Strategy::kDynamic), std::out_of_range);
}

TEST(SensitivitySweep, HostsDecreaseWithUtilizationBound) {
  const auto dc = small_dc(120);
  const std::vector<double> bounds{0.6, 0.7, 0.8, 0.9, 1.0};
  const auto result = sensitivity_sweep(dc, small_settings(), bounds);
  ASSERT_EQ(result.dynamic_points.size(), bounds.size());
  EXPECT_GT(result.semi_static_hosts, 0u);
  EXPECT_GT(result.stochastic_hosts, 0u);
  // Trend: more reservation (smaller U) never needs fewer hosts, modulo
  // one host of heuristic slack.
  for (std::size_t i = 1; i < result.dynamic_points.size(); ++i) {
    EXPECT_GE(result.dynamic_points[i - 1].dynamic_hosts + 1,
              result.dynamic_points[i].dynamic_hosts);
  }
}

TEST(AlgorithmNames, Stable) {
  // The three strategies a study compares; the fig tables print these names.
  EXPECT_STREQ(to_string(Strategy::kSemiStatic), "Semi-Static");
  EXPECT_STREQ(to_string(Strategy::kStochastic), "Stochastic");
  EXPECT_STREQ(to_string(Strategy::kDynamic), "Dynamic");
}

}  // namespace
}  // namespace vmcw
