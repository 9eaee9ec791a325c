// Figure 10 — CDF of average host CPU utilization achieved by each
// consolidation approach.

#include <cstdio>

#include "common.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Figure 10", "CDF of Average host CPU Utilization");
  const auto fleets = bench::make_fleets(argc, argv);
  const auto studies = bench::run_all_studies(fleets);

  const Strategy algos[] = {Strategy::kSemiStatic, Strategy::kStochastic,
                            Strategy::kDynamic};
  for (std::size_t i = 0; i < studies.size(); ++i) {
    std::printf("\n%s\n", bench::subfig_label(fleets[i], i).c_str());
    std::vector<std::string> names;
    std::vector<EmpiricalCdf> cdfs;
    for (Strategy a : algos) {
      names.push_back(to_string(a));
      cdfs.emplace_back(studies[i].get(a).emulation.host_avg_cpu_util);
    }
    const std::vector<double> quantiles{0.10, 0.25, 0.50, 0.75, 0.90, 1.00};
    std::printf("%s", format_cdf_table(names, cdfs, quantiles).c_str());
  }
  std::printf(
      "\npaper: Airlines' utilization is very low under every scheme (its\n"
      "memory footprint fills hosts first); for Banking/Beverage the static\n"
      "variants cannot push average utilization high (their variability\n"
      "forces peak-provisioned headroom) while Dynamic does; for Natural\n"
      "Resources all three schemes look alike.\n");
  return 0;
}
