// Figure 9 — distribution of CPU contention magnitude under Dynamic
// consolidation: additional demand on a contended host as a fraction of the
// host's capacity.

#include <cstdio>

#include "common.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Figure 9", "Distribution of CPU Contention (Dynamic). "
                                  "Absence of line = no contention");
  const auto fleets = bench::make_fleets(argc, argv);
  const auto studies = bench::run_all_studies(fleets);

  for (std::size_t i = 0; i < studies.size(); ++i) {
    const auto& samples =
        studies[i].get(Strategy::kDynamic).emulation.cpu_contention_samples;
    std::printf("\n%s: %zu contended host-hours\n",
                bench::subfig_label(fleets[i], i).c_str(), samples.size());
    if (samples.empty()) {
      std::printf("  (no contention — no line in the figure)\n");
      continue;
    }
    const EmpiricalCdf cdf{std::vector<double>(samples.begin(), samples.end())};
    const std::vector<std::string> names{"excess demand (x capacity)"};
    const std::vector<EmpiricalCdf> cdfs{cdf};
    const std::vector<double> quantiles{0.25, 0.50, 0.75, 0.90, 1.00};
    std::printf("%s", format_cdf_table(names, cdfs, quantiles).c_str());
  }
  std::printf(
      "\npaper: the highly bursty Banking workload can reach very high\n"
      "contention (CPU is its dominant resource and its CoV is extreme);\n"
      "Airlines has no contention line at all.\n");
  return 0;
}
