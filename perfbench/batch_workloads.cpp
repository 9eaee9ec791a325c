// The batch workloads: packing a 1M-host streamed estate, and the paper's
// study sweep. Neither runs any service code.
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "core/binpack.h"
#include "core/constraints.h"
#include "core/settings.h"
#include "engine/engine.h"
#include "runtime/telemetry.h"
#include "scale/streaming_estate.h"
#include "sweep/sweep.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/rng.h"

namespace perfbench {

using namespace vmcw;

void fleet_pack(Run& run) {
  const bool full = run.full();
  const int servers = full ? 1000000 : 20000;
  const std::size_t hours = full ? 48 : 24;
  WorkloadSpec spec = scaled_down(banking_spec(), servers, hours);
  spec.name = "FS";
  StreamingEstate::Options eo;
  eo.block_servers = 4096;
  eo.max_resident_servers = 8192;
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = settings.dynamic_utilization_bound;
  const auto n = static_cast<std::size_t>(servers);

  std::unique_ptr<StreamingEstate> estate;
  std::unique_ptr<ConstraintSet> constraints;
  std::vector<ResourceVector> sizes;
  // Set-up: the estate's plan pass and the per-VM buffers. One set-up
  // takes ~10-20 ms, so each sample times sixteen.
  run.repeat_setup(5, 16, [&](int, bool) {
    estate.reset();
    estate = std::make_unique<StreamingEstate>(spec, run.seed, eo);
    constraints = std::make_unique<ConstraintSet>(n);
    sizes.assign(n, ResourceVector{});
  });

  // Timed part, repeated while another pass can end by the deadline (at
  // least once, so the pass count does not flip between runs whose pass
  // time sits near the deadline): stream every server through the block
  // cache, size it at its peak, then FFD-pack the fleet. Each pass starts
  // from a cold estate.
  std::size_t hosts_used = 0;
  std::vector<ResourceVector> final_load;
  std::uint64_t blocks = 0;
  const double deadline = now_s() + run.seconds;
  do {
    if (!estate) estate = std::make_unique<StreamingEstate>(spec, run.seed, eo);
    const std::uint64_t id = run.attempted++;
    const double t = now_s();
    {
      auto s = run.trace().span("estate.stream", id);
      for (std::size_t i = 0; i < n; ++i) {
        const ServerTrace& server = estate->server(i);
        ResourceVector peak;
        for (std::size_t h = 0; h < hours; ++h) {
          const ResourceVector d = server.demand_at(h);
          peak.cpu_rpe2 = std::max(peak.cpu_rpe2, d.cpu_rpe2);
          peak.memory_mb = std::max(peak.memory_mb, d.memory_mb);
        }
        sizes[i] = peak;
      }
    }
    std::optional<PackResult> packed;
    {
      auto s = run.trace().span("pack.ffd", id);
      packed = ffd_pack(sizes, pool, bound, *constraints);
    }
    run.op_ms.push_back((now_s() - t) * 1e3);
    blocks = estate->block_misses();
    estate.reset();

    // Output check: every VM placed, every host within its bounded
    // capacity, and the same host count on every repetition.
    bool ok = packed.has_value() && packed->placement.placed_count() == n;
    if (ok) {
      final_load.assign(packed->placement.host_index_bound(), ResourceVector{});
      for (std::size_t vm = 0; vm < n; ++vm)
        final_load[static_cast<std::size_t>(packed->placement.host_of(vm))] +=
            sizes[vm];
      for (std::size_t h = 0; ok && h < final_load.size(); ++h)
        ok = final_load[h].fits_within(pool.capacity_of(h, bound));
      ok = ok && packed->placement.active_host_count() == packed->hosts_used &&
           (hosts_used == 0 || hosts_used == packed->hosts_used);
      hosts_used = packed->hosts_used;
    }
    if (!ok) ++run.failed;
  } while (now_s() + run.op_ms.back() / 1e3 < deadline);
  run.end_timed();
  run.tail_q = 1.0;
  run.check(run.failed == 0, "a pack failed, overfilled a host or changed "
                             "its host count");
  run.note("fleet: " + std::to_string(n) + " VMs on " +
           std::to_string(hosts_used) + " hosts, " + std::to_string(blocks) +
           " blocks per pass, " + std::to_string(run.attempted) + " passes");
  run.layer["estate.blocks_generated"] = static_cast<double>(blocks);

  if (run.trace().enabled() && !final_load.empty()) {
    // first_fit over the final loads, for every 16th VM.
    std::vector<ResourceVector> capacity, needs;
    for (std::size_t h = 0; h < final_load.size(); ++h)
      capacity.push_back(pool.capacity_of(h, bound));
    for (std::size_t i = 0; i < n; i += 16) needs.push_back(sizes[i]);
    trace_first_fit(run, capacity, final_load, needs);
  }
}

namespace {

/// The numbers of a cell that must repeat exactly across sweeps.
using CellDigest = std::tuple<std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t>;

CellDigest digest(std::size_t provisioned, std::size_t migrations,
                  const EmulationReport& r) {
  return {provisioned, migrations, r.provisioned_hosts,
          r.hours_with_contention, r.total_vm_contention_hours};
}

const char* plan_span(Strategy s) {
  switch (s) {
    case Strategy::kSemiStatic: return "plan.semi_static";
    case Strategy::kStochastic: return "plan.stochastic";
    case Strategy::kDynamic: return "plan.dynamic";
    default: return "plan.other";
  }
}

}  // namespace

void study_sweep(Run& run) {
  const bool full = run.full();
  const int servers = full ? 12 : 6;
  const std::size_t hours = full ? 720 : 168;
  const std::vector<Strategy> strategies = {
      Strategy::kSemiStatic, Strategy::kStochastic, Strategy::kDynamic};

  std::vector<SweepCell> cells;
  std::vector<std::size_t> warm_index;  // the grid's semi-static cells
  std::vector<CellDigest> warm;         // and their warm-up results
  // Set-up: the four Table-2 estates, scaled down, crossed with the three
  // compared strategies, then a warm-up sweep of the semi-static cells
  // (one per estate). Its results are the reference that every timed
  // sweep must repeat. Seven samples spread the set-up over ~3.5 s, so
  // its median does not rest on one moment of the shared machine's speed.
  run.repeat_setup(7, 1, [&](int, bool) {
    std::vector<WorkloadSpec> specs;
    for (const WorkloadSpec& s : all_workload_specs())
      specs.push_back(scaled_down(s, servers, hours));
    const StudySettings settings;
    const std::uint64_t seed = run.seed;
    cells = SweepDriver::grid(specs, std::span(&settings, 1), strategies,
                              std::span(&seed, 1));
    warm_index.clear();
    std::vector<SweepCell> warm_cells;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].strategy != Strategy::kSemiStatic) continue;
      warm_index.push_back(i);
      warm_cells.push_back(cells[i]);
    }
    warm.clear();
    for (const SweepCellResult& r : SweepDriver().run(warm_cells)) {
      run.check(r.status == CellStatus::kOk && r.planned,
                "a warm-up cell did not finish kOk");
      warm.push_back(digest(r.provisioned_hosts, r.total_migrations, r.report));
    }
  });

  // Timed part: whole sweeps while another can end by the deadline (at
  // least one), as in fleet_pack. Every cell must finish kOk with the same
  // results on every sweep, and the semi-static cells with the warm-up's
  // results. The program counts its own ConsolidationEngine::observe calls
  // in the global MetricsRegistry.
  const auto observes = [] {
    return MetricsRegistry::global().histogram("engine.observe_seconds").count;
  };
  const std::uint64_t observes_before = observes();
  std::vector<CellDigest> first;
  const double deadline = now_s() + (run.trace().enabled() && full
                                         ? run.seconds / 2 : run.seconds);
  do {
    auto s = run.trace().span("sweep.run", run.op_ms.size());
    const double t = now_s();
    const std::vector<SweepCellResult> results = SweepDriver().run(cells);
    run.op_ms.push_back((now_s() - t) * 1e3);
    std::vector<CellDigest> got;
    for (const SweepCellResult& r : results) {
      ++run.attempted;
      if (r.status != CellStatus::kOk || !r.planned) ++run.failed;
      got.push_back(digest(r.provisioned_hosts, r.total_migrations, r.report));
    }
    if (first.empty()) first = got;
    run.check(got == first, "a sweep's results differ from the first sweep's");
    for (std::size_t w = 0; w < warm_index.size(); ++w)
      run.check(got[warm_index[w]] == warm[w],
                "a sweep's results differ from the warm-up's");
  } while (now_s() + run.op_ms.back() / 1e3 < deadline);
  run.end_timed();
  run.tail_q = 1.0;
  run.check(run.failed == 0, "a sweep cell did not finish kOk");

  // Observes the program made per sweep beyond one per distinct estate:
  // cells that differ only in strategy see the same estate.
  std::set<std::pair<std::string, std::uint64_t>> estates;
  for (const SweepCell& c : cells) estates.insert({c.spec.name, c.seed});
  const double observes_per_sweep =
      static_cast<double>(observes() - observes_before) /
      static_cast<double>(run.op_ms.size());
  run.layer["sweep.redundant_observes"] =
      observes_per_sweep - static_cast<double>(estates.size());
  run.note("study: " + std::to_string(cells.size()) + " cells of " +
           std::to_string(servers) + " servers x " + std::to_string(hours) +
           " h, " + std::to_string(run.op_ms.size()) + " sweeps");

  if (!run.trace().enabled()) return;
  // Traced pass: one cell at a time through the same public calls the
  // sweep makes (SweepDriver's cell body), each wrapped in a span; its
  // results must equal the sweep's.
  Tracer& tr = run.trace();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    auto whole = tr.span("sweep.cell", i);
    const Rng root(cell.seed);
    Datacenter estate;
    {
      auto s = tr.span("trace.generate", i);
      estate = generate_datacenter(cell.spec, root.fork("estate")());
    }
    ConsolidationEngine::Config config;
    config.settings = cell.settings;
    config.monitoring_seed = root.fork("monitoring")();
    config.topology_seed = root.fork("topology")();
    ConsolidationEngine engine(std::move(config));
    {
      auto s = tr.span("monitoring.observe", i);
      engine.observe(estate);
    }
    std::optional<ConsolidationEngine::Recommendation> rec;
    {
      auto s = tr.span(plan_span(cell.strategy), i);
      rec = engine.recommend(cell.strategy);
    }
    run.check(rec.has_value(), "traced cell failed to plan");
    if (!rec) continue;
    EmulationReport report;
    {
      auto s = tr.span("emulate.evaluate", i);
      report = engine.evaluate(*rec);
    }
    run.check(digest(rec->provisioned_hosts, rec->total_migrations, report) ==
                  first[i],
              "traced cell differs from the sweep's result");
  }
}

}  // namespace perfbench
