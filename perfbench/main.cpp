// The benchmark program: runs one workload and prints its metrics.
//
//   vmcw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Runs inside the current directory, which it owns: every WAL, snapshot
// and socket lives under ./work, removed before exit. The last stdout line
// is one JSON object {correct, attempted, failed, metrics}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer ones,
// derived from spans the benchmark records around calls into the
// program's public functions. Exit status is 0 only when every output
// check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  void (*fn)(Run&);
};

constexpr Workload kWorkloads[] = {
    {"ingest_open_loop", ingest_open_loop},
    {"controller_churn", controller_churn},
    {"wal_recovery", wal_recovery},
    {"fleet_pack", fleet_pack},
    {"study_sweep", study_sweep},
};

/// One per-layer metric: the median per-call self time of the spans named
/// `span` times `scale`, or (span == nullptr) a value the workload
/// measured directly into Run::layer.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;
  double scale;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"protocol.encode_us", "us", "protocol.encode", 1e6},
    {"protocol.decode_us", "us", "protocol.decode", 1e6},
    {"wal.append_us", "us", "wal.append", 1e6},
    {"wal.sync_us", "us", "wal.sync", 1e6},
    {"ingest.frames_per_batch", "count", nullptr, 1},
    {"ingest.backpressure_stalls", "count", nullptr, 1},
    {"ingest.generator_late_ms", "ms", nullptr, 1},
    {"ingest.ack_p50_ms", "ms", nullptr, 1},
    {"ingest.ack_p99_ms", "ms", nullptr, 1},
    {"controller.apply_us", "us", "controller.apply", 1e6},
    {"controller.tick_ms", "ms", "controller.tick", 1e3},
    {"controller.decisions_per_tick", "count", nullptr, 1},
    {"wal.scan_ms", "ms", "wal.scan", 1e3},
    {"snapshot.read_ms", "ms", "snapshot.read", 1e3},
    {"snapshot.bytes", "B", nullptr, 1},
    {"recovery.suffix_frames", "count", nullptr, 1},
    {"replay.cold_s", "s", "replay.cold", 1},
    {"estate.stream_s", "s", "estate.stream", 1},
    {"estate.blocks_generated", "count", nullptr, 1},
    {"pack.ffd_s", "s", "pack.ffd", 1},
    {"index.first_fit_us", "us", "index.first_fit", 1e6},
    {"trace.generate_s", "s", "trace.generate", 1},
    {"monitoring.observe_s", "s", "monitoring.observe", 1},
    {"plan.semi_static_s", "s", "plan.semi_static", 1},
    {"plan.stochastic_s", "s", "plan.stochastic", 1},
    {"plan.dynamic_s", "s", "plan.dynamic", 1},
    {"emulate.evaluate_s", "s", "emulate.evaluate", 1},
    {"sweep.redundant_observes", "count", nullptr, 1},
    {"traced.op_p50_ms", "ms", nullptr, 1},
    {"traced.op_tail_ms", "ms", nullptr, 1},
};

bool layer_value(const LayerMetric& m, const Run& run, double& out) {
  if (m.span == nullptr) {
    const auto it = run.layer.find(m.name);
    if (it == run.layer.end()) return false;
    out = it->second;
    return true;
  }
  const std::vector<double> self = run.trace().self_seconds(m.span);
  if (self.empty()) return false;
  out = median(self) * m.scale;
  return true;
}

void usage() {
  std::fprintf(stderr,
               "usage: vmcw_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
}

/// Run `w` at `scale` in its own working directory, never letting an
/// exception escape: a throw is a failed output check.
void execute(const Workload& w, Run& run) {
  run.dir = (fs::path("work") / w.name).string();
  fs::remove_all(run.dir);
  fs::create_directories(run.dir);
  try {
    w.fn(run);
  } catch (const std::exception& e) {
    run.check(false, std::string(w.name) + " threw: " + e.what());
  }
  if (run.attempted == 0) run.check(false, "no operation was attempted");
  std::error_code ec;
  fs::remove_all(run.dir, ec);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::atoll(value);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--trace-out") trace_out = value;
    else { usage(); return 2; }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) chosen = &w;
  if (chosen == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }

  Tracer tracer(trace == 1);
  Run run;
  run.seed = static_cast<std::uint64_t>(seed);
  run.seconds = seconds;
  run.tracer = &tracer;
  execute(*chosen, run);

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (trace == 0) {
    const double ok =
        static_cast<double>(run.attempted - std::min(run.failed, run.attempted)) /
        static_cast<double>(std::max<std::uint64_t>(run.attempted, 1));
    metrics["op_p50_ms"] = {median(run.op_ms), "ms"};
    metrics["setup_s"] = {median(run.setup_s), "s"};
    metrics["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
    metrics["ok_frac"] = {ok, "fraction"};
    run.check(!run.op_ms.empty() && run.peak_rss_mb > 0,
              "no operation was timed");
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu ops: p50 %.4g  p75 %.4g  p90 %.4g  p95 %.4g  p99 %.4g  max %.4g ms",
                  run.op_ms.size(), quantile(run.op_ms, 0.5), quantile(run.op_ms, 0.75),
                  quantile(run.op_ms, 0.9), quantile(run.op_ms, 0.95),
                  quantile(run.op_ms, 0.99), quantile(run.op_ms, 1.0));
    run.note(line);
    std::string setups = "set-up samples:";
    for (const double t : run.setup_s) {
      std::snprintf(line, sizeof(line), " %.4g", t);
      setups += line;
    }
    run.note(setups + " s");
  } else {
    // Layers this workload does not reach are measured by every other
    // workload at its small scale, each with its own tracer.
    std::vector<Run> small;
    std::vector<Tracer> small_tracers;
    small_tracers.reserve(std::size(kWorkloads));
    small.reserve(std::size(kWorkloads));
    for (const Workload& w : kWorkloads) {
      if (&w == chosen) continue;
      small_tracers.emplace_back(true);
      Run& r = small.emplace_back();
      r.seed = run.seed;
      r.seconds = 0.3;
      r.scale = Scale::kSmall;
      r.tracer = &small_tracers.back();
      execute(w, r);
      for (const std::string& f : r.check_failures)
        run.check(false, std::string(w.name) + " (small): " + f);
    }
    run.layer["traced.op_p50_ms"] = median(run.op_ms);
    run.layer["traced.op_tail_ms"] = quantile(run.op_ms, run.tail_q);
    for (const LayerMetric& m : kLayerMetrics) {
      double value = 0;
      bool have = layer_value(m, run, value);
      for (std::size_t i = 0; !have && i < small.size(); ++i)
        have = layer_value(m, small[i], value);
      run.check(have, std::string("no samples for ") + m.name);
      metrics[m.name] = {value, m.unit};
    }
    if (!trace_out.empty() && !tracer.write_csv(trace_out))
      run.check(false, "cannot write " + trace_out);
    run.note("spans recorded: " + std::to_string(tracer.span_count()));
  }
  std::error_code ec;
  fs::remove_all("work", ec);

  for (const std::string& line : run.notes) std::printf("%s\n", line.c_str());
  for (const std::string& f : run.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const auto& [name, vu] : metrics)
    std::printf("%-30s %.6g %s\n", name.c_str(), vu.first, vu.second);

  const bool correct = run.check_failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
