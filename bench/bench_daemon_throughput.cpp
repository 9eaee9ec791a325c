// Daemon throughput bench: the incremental controller against a large
// churn WAL.
//
// Generates a deterministic churn stream sized to pack a >=10k-host fleet
// (default: 25k VMs at ~0.45 host-fractions each, one tick of mass
// arrival then steady churn), records it to a real segmented WAL, then
// drives the controller frame-by-frame exactly as the daemon's replay
// path does — timing every tick. Decision *counts* on stdout and in the
// .dat artifact are deterministic; wall-clock numbers go only to the
// BENCH_daemon_throughput.json sidecar.
//
//   bench_daemon_throughput [vms] [ticks]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <variant>
#include <vector>

#include "common.h"
#include "core/study.h"
#include "service/churn.h"
#include "service/daemon.h"
#include "service/telemetry_log.h"

using namespace vmcw;
using namespace vmcw::service;

namespace {

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer total_timer;
  bench::print_header("Daemon throughput",
                      "Incremental controller vs a 10k-host churn WAL");

  ChurnOptions churn;
  churn.initial_vms = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1]))
                               : 25000;
  churn.ticks = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 12;
  churn.agents = 64;
  churn.apps = 12;
  churn.arrivals_per_tick = static_cast<double>(churn.initial_vms) * 0.002;
  churn.departure_prob = 0.001;
  // ~0.45 of a host each under a 0.8 bound: most hosts take one VM, so the
  // fleet the WAL drives has roughly as many hosts as VMs.
  churn.mean_host_fraction = 0.45;
  churn.seed = kStudySeed;

  ControllerConfig config;
  const auto frames = generate_churn(churn, config);
  std::printf("churn: %zu frames, %zu initial VMs, %zu ticks\n\n",
              frames.size(), churn.initial_vms, churn.ticks);

  // Record the stream to a real WAL first (bulk append + one sync), so the
  // bench measures the same artifact the daemon would replay.
  const std::string wal_path = "bench_daemon_throughput.wal";
  const std::string decisions_path = "bench_daemon_throughput.decisions";
  {
    SegmentedFrameLog wal;
    wal.open(wal_path, fleet_config_hash(config), /*resume=*/false,
             Daemon::Options{}.segment_frames);
    for (const Frame& frame : frames) wal.append(frame, /*sync=*/false);
    wal.sync();
  }
  const WalContents recorded = read_segmented_wal(wal_path);

  // Drive the controller over the recorded frames, decision log riding
  // along (non-durable: this bench measures compute, not fdatasync).
  IncrementalController controller(config);
  FrameLog decisions;
  decisions.open(decisions_path, fleet_config_hash(config), /*resume=*/false);

  std::size_t ticks = 0, decision_count = 0;
  std::size_t admits = 0, migrations = 0, holds = 0;
  std::vector<double> tick_ms;
  const bench::WallTimer run_timer;
  bench::WallTimer tick_timer;
  for (const Frame& frame : recorded.frames) {
    if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
      const DecisionBatchFrame batch = controller.tick(flush->tick);
      decisions.append(Frame{batch}, /*sync=*/false);
      ++ticks;
      decision_count += batch.decisions.size();
      for (const Decision& d : batch.decisions) {
        if (d.action == DecisionAction::kAdmit) ++admits;
        else if (d.action == DecisionAction::kMigrate) ++migrations;
        else ++holds;
      }
      tick_ms.push_back(tick_timer.seconds() * 1e3);
      tick_timer = bench::WallTimer();
    } else if (!std::holds_alternative<DecisionBatchFrame>(frame)) {
      controller.apply(frame);
    }
  }
  const double run_seconds = run_timer.seconds();
  decisions.sync();
  decisions.close();

  std::sort(tick_ms.begin(), tick_ms.end());
  const double p50 = percentile(tick_ms, 0.50);
  const double p99 = percentile(tick_ms, 0.99);
  const double rate =
      run_seconds > 0 ? static_cast<double>(decision_count) / run_seconds : 0;

  // Deterministic section (byte-identical at any VMCW_THREADS).
  std::string dat;
  char line[160];
  std::snprintf(line, sizeof(line), "frames            %zu\n",
                recorded.frames.size());
  dat += line;
  std::snprintf(line, sizeof(line), "ticks             %zu\n", ticks);
  dat += line;
  std::snprintf(line, sizeof(line), "decisions         %zu\n", decision_count);
  dat += line;
  std::snprintf(line, sizeof(line),
                "  admits %zu  migrations %zu  holds %zu\n", admits,
                migrations, holds);
  dat += line;
  std::snprintf(line, sizeof(line), "resident VMs      %zu\n",
                controller.resident_vms());
  dat += line;
  std::snprintf(line, sizeof(line), "active hosts      %zu\n",
                controller.active_hosts());
  dat += line;
  std::printf("%s", dat.c_str());
  bench::write_dat(dat);

  // Timing section (sidecar only; not determinism-checked).
  std::printf("\ncontroller run: %.3f s, %.0f decisions/sec\n", run_seconds,
              rate);
  std::printf("per-tick latency: p50 %.2f ms, p99 %.2f ms\n", p50, p99);

  bench::write_bench_json(
      "daemon_throughput", total_timer.seconds(), "decisions_per_sec", rate,
      {{"frames", static_cast<double>(recorded.frames.size())},
       {"ticks", static_cast<double>(ticks)},
       {"decisions", static_cast<double>(decision_count)},
       {"active_hosts", static_cast<double>(controller.active_hosts())},
       {"resident_vms", static_cast<double>(controller.resident_vms())},
       {"tick_p50_ms", p50},
       {"tick_p99_ms", p99}});

  if (ticks == 0 || decision_count == 0) {
    std::printf("FAIL: churn WAL produced no decisions\n");
    return 1;
  }
  std::printf("telemetry sidecar: telemetry_daemon_throughput.json\n");
  return 0;
}
