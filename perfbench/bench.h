// Shared machinery of the benchmark program: the run record every workload
// fills, latency statistics, and the in-memory span tracer of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hardware/server_spec.h"

namespace perfbench {

/// Monotonic seconds since the first call in this process.
double now_s();

/// Nearest-rank quantile of `samples` (q in [0, 1]; q == 1 is the max).
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// One timed interval of a traced run. Spans of one message, tick or
/// operation share `id`; `parent` indexes the enclosing span (-1: none).
/// `items` > 1 marks a span around a batch of identical calls, whose
/// per-call cost is the span's self time divided by `items`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  double start = 0;
  double end = 0;
  std::uint32_t items = 1;
};

/// Spans recorded by the benchmark's own code around calls into the
/// program's public functions. Single-threaded: only the benchmark's main
/// thread opens spans. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id,
          std::uint32_t items);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Open a span that closes when the returned scope ends; its parent is
  /// the innermost span still open.
  Scope span(const char* name, std::uint64_t id = 0, std::uint32_t items = 1) {
    return Scope(enabled_ ? this : nullptr, name, id, items);
  }

  /// Per-call self time (seconds) of every closed span named `name`: the
  /// span's duration minus the time its direct children cover, divided by
  /// its item count.
  std::vector<double> self_seconds(const std::string& name) const;

  /// Record an already-closed span with no parent (an interval that
  /// overlaps others, such as one message's send-to-Ack time).
  void add(const char* name, std::uint64_t id, double start, double end);

  std::size_t span_count() const noexcept { return spans_.size(); }

  /// Write every span as CSV (name,id,parent,start_s,end_s,items,self_s).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<double> self_of_all() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Problem sizes of one workload run. Full runs use the workload's own
/// defaults; traced runs also execute every other workload at its small
/// scale so that each per-layer metric has samples (see README.md).
enum class Scale { kFull, kSmall };

/// What one workload run records. Workloads push per-operation latencies,
/// set-up repetitions, per-layer values and correctness checks; main()
/// turns the record into the result line.
struct Run {
  std::uint64_t seed = 1;
  double seconds = 10;
  Scale scale = Scale::kFull;
  Tracer* tracer = nullptr;  ///< never null; disabled in untraced runs
  std::string dir;           ///< private working directory, removed after

  std::vector<double> op_ms;       ///< latency of each timed operation
  double peak_rss_mb = 0;          ///< at the end of the timed part
  double tail_q = 1.0;             ///< quantile reported as the op tail
  std::vector<double> setup_s;     ///< one entry per set-up sample
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Per-layer values measured directly (counts, sizes, lateness) rather
  /// than derived from spans.
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  ///< human-readable lines for stdout

  Tracer& trace() const { return *tracer; }
  bool full() const noexcept { return scale == Scale::kFull; }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }

  /// Mark the end of the timed part: records the peak RSS so far, so the
  /// output checks that follow do not count toward it.
  void end_timed();

  /// Run `setup` `samples * per_sample` times. Each sample times
  /// `per_sample` consecutive set-ups and records their mean into setup_s,
  /// so a short set-up is never timed alone. The last set-up's state is
  /// the one the run keeps; `setup` receives the set-up's index and
  /// whether it is that last one.
  void repeat_setup(int samples, int per_sample,
                    const std::function<void(int, bool)>& setup);
};

/// Time CapacityIndex::first_fit for every entry of `needs` against hosts
/// with the given capacities and current loads. Each span covers a batch
/// of calls, so the per-call figure is not dominated by clock reads.
void trace_first_fit(Run& run,
                     const std::vector<vmcw::ResourceVector>& capacity,
                     const std::vector<vmcw::ResourceVector>& load,
                     const std::vector<vmcw::ResourceVector>& needs);

/// Sub-directory of the run's working directory, created fresh.
std::string fresh_dir(const Run& run, const std::string& name);

// Workloads (service_workloads.cpp, batch_workloads.cpp).
void ingest_open_loop(Run& run);
void controller_churn(Run& run);
void wal_recovery(Run& run);
void fleet_pack(Run& run);
void study_sweep(Run& run);

}  // namespace perfbench
