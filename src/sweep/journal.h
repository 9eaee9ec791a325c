// Crash-safe cell journal: the durability layer under SweepDriver.
//
// A production-scale sweep is hours of grid computation; an OOM kill or a
// preempted container must not forfeit the cells already finished. The
// journal is an append-only binary file next to the bench's telemetry
// sidecar: a header binds it to one exact grid (a content hash over every
// SweepCell — spec, settings, strategy, seed, faults, chaos options — plus
// the cell count), and each completed SweepCellResult is appended as one
// length- and checksum-framed record written with a single write() and
// fdatasync'd, so a record is either fully present or detectably torn.
// The file discipline is RecordLog's (runtime/record_log); this file owns
// only the header and record formats. A failed write or fdatasync stops
// journaling for good — no record ever follows it — and the sweep keeps
// computing; a resume recomputes whatever the journal lacks.
//
// Recovery rules, applied at open():
//  - header missing/unreadable, or grid hash / cell count mismatch: the
//    journal is *stale* (the grid was edited since it was written); it is
//    discarded and rewritten. Resuming never mixes results across grids.
//  - a torn tail (partial record from a crash mid-append, or a checksum
//    mismatch): the tail is truncated away and every intact record before
//    it is replayed. The interrupted cell simply recomputes.
//
// Two record kinds keep retries deterministic across crashes: kResult is a
// cell's terminal outcome (success, planner failure, or a failure that
// exhausted its retry budget) and is replayed on resume; kAttemptFailed
// logs one consumed attempt of a cell that will be retried, so a resumed
// sweep continues the retry count instead of resetting it. An attempt
// interrupted by the crash itself leaves no record and costs no budget.
//
// Replayed cells are byte-identical to recomputed ones because a cell is a
// pure function of its SweepCell and the serialization round-trips every
// field bit-exactly (doubles as IEEE-754 bit patterns).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/record_log.h"
#include "sweep/sweep.h"

namespace vmcw {

/// Content hash of an entire sweep grid: every field of every cell, in
/// order. Any edit — a changed knob, an added seed, a reordered strategy —
/// yields a different hash, which is how stale journals are detected.
std::uint64_t sweep_grid_hash(std::span<const SweepCell> cells);

class SweepJournal {
 public:
  /// What open() recovered from an existing journal: the record log's
  /// verdict (stale grid, torn tail) plus the replayable records.
  struct Recovery : RecordLog::Recovery {
    /// Terminal cell records, in append order (at most one per index is
    /// kept — the last wins).
    std::vector<SweepCellResult> results;
    /// Highest failed-attempt number journaled per cell index, for cells
    /// without a terminal record yet.
    std::vector<std::pair<std::size_t, int>> attempts_used;
  };

  /// Open (creating if needed) the journal at `path` for the grid
  /// identified by (grid_hash, cell_count). With `resume`, an existing
  /// matching journal's records are recovered; without it — or when the
  /// journal is stale or unreadable — the file is rewritten with a fresh
  /// header. Throws std::runtime_error only when the path cannot be
  /// created at all; a journal that cannot be rewritten stays closed.
  Recovery open(const std::string& path, std::uint64_t grid_hash,
                std::size_t cell_count, bool resume);

  /// False once journaling stopped: never opened, or an append or its
  /// fdatasync failed (the sweep keeps computing without it).
  bool is_open() const { return log_.is_open(); }

  /// Append a terminal record for one cell. Thread-safe; the record is a
  /// single write() followed by fdatasync, so a crash leaves either no
  /// trace or a complete, replayable record.
  void append_result(const SweepCellResult& result);

  /// Append a consumed-attempt record for a cell that will be retried.
  void append_failed_attempt(std::size_t index, int attempt,
                             CellStatus status, const std::string& error);

  /// Route appends through `hooks` (nullptr restores real I/O); how tests
  /// inject journal write and fsync failures. Call before open().
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

  void close() { log_.close(); }

 private:
  void append_record(std::uint8_t kind,
                     const std::vector<std::uint8_t>& payload);

  RecordLog log_;
};

}  // namespace vmcw
