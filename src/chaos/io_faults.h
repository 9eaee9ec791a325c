// Deterministic I/O fault injection for the ingestion front-end.
//
// FaultPlan (chaos/fault_plan) perturbs the *fleet* — crashes, migration
// failures, monitoring gaps. IoFaultPlan perturbs the *pipes*: the sockets
// between collectors and the daemon, and the disk under the telemetry WAL.
// It is a pure schedule, not an actor: the collector client and the WAL
// hook adapters (tests/, tools/vmcw_collector) query it at each I/O point
// and act on the answer, so the same seed produces the same disconnects,
// the same corrupted byte, the same fsync stall windows — on any machine,
// at any thread count, in any arrival order. Storage errors (a failed
// write or fsync) are scripted only, for targeted fail-stop drills.
//
// Determinism contract: every decision is a stateless hash of
// (plan seed, coordinate, salt) in the fault_plan idiom. Collector-side
// faults are keyed by (collector, message index) — adding a collector or
// reordering queries never perturbs another collector's schedule. WAL-side
// stalls are keyed by append block, so stall windows are contiguous runs
// of appends the way a real saturated disk misbehaves for a while, not for
// one write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vmcw {

/// I/O fault intensity knobs. The default-constructed spec injects
/// nothing; validated() clamps hostile values instead of corrupting the
/// schedule (rates into [0, 1], sizes/durations to sane minimums).
struct IoFaultSpec {
  /// Probability that the transport drops the connection right after a
  /// given message is written (the collector must reconnect, re-Hello and
  /// resend everything unacked).
  double disconnect_rate = 0.0;

  /// Probability that a given message is corrupted in flight: one byte of
  /// its encoding is flipped, which the server must catch by checksum and
  /// quarantine with a typed reject.
  double corrupt_rate = 0.0;

  /// Probability that a given message's write is split into two short
  /// writes (exercises the server's torn-frame reassembly).
  double partial_write_rate = 0.0;

  /// Probability that a block of WAL appends falls into an fsync stall
  /// window (see fsync_stall_seconds()); drives the daemon's WAL-stall
  /// shedding without a real slow disk.
  double fsync_stall_rate = 0.0;
  /// Injected fsync latency (virtual seconds) inside a stall window.
  double fsync_stall_seconds = 0.25;
  /// How many consecutive appends one stall window covers.
  std::size_t fsync_stall_appends = 8;

  /// Copy with every knob clamped to its sane range.
  IoFaultSpec validated() const noexcept;

  /// Does this spec inject anything at all?
  bool any() const noexcept {
    return disconnect_rate > 0.0 || corrupt_rate > 0.0 ||
           partial_write_rate > 0.0 || fsync_stall_rate > 0.0;
  }
};

class IoFaultPlan {
 public:
  /// An empty plan (clean pipes); script faults onto it with force_* for
  /// targeted drills and tests.
  IoFaultPlan() = default;

  /// Derive the full I/O fault schedule from `seed`. Deterministic in its
  /// arguments; independent of thread count and query order. `spec` is
  /// run through IoFaultSpec::validated() first.
  static IoFaultPlan generate(const IoFaultSpec& spec, std::uint64_t seed);

  const IoFaultSpec& spec() const noexcept { return spec_; }
  bool any() const noexcept;

  // -- collector-side transport faults --------------------------------
  // `message` is the collector's 0-based count of messages written on the
  // wire (retransmissions advance it too: a resend can fail differently
  // from the original attempt, like a real flaky link).

  /// Drop the connection after writing this message?
  bool disconnect_after(std::uint64_t collector,
                        std::uint64_t message) const noexcept;

  /// Corrupt this message in flight?
  bool corrupt_message(std::uint64_t collector,
                       std::uint64_t message) const noexcept;

  /// Which byte of a `size`-byte encoding the corruption flips (only
  /// meaningful when corrupt_message() is true; size must be > 0).
  std::size_t corrupt_byte(std::uint64_t collector, std::uint64_t message,
                           std::size_t size) const noexcept;

  /// Split this message's write into two short writes?
  bool split_write(std::uint64_t collector,
                   std::uint64_t message) const noexcept;

  /// Where a split write breaks a `size`-byte encoding (in [1, size-1];
  /// size must be >= 2).
  std::size_t split_point(std::uint64_t collector, std::uint64_t message,
                          std::size_t size) const noexcept;

  // -- WAL-side fsync stalls ------------------------------------------

  /// Injected fsync latency (virtual seconds) for the `append_index`-th
  /// WAL append; 0 when the disk is healthy at that point. Scripted
  /// windows (force_stall_window) take precedence over hashed ones.
  double fsync_stall(std::uint64_t append_index) const noexcept;

  // -- scripting (drills/tests) ---------------------------------------

  void force_disconnect(std::uint64_t collector, std::uint64_t message);
  void force_corrupt(std::uint64_t collector, std::uint64_t message);

  /// Appends [first, first + appends) report `seconds` of fsync latency.
  void force_stall_window(std::uint64_t first_append, std::uint64_t appends,
                          double seconds);

  // -- WAL-side storage errors (scripted only) --------------------------
  // `write` and `sync` are 0-based counts of the hooks' write_some() and
  // sync() calls (service/io_fault_hooks); the hashed schedule never
  // injects these, so a generate()d plan stays error-free.

  /// Write call `write` fails with errno `err` (EIO, ENOSPC, ...). The
  /// adapter delivers ENOSPC the way a filling disk does: that call writes
  /// a short prefix, and every write after it fails with ENOSPC.
  void force_write_error(std::uint64_t write, int err);
  /// Sync call `sync` fails with EIO.
  void force_fsync_error(std::uint64_t sync);

  /// The errno scripted for write call `write`, or 0.
  int write_error(std::uint64_t write) const noexcept;
  /// Is sync call `sync` scripted to fail?
  bool fsync_error(std::uint64_t sync) const noexcept;

 private:
  struct StallWindow {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    double seconds = 0.0;
  };

  IoFaultSpec spec_;
  std::uint64_t seed_ = 0;
  bool hashed_ = false;  ///< generate()d (vs scripted-only)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> forced_disconnects_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> forced_corruptions_;
  std::vector<StallWindow> forced_stalls_;
  std::vector<std::pair<std::uint64_t, int>> forced_write_errors_;
  std::vector<std::uint64_t> forced_fsync_errors_;
};

}  // namespace vmcw
