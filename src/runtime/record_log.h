// Durable record log: the one append-only file primitive under the
// telemetry WAL, the decision log (service/telemetry_log) and the sweep
// journal (sweep/journal). Whole-file rewrites go through
// write_file_atomic (runtime/telemetry) instead.
//
// A log file is a caller-encoded header followed by caller-framed records.
// RecordLog owns the file discipline, not the formats:
//  - open/create; any header but an exact match means the file is *stale*
//    (another fleet, grid or format) and it is rewritten as the header;
//  - recovery: a scan driven by the caller's record-length function keeps
//    the intact prefix and truncates a torn tail before appends resume;
//  - append + fdatasync with a status. A write or sync error closes the
//    file and latches: every later append or sync fails too. A failed
//    fsync is never retried — the kernel may have dropped the dirty pages,
//    so a later fsync that "succeeds" proves nothing. Callers pick the
//    policy: the daemon fail-stops, the journal stops journaling.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace vmcw {

/// Pluggable file-I/O + clock surface under record appends: real I/O by
/// default; the chaos layer injects short writes, EINTR, write and fsync
/// errors and fsync stalls (service/io_fault_hooks). `now()` is the only
/// sanctioned wall-clock read under the service layer (vmcw_lint.conf):
/// it times fsyncs for metrics and the shed watermark, never decisions.
class WalIoHooks {
 public:
  virtual ~WalIoHooks() = default;

  /// write(2) semantics: bytes written, or -1 with errno set. May write
  /// short; RecordLog retries short writes and EINTR.
  virtual long write_some(int fd, const std::uint8_t* data, std::size_t size);

  /// fdatasync(2) semantics: 0 on success, -1 with errno set.
  virtual int sync(int fd);

  /// Monotonic seconds; only used to measure sync() latency.
  virtual double now();
};

/// The process-default hooks instance (real I/O).
WalIoHooks& default_wal_io_hooks();

/// write() `size` bytes in full through `hooks`, retrying EINTR and short
/// writes. False on any other error (errno says which).
bool write_fully(WalIoHooks& hooks, int fd, const std::uint8_t* data,
                 std::size_t size);

/// Length of the intact record at `data` (`size` bytes remain), or 0 when
/// what follows is torn or corrupt. It may decode the record into the
/// caller's state on the way; the scan stops at the first 0.
using RecordScanner =
    std::function<std::size_t(const std::uint8_t* data, std::size_t size)>;

/// Offset just past the last intact record of `bytes`, scanning from
/// `offset` (the end of the header).
std::size_t scan_records(const std::vector<std::uint8_t>& bytes,
                         std::size_t offset, const RecordScanner& scanner);

/// Read the file at `path` in full without modifying it. False when it
/// cannot be opened or read.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

class RecordLog {
 public:
  /// What open() kept of an existing file.
  struct Recovery {
    /// The existing records were kept. False: the file holds only the new
    /// header, and the caller drops whatever its scanner collected.
    bool resumed = false;
    bool stale = false;      ///< resume found a file with another header
    bool torn_tail = false;  ///< trailing partial/corrupt record dropped
    std::size_t bytes_discarded = 0;  ///< size of the discarded tail
    /// FNV-1a 64 over the kept bytes (header + intact records).
    std::uint64_t content_hash = 0;
  };

  /// `sync_metric`, when set, is the MetricsRegistry histogram every
  /// sync's latency is recorded into.
  explicit RecordLog(const char* sync_metric = nullptr)
      : sync_metric_(sync_metric) {}
  ~RecordLog() { close(); }

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Open (creating if needed) the log at `path`. With `resume` and an
  /// exact `header` match, the records are scanned and a torn tail is
  /// truncated; otherwise — or when the tail cannot be trimmed — the file
  /// is rewritten as `header` and fdatasync'd. Throws std::runtime_error
  /// when `path` cannot be opened; a failed rewrite leaves the log closed.
  Recovery open(const std::string& path,
                const std::vector<std::uint8_t>& header, bool resume,
                const RecordScanner& scanner) VMCW_EXCLUDES(mutex_);

  /// Reopen for append a file whose records the caller has already
  /// scanned (read_file + scan_records), so recovery reads it once: `end`
  /// is the offset past its last intact record, and a torn tail beyond it
  /// is truncated away. Throws std::runtime_error when `path` cannot be
  /// opened, is shorter than `end`, or its tail cannot be trimmed.
  void reopen(const std::string& path, std::size_t end) VMCW_EXCLUDES(mutex_);

  bool is_open() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return fd_ >= 0;
  }

  /// Append one record with a single write(), then fdatasync it when
  /// `sync`. False — and the log closed for good — on a write or sync
  /// error; false too when the log is not open.
  bool append(const std::uint8_t* data, std::size_t size, bool sync)
      VMCW_EXCLUDES(mutex_);

  /// fdatasync what was appended. Same failure rule as append().
  bool sync() VMCW_EXCLUDES(mutex_);

  void close() VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    close_locked();
  }

  /// Install I/O hooks (nullptr restores the real default). Call before
  /// sharing the log across threads; the pointer itself is unguarded.
  void set_io_hooks(WalIoHooks* hooks) noexcept {
    hooks_ = hooks != nullptr ? hooks : &default_wal_io_hooks();
  }

  /// Latency of the most recent sync (seconds); 0 before the first.
  double last_sync_seconds() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return last_sync_seconds_;
  }

 private:
  bool sync_locked() VMCW_REQUIRES(mutex_);
  void close_locked() VMCW_REQUIRES(mutex_);

  mutable Mutex mutex_;
  int fd_ VMCW_GUARDED_BY(mutex_) = -1;
  double last_sync_seconds_ VMCW_GUARDED_BY(mutex_) = 0.0;
  WalIoHooks* hooks_ = &default_wal_io_hooks();
  const char* sync_metric_;
};

}  // namespace vmcw
