// Telemetry write-ahead log: the durable frame stream under the daemon.
//
// The daemon is WAL-first: a frame is appended (and fdatasync'd) *before*
// the controller sees it, so a live session and a replay of its WAL feed
// the controller the exact same frame sequence — which, with a
// deterministic controller, makes live and replay decisions bit-identical.
// The decision log is the same format pointed at the output side: every
// DecisionBatch the controller emits is appended before it is reported, so
// a SIGKILL between any two batches leaves a resumable prefix.
//
// Both are RecordLog files (runtime/record_log), like the sweep journal: a
// header binds the file to one fleet configuration (magic + version +
// fleet-config hash), and each record is one protocol frame — already
// kind/length/checksum framed by service/protocol — written with a single
// write(). Recovery at open():
//  - header missing/unreadable or fleet hash mismatch: the log is *stale*
//    (the fleet shape changed); it is truncated and rewritten. Resuming
//    never mixes streams across fleet configurations.
//  - a torn tail (partial frame from a crash, or a checksum mismatch): the
//    tail is truncated away and every intact frame before it is returned.
//
// The two differ in header version. The decision log is one version-1 file.
// The WAL is always a SegmentedFrameLog chain of version-2 segment files
// (`<path>.segNNNNNN`), whose headers add a base ordinal — the global frame
// index of the file's first record: the chain is validated by base
// continuity at open, segments older than the newest durable snapshot are
// reclaimable (service/snapshot, DESIGN.md §9), and a torn tail is
// confined to the newest segment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/record_log.h"
#include "service/protocol.h"

namespace vmcw::service {

// The file-I/O hooks live with the append path in runtime/record_log;
// service-layer callers and hook subclasses name them from here.
using vmcw::default_wal_io_hooks;
using vmcw::WalIoHooks;

/// Append-side handle on one frame-log file: the decision log, or one
/// segment of the telemetry WAL (inside SegmentedFrameLog).
class FrameLog {
 public:
  /// What open() recovered from an existing log: the record log's
  /// verdict (stale, torn tail, content hash) plus the intact frames.
  struct Recovery : RecordLog::Recovery {
    std::vector<Frame> frames;  ///< intact frames, in append order
  };

  /// Open (creating if needed) the log at `path` bound to `fleet_hash`.
  /// With `resume`, an existing matching log's intact frames are
  /// recovered; without it — or when the log is stale or unreadable — the
  /// file is rewritten with a fresh header. Throws std::runtime_error when
  /// the path cannot be created or its header written. `version` selects
  /// the header layout: 1 is the decision log; 2 stamps `base_ordinal`
  /// (the global index of the file's first frame) for WAL segment files —
  /// SegmentedFrameLog is the only caller that passes 2.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint32_t version = 1, std::uint64_t base_ordinal = 0);

  /// Reopen for append a file already read up to `end`, the offset past
  /// its last intact frame (RecordLog::reopen).
  void reopen(const std::string& path, std::size_t end) {
    log_.reopen(path, end);
  }

  bool is_open() const { return log_.is_open(); }

  /// Append one frame as a single write(). With `sync` (the default) the
  /// record is fdatasync'd before returning — the WAL-first guarantee;
  /// bulk producers batch with sync=false and call sync() at the end.
  /// False when the frame is not known durable: the log is then closed
  /// for good (runtime/record_log) and the daemon fail-stops. Every sync's
  /// latency goes to MetricsRegistry ("service.wal_fsync_seconds") and to
  /// last_sync_seconds(), which the ingestion stall detector reads.
  bool append(const Frame& frame, bool sync = true);

  bool sync() { return log_.sync(); }
  void close() { log_.close(); }

  /// Install I/O hooks (nullptr restores the real default). Call before
  /// sharing the log across threads.
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

  /// Latency of the most recent fdatasync (seconds); 0 before the first.
  /// The ingestion front-end's WAL-stall detector reads this after every
  /// durable append.
  double last_sync_seconds() const { return log_.last_sync_seconds(); }

 private:
  RecordLog log_{"service.wal_fsync_seconds"};
};

/// A recorded WAL, read without modifying the file (replay mode).
struct WalContents {
  std::uint64_t fleet_hash = 0;  ///< binding hash from the header
  std::uint32_t version = 1;     ///< 1 = decision log, 2 = WAL segment
  /// Global frame index of frames[0]; always 0 for version-1 files. After
  /// segment reclamation a chain's head base records how many frames of
  /// history were compacted away into the snapshot.
  std::uint64_t base_ordinal = 0;
  std::vector<Frame> frames;  ///< intact frames, in append order
  bool torn_tail = false;     ///< file ends in a partial/corrupt frame
  /// FNV-1a 64 over the valid byte range (header + intact frames).
  std::uint64_t content_hash = 0;
};

/// Read a frame WAL read-only. Throws std::runtime_error when the file
/// cannot be read or its header is not a frame WAL; a torn tail is not an
/// error (the intact prefix is returned with torn_tail set).
WalContents read_frame_log(const std::string& path);

/// Read the telemetry WAL rooted at `path` (its `path + ".segNNNNNN"`
/// segment chain) without modifying it. Segments are stitched in
/// base-ordinal order; chain breaks (gap, fleet mismatch, torn tail in a
/// sealed segment) end the stitch there, mirroring what
/// SegmentedFrameLog::open would keep. Throws std::runtime_error when no
/// readable segment exists.
WalContents read_segmented_wal(const std::string& path);

/// Path of segment file `index` of the chain rooted at `path`
/// (e.g. "live.wal.seg000003").
std::string segment_path(const std::string& path, std::size_t index);

/// The telemetry WAL: one logical frame stream split across sealed,
/// checksummed segment files plus an active tail segment.
///
/// Rotation: once the active segment holds `segment_frames` frames, the
/// next append seals it (fdatasync + close) and opens the next segment
/// with a version-2 header carrying the chain's running base ordinal.
/// Retention: reclaim_before(n) unlinks only sealed segments whose entire
/// range is below n — the caller passes the newest durable snapshot's
/// frames_covered, so the active segment and every post-snapshot segment
/// are never deleted (DESIGN.md §9 retention invariant).
///
/// Rotation state is writer-thread-owned like the rest of the append path;
/// the inner RecordLog keeps its own lock for the observational readers
/// (last_sync_seconds).
class SegmentedFrameLog {
 public:
  struct Recovery {
    std::vector<Frame> frames;  ///< intact frames across the kept chain
    bool stale = false;         ///< existing chain was for a different fleet
    bool torn_tail = false;     ///< trailing partial/corrupt frame dropped
    /// Global ordinal of frames[0]; > 0 when pre-snapshot segments were
    /// reclaimed before the crash (the caller needs a snapshot covering at
    /// least this many frames, or recovery must refuse).
    std::uint64_t base_ordinal = 0;
    std::uint64_t frames_decoded = 0;  ///< open()'s cost; observational
  };

  /// Open the chain rooted at `path`, reading and decoding each kept
  /// segment once; without `resume` every segment is unlinked. Throws
  /// std::invalid_argument when `segment_frames` is 0.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint64_t segment_frames);

  /// Append one frame, rotating first when the active segment is full.
  /// False when the frame is not known durable (FrameLog::append).
  bool append(const Frame& frame, bool sync = true);
  bool sync() { return log_.sync(); }
  void close() { log_.close(); }
  double last_sync_seconds() const { return log_.last_sync_seconds(); }
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

  /// Global ordinal the next append would get (== total durable frames).
  std::uint64_t next_ordinal() const noexcept {
    return active_base_ + active_count_;
  }

  /// Unlink sealed segments wholly below `ordinal` (never the active one).
  /// Returns how many files were reclaimed.
  std::size_t reclaim_before(std::uint64_t ordinal);

 private:
  struct Segment {
    std::string path;
    std::uint64_t base = 0;
    std::uint64_t frames = 0;
  };

  bool rotate();

  FrameLog log_;
  std::string path_;
  std::uint64_t fleet_hash_ = 0;
  std::uint64_t segment_frames_ = 0;
  std::vector<Segment> sealed_;
  std::size_t active_index_ = 1;
  std::uint64_t active_base_ = 0;
  std::uint64_t active_count_ = 0;
};

}  // namespace vmcw::service
