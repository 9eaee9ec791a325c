// The durable-I/O layer: byte pins on every on-disk format written through
// it (WAL segment chain, decision log, sweep journal, snapshot), the
// record log's recovery and failure rules, and write_file_atomic under
// concurrent writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "runtime/record_log.h"
#include "runtime/telemetry.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/daemon.h"
#include "service/snapshot.h"
#include "service/telemetry_log.h"
#include "sweep/journal.h"

namespace vmcw {
namespace {

namespace fs = std::filesystem;
using namespace vmcw::service;

std::string temp_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::uint64_t fnv(const std::string& bytes) {
  return wire::fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
}

std::vector<Frame> pin_churn() {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 24;
  churn.ticks = 8;
  churn.arrivals_per_tick = 1.5;
  churn.departure_prob = 0.05;
  churn.blackout_prob = 0.0;
  churn.mean_host_fraction = 0.3;
  churn.seed = 11;
  return generate_churn(churn, ControllerConfig{});
}

/// A segmented WAL of the pin stream, 16 frames per segment.
std::string write_pin_chain(const std::string& dir) {
  const std::string path = dir + "/pin.wal";
  SegmentedFrameLog wal;
  wal.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false,
           /*segment_frames=*/16);
  for (const Frame& frame : pin_churn()) wal.append(frame, /*sync=*/false);
  wal.sync();
  wal.close();
  return path;
}

SweepCellResult pin_result(std::size_t index) {
  SweepCellResult r;
  r.index = index;
  r.workload = "banking";
  r.strategy = Strategy::kDynamic;
  r.seed = 7 + index;
  r.planned = true;
  r.attempts = 2;
  r.provisioned_hosts = 12 + index;
  r.total_migrations = 3;
  r.report.eval_hours = 168;
  r.report.intervals = 42;
  r.report.active_hosts_per_interval = {4, 5, 6};
  r.report.host_avg_cpu_util = {0.25, 0.5};
  r.report.energy_wh = 1234.5;
  r.robustness.emulation = r.report;
  r.robustness.host_crashes = 1;
  r.robustness.incidents.push_back(IncidentRecord{});
  r.robustness.sla_violation_intervals = {{1, 3}};
  r.wall_seconds = 0.125;
  return r;
}

// ------------------------------------------------------ on-disk format pins
//
// FNV-1a 64 of each format built from fixed inputs, recorded before the
// durable writers were folded onto RecordLog and write_file_atomic. A
// change here is an on-disk format change: every WAL, journal and snapshot
// in the field would stop resuming.

TEST(FormatPins, WalSegmentChain) {
  const std::string dir = temp_dir("vmcw_pin_chain");
  const std::string path = write_pin_chain(dir);
  std::string chain;
  std::size_t segments = 0;
  while (fs::exists(segment_path(path, segments + 1)))
    chain += file_bytes(segment_path(path, ++segments));
  EXPECT_EQ(segments, 6u);
  EXPECT_EQ(fnv(chain), 0x741e5d9323f76d29ull);
}

TEST(FormatPins, DecisionLog) {
  const std::string dir = temp_dir("vmcw_pin_decisions");
  const std::string path = write_pin_chain(dir);
  replay_wal(path, dir + "/pin.decisions", ControllerConfig{},
             /*resume=*/false, /*durable=*/false);
  EXPECT_EQ(fnv(file_bytes(dir + "/pin.decisions")), 0x164cc254b12e32baull);
}

TEST(FormatPins, SweepJournal) {
  const std::string dir = temp_dir("vmcw_pin_journal");
  const std::string path = dir + "/pin.journal";
  {
    SweepJournal journal;
    journal.open(path, /*grid_hash=*/0x5eed, /*cell_count=*/4,
                 /*resume=*/false);
    journal.append_failed_attempt(1, 1, CellStatus::kFailed, "transient");
    journal.append_result(pin_result(0));
    journal.append_result(pin_result(1));
  }
  EXPECT_EQ(fnv(file_bytes(path)), 0x83a16e582aa63975ull);
}

TEST(FormatPins, Snapshot) {
  const std::string dir = temp_dir("vmcw_pin_snapshot");
  const std::string path = dir + "/ctrl.snap";
  SnapshotData data;
  data.frames_covered = 42;
  data.batches_emitted = 7;
  data.shutdowns_covered = 3;
  data.controller_state = {1, 2, 3, 4, 5};
  data.ack_marks = {{"collector-0", 17}, {"collector-1", 9}};
  ASSERT_TRUE(write_snapshot(path, 0xabcd, data));
  EXPECT_EQ(fnv(file_bytes(path)), 0x9724d48cdf9c59d0ull);
}

// ---------------------------------------------------------------- RecordLog

/// Test framing: one length byte, then that many payload bytes.
std::vector<std::uint8_t> record(std::uint8_t fill, std::uint8_t len) {
  std::vector<std::uint8_t> r(1 + len, fill);
  r[0] = len;
  return r;
}

/// Scanner over the test framing, counting the records it accepts.
RecordScanner count_into(std::size_t& records) {
  return [&records](const std::uint8_t* data, std::size_t size) -> std::size_t {
    if (size < 1u + data[0]) return 0;
    ++records;
    return 1u + data[0];
  };
}

const std::vector<std::uint8_t> kHeader = {'T', 'E', 'S', 'T', 1};

TEST(RecordLog, ResumeKeepsIntactRecordsAndTruncatesTheTornTail) {
  const std::string dir = temp_dir("vmcw_rlog_torn");
  const std::string path = dir + "/log";
  std::size_t records = 0;
  {
    RecordLog log;
    const auto fresh = log.open(path, kHeader, /*resume=*/true,
                                count_into(records));
    EXPECT_FALSE(fresh.resumed || fresh.stale);
    for (std::uint8_t i = 1; i <= 3; ++i) {
      const auto r = record(i, 4 * i);
      ASSERT_TRUE(log.append(r.data(), r.size(), /*sync=*/i == 3));
    }
    const auto torn = record(9, 40);  // only 10 bytes land: a crash
    ASSERT_TRUE(log.append(torn.data(), 10, /*sync=*/true));
  }
  const std::size_t intact = kHeader.size() + 5 + 9 + 13;

  RecordLog log;
  const auto rec = log.open(path, kHeader, /*resume=*/true,
                            count_into(records));
  EXPECT_TRUE(rec.resumed);
  EXPECT_FALSE(rec.stale);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.bytes_discarded, 10u);
  EXPECT_EQ(records, 3u);
  EXPECT_EQ(fs::file_size(path), intact);
  const std::string kept = file_bytes(path);
  EXPECT_EQ(rec.content_hash, fnv(kept));

  // Appends continue right after the intact prefix.
  const auto next = record(4, 2);
  ASSERT_TRUE(log.append(next.data(), next.size(), /*sync=*/true));
  log.close();
  EXPECT_EQ(fs::file_size(path), intact + next.size());
}

TEST(RecordLog, ForeignHeaderIsStaleAndRewritten) {
  const std::string dir = temp_dir("vmcw_rlog_stale");
  const std::string path = dir + "/log";
  std::size_t records = 0;
  {
    RecordLog log;
    log.open(path, kHeader, /*resume=*/false, count_into(records));
    const auto r = record(1, 8);
    ASSERT_TRUE(log.append(r.data(), r.size(), /*sync=*/true));
  }
  const std::vector<std::uint8_t> other = {'T', 'E', 'S', 'T', 2};
  RecordLog log;
  const auto rec = log.open(path, other, /*resume=*/true, count_into(records));
  EXPECT_TRUE(rec.stale);
  EXPECT_FALSE(rec.resumed);
  EXPECT_EQ(records, 0u);  // a stale file's records are never scanned
  log.close();
  EXPECT_EQ(file_bytes(path), std::string(other.begin(), other.end()));
}

TEST(RecordLog, ConcurrentAppendsNeverInterleave) {
  const std::string dir = temp_dir("vmcw_rlog_threads");
  const std::string path = dir + "/log";
  std::size_t records = 0;
  RecordLog log;
  log.open(path, kHeader, /*resume=*/false, count_into(records));
  std::vector<std::thread> writers;
  for (std::uint8_t t = 0; t < 4; ++t)
    writers.emplace_back([&log, t] {
      for (int i = 0; i < 200; ++i) {
        const auto r = record(t, static_cast<std::uint8_t>(1 + (i + t) % 50));
        log.append(r.data(), r.size(), /*sync=*/false);
      }
    });
  for (auto& w : writers) w.join();
  ASSERT_TRUE(log.sync());
  log.close();

  // Every record reads back whole: one fill byte throughout its payload.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(path, bytes));
  std::size_t whole = 0;
  const std::size_t end =
      scan_records(bytes, kHeader.size(),
                   [&whole](const std::uint8_t* data, std::size_t size) {
                     const std::size_t n = 1u + data[0];
                     if (size < n) return std::size_t{0};
                     for (std::size_t i = 2; i < n; ++i)
                       if (data[i] != data[1]) return std::size_t{0};
                     ++whole;
                     return n;
                   });
  EXPECT_EQ(end, bytes.size());
  EXPECT_EQ(whole, 800u);
}

// --------------------------------------------------------- write_file_atomic

TEST(WriteFileAtomic, RacingWritersNeverMixTruncateOrLeaveTempFiles) {
  const std::string dir = temp_dir("vmcw_atomic_race");
  const std::string path = dir + "/out.txt";
  const std::string a(64 * 1024, 'a');
  const std::string b(96 * 1024, 'b');
  std::atomic<bool> failed{false};
  const auto rewrite = [&](const std::string& content) {
    for (int i = 0; i < 500; ++i)
      if (!write_file_atomic(path, content)) failed.store(true);
  };
  std::atomic<bool> done{false};
  std::size_t reads = 0, torn = 0;
  std::thread reader([&] {
    while (!done.load()) {
      // Once the path exists it always does: rename replaces it whole.
      if (!fs::exists(path)) continue;
      const std::string seen = file_bytes(path);
      ++reads;
      if (seen != a && seen != b) ++torn;
    }
  });
  std::thread wa(rewrite, a), wb(rewrite, b);
  wa.join();
  wb.join();
  done.store(true);
  reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(torn, 0u) << "of " << reads << " concurrent reads";
  const std::string final_bytes = file_bytes(path);
  EXPECT_TRUE(final_bytes == a || final_bytes == b);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  EXPECT_EQ(names, std::vector<std::string>{"out.txt"});
  EXPECT_EQ(fs::status(path).permissions() & fs::perms::all,
            fs::perms::owner_read | fs::perms::owner_write |
                fs::perms::group_read | fs::perms::others_read);
}

TEST(WriteFileAtomic, FailureReportsFalseAndLeavesNothing) {
  const std::string dir = temp_dir("vmcw_atomic_fail");
  EXPECT_FALSE(write_file_atomic(dir + "/missing/out.txt", "x"));
  EXPECT_TRUE(fs::is_empty(dir));
}

}  // namespace
}  // namespace vmcw
