// The daemon workloads: open-loop socket ingestion, direct controller
// churn and crash recovery. All three drive only the public service API
// (Daemon, IngestServer, replay_wal, read_segmented_wal, read_snapshot)
// over a segmented WAL, and all three check their outputs the same way:
// the live decision log must equal a cold replay of its WAL, and a daemon
// resumed from its snapshot must emit the same next batch as one resumed
// by full replay.
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/daemon.h"
#include "service/ingest.h"
#include "service/snapshot.h"
#include "service/telemetry_log.h"

namespace perfbench {

using namespace vmcw;
using namespace vmcw::service;
namespace fs = std::filesystem;

namespace {

ChurnOptions churn_options(std::size_t vms, std::size_t agents,
                           std::size_t ticks, std::uint64_t seed) {
  ChurnOptions churn;
  churn.initial_vms = vms;
  churn.ticks = ticks;
  churn.agents = agents;
  churn.apps = 12;
  churn.arrivals_per_tick = static_cast<double>(vms) * 0.002;
  churn.departure_prob = 0.001;
  churn.mean_host_fraction = 0.45;
  churn.seed = seed;
  return churn;
}

Daemon::Options daemon_options(const std::string& dir) {
  Daemon::Options o;
  o.wal_path = dir + "/live.wal";
  o.decisions_path = dir + "/live.decisions";
  o.segment_frames = 1024;
  o.snapshot_path = dir + "/ctrl.snap";
  // The full chain stays on disk so that the cold replay check can run.
  o.retain_segments = true;
  return o;
}

/// WAL I/O as on a tmpfs: writes are real (into the page cache) and the
/// whole sync path runs, timing included, but fdatasync returns at once
/// instead of waiting for the shared virtual disk, whose latency moves
/// between runs by more than the daemon's own work (README.md). The
/// per-layer wal.sync_us still times real fdatasync calls.
class TmpfsLikeHooks : public WalIoHooks {
 public:
  int sync(int) override { return 0; }
};

TmpfsLikeHooks& tmpfs_like_hooks() {
  static TmpfsLikeHooks hooks;
  return hooks;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool is_flush(const Frame& f) { return std::holds_alternative<FlushFrame>(f); }

/// Re-point a daemon's files from `from` to the copy at `to`.
Daemon::Options moved(Daemon::Options o, const std::string& from,
                      const std::string& to) {
  const auto swap = [&](std::string& p) {
    if (!p.empty()) p = to + p.substr(from.size());
  };
  swap(o.wal_path);
  swap(o.decisions_path);
  swap(o.snapshot_path);
  return o;
}

/// The output checks every daemon workload ends with, on a closed daemon
/// whose files live in `dir`:
///  - replay_wal of the WAL writes a decision log byte-equal to the live
///    one;
///  - the daemon resumed from its snapshot emits the same next batch as a
///    daemon resumed by replaying the whole WAL (no snapshot).
void check_daemon_outputs(Run& run, const ControllerConfig& config,
                          const Daemon::Options& live, std::uint64_t next_tick) {
  // Each resume check runs on its own copy of the live files, so the
  // originals stay as the live run left them; the cold replay reads them
  // beside the resume checks (all of this is untimed).
  const std::string dir = fs::path(live.wal_path).parent_path().string();
  const auto resume_copy = [&](const std::string& suffix, bool snapshot,
                               bool* snapshot_loaded) {
    const std::string copy = dir + suffix;
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    Daemon::Options o = moved(live, dir, copy);
    if (!snapshot) o.snapshot_path.clear();
    o.resume = true;
    o.durable = false;
    Daemon daemon(config, o);
    const auto opened = daemon.open();
    if (snapshot_loaded != nullptr) *snapshot_loaded = opened.snapshot_loaded;
    const DecisionBatchFrame next = daemon.ingest(FlushFrame{next_tick});
    daemon.close();
    fs::remove_all(copy);
    return next;
  };

  const std::string replayed = run.dir + "/replay.decisions";
  std::exception_ptr replay_error;
  std::jthread replay([&] {
    try {
      replay_wal(live.wal_path, replayed, config, /*resume=*/false,
                 /*durable=*/false);
    } catch (...) {
      replay_error = std::current_exception();
    }
  });

  const DecisionBatchFrame cold = resume_copy(".cold", false, nullptr);
  bool loaded = false;
  const DecisionBatchFrame warm = resume_copy(".warm", true, &loaded);
  run.check(loaded, "resume did not load the snapshot");
  run.check(warm == cold,
            "snapshot resume and cold resume emit different next batches");

  replay.join();
  if (replay_error) std::rethrow_exception(replay_error);
  run.check(file_bytes(replayed) == file_bytes(live.decisions_path),
            "replay_wal decision log differs from the live one");
  fs::remove(replayed);
}

/// Per-layer decomposition of the daemon's frame path, traced: every
/// frame past `warm_end` is encoded and decoded (protocol), appended to a
/// non-durable WAL and then synced by a WAL probe (wal), and applied
/// (controller). Frames up to `warm_end` are applied untraced first, as in
/// the workload's set-up. Runs over its own directory, so the workload's
/// files stay untouched.
void trace_frame_path(Run& run, const ControllerConfig& config,
                      const std::vector<Frame>& frames, std::size_t warm_end) {
  Tracer& tr = run.trace();
  Daemon::Options o = daemon_options(fresh_dir(run, "layers"));
  o.durable = false;
  Daemon daemon(config, o);
  daemon.open();
  const std::vector<Frame> warm(
      frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(warm_end + 1));
  daemon.append_many(warm);
  for (const Frame& f : warm) daemon.apply_frame(f);
  std::uint64_t ticks = 0, decisions = 0;
  std::vector<Frame> one(1);
  for (std::size_t i = warm_end + 1; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    one[0] = frame;
    auto whole = tr.span("daemon.frame", i);
    std::vector<std::uint8_t> bytes;
    {
      auto s = tr.span("protocol.encode", i);
      bytes = encode_frame(frame);
    }
    {
      auto s = tr.span("protocol.decode", i);
      decode_frame(bytes.data(), bytes.size());
    }
    {
      auto s = tr.span("wal.append", i);
      daemon.append_many(one);
    }
    {
      auto s = tr.span("wal.sync", i);
      daemon.probe_wal();
    }
    if (is_flush(frame)) {
      auto s = tr.span("controller.tick", i);
      decisions += daemon.apply_frame(frame).decisions.size();
      ++ticks;
    } else {
      auto s = tr.span("controller.apply", i);
      daemon.apply_frame(frame);
    }
  }
  daemon.close();
  if (ticks > 0)
    run.layer["controller.decisions_per_tick"] =
        static_cast<double>(decisions) / static_cast<double>(ticks);
}

/// CapacityIndex::first_fit over the fleet's final loads: every resident
/// VM's latest sample, summed per host the controller placed it on, then
/// one first_fit per VM size.
void churn_first_fit(Run& run, const ControllerConfig& config,
                     const IncrementalController& controller,
                     const std::vector<Frame>& frames) {
  std::map<std::uint64_t, ResourceVector> demand;
  for (const Frame& f : frames) {
    if (const auto* a = std::get_if<VmArrivalFrame>(&f))
      demand[a->vm] = ResourceVector{a->cpu_rpe2, a->memory_mb};
    else if (const auto* t = std::get_if<HostTelemetryDeltaFrame>(&f))
      for (const VmSample& s : t->samples)
        demand[s.vm] = ResourceVector{s.cpu_rpe2, s.memory_mb};
  }
  std::vector<ResourceVector> load, sizes, capacity;
  for (const auto& [vm, d] : demand) {
    const std::int32_t host = controller.host_of(vm);
    if (host < 0) continue;
    if (static_cast<std::size_t>(host) >= load.size())
      load.resize(static_cast<std::size_t>(host) + 1);
    load[static_cast<std::size_t>(host)] += d;
    sizes.push_back(d);
  }
  for (std::size_t h = 0; h < load.size(); ++h)
    capacity.push_back(config.pool.capacity_of(h, config.utilization_bound));
  trace_first_fit(run, capacity, load, sizes);
}

// ---------------------------------------------------------------------------
// Open-loop client: one thread, one Unix-socket connection, the ingestion
// envelope protocol (u64 seq + frame). Sends never wait for Acks; every
// Ack is timestamped as it is read.

/// Pins the calling thread to the CPU it is running on, so that the
/// threads it starts (the server's poll and writer threads) share that
/// CPU with it; restores the thread's previous mask when it ends. On a
/// shared VM, a hand-off between threads on different vCPUs waits for the
/// host to wake an idle vCPU, and that wake-up time moves with the host's
/// load by more than the daemon's own work (README.md).
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    ok_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    const int cpu = ::sched_getcpu();
    if (!ok_ || cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  ~OneCpu() {
    if (ok_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

std::vector<std::uint8_t> envelope(std::uint64_t seq, const Frame& frame) {
  wire::ByteWriter w;
  w.u64(seq);
  std::vector<std::uint8_t> bytes = w.bytes();
  const std::vector<std::uint8_t> body = encode_frame(frame);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

class OpenLoopClient {
 public:
  explicit OpenLoopClient(std::size_t messages)
      : ack_time_(messages + 1, -1.0) {}
  ~OpenLoopClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool connect(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    return fd_ >= 0 &&
           ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Blocking write of one whole message; false when the connection broke.
  bool send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Wait up to `seconds` for responses and consume all that arrived.
  void pump(double seconds) {
    pollfd p{fd_, POLLIN, 0};
    timespec ts{};
    if (seconds > 0) {
      ts.tv_sec = static_cast<time_t>(seconds);
      ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
    }
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) return;
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      in_.insert(in_.end(), buf, buf + n);
    }
    const double t = now_s();
    std::size_t off = 0;
    while (in_.size() - off >= kFrameHeaderSize) {
      const std::uint64_t len = wire::load_u64(in_.data() + off + 1);
      if (in_.size() - off < kFrameHeaderSize + len) break;
      const DecodedFrame d = decode_frame(in_.data() + off, in_.size() - off);
      off += d.consumed;
      if (const auto* ack = std::get_if<AckFrame>(&d.frame)) {
        const std::uint64_t top = std::min<std::uint64_t>(ack->seq, ack_time_.size() - 1);
        for (std::uint64_t s = acked_ + 1; s <= top; ++s) ack_time_[s] = t;
        acked_ = std::max(acked_, top);
      } else {
        ++rejects_;
      }
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(off));
  }

  /// Pump until every seq up to `seq` is acked or `timeout` passes.
  bool wait_acked(std::uint64_t seq, double timeout) {
    const double deadline = now_s() + timeout;
    while (acked_ < seq && now_s() < deadline) pump(0.01);
    return acked_ >= seq;
  }

  std::uint64_t acked() const noexcept { return acked_; }
  std::size_t rejects() const noexcept { return rejects_; }
  double ack_time(std::uint64_t seq) const { return ack_time_[seq]; }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;
  std::vector<double> ack_time_;  ///< by seq; -1 until acked
  std::uint64_t acked_ = 0;
  std::size_t rejects_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------

void ingest_open_loop(Run& run) {
  const bool full = run.full();
  const std::size_t vms = full ? 2000 : 200;
  const std::size_t agents = full ? 16 : 4;
  // Ticks per second. Collectors report at tick boundaries, so each
  // tick's messages (heartbeat, arrivals, departures, one delta per agent,
  // Flush) are due together and written together.
  const double tick_rate = 40.0;
  // A traced run spends half its time on the socket and the rest on the
  // per-layer decomposition of the same frames.
  const double socket_seconds =
      run.trace().enabled() && full ? run.seconds / 2 : run.seconds;
  const std::size_t ticks =
      1 + static_cast<std::size_t>(std::ceil(socket_seconds * tick_rate));
  const ControllerConfig config;

  std::vector<Frame> frames;
  std::vector<std::vector<std::uint8_t>> messages;  // [seq]; [0] is Hello
  std::size_t warm_end = 0;  // seq of the first Flush: set-up ends there
  Daemon::Options options;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<IngestServer> server;
  std::unique_ptr<OpenLoopClient> client;
  // Client, poll and writer threads share one CPU for set-up and the
  // timed part. This also fixes the shape of each tick's WAL batches: the
  // writer drains a tick's burst in about one batch instead of one to
  // four, depending on how the threads raced on separate vCPUs.
  std::optional<OneCpu> one_cpu(std::in_place);

  // Set-up: generate and encode the stream, start a fresh daemon and
  // server, connect, and deliver the first tick (the initial population)
  // so the timed part sees a warm fleet.
  run.repeat_setup(7, 1, [&](int rep, bool last) {
    frames = generate_churn(churn_options(vms, agents, ticks, run.seed), config);
    messages.clear();
    warm_end = 0;
    messages.push_back(envelope(
        0, HelloFrame{kProtocolVersion, fleet_config_hash(config), "perfbench"}));
    for (std::size_t i = 1; i < frames.size(); ++i) {
      messages.push_back(envelope(i, frames[i]));
      if (warm_end == 0 && is_flush(frames[i])) warm_end = i;
    }
    options = daemon_options(fresh_dir(run, "ingest" + std::to_string(rep)));
    // One checkpoint, half way through the stream: the resume check needs
    // it, and each one stalls a tick's Acks on the real disk's fsync.
    options.snapshot_every_frames = frames.size() / 2 + 1;
    daemon = std::make_unique<Daemon>(config, options);
    daemon->set_io_hooks(&tmpfs_like_hooks());
    daemon->open();
    IngestOptions io;
    io.unix_path = fs::path(options.wal_path).parent_path().string() + "/s.sock";
    io.expected_shutdowns = 1;
    server = std::make_unique<IngestServer>(*daemon, io);
    server->start({});
    client = std::make_unique<OpenLoopClient>(messages.size());
    run.check(client->connect(io.unix_path), "cannot connect to the server");
    for (std::size_t s = 0; s <= warm_end; ++s) client->send(messages[s]);
    run.check(client->wait_acked(warm_end, 30), "warm-up was not acked");
    if (!last) {
      server->stop();
      server->wait();
      daemon->close();
      client.reset();
      server.reset();
      daemon.reset();
    }
  });

  // Timed part, open loop: the messages of tick k are due at
  // t0 + k / tick_rate and go out together in one write, whether or not
  // earlier ones were acked. Each message is timed from when its tick was
  // due to the first Ack that covers it.
  const std::size_t last_seq = messages.size() - 1;
  std::vector<double> due(messages.size(), 0.0);
  std::vector<double> late_ms;  // per tick: its write after its due time
  bool connected = true;
  const double t0 = now_s() + 0.002;
  double tick_due = t0;
  std::vector<std::uint8_t> burst;
  for (std::size_t s = warm_end + 1; s <= last_seq && connected;) {
    // A tick runs from its Heartbeat to the next one; Shutdown ends the
    // stream on a tick of its own.
    std::size_t end = s + 1;
    while (end <= last_seq &&
           !std::holds_alternative<HeartbeatFrame>(frames[end]) &&
           !std::holds_alternative<ShutdownFrame>(frames[end]))
      ++end;
    burst.clear();
    for (std::size_t m = s; m < end; ++m) {
      burst.insert(burst.end(), messages[m].begin(), messages[m].end());
      due[m] = tick_due;
    }
    for (double t = now_s(); t < tick_due; t = now_s())
      client->pump(tick_due - t);
    late_ms.push_back((now_s() - tick_due) * 1e3);
    connected = client->send(burst);
    tick_due += 1.0 / tick_rate;
    s = end;
  }
  run.check(connected, "connection lost mid-stream");
  client->wait_acked(last_seq, 30);
  server->wait();
  run.end_timed();
  one_cpu.reset();
  daemon->close();

  // A tick's operation ends with the Ack of its Flush, which (Acks being
  // cumulative) covers every message of the tick: telemetry durable and
  // applied, decisions made.
  std::vector<double> ack_ms;
  std::uint64_t unacked = 0;
  for (std::size_t s = warm_end + 1; s <= last_seq; ++s) {
    if (client->ack_time(s) < 0) {
      ++unacked;
      continue;
    }
    const double ms = (client->ack_time(s) - due[s]) * 1e3;
    ack_ms.push_back(ms);
    if (is_flush(frames[s])) run.op_ms.push_back(ms);
    run.trace().add("ingest.message", s, due[s], client->ack_time(s));
  }
  run.tail_q = 0.9;
  run.attempted = last_seq;
  run.failed = unacked + client->rejects();
  const IngestStats stats = server->stats();
  run.check(client->rejects() == 0, "the server sent Rejects");
  run.check(unacked == 0, std::to_string(unacked) + " messages never acked");
  run.check(stats.messages_ingested == last_seq,
            "server ingested " + std::to_string(stats.messages_ingested) +
                " of " + std::to_string(last_seq) + " messages");
  run.layer["ingest.frames_per_batch"] =
      static_cast<double>(stats.messages_ingested) /
      static_cast<double>(std::max<std::size_t>(stats.wal_batches, 1));
  run.layer["ingest.backpressure_stalls"] =
      static_cast<double>(stats.backpressure_stalls);
  run.layer["ingest.generator_late_ms"] = quantile(late_ms, 0.99);
  run.layer["ingest.ack_p50_ms"] = median(ack_ms);
  run.layer["ingest.ack_p99_ms"] = quantile(ack_ms, 0.99);
  run.note("ingest: per-message Ack p50 " + std::to_string(median(ack_ms)) +
           " ms, p99 " + std::to_string(quantile(ack_ms, 0.99)) + " ms");
  run.note("ingest: " + std::to_string(last_seq - warm_end) +
           " timed messages in " + std::to_string(late_ms.size()) +
           " ticks, " + std::to_string(stats.wal_batches) + " WAL batches, " +
           std::to_string(daemon->stats().snapshots_written) + " snapshots");
  client.reset();
  server.reset();

  check_daemon_outputs(run, config, options, ticks + 2);
  if (run.trace().enabled()) trace_frame_path(run, config, frames, warm_end);
}

void controller_churn(Run& run) {
  const bool full = run.full();
  const std::size_t vms = full ? 25000 : 2000;
  const std::size_t agents = full ? 64 : 16;
  // Sized for ~40 ms ticks; the timed loop stops at the deadline or when
  // the stream runs out, whichever comes first.
  const std::size_t ticks =
      2 + static_cast<std::size_t>(run.seconds * (full ? 24.0 : 60.0));
  const ControllerConfig config;

  std::vector<Frame> frames;
  std::size_t warm_end = 0;
  Daemon::Options options;
  std::unique_ptr<Daemon> daemon;

  // Set-up: generate the stream, open a fresh daemon and apply the first
  // tick (the initial population) through one batched append.
  run.repeat_setup(5, 1, [&](int rep, bool last) {
    frames = generate_churn(churn_options(vms, agents, ticks, run.seed), config);
    warm_end = 0;
    while (!is_flush(frames[warm_end])) ++warm_end;
    options = daemon_options(fresh_dir(run, "churn" + std::to_string(rep)));
    // About 50 ticks of frames: deltas, heartbeat, Flush and churn.
    options.snapshot_every_frames = 50 * (agents + 2 + vms * 3 / 1000);
    daemon = std::make_unique<Daemon>(config, options);
    daemon->set_io_hooks(&tmpfs_like_hooks());
    daemon->open();
    const std::vector<Frame> warm(frames.begin(),
                                  frames.begin() + static_cast<std::ptrdiff_t>(warm_end + 1));
    daemon->append_many(warm);
    for (const Frame& f : warm) daemon->apply_frame(f);
    daemon->maybe_snapshot();
    if (!last) {
      daemon->close();
      daemon.reset();
    }
  });

  // Timed part: every frame goes through Daemon::ingest (WAL append +
  // fdatasync, then apply); a Flush's ingest is one decision. It fails
  // when its batch is not for the Flush's tick or the frame was not
  // applied.
  const double deadline = now_s() + (run.trace().enabled() && full
                                         ? run.seconds / 2 : run.seconds);
  std::size_t end = warm_end + 1;
  std::uint64_t last_tick = 1;
  for (; end < frames.size(); ++end) {
    const Frame& f = frames[end];
    const bool flush = is_flush(f);
    if (flush && now_s() >= deadline) break;
    const std::uint64_t applied = daemon->frames_applied();
    DecisionBatchFrame batch;
    {
      auto s = run.trace().span("daemon.ingest", end);
      const double t = now_s();
      batch = daemon->ingest(f);
      if (flush) run.op_ms.push_back((now_s() - t) * 1e3);
    }
    if (flush) {
      last_tick = std::get<FlushFrame>(f).tick;
      ++run.attempted;
      if (batch.tick != last_tick || daemon->frames_applied() != applied + 1)
        ++run.failed;
    }
    daemon->maybe_snapshot();
  }
  run.end_timed();
  run.tail_q = 0.9;
  run.check(run.failed == 0, "a Flush's batch was for another tick or the "
                             "Flush was not applied");
  run.note("churn: " + std::to_string(run.op_ms.size()) + " ticks over " +
           std::to_string(daemon->controller().resident_vms()) +
           " resident VMs on " +
           std::to_string(daemon->controller().active_hosts()) + " hosts, " +
           std::to_string(daemon->stats().snapshots_written) + " snapshots");
  daemon->close();

  if (run.trace().enabled()) {
    frames.resize(end);
    churn_first_fit(run, config, daemon->controller(), frames);
    trace_frame_path(run, config, frames, warm_end);
  }
  daemon.reset();
  frames = {};
  check_daemon_outputs(run, config, options, last_tick + 1);
}

void wal_recovery(Run& run) {
  const bool full = run.full();
  const std::size_t vms = full ? 500 : 200;
  const std::size_t agents = 16;
  const std::size_t ticks = full ? 800 : 100;
  const ControllerConfig config;

  Daemon::Options options;
  std::uint64_t suffix = 0, next_tick = 0;

  // Set-up: record a long WAL behind a small fleet through a live daemon,
  // with one snapshot two ticks before the end, so a resume scans the
  // whole retained chain but re-applies only a short suffix.
  run.repeat_setup(7, 1, [&](int rep, bool) {
    const std::vector<Frame> frames =
        generate_churn(churn_options(vms, agents, ticks, run.seed), config);
    options = daemon_options(fresh_dir(run, "recovery" + std::to_string(rep)));
    options.durable = false;
    Daemon daemon(config, options);
    daemon.open();
    std::size_t flushes = 0;
    for (const Frame& f : frames) {
      daemon.ingest(f);
      if (is_flush(f) && ++flushes == ticks - 2) daemon.write_snapshot_now();
    }
    suffix = daemon.frames_applied();
    daemon.close();
    SnapshotData snap;
    run.check(read_snapshot(options.snapshot_path, fleet_config_hash(config),
                            snap) == SnapshotStatus::kOk,
              "no valid snapshot was recorded");
    suffix -= snap.frames_covered;
    next_tick = ticks + 2;
  });

  // Timed part: Daemon::open with resume, then close, repeatedly. Opening
  // only reads: nothing is appended, so every resume sees the same files.
  Daemon::Options resume = options;
  resume.resume = true;
  resume.durable = false;
  const double deadline =
      now_s() + (run.trace().enabled() && full ? run.seconds / 2 : run.seconds);
  do {
    Daemon daemon(config, resume);
    auto s = run.trace().span("recovery.resume", run.attempted);
    const double t = now_s();
    const auto opened = daemon.open();
    run.op_ms.push_back((now_s() - t) * 1e3);
    daemon.close();
    ++run.attempted;
    if (!opened.snapshot_loaded || opened.frames_recovered != suffix)
      ++run.failed;
  } while (now_s() < deadline);
  run.end_timed();
  run.tail_q = 0.9;
  run.check(run.failed == 0, "a resume skipped the snapshot or its suffix");

  if (run.trace().enabled()) {
    Tracer& tr = run.trace();
    const std::uint64_t hash = fleet_config_hash(config);
    for (int i = 0; i < 10; ++i) {
      {
        auto s = tr.span("wal.scan", i);
        read_segmented_wal(options.wal_path);
      }
      SnapshotData snap;
      auto s = tr.span("snapshot.read", i);
      read_snapshot(options.snapshot_path, hash, snap);
    }
    {
      auto s = tr.span("replay.cold");
      replay_wal(options.wal_path, run.dir + "/cold.decisions", config,
                 /*resume=*/false, /*durable=*/false);
    }
    run.layer["snapshot.bytes"] =
        static_cast<double>(fs::file_size(options.snapshot_path));
    run.layer["recovery.suffix_frames"] = static_cast<double>(suffix);
  }
  std::size_t segments = 0;
  while (fs::exists(segment_path(options.wal_path, segments + 1))) ++segments;
  run.note("recovery: " + std::to_string(segments) + " segments, suffix " +
           std::to_string(suffix) + " frames, " +
           std::to_string(run.attempted) + " resumes");
  check_daemon_outputs(run, config, options, next_tick);
}

}  // namespace perfbench
