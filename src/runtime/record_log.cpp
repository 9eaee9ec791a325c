#include "runtime/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "runtime/telemetry.h"
#include "runtime/wire.h"

namespace vmcw {

namespace {

/// Read an open fd in full with pread, leaving its position untouched.
bool read_all(int fd, std::vector<std::uint8_t>& out) {
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) return false;
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + off, out.size() - off,
                              static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;  // signal landed mid-read; retry
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

long WalIoHooks::write_some(int fd, const std::uint8_t* data,
                            std::size_t size) {
  return static_cast<long>(::write(fd, data, size));
}

int WalIoHooks::sync(int fd) { return ::fdatasync(fd); }

double WalIoHooks::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WalIoHooks& default_wal_io_hooks() {
  static WalIoHooks hooks;  // stateless: real write/fdatasync/clock
  return hooks;
}

bool write_fully(WalIoHooks& hooks, int fd, const std::uint8_t* data,
                 std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const long n = hooks.write_some(fd, data + off, size - off);
    if (n < 0 && errno == EINTR) continue;  // a signal before any byte moved
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t scan_records(const std::vector<std::uint8_t>& bytes,
                         std::size_t offset, const RecordScanner& scanner) {
  while (offset < bytes.size()) {
    const std::size_t n =
        scanner(bytes.data() + offset, bytes.size() - offset);
    if (n == 0) break;  // a record is intact or it is the torn tail
    offset += n;
  }
  return offset;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = read_all(fd, out);
  ::close(fd);
  return ok;
}

RecordLog::Recovery RecordLog::open(const std::string& path,
                                    const std::vector<std::uint8_t>& header,
                                    bool resume,
                                    const RecordScanner& scanner) {
  // open() runs before the log is shared with other threads, but holding
  // the lock throughout keeps fd_'s guard unconditional.
  MutexLock lk(mutex_);
  close_locked();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw std::runtime_error("cannot open " + path);

  Recovery rec;
  std::vector<std::uint8_t> bytes;
  const bool readable = read_all(fd_, bytes);
  if (resume && readable && bytes.size() >= header.size() &&
      std::equal(header.begin(), header.end(), bytes.begin())) {
    const std::size_t end = scan_records(bytes, header.size(), scanner);
    // Cannot trim the torn tail: appending would interleave with garbage,
    // so fall back to a fresh file below.
    if (end == bytes.size() ||
        ::ftruncate(fd_, static_cast<off_t>(end)) == 0) {
      rec.resumed = true;
      rec.torn_tail = end < bytes.size();
      rec.bytes_discarded = bytes.size() - end;
      rec.content_hash = wire::fnv1a64(bytes.data(), end);
      ::lseek(fd_, 0, SEEK_END);
      return rec;
    }
  }

  // Not resuming, no file yet, or a stale one: start clean. Stale records
  // are never mixed in. The header goes out with real I/O, not through the
  // hooks: they script appends, and open() is not one.
  rec.stale = resume && readable && !bytes.empty();
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0 ||
      !write_fully(default_wal_io_hooks(), fd_, header.data(),
                   header.size()) ||
      ::fdatasync(fd_) != 0) {
    close_locked();
    return rec;
  }
  rec.content_hash = wire::fnv1a64(header.data(), header.size());
  return rec;
}

void RecordLog::reopen(const std::string& path, std::size_t end) {
  MutexLock lk(mutex_);
  close_locked();
  fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) throw std::runtime_error("cannot open " + path);
  struct stat st{};
  const bool ok = ::fstat(fd_, &st) == 0 &&
                  static_cast<std::size_t>(st.st_size) >= end &&
                  (static_cast<std::size_t>(st.st_size) == end ||
                   ::ftruncate(fd_, static_cast<off_t>(end)) == 0) &&
                  ::lseek(fd_, 0, SEEK_END) >= 0;
  if (!ok) {
    close_locked();
    throw std::runtime_error("cannot resume " + path + " at its intact end");
  }
}

bool RecordLog::append(const std::uint8_t* data, std::size_t size,
                       bool sync) {
  MutexLock lk(mutex_);
  if (fd_ < 0) return false;
  if (!write_fully(*hooks_, fd_, data, size)) {
    // A failed append (disk full, EIO) must not corrupt what is already
    // durable: stop here rather than interleave a partial record.
    close_locked();
    return false;
  }
  return !sync || sync_locked();
}

bool RecordLog::sync() {
  MutexLock lk(mutex_);
  return sync_locked();
}

bool RecordLog::sync_locked() {
  if (fd_ < 0) return false;
  const double start = hooks_->now();
  int rc;
  do {
    rc = hooks_->sync(fd_);  // EINTR reports no I/O outcome; anything else does
  } while (rc != 0 && errno == EINTR);
  const double elapsed = hooks_->now() - start;
  last_sync_seconds_ = elapsed;
  if (sync_metric_ != nullptr)
    MetricsRegistry::global().observe(sync_metric_, elapsed);
  if (rc == 0) return true;
  // Never retried: after a failed fsync the kernel may have dropped the
  // dirty pages, and a later fsync can succeed without them.
  close_locked();
  return false;
}

void RecordLog::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace vmcw
