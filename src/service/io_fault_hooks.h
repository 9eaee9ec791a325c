// Adapters binding an IoFaultPlan (chaos/io_faults) onto the service
// layer's injection surfaces: TransportFaults on the collector side and
// WalIoHooks under the telemetry WAL, the decision log and the sweep
// journal (runtime/record_log). Header-only so that tests and tools
// can compose a plan with real sockets and a real daemon without adding a
// chaos -> service link edge; consumers link vmcw_service and vmcw_chaos
// themselves.
#pragma once

#include <cerrno>
#include <cstdint>

#include "chaos/io_faults.h"
#include "runtime/record_log.h"
#include "service/collector.h"

namespace vmcw {

/// One collector's view of the transport fault schedule: forwards every
/// hook to the plan under this collector's key, so N clients sharing one
/// plan fail independently and reproducibly.
class PlannedTransportFaults : public service::TransportFaults {
 public:
  PlannedTransportFaults(const IoFaultPlan& plan, std::uint64_t collector)
      : plan_(&plan), collector_(collector) {}

  bool disconnect_after(std::uint64_t message) override {
    return plan_->disconnect_after(collector_, message);
  }
  bool corrupt_message(std::uint64_t message) override {
    return plan_->corrupt_message(collector_, message);
  }
  std::size_t corrupt_byte(std::uint64_t message, std::size_t size) override {
    return plan_->corrupt_byte(collector_, message, size);
  }
  bool split_write(std::uint64_t message) override {
    return plan_->split_write(collector_, message);
  }
  std::size_t split_point(std::uint64_t message, std::size_t size) override {
    return plan_->split_point(collector_, message, size);
  }

 private:
  const IoFaultPlan* plan_;
  std::uint64_t collector_;
};

/// WAL hooks driven by the plan: writes and fdatasyncs are real unless
/// the plan scripts a storage error for that call (force_write_error,
/// force_fsync_error), and the fsync latency the log measures runs on a
/// *virtual* clock — the plan's injected stall for that sync index, zero
/// when healthy — so shed/recover cycles and fail-stop run in tests
/// without a slow or failing disk or a real sleep. now() is called once
/// before and once after each sync; advancing the clock inside sync()
/// makes the measured latency exactly the injected stall. Calls are
/// counted across every log the hooks are installed on; give each log its
/// own instance (Daemon::set_io_hooks(wal, decisions)) to index one log.
class PlannedWalHooks : public WalIoHooks {
 public:
  explicit PlannedWalHooks(const IoFaultPlan& plan) : plan_(&plan) {}

  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    if (disk_full_) {
      errno = ENOSPC;
      return -1;
    }
    const int err = plan_->write_error(writes_++);
    if (err == ENOSPC) {
      // A filling disk takes what fits, then refuses the rest.
      disk_full_ = true;
      if (size > 1) return WalIoHooks::write_some(fd, data, size / 2);
    }
    if (err != 0) {
      errno = err;
      return -1;
    }
    return WalIoHooks::write_some(fd, data, size);
  }

  int sync(int fd) override {
    const std::uint64_t index = syncs_++;
    int rc = WalIoHooks::sync(fd);
    clock_ += plan_->fsync_stall(index);
    if (plan_->fsync_error(index)) {
      errno = EIO;
      rc = -1;
    }
    return rc;
  }
  double now() override { return clock_; }

  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t syncs() const noexcept { return syncs_; }

 private:
  const IoFaultPlan* plan_;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
  bool disk_full_ = false;
  double clock_ = 0.0;
};

}  // namespace vmcw
