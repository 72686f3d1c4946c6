// Queueing resources layered over the simulator.
//
// FifoServer models a k-server FIFO station analytically: instead of one
// event per queue transition, each request computes its start time from the
// earliest-free server. This keeps event counts low even with 212,992
// clients hammering one NFS server, while producing exact FIFO queueing
// delays for deterministic service times.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace petastat::sim {

/// Statistics snapshot for a FifoServer.
struct ServerStats {
  std::uint64_t requests = 0;
  SimTime busy_time = 0;       // summed service time across servers
  SimTime total_wait = 0;      // summed queueing delay (excludes service)
  SimTime max_wait = 0;
  std::uint64_t peak_backlog = 0;  // max requests in queue+service at once
};

/// k identical servers with a shared FIFO queue.
///
/// `submit(service, done)` reserves the earliest-available server, charging
/// wait = max(0, server_free - now). `done` runs at completion. The analytic
/// reservation is exact for FIFO because requests are served in submission
/// order.
class FifoServer {
 public:
  FifoServer(Simulator& simulator, unsigned num_servers);

  /// Enqueues a request needing `service` time. Returns the completion time.
  SimTime submit(SimTime service, EventCallback done);

  /// Completion time if a request were submitted now (no side effects).
  [[nodiscard]] SimTime probe(SimTime service) const;

  /// Number of requests currently queued or in service.
  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] unsigned num_servers() const {
    return static_cast<unsigned>(free_at_.size());
  }

  /// Forgets all reservations (between benchmark repetitions).
  void reset();

 private:
  /// Index of the server that frees up soonest.
  [[nodiscard]] std::size_t earliest() const;

  Simulator& sim_;
  std::vector<SimTime> free_at_;
  std::uint64_t outstanding_ = 0;
  ServerStats stats_;
};

/// A single-capacity token used to serialize access to a device (e.g. a
/// node's NIC). Pure reservation calculus — no callbacks.
class SerialDevice {
 public:
  explicit SerialDevice(Simulator& simulator) : sim_(simulator) {}

  /// Occupies the device for `duration` starting no earlier than `earliest`;
  /// returns the completion time.
  SimTime reserve(SimTime earliest, SimTime duration) {
    const SimTime start = std::max({earliest, sim_.now(), free_at_});
    free_at_ = start + duration;
    busy_ += duration;
    return free_at_;
  }

  [[nodiscard]] SimTime free_at() const { return free_at_; }
  [[nodiscard]] SimTime busy_time() const { return busy_; }
  void reset() { free_at_ = 0; busy_ = 0; }

 private:
  Simulator& sim_;
  SimTime free_at_ = 0;
  SimTime busy_ = 0;
};

}  // namespace petastat::sim
