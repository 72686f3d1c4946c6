// Periodic ping-sweep health monitor over the TBON, after slurmctld's
// ping_nodes: every period the front end multicasts a small ping down the
// real control plane (same transfers, same contention as any other control
// message) and gathers the echoes back up. A proc that was dead when the
// sweep left the front end cannot echo, so its death is detected when the
// gather completes — detection latency is the time to the next sweep plus
// one fan-out/gather round trip, never a free oracle read.
//
// Each detection is handed to the owner's callback on the simulator thread,
// from inside the sweep that noticed it, in proc order; the callback
// (normally Reduction::recover) re-routes the orphaned subtree.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tbon/topology.hpp"

namespace petastat::tbon {

/// "Proc X died at time T, noticed at T'" — what the health monitor reports.
/// `proc` indexes TbonTopology::procs.
struct FailureEvent {
  std::uint32_t proc = 0;
  SimTime dead_at = 0;
  SimTime detected_at = 0;
};

class HealthMonitor {
 public:
  using OnFailure = std::function<void(const FailureEvent&)>;

  /// Bytes of one ping message (matches the sampling control multicast).
  static constexpr std::uint64_t kPingBytes = 96;

  HealthMonitor(sim::Simulator& simulator, net::Network& network,
                const TbonTopology& topology, OnFailure on_failure,
                SimTime period);

  /// Schedules the first sweep one period from now. The monitor free-runs
  /// until stop(); a caller that never stops it keeps the simulator's event
  /// queue non-empty until the sweep cap trips.
  void start();

  /// Cancels the pending sweep and silences in-flight ones. Call from the
  /// reduction's completion callback so the simulator can drain.
  void stop();

  /// Records that `proc` died at `at`. The death is invisible until a sweep
  /// that started at or after `at` completes its round trip.
  void mark_dead(std::uint32_t proc_index, SimTime at);

  [[nodiscard]] std::uint32_t sweeps_completed() const { return sweeps_; }
  [[nodiscard]] std::uint32_t detections() const { return detections_; }
  [[nodiscard]] SimTime period() const { return period_; }

 private:
  void sweep();

  /// Sweeps stop rescheduling after this many rounds, turning an
  /// unrecoverable stall (e.g. a dead front end) into a drained event queue
  /// instead of a simulation that never finishes.
  static constexpr std::uint32_t kMaxSweeps = 256;

  sim::Simulator& sim_;
  net::Network& net_;
  const TbonTopology& topo_;
  OnFailure on_failure_;
  SimTime period_;
  bool stopped_ = true;
  sim::EventId pending_{};
  std::vector<SimTime> dead_at_;   // per proc; kNever = alive
  std::vector<bool> reported_;     // per proc
  std::uint32_t sweeps_ = 0;
  std::uint32_t detections_ = 0;
};

}  // namespace petastat::tbon
