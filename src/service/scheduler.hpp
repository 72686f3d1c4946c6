// SessionScheduler: admits many concurrent debug sessions onto one machine
// under a shared-resource ledger, SLURM-style — a priority/FIFO queue, plus
// an EASY-backfill policy that starts small later-arriving sessions into
// slots the blocked head session cannot yet use, without ever delaying the
// head's start.
//
// Two clocks, one engine:
//   * The *service* clock (the scheduler's own sim::Simulator) carries
//     arrivals, admissions, and completions. Sessions overlap on it.
//   * Each admitted session runs its own deterministic inner simulation the
//     moment it is admitted (real compute now, through the service's shared
//     sim::Executor pool), and its completion is scheduled at
//     start + StatRunResult::total_virtual_time on the service clock.
// Because every session's inner run is deterministic and self-contained (the
// re-entrant StatScenario), its merged classes are bit-identical to running
// it alone — concurrency changes *when* a session runs, never *what* it
// computes.
//
// Residual-aware planning: an auto-topology session is resolved against an
// "effective machine" whose login-slot and connection ceilings are the
// ledger's *free* capacity, so the planner (plan::resolve, via
// plan::PhasePredictor) picks smaller shard counts and narrower trees when
// login nodes are contended, instead of waiting for the whole machine. The
// resolved spec is handed to the admitted session's StatScenario, so the run
// is the tree its demand was priced on, and it never plans again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "machine/machine.hpp"
#include "service/ledger.hpp"
#include "service/session.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"

namespace petastat::service {

enum class SchedulerPolicy {
  kFifo,      // strict head-of-queue blocking (the baseline)
  kBackfill,  // EASY backfill behind a per-head start reservation
};

[[nodiscard]] const char* scheduler_policy_name(SchedulerPolicy policy);
[[nodiscard]] Result<SchedulerPolicy> parse_scheduler_policy(
    std::string_view text);

struct ServiceConfig {
  machine::MachineConfig machine = machine::petascale();
  SchedulerPolicy policy = SchedulerPolicy::kBackfill;
  /// Worker threads of the shared execution engine every session runs on;
  /// also the exec-thread dimension's ledger capacity. Must be >= 1.
  std::uint32_t executor_threads = 4;
  /// Ledger capacity overrides (tests and what-if benches). Defaults: the
  /// machine's tool-free comm-process capacity and connection ceiling.
  std::optional<std::uint64_t> comm_slot_capacity;
  std::optional<std::uint32_t> fe_connection_capacity;
};

/// Aggregate outcome of one service run. Per-session detail in `sessions`
/// (submission order).
struct ServiceReport {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  std::string machine;
  std::vector<SessionStats> sessions;

  std::uint32_t completed = 0;   // admitted runs whose status is OK
  std::uint32_t failed = 0;      // admitted runs that failed inside the tool
  std::uint32_t rejected = 0;    // never admitted (infeasible/invalid)
  std::uint32_t backfilled = 0;  // admitted ahead of a blocked head

  SimTime makespan = 0;  // last completion on the service clock
  /// Completed-OK sessions per virtual hour of makespan (the bench metric).
  double sessions_per_hour = 0.0;

  std::uint64_t comm_slot_capacity = 0;
  std::uint32_t fe_connection_capacity = 0;
  std::uint32_t exec_thread_capacity = 0;
  double comm_slot_utilization = 0.0;  // busy-integral / capacity*makespan
  double fe_connection_utilization = 0.0;
  double exec_thread_utilization = 0.0;

  double mean_queue_wait_seconds = 0.0;  // over admitted sessions
  double max_queue_wait_seconds = 0.0;
  double mean_turnaround_seconds = 0.0;
};

class SessionScheduler {
 public:
  explicit SessionScheduler(ServiceConfig config);

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Enqueues a request for the run. INVALID_ARGUMENT for out-of-range
  /// priority or an arrival outside 0..kMaxSimSeconds (NaN included);
  /// FAILED_PRECONDITION after run().
  Status submit(SessionRequest request);

  /// Replays every submitted arrival and drains the service clock.
  /// Single-shot, like StatScenario::run().
  [[nodiscard]] ServiceReport run();

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  enum class State { kWaiting, kQueued, kRunning, kDone };

  /// One resolution of a session against an effective machine: the spec the
  /// planner picked (for auto modes, under that machine's residual
  /// capacity) and the demand it would hold.
  struct Resolution {
    Status status = Status::ok();
    tbon::TopologySpec spec;
    SessionDemand demand;
    /// The machine the admitted scenario is constructed with: the run's
    /// placement and connection checks use the residual `spec` was planned
    /// against.
    machine::MachineConfig machine;
  };

  /// A session's plan for one effective machine: its resolution and, once
  /// the session has been evaluated under it, the deterministic run.
  struct Plan {
    Resolution resolution;
    std::optional<stat::StatRunResult> result;
  };

  struct Session {
    SessionRequest request;
    std::uint32_t index = 0;
    State state = State::kWaiting;
    bool pinned = true;  // no auto modes: resolution is residual-independent
    /// Set when the session was vacated (simulated front-end loss) and is
    /// back in the queue: the next admission restores from this checkpoint
    /// instead of starting the series over.
    std::shared_ptr<const stat::SessionCheckpoint> checkpoint;
    std::uint32_t restarts = 0;
    SessionStats stats;
    /// Memoized plans while the session waits, keyed by what a resolution
    /// depends on: "pinned" or "auto|<comm slots per login>|<connections>"
    /// (the effective machine), plus "|r<restarts>" on a restored leg. A
    /// pinned session has one entry; an auto session one per effective
    /// machine it was priced under. Emptied at admission.
    std::map<std::string, Plan> plans;
  };

  struct Reservation {
    bool found = false;
    SimTime shadow = 0;    // earliest time the head is guaranteed to start
    SessionDemand extra;   // free capacity at the shadow, head's share removed
  };

  /// The session's plan under `view`'s free capacity: looked up in the
  /// session's memo, planned (build_resolution) only on a miss.
  Plan& resolve(Session& session, const ResourceLedger& view);
  [[nodiscard]] Resolution build_resolution(
      const Session& session, machine::MachineConfig effective) const;
  const stat::StatRunResult& evaluate(const Session& session, Plan& plan);
  void arrive(std::uint32_t index);
  void complete(std::uint32_t index);
  void admit(Session& session, Plan& plan, bool backfilled);
  [[nodiscard]] Reservation compute_reservation(Session& head);
  void schedule_pass();
  [[nodiscard]] std::vector<std::uint32_t> queue_order() const;

  ServiceConfig config_;
  ResourceLedger ledger_;
  sim::Simulator sim_;     // the service clock
  sim::Executor exec_;     // shared worker pool for every session's real work
  std::vector<Session> sessions_;
  bool ran_ = false;
};

}  // namespace petastat::service
