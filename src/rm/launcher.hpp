// Daemon launching (Sec. IV): one pure function prices every launcher.
//
// The paper's spectrum, one LauncherKind each:
//  * rsh/ssh — MRNet's ad hoc spawner: one serial remote shell per daemon
//    from the front end. Linear by construction, and rsh "consistently
//    fails" at 512 daemons (connection/port exhaustion).
//  * LaunchMON — one resource-manager request, then the RM's internal
//    fan-out tree starts all daemons in O(log n).
//  * CIOD — BG/L system software: daemons are started on I/O nodes by CIOD,
//    the application is launched under tool control, and the RM builds the
//    process table. The unpatched table packer used strcat — which rescans
//    the destination buffer on every append, making packing quadratic — and
//    hung outright at 208K processes. The IBM patches (bigger buffers, no
//    strcat) make it linear; Fig. 3 shows >2x at 104K.
//
// rm::launch is the one model of all of them. The scenario calls it with
// its run seed (per-spawn lognormal noise) and schedules the completion; the
// planner calls it without a seed (every noise factor exactly 1.0), so the
// prediction is the run's launch by construction, failures included.
#pragma once

#include <cstdint>
#include <optional>

#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"

namespace petastat::rm {

enum class LauncherKind {
  kMrnetRsh,       // MRNet's ad hoc serial rsh spawner
  kMrnetSsh,       // same, over ssh
  kLaunchMon,      // bulk launch through the resource manager
  kCiodPatched,    // BG/L system software, after the IBM patches
  kCiodUnpatched,  // BG/L system software, original (quadratic, hangs at 208K)
};

struct LaunchRequest {
  std::uint32_t num_daemons = 0;
  /// Application processes the system software must table (BG/L); 0 when the
  /// app is already running (Atlas attach model).
  std::uint32_t num_app_procs = 0;
};

/// The request for `layout` on `machine`: one daemon per layout slot, and on
/// BG/L-style machines (daemons on I/O nodes) the tool launches the
/// application, so all `num_tasks` processes are tabled. On the cluster STAT
/// attaches to a running job.
[[nodiscard]] LaunchRequest launch_request(const machine::MachineConfig& machine,
                                           const machine::DaemonLayout& layout);

/// Phase breakdown of a completed (or failed) launch.
struct LaunchReport {
  Status status = Status::ok();
  SimTime started_at = 0;
  SimTime finished_at = 0;
  /// Time inside the system software / process-table generation. Fig. 3:
  /// "the system software accounts for over 86% of the startup time".
  SimTime system_software_time = 0;
  SimTime daemon_spawn_time = 0;
  SimTime app_launch_time = 0;

  [[nodiscard]] SimTime total() const { return finished_at - started_at; }
};

/// Launches `request`'s daemons with `kind` on `machine`, starting at time 0.
/// A failed launch comes back non-OK with `finished_at` at the moment the
/// failure surfaces: at once for an unsupported remote shell, after half the
/// spawn list at the rsh port limit, after the 30-minute watchdog for the
/// unpatched CIOD hang.
///
/// With `noise_seed`, each launcher draws its run noise from its own Rng
/// stream of that seed (0x4c rsh/ssh, 0xb1 LaunchMON, 0xc10d CIOD). Without
/// one, every noise factor is exactly 1.0 and the phases are the analytic
/// formulas of machine/cost_model.hpp.
[[nodiscard]] LaunchReport launch(LauncherKind kind,
                                  const machine::MachineConfig& machine,
                                  const machine::LaunchCosts& costs,
                                  const LaunchRequest& request,
                                  std::optional<std::uint64_t> noise_seed);

}  // namespace petastat::rm
