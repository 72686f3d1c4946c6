#include "rm/launcher.hpp"

#include <string>

#include "common/rng.hpp"

namespace petastat::rm {

LaunchRequest launch_request(const machine::MachineConfig& machine,
                             const machine::DaemonLayout& layout) {
  const bool tool_launches_app =
      machine.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  return {layout.num_daemons, tool_launches_app ? layout.num_tasks : 0};
}

LaunchReport launch(LauncherKind kind, const machine::MachineConfig& machine,
                    const machine::LaunchCosts& costs,
                    const LaunchRequest& request,
                    std::optional<std::uint64_t> noise_seed) {
  // Each launcher draws from its own stream of the seed; no seed, no noise.
  std::optional<Rng> rng;
  const auto noise = [&](std::uint64_t stream, double sigma) {
    if (!noise_seed) return 1.0;
    if (!rng) rng.emplace(*noise_seed, stream);
    return rng->lognormal_factor(sigma);
  };
  // A formula time scaled by a noise factor (exact when the factor is 1.0).
  const auto scaled = [](SimTime time, double factor) {
    return static_cast<SimTime>(static_cast<double>(time) * factor);
  };

  LaunchReport report;
  switch (kind) {
    case LauncherKind::kMrnetRsh:
    case LauncherKind::kMrnetSsh: {
      const bool rsh = kind == LauncherKind::kMrnetRsh;
      if (rsh && !machine.supports_rsh) {
        report.status = unavailable(machine.name + " does not support rsh");
        return report;
      }
      if (!rsh && !machine.supports_ssh) {
        report.status =
            unavailable(machine.name + " compute nodes do not run sshd");
        return report;
      }
      if (rsh && request.num_daemons >= costs.rsh_failure_threshold) {
        // rsh uses reserved ports; the front end exhausts them fanning out
        // this wide. The failure surfaces only after the spawner has ground
        // through part of the list, matching observed behaviour.
        report.status =
            unavailable("rsh spawn failed (reserved ports exhausted)");
        report.finished_at =
            seconds(to_seconds(costs.remote_shell_per_daemon) *
                    static_cast<double>(costs.rsh_failure_threshold) * 0.5);
        return report;
      }
      // One remote shell per daemon, strictly sequential from the front end:
      // per-spawn lognormal noise around the shared analytic formula.
      double mean_noise = 1.0;
      if (noise_seed && request.num_daemons > 0) {
        double noise_sum = 0.0;
        for (std::uint32_t i = 0; i < request.num_daemons; ++i) {
          noise_sum += noise(0x4c, costs.remote_shell_sigma);
        }
        mean_noise = noise_sum / request.num_daemons;
      }
      report.daemon_spawn_time = scaled(
          machine::serial_shell_spawn_time(costs, request.num_daemons),
          mean_noise);
      // Daemons initialize in parallel.
      report.finished_at = report.daemon_spawn_time + costs.daemon_init;
      return report;
    }
    case LauncherKind::kLaunchMon:
      report.daemon_spawn_time = scaled(
          machine::bulk_tree_spawn_time(costs, request.num_daemons),
          noise(0xb1, 0.05));
      report.finished_at = report.daemon_spawn_time + costs.daemon_init;
      return report;
    case LauncherKind::kCiodPatched:
    case LauncherKind::kCiodUnpatched: {
      const bool patched = kind == LauncherKind::kCiodPatched;
      if (!patched &&
          request.num_app_procs >= costs.ciod_unpatched_hang_threshold) {
        // The pre-patch resource manager hung at 208K processes (Sec. IV-A).
        // We surface that as DEADLINE_EXCEEDED after a watchdog interval.
        report.status = deadline_exceeded(
            "BG/L resource manager hang generating the process table at " +
            std::to_string(request.num_app_procs) + " processes");
        report.finished_at = 1800 * kSecond;  // 30 min watchdog
        return report;
      }
      const double factor = noise(0xc10d, 0.04);
      // Daemons are pushed to the I/O nodes through the control network in
      // bulk.
      report.daemon_spawn_time =
          scaled(machine::ciod_spawn_time(costs, request.num_daemons),
                 factor) +
          costs.daemon_init;
      // The app is launched under tool control (the BG/L prototype requires
      // it).
      report.app_launch_time =
          costs.app_launch_base +
          scaled(machine::ciod_app_launch_time(costs, request.num_app_procs) -
                     costs.app_launch_base,
                 factor);
      report.system_software_time = scaled(
          machine::ciod_process_table_time(costs, request.num_app_procs,
                                           patched),
          factor);
      report.finished_at = report.daemon_spawn_time + report.app_launch_time +
                           report.system_software_time;
      return report;
    }
  }
  check(false, "unknown LauncherKind");
  return report;
}

}  // namespace petastat::rm
