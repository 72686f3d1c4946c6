// Command-line configuration for the `petastat` driver tool. Parsing is a
// library function so it can be unit-tested without spawning the binary.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "machine/machine.hpp"
#include "stat/scenario.hpp"

namespace petastat::stat {

enum class OutputFormat { kText, kCsv, kJson };

struct CliConfig {
  machine::MachineConfig machine = machine::atlas();
  machine::JobConfig job{.num_tasks = 1024};
  StatOptions options;
  OutputFormat format = OutputFormat::kText;
  bool print_tree = false;
  std::string dot_path;  // write the 3D tree as DOT when non-empty
  /// Write the last SessionCheckpoint the run captured here (from
  /// `--checkpoint-period N:PATH` or `--vacate-at R:PATH`).
  std::string checkpoint_path;
  /// Resume from the SessionCheckpoint file at this path (`--restore`).
  std::string restore_path;
  /// Multi-session service mode: replay this arrival trace through the
  /// service::SessionScheduler instead of running one scenario. Kept as a
  /// path string here (stat/ does not depend on service/); the driver
  /// dispatches on it.
  std::string service_trace_path;
  /// Scheduler policy override for service mode ("fifo"/"backfill"; empty =
  /// whatever the trace says). Validated at parse time.
  std::string service_policy;
};

/// Usage text for --help.
[[nodiscard]] std::string cli_usage();

/// Parses `args` (excluding argv[0]) against one flag table; cli_usage()
/// lists every flag, its values and its default. Unknown flags, malformed
/// values, and invalid combinations come back as INVALID_ARGUMENT; a job
/// that does not fit the machine comes back as layout_daemons' status.
[[nodiscard]] Result<CliConfig> parse_cli(std::span<const std::string_view> args);

}  // namespace petastat::stat
