// petastat — the driver tool: run the simulated STAT against a configurable
// platform/job and emit a text, CSV, or JSON report.
//
//   $ petastat --machine bgl --tasks 212992 --mode vn
//              --topology bgl2deep --repr hier --format json
#include <cstdio>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/file_io.hpp"
#include "common/serializer.hpp"
#include "service/report.hpp"
#include "service/scheduler.hpp"
#include "service/trace.hpp"
#include "stat/checkpoint.hpp"
#include "stat/cli_config.hpp"
#include "stat/report.hpp"
#include "stat/scenario.hpp"

namespace {

/// `--restore PATH`: read and decode the checkpoint file; decode failures
/// (truncation, corruption, version skew) surface exactly like any other
/// invalid invocation.
petastat::Result<std::shared_ptr<const petastat::stat::SessionCheckpoint>>
load_checkpoint(const std::string& path) {
  using namespace petastat;
  auto bytes = read_file(path);
  if (!bytes.is_ok()) return bytes.status();
  ByteSource source(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.value().data()),
      bytes.value().size()));
  auto decoded = stat::SessionCheckpoint::decode(source);
  if (!decoded.is_ok()) return decoded.status();
  return std::make_shared<const stat::SessionCheckpoint>(
      std::move(decoded).value());
}

/// `--service trace.json`: replay the arrival trace through the session
/// scheduler and emit the service report instead of a single-run report.
int run_service_mode(const petastat::stat::CliConfig& config) {
  using namespace petastat;
  auto trace = service::load_service_trace(config.service_trace_path);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().to_string().c_str());
    return 2;
  }
  if (config.format == stat::OutputFormat::kCsv) {
    std::fprintf(stderr, "error: service mode reports text or json, not csv\n");
    return 2;
  }
  service::ServiceConfig service_config = trace.value().config;
  if (!config.service_policy.empty()) {
    service_config.policy =
        service::parse_scheduler_policy(config.service_policy).value();
  }

  service::SessionScheduler scheduler(service_config);
  for (const auto& request : trace.value().sessions) {
    if (Status s = scheduler.submit(request); !s.is_ok()) {
      std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  const service::ServiceReport report = scheduler.run();
  std::fputs((config.format == stat::OutputFormat::kJson
                  ? service::render_service_json(report)
                  : service::render_service_text(report))
                 .c_str(),
             stdout);
  return report.rejected == 0 && report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace petastat;

  std::vector<std::string_view> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  for (const auto arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::fputs(stat::cli_usage().c_str(), stdout);
      return 0;
    }
  }

  auto parsed = stat::parse_cli(args);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.status().to_string().c_str(),
                 stat::cli_usage().c_str());
    return 2;
  }
  const stat::CliConfig& config = parsed.value();
  if (!config.service_trace_path.empty()) return run_service_mode(config);

  std::shared_ptr<const stat::SessionCheckpoint> restore;
  if (!config.restore_path.empty()) {
    auto loaded = load_checkpoint(config.restore_path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 2;
    }
    restore = std::move(loaded).value();
  }
  stat::StatScenario scenario(config.machine, config.job, config.options,
                              /*executor=*/nullptr, std::move(restore));
  const stat::StatRunResult result = scenario.run();
  const auto& frames = scenario.app().frames();

  switch (config.format) {
    case stat::OutputFormat::kText:
      std::fputs(
          stat::render_text_report(result, frames, config.print_tree).c_str(),
          stdout);
      break;
    case stat::OutputFormat::kCsv:
      std::printf("%s\n%s\n", stat::csv_header().c_str(),
                  stat::render_csv_row(config.machine.name, result).c_str());
      break;
    case stat::OutputFormat::kJson:
      std::fputs(stat::render_json_report(result, frames).c_str(), stdout);
      break;
  }

  // A file that did not reach the disk is exit 3, never "wrote": the
  // checkpoint is what resumes a vacated session.
  const auto write = [](const std::string& path, std::string_view contents) {
    const Status written = write_file(path, contents);
    if (!written.is_ok()) {
      std::fprintf(stderr, "error: %s\n", written.to_string().c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  };
  if (!config.checkpoint_path.empty() && result.checkpoint != nullptr) {
    const std::vector<std::uint8_t> bytes = result.checkpoint->encoded();
    if (!write(config.checkpoint_path,
               {reinterpret_cast<const char*>(bytes.data()), bytes.size()})) {
      return 3;
    }
  }
  if (!config.dot_path.empty() && result.status.is_ok() &&
      !write(config.dot_path, stat::to_dot(result.tree_3d, frames))) {
    return 3;
  }
  return result.status.is_ok() ? 0 : 1;
}
