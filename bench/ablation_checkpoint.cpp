// Ablation: checkpoint/restart of streaming sessions — resume cost vs
// re-sampling from scratch (`--checkpoint-period` / `--vacate-at` /
// `--restore`).
//
// A SessionCheckpoint captures a streaming session's full resumable state at
// a round boundary: merged prefix trees, equivalence classes, the resolved
// TopologySpec, the delta caches' validity bits, and the absolute sample
// cursor. This bench records, on the Atlas / BG/L / petascale presets up to
// the Sec. V-A wall scale (131,072 CO tasks = 2,048 daemons):
//   * checkpoint size vs task count (the envelope is dominated by the merged
//     trees and name-based classes, which grow with trace diversity, not
//     linearly with tasks);
//   * the headline: a session killed at round 4 of 6 and restored finishes
//     the series in < 25% of the virtual time a from-scratch re-run takes —
//     the restored run pays comm/reducer spawn + connect + the remaining
//     rounds, not the daemon launch or the already-banked rounds;
//   * the correctness gate: the restored run's 2D/3D trees are bit-identical
//     to the never-killed run at every scale.
#include <cstdio>
#include <string>
#include <vector>

#include "app/appmodel.hpp"
#include "bench/harness.hpp"
#include "stat/checkpoint.hpp"

using namespace petastat;
using namespace petastat::bench;

namespace {

constexpr std::uint32_t kRounds = 6;
constexpr std::int32_t kKillBoundary = 4;

struct CheckpointConfig {
  const char* machine_name;
  machine::MachineConfig machine;
  std::uint32_t tasks = 0;
  std::uint32_t depth = 1;
};

stat::StatOptions checkpoint_options(const machine::MachineConfig& machine,
                                     std::uint32_t depth) {
  stat::StatOptions options;
  // Mirror the CLI's launcher resolution: BG/L-style machines launch
  // through CIOD. Launchmon here would under-price exactly the phase a
  // restore gets to skip.
  if (machine.daemon_placement == machine::DaemonPlacement::kPerIoNode) {
    options.launcher = stat::LauncherKind::kCiodPatched;
  }
  options.topology = tbon::TopologySpec::balanced(depth);
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.app = stat::AppKind::kImbalance;
  options.evolution = app::TraceEvolution::kDrift;
  options.shuffle_task_map = false;
  options.stream_samples = kRounds;
  return options;
}

struct CheckpointPoint {
  double scratch_s = -1.0;        // never-killed run, full series (< 0 = fail)
  double resume_s = -1.0;         // restored run: spawn + connect + rounds 4..6
  double checkpoint_mb = -1.0;    // encoded envelope size
  bool bit_identical = false;     // restored trees == never-killed trees
  std::string note;
};

CheckpointPoint run_point(const CheckpointConfig& config) {
  const stat::StatOptions options =
      checkpoint_options(config.machine, config.depth);
  machine::JobConfig job;
  job.num_tasks = config.tasks;
  job.mode = machine::BglMode::kCoprocessor;

  CheckpointPoint point;
  const stat::StatRunResult scratch = run_scenario(
      config.machine, config.tasks, machine::BglMode::kCoprocessor, options);
  if (!scratch.status.is_ok()) {
    point.note = status_code_name(scratch.status.code());
    return point;
  }

  stat::StatOptions vacate = options;
  vacate.vacate_at_round = kKillBoundary;
  stat::StatScenario vacate_scenario(config.machine, job, vacate);
  const stat::StatRunResult killed = vacate_scenario.run();
  if (!killed.status.is_ok() || killed.checkpoint == nullptr) {
    point.note = "vacate failed";
    return point;
  }

  stat::StatScenario resume_scenario(config.machine, job, options,
                                     /*executor=*/nullptr, killed.checkpoint);
  const stat::StatRunResult resumed = resume_scenario.run();
  if (!resumed.status.is_ok()) {
    point.note = status_code_name(resumed.status.code());
    return point;
  }

  point.scratch_s = to_seconds(scratch.total_virtual_time);
  point.resume_s = to_seconds(resumed.total_virtual_time);
  point.checkpoint_mb =
      static_cast<double>(killed.checkpoint->encoded().size()) / 1.0e6;
  point.bit_identical = resumed.tree_2d == scratch.tree_2d &&
                        resumed.tree_3d == scratch.tree_3d &&
                        resumed.classes.size() == scratch.classes.size();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  title("Ablation — checkpoint/restart of streaming sessions",
        "resume-from-checkpoint cost vs re-sampling the series from scratch "
        "(--vacate-at / --restore), plus checkpoint size vs task count");

  const std::vector<CheckpointConfig> configs = {
      {"atlas", machine::atlas(), 1024, 2},
      {"atlas", machine::atlas(), 4096, 2},
      {"bgl", machine::bgl(), 16384, 2},
      {"bgl", machine::bgl(), 65536, 2},
      {"petascale", machine::petascale(), 65536, 3},
      {"petascale", machine::petascale(), 131072, 3},
  };

  struct MachineTable {
    std::string name;
    Series scratch{"scratch-total"};
    Series resume{"resume-total"};
    Series size_mb{"checkpoint-MB", "MB"};
  };
  std::vector<MachineTable> tables;

  bool all_bit_identical = true;
  bool resume_wins_everywhere = true;
  double headline_ratio = -1.0;
  double headline_scratch_s = -1.0;
  double headline_resume_s = -1.0;
  double headline_checkpoint_mb = -1.0;

  for (const CheckpointConfig& config : configs) {
    const CheckpointPoint point = run_point(config);
    if (tables.empty() || tables.back().name != config.machine_name) {
      tables.push_back({config.machine_name, {}, {}, {}});
      tables.back().scratch = Series("scratch-total");
      tables.back().resume = Series("resume-total");
      tables.back().size_mb = Series("checkpoint-MB", "MB");
    }
    MachineTable& table = tables.back();
    table.scratch.add(config.tasks, point.scratch_s, point.note);
    table.resume.add(config.tasks, point.resume_s, point.note);
    table.size_mb.add(config.tasks, point.checkpoint_mb, point.note);
    if (point.scratch_s < 0) {
      all_bit_identical = false;
      resume_wins_everywhere = false;
      continue;
    }
    all_bit_identical = all_bit_identical && point.bit_identical;
    resume_wins_everywhere =
        resume_wins_everywhere && point.resume_s < point.scratch_s;
    if (std::string(config.machine_name) == "petascale" &&
        config.tasks == 131072) {
      headline_ratio = point.resume_s / point.scratch_s;
      headline_scratch_s = point.scratch_s;
      headline_resume_s = point.resume_s;
      headline_checkpoint_mb = point.checkpoint_mb;
    }
  }

  for (const MachineTable& table : tables) {
    note("machine: " + table.name);
    print_table("tasks", {table.scratch, table.resume, table.size_mb});
  }

  if (headline_ratio >= 0) {
    char ratio_text[96];
    std::snprintf(ratio_text, sizeof ratio_text, "%.1f%% (%.4fs vs %.4fs)",
                  100.0 * headline_ratio, headline_resume_s,
                  headline_scratch_s);
    anchor("petascale 131,072: resume cost vs re-sampling from scratch",
           "< 25%", ratio_text);
    char size_text[64];
    std::snprintf(size_text, sizeof size_text, "%.3f MB",
                  headline_checkpoint_mb);
    anchor("petascale 131,072: checkpoint envelope size", "n/a", size_text);
  }

  shape_check(
      "petascale 131,072: restored session finishes in < 25% of the "
      "from-scratch re-run",
      headline_ratio >= 0 && headline_ratio < 0.25);
  shape_check(
      "restored run bit-identical to the never-killed run (all scales)",
      all_bit_identical);
  shape_check("resuming beats re-sampling at every scale",
              resume_wins_everywhere);

  return finish(argc, argv);
}
