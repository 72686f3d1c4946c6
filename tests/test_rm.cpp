// Unit tests for the resource-manager launch model (Sec. IV).
#include <gtest/gtest.h>

#include <optional>

#include "machine/cost_model.hpp"
#include "plan/predictor.hpp"
#include "rm/launcher.hpp"
#include "stat/scenario.hpp"

namespace petastat::rm {
namespace {

const machine::LaunchCosts kCosts;

/// One seeded launch, as a scenario with seed 1 runs it.
LaunchReport run(LauncherKind kind, const machine::MachineConfig& machine,
                 std::uint32_t daemons, std::uint32_t procs = 0) {
  return launch(kind, machine, kCosts, {daemons, procs}, 1);
}

TEST(TreeLevels, MatchesLogarithm) {
  EXPECT_EQ(machine::tree_levels(0, 32), 0u);
  EXPECT_EQ(machine::tree_levels(1, 32), 1u);
  EXPECT_EQ(machine::tree_levels(2, 32), 1u);
  EXPECT_EQ(machine::tree_levels(32, 32), 1u);
  EXPECT_EQ(machine::tree_levels(33, 32), 2u);
  EXPECT_EQ(machine::tree_levels(1024, 32), 2u);
  EXPECT_EQ(machine::tree_levels(1025, 32), 3u);
}

class TreeLevelsProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TreeLevelsProperty, FanoutPowerCoversN) {
  const std::uint32_t n = GetParam();
  for (const std::uint32_t fanout : {2u, 8u, 32u}) {
    const std::uint32_t levels = machine::tree_levels(n, fanout);
    if (n <= 1) continue;
    std::uint64_t reach = 1;
    for (std::uint32_t l = 0; l < levels; ++l) reach *= fanout;
    EXPECT_GE(reach, n);
    EXPECT_LT(reach / fanout, n);  // levels is minimal
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, TreeLevelsProperty,
                         ::testing::Values(2u, 3u, 16u, 100u, 512u, 1664u,
                                           65536u));

TEST(RemoteShell, SerialSpawnIsLinear) {
  const auto r64 = run(LauncherKind::kMrnetRsh, machine::atlas(), 64);
  ASSERT_TRUE(r64.status.is_ok());
  const auto r128 = run(LauncherKind::kMrnetRsh, machine::atlas(), 128);
  ASSERT_TRUE(r128.status.is_ok());
  // Doubling daemons roughly doubles spawn time (same seed, fresh stream).
  const double ratio = to_seconds(r128.daemon_spawn_time) /
                       to_seconds(r64.daemon_spawn_time);
  EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(RemoteShell, RshFailsAtThreshold) {
  const auto report = run(LauncherKind::kMrnetRsh, machine::atlas(),
                          kCosts.rsh_failure_threshold);
  EXPECT_EQ(report.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(report.total(), 0u);  // failure is detected after burning time
}

TEST(RemoteShell, JustBelowThresholdSucceeds) {
  EXPECT_TRUE(run(LauncherKind::kMrnetRsh, machine::atlas(),
                  kCosts.rsh_failure_threshold - 1)
                  .status.is_ok());
}

TEST(RemoteShell, SshUnsupportedOnAtlasComputeNodes) {
  EXPECT_EQ(run(LauncherKind::kMrnetSsh, machine::atlas(), 8).status.code(),
            StatusCode::kUnavailable);
}

TEST(RemoteShell, RshUnsupportedOnBgl) {
  EXPECT_EQ(run(LauncherKind::kMrnetRsh, machine::bgl(), 8).status.code(),
            StatusCode::kUnavailable);
}

TEST(BulkTree, ScalesLogarithmically) {
  const auto r16 = run(LauncherKind::kLaunchMon, machine::atlas(), 16);
  const auto r1024 = run(LauncherKind::kLaunchMon, machine::atlas(), 1024);
  // 64x the daemons costs only one extra tree level.
  EXPECT_LT(to_seconds(r1024.total()),
            to_seconds(r16.total()) + 2 * to_seconds(kCosts.rm_broadcast_per_level));
}

TEST(BulkTree, Beats512SerialSpawns) {
  const auto report = run(LauncherKind::kLaunchMon, machine::atlas(), 512);
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_LT(to_seconds(report.total()), 10.0);  // vs >120 s serial trend
}

TEST(Ciod, PatchedIsLinearInProcs) {
  const SimTime t1 = machine::ciod_process_table_time(kCosts, 10'000, true);
  const SimTime t2 = machine::ciod_process_table_time(kCosts, 20'000, true);
  const double marginal = to_seconds(t2 - t1);
  EXPECT_NEAR(marginal, to_seconds(kCosts.ciod_per_proc) * 10'000, 1e-6);
}

TEST(Ciod, UnpatchedIsQuadraticInProcs) {
  const auto table = [](std::uint32_t procs, bool patched) {
    return to_seconds(machine::ciod_process_table_time(kCosts, procs, patched));
  };
  const double extra_64k = table(65'536, false) - table(65'536, true);
  const double extra_128k = table(131'072, false) - table(131'072, true);
  EXPECT_NEAR(extra_128k / extra_64k, 4.0, 0.01);  // 2x procs -> 4x strcat
}

TEST(Ciod, UnpatchedHangsAt208K) {
  const auto report =
      run(LauncherKind::kCiodUnpatched, machine::bgl(), 1664, 212'992);
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Ciod, PatchedSucceedsAt208K) {
  const auto report =
      run(LauncherKind::kCiodPatched, machine::bgl(), 1664, 212'992);
  EXPECT_TRUE(report.status.is_ok());
  EXPECT_GT(report.system_software_time, 0u);
  EXPECT_GT(report.app_launch_time, 0u);
}

TEST(Ciod, ReportPhasesSumToTotal) {
  const auto report = run(LauncherKind::kCiodPatched, machine::bgl(), 16, 1024);
  EXPECT_EQ(report.total(), report.daemon_spawn_time + report.app_launch_time +
                                report.system_software_time);
}

TEST(Launch, NoSeedMeansTheAnalyticFormulas) {
  const LaunchReport bulk =
      launch(LauncherKind::kLaunchMon, machine::atlas(), kCosts, {512, 0},
             std::nullopt);
  EXPECT_EQ(bulk.total(),
            machine::bulk_tree_spawn_time(kCosts, 512) + kCosts.daemon_init);
  const LaunchReport shell =
      launch(LauncherKind::kMrnetRsh, machine::atlas(), kCosts, {64, 0},
             std::nullopt);
  EXPECT_EQ(shell.total(),
            machine::serial_shell_spawn_time(kCosts, 64) + kCosts.daemon_init);
}

// The planner's startup is the run's startup: for every launcher, on a
// config it survives and on one it dies on, the prediction is the noise-free
// rm::launch, the predicted verdict is the run's, and a doomed run takes
// exactly the predicted time to surface its failure.
TEST(Launch, PlannerPricesWhatTheRunDoes) {
  struct Case {
    const char* what;
    machine::MachineConfig machine;
    std::uint32_t tasks;
    LauncherKind launcher;
    bool doomed;
  };
  // No preset runs sshd on its compute nodes; this what-if one does.
  machine::MachineConfig atlas_sshd = machine::atlas();
  atlas_sshd.supports_ssh = true;
  const Case cases[] = {
      {"rsh, Atlas, 64 daemons", machine::atlas(), 512,
       LauncherKind::kMrnetRsh, false},
      {"rsh, Atlas, 512 daemons", machine::atlas(), 4096,
       LauncherKind::kMrnetRsh, true},
      {"ssh, Atlas", machine::atlas(), 512, LauncherKind::kMrnetSsh, true},
      {"ssh, Atlas with sshd", atlas_sshd, 512, LauncherKind::kMrnetSsh,
       false},
      {"rsh, BG/L", machine::bgl(), 8192, LauncherKind::kMrnetRsh, true},
      {"CIOD patched, 212,992 tasks", machine::bgl(), 212'992,
       LauncherKind::kCiodPatched, false},
      {"CIOD unpatched, 212,992 tasks", machine::bgl(), 212'992,
       LauncherKind::kCiodUnpatched, true},
      {"LaunchMON, Atlas", machine::atlas(), 4096, LauncherKind::kLaunchMon,
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    machine::JobConfig job;
    job.num_tasks = c.tasks;
    job.mode = machine::BglMode::kVirtualNode;
    stat::StatOptions options;
    options.launcher = c.launcher;
    options.topology = c.machine.daemon_placement ==
                               machine::DaemonPlacement::kPerIoNode
                           ? tbon::TopologySpec::bgl(2)
                           : tbon::TopologySpec::balanced(2);
    options.run_through = stat::RunThrough::kStartup;
    const machine::CostModel costs = machine::default_cost_model(c.machine);

    auto predictor = plan::PhasePredictor::create(c.machine, job, options, costs);
    ASSERT_TRUE(predictor.is_ok()) << predictor.status().to_string();
    auto prediction = predictor.value().predict(options.topology);
    ASSERT_TRUE(prediction.is_ok()) << prediction.status().to_string();
    const plan::PhasePrediction& predicted = prediction.value();

    const LaunchReport noise_free =
        launch(c.launcher, c.machine, costs.launch,
               launch_request(c.machine, predictor.value().layout()),
               std::nullopt);
    EXPECT_EQ(predicted.launch, noise_free.total());

    stat::StatScenario scenario(c.machine, job, options);
    const stat::StatRunResult result = scenario.run();
    const LaunchReport& ran = result.phases.launch;
    EXPECT_EQ(predicted.viability.code(), ran.status.code());
    EXPECT_EQ(predicted.viability.message(), ran.status.message());
    EXPECT_EQ(ran.status.is_ok(), !c.doomed);
    if (c.doomed) {
      EXPECT_EQ(ran.total(), predicted.launch);
    } else {
      EXPECT_EQ(result.phases.connect_time, predicted.connect);
    }
  }
}

}  // namespace
}  // namespace petastat::rm
