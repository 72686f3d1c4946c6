// Integration tests of the full STAT scenario: phase pipeline, failure
// modes, representation equivalence, and result structure.
#include <gtest/gtest.h>

#include "stat/scenario.hpp"

namespace petastat::stat {
namespace {

StatRunResult run(const machine::MachineConfig& machine, std::uint32_t tasks,
                  machine::BglMode mode, StatOptions options) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = mode;
  StatScenario scenario(machine, job, options);
  return scenario.run();
}

TEST(Scenario, PhaseTimesArePositiveAndOrdered) {
  StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  const auto result =
      run(machine::atlas(), 512, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_GT(result.phases.launch.total(), 0u);
  EXPECT_GT(result.phases.connect_time, 0u);
  EXPECT_GE(result.phases.startup_total,
            result.phases.launch.total() + result.phases.connect_time);
  EXPECT_GT(result.phases.sample_time, 0u);
  EXPECT_GT(result.phases.merge_time, 0u);
  EXPECT_GT(result.phases.remap_time, 0u);  // hierarchical default
  EXPECT_GT(result.phases.merge_bytes, 0u);
  EXPECT_GT(result.phases.merge_messages, 0u);
  EXPECT_EQ(result.phases.daemon_sample_seconds.count(),
            result.layout.num_daemons);
}

TEST(Scenario, DenseRepresentationSkipsRemap) {
  StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.repr = TaskSetRepr::kDenseGlobal;
  const auto result =
      run(machine::atlas(), 512, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.phases.remap_time, 0u);
}

// The paper's Sec. V correctness claim, end to end: both representations
// produce the same global trees and classes, even with an out-of-order
// process table.
class ReprEquivalenceEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReprEquivalenceEndToEnd, SameTreesAndClasses) {
  StatOptions base;
  base.topology = tbon::TopologySpec::balanced(2);
  base.shuffle_task_map = true;
  base.seed = GetParam();

  StatOptions dense = base;
  dense.repr = TaskSetRepr::kDenseGlobal;
  StatOptions hier = base;
  hier.repr = TaskSetRepr::kHierarchical;

  const auto dense_result =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, dense);
  const auto hier_result =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, hier);
  ASSERT_TRUE(dense_result.status.is_ok());
  ASSERT_TRUE(hier_result.status.is_ok());

  EXPECT_EQ(dense_result.tree_2d, hier_result.tree_2d);
  EXPECT_EQ(dense_result.tree_3d, hier_result.tree_3d);
  ASSERT_EQ(dense_result.classes.size(), hier_result.classes.size());
  for (std::size_t i = 0; i < dense_result.classes.size(); ++i) {
    EXPECT_EQ(dense_result.classes[i].tasks, hier_result.classes[i].tasks);
    EXPECT_EQ(dense_result.classes[i].path, hier_result.classes[i].path);
  }
  // At this small scale the dense labels are actually *cheaper* on the wire
  // (32 bytes per label vs per-daemon block lists) — the hierarchical
  // representation only wins once the job grows, which is precisely the
  // paper's point. LeafPayloadBytesTrackRepresentation covers the large-
  // scale crossover.
  EXPECT_GT(dense_result.phases.merge_bytes, 0u);
  EXPECT_GT(hier_result.phases.merge_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReprEquivalenceEndToEnd,
                         ::testing::Values(1ull, 7ull, 2008ull));

TEST(Scenario, ClassesPartitionTasksAndIsolateTheBug) {
  StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.launcher = LauncherKind::kCiodPatched;
  const auto result =
      run(machine::bgl(), 8192, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(result.status.is_ok());
  std::uint64_t total = 0;
  for (const auto& cls : result.classes) total += cls.size();
  EXPECT_EQ(total, 8192u);
  bool task1 = false, task2 = false;
  for (const auto& cls : result.classes) {
    if (cls.size() == 1 && cls.tasks.contains(1)) task1 = true;
    if (cls.size() == 1 && cls.tasks.contains(2)) task2 = true;
  }
  EXPECT_TRUE(task1);
  EXPECT_TRUE(task2);
}

TEST(Scenario, RshLauncherFailsAt512Daemons) {
  StatOptions options;
  options.launcher = LauncherKind::kMrnetRsh;
  options.run_through = RunThrough::kStartup;
  const auto result =
      run(machine::atlas(), 4096, machine::BglMode::kCoprocessor, options);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(Scenario, SshLauncherUnavailableOnAtlas) {
  StatOptions options;
  options.launcher = LauncherKind::kMrnetSsh;
  options.run_through = RunThrough::kStartup;
  const auto result =
      run(machine::atlas(), 64, machine::BglMode::kCoprocessor, options);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(Scenario, UnpatchedCiodHangsAt208K) {
  StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.launcher = LauncherKind::kCiodUnpatched;
  options.run_through = RunThrough::kStartup;
  const auto result =
      run(machine::bgl(), 212992, machine::BglMode::kVirtualNode, options);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Scenario, FlatTopologyFailsMergeAt256DaemonsOnBgl) {
  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.launcher = LauncherKind::kCiodPatched;
  options.repr = TaskSetRepr::kDenseGlobal;
  const auto result =
      run(machine::bgl(), 16384, machine::BglMode::kCoprocessor, options);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  // Startup and sampling still completed (the failure is in the merge).
  EXPECT_GT(result.phases.sample_time, 0u);
  EXPECT_FALSE(result.phases.merge_status.is_ok());
}

TEST(Scenario, ConnectionLimitBoundaryIsExact) {
  // Exactly the limit survives; one more fails (the documented `> limit`
  // semantic of MachineConfig::max_tool_connections). 256 Atlas tasks = 32
  // daemons hanging directly off a flat front end.
  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  machine::MachineConfig limited = machine::atlas();
  for (const std::uint32_t limit : {33u, 32u}) {
    limited.max_tool_connections = limit;
    const auto result =
        run(limited, 256, machine::BglMode::kCoprocessor, options);
    EXPECT_TRUE(result.status.is_ok()) << "limit " << limit;
  }
  limited.max_tool_connections = 31;
  const auto result =
      run(limited, 256, machine::BglMode::kCoprocessor, options);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(result.phases.merge_status.is_ok());
}

TEST(Scenario, ZeroShardsIsInvalid) {
  StatOptions options;
  options.fe_shards = 0;
  const auto result =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, options);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

// The sharding correctness gate: a sharded run's merged trees and classes
// are bit-identical to the unsharded run's (the merge is canonical, so the
// shard grouping cannot show through).
TEST(Scenario, ShardedMergeIsBitIdenticalToUnsharded) {
  for (const TaskSetRepr repr :
       {TaskSetRepr::kDenseGlobal, TaskSetRepr::kHierarchical}) {
    StatOptions unsharded;
    unsharded.topology = tbon::TopologySpec::flat();
    unsharded.repr = repr;
    StatOptions sharded = unsharded;
    sharded.fe_shards = 4;
    const auto a =
        run(machine::atlas(), 256, machine::BglMode::kCoprocessor, unsharded);
    const auto b =
        run(machine::atlas(), 256, machine::BglMode::kCoprocessor, sharded);
    ASSERT_TRUE(a.status.is_ok());
    ASSERT_TRUE(b.status.is_ok()) << b.status.to_string();
    EXPECT_EQ(b.topology.fe_shards, 4u);
    EXPECT_EQ(b.num_comm_procs, 4u);
    EXPECT_EQ(a.tree_2d, b.tree_2d);
    EXPECT_EQ(a.tree_3d, b.tree_3d);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
      EXPECT_EQ(a.classes[i].path, b.classes[i].path);
      EXPECT_TRUE(a.classes[i].tasks == b.classes[i].tasks);
    }
  }
}

TEST(Scenario, ShardedRemapIsDistributed) {
  // Reducers remap their contiguous slices concurrently: the hier remap
  // phase costs ~1/K of the unsharded remap.
  StatOptions unsharded;
  unsharded.topology = tbon::TopologySpec::flat();
  StatOptions sharded = unsharded;
  sharded.fe_shards = 4;
  const auto a =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, unsharded);
  const auto b =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, sharded);
  ASSERT_TRUE(a.status.is_ok());
  ASSERT_TRUE(b.status.is_ok());
  EXPECT_EQ(a.phases.remap_time, 4 * b.phases.remap_time);
}

// The acceptance scenario: the Sec. V-A configuration that dies unsharded
// (1-deep, 256 daemons over BG/L's 255-connection front end) completes with
// `--fe-shards auto`, producing the same diagnosis as a viable deep tree.
TEST(Scenario, FeShardsAutoRescuesSecVAFailure) {
  StatOptions flat;
  flat.topology = tbon::TopologySpec::flat();
  flat.launcher = LauncherKind::kCiodPatched;
  const auto dead =
      run(machine::bgl(), 16384, machine::BglMode::kCoprocessor, flat);
  ASSERT_EQ(dead.status.code(), StatusCode::kResourceExhausted);

  StatOptions rescued = flat;
  rescued.fe_shards_auto = true;
  const auto alive =
      run(machine::bgl(), 16384, machine::BglMode::kCoprocessor, rescued);
  ASSERT_TRUE(alive.status.is_ok()) << alive.status.to_string();
  EXPECT_GE(alive.topology.fe_shards, 2u);

  StatOptions deep = flat;
  deep.topology = tbon::TopologySpec::bgl(2);
  const auto reference =
      run(machine::bgl(), 16384, machine::BglMode::kCoprocessor, deep);
  ASSERT_TRUE(reference.status.is_ok());
  EXPECT_EQ(alive.tree_3d, reference.tree_3d);
  ASSERT_EQ(alive.classes.size(), reference.classes.size());
  for (std::size_t i = 0; i < alive.classes.size(); ++i) {
    EXPECT_TRUE(alive.classes[i].tasks == reference.classes[i].tasks);
  }
}

TEST(Scenario, RunThroughStopsEarly) {
  StatOptions options;
  options.run_through = RunThrough::kStartup;
  const auto startup_only =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(startup_only.status.is_ok());
  EXPECT_GT(startup_only.phases.startup_total, 0u);
  EXPECT_EQ(startup_only.phases.sample_time, 0u);
  EXPECT_EQ(startup_only.phases.merge_time, 0u);

  options.run_through = RunThrough::kSampling;
  const auto no_merge =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, options);
  EXPECT_GT(no_merge.phases.sample_time, 0u);
  EXPECT_EQ(no_merge.phases.merge_time, 0u);
}

TEST(Scenario, SbrsMakesSamplingScaleFree) {
  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.slim_binaries = true;
  options.use_sbrs = true;
  const auto small =
      run(machine::atlas(), 64, machine::BglMode::kCoprocessor, options);
  const auto large =
      run(machine::atlas(), 1024, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(small.status.is_ok());
  ASSERT_TRUE(large.status.is_ok());
  EXPECT_GT(small.phases.sbrs_relocation, 0u);
  // 16x the daemons, sampling within 35%.
  const double ratio = to_seconds(large.phases.sample_time) /
                       to_seconds(small.phases.sample_time);
  EXPECT_LT(ratio, 1.35);
}

TEST(Scenario, LustreBackendRuns) {
  StatOptions options;
  options.shared_fs = SharedFsKind::kLustre;
  options.slim_binaries = true;
  options.run_through = RunThrough::kSampling;
  const auto result =
      run(machine::atlas(), 256, machine::BglMode::kCoprocessor, options);
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_GT(result.phases.sample_time, 0u);
}

TEST(Scenario, StatBenchAppProducesManyClasses) {
  StatOptions options;
  options.app = AppKind::kStatBench;
  options.statbench_classes = 24;
  options.topology = tbon::TopologySpec::balanced(2);
  const auto result =
      run(machine::atlas(), 1024, machine::BglMode::kCoprocessor, options);
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_GE(result.classes.size(), 15u);
}

TEST(Scenario, ThreadedAppFoldsIntoProcessClasses) {
  machine::JobConfig job;
  job.num_tasks = 512;
  job.threads_per_task = 4;
  StatOptions options;
  options.app = AppKind::kThreadedRing;
  options.topology = tbon::TopologySpec::balanced(2);
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  // Classes stay keyed by MPI rank. With multiple threads a task's distinct
  // per-thread stacks legitimately end in multiple classes, so classes
  // *cover* (not partition) the rank space.
  TaskSet covered;
  for (const auto& cls : result.classes) covered.union_with(cls.tasks);
  EXPECT_EQ(covered.count(), 512u);
  for (const auto& cls : result.classes) {
    EXPECT_LE(cls.tasks.max_task(), 511u);  // ranks, never thread ids
  }
}

TEST(Scenario, VirtualNodeModeDoublesTasksPerDaemon) {
  StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.launcher = LauncherKind::kCiodPatched;
  options.run_through = RunThrough::kSampling;
  const auto co =
      run(machine::bgl(), 8192, machine::BglMode::kCoprocessor, options);
  const auto vn =
      run(machine::bgl(), 16384, machine::BglMode::kVirtualNode, options);
  ASSERT_TRUE(co.status.is_ok());
  ASSERT_TRUE(vn.status.is_ok());
  EXPECT_EQ(co.layout.num_daemons, vn.layout.num_daemons);  // same 128 I/O nodes
  EXPECT_EQ(co.layout.tasks_per_daemon, 64u);
  EXPECT_EQ(vn.layout.tasks_per_daemon, 128u);
}

TEST(Scenario, DeterministicForSameSeedAndConfig) {
  StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.seed = 99;
  const auto a = run(machine::atlas(), 256, machine::BglMode::kCoprocessor,
                     options);
  const auto b = run(machine::atlas(), 256, machine::BglMode::kCoprocessor,
                     options);
  ASSERT_TRUE(a.status.is_ok());
  EXPECT_EQ(a.phases.startup_total, b.phases.startup_total);
  EXPECT_EQ(a.phases.sample_time, b.phases.sample_time);
  EXPECT_EQ(a.phases.merge_time, b.phases.merge_time);
  EXPECT_EQ(a.tree_3d, b.tree_3d);
}

TEST(Scenario, LeafPayloadBytesTrackRepresentation) {
  StatOptions dense;
  dense.topology = tbon::TopologySpec::bgl(2);
  dense.launcher = LauncherKind::kCiodPatched;
  dense.repr = TaskSetRepr::kDenseGlobal;
  StatOptions hier = dense;
  hier.repr = TaskSetRepr::kHierarchical;
  const auto dense_result =
      run(machine::bgl(), 65536, machine::BglMode::kCoprocessor, dense);
  const auto hier_result =
      run(machine::bgl(), 65536, machine::BglMode::kCoprocessor, hier);
  // Dense leaf payloads carry full-job bit vectors: orders of magnitude
  // larger than subtree-local lists.
  EXPECT_GT(dense_result.phases.leaf_payload_bytes,
            50 * hier_result.phases.leaf_payload_bytes);
}

}  // namespace
}  // namespace petastat::stat
