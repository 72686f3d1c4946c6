// Unit tests for the machine model: presets, node-id encoding, daemon
// layouts in CO/VN modes, and host mapping.
#include <gtest/gtest.h>

#include "machine/cost_model.hpp"
#include "machine/machine.hpp"

namespace petastat::machine {
namespace {

TEST(NodeId, EncodingRoundtrips) {
  for (const NodeRole role : {NodeRole::kFrontEnd, NodeRole::kLogin,
                              NodeRole::kIo, NodeRole::kCompute}) {
    for (const std::uint32_t index : {0u, 1u, 1663u, 106495u, 0x0ffffffeu}) {
      const NodeId id = make_node(role, index);
      EXPECT_EQ(node_role(id), role);
      EXPECT_EQ(node_index(id), index);
    }
  }
}

TEST(NodeId, DistinctAcrossRoles) {
  EXPECT_NE(make_node(NodeRole::kIo, 5), make_node(NodeRole::kCompute, 5));
}

TEST(Presets, AtlasMatchesPaper) {
  const MachineConfig m = atlas();
  EXPECT_EQ(m.compute_nodes, 1152u);
  EXPECT_EQ(m.cores_per_compute_node, 8u);
  EXPECT_EQ(m.daemon_placement, DaemonPlacement::kPerComputeNode);
  EXPECT_TRUE(m.daemon_shares_cpu);
  EXPECT_FALSE(m.static_binary);
  EXPECT_TRUE(m.supports_rsh);
  EXPECT_FALSE(m.supports_ssh);  // Sec. IV-A: no sshd on compute nodes
}

TEST(Presets, BglMatchesPaper) {
  const MachineConfig m = bgl();
  EXPECT_EQ(m.compute_nodes, 106496u);
  EXPECT_EQ(m.cores_per_compute_node, 2u);
  EXPECT_EQ(m.io_nodes, 1664u);  // 1 per 64 compute nodes
  EXPECT_EQ(m.compute_nodes_per_io_node, 64u);
  EXPECT_EQ(m.login_nodes, 14u);
  EXPECT_TRUE(m.static_binary);
  EXPECT_FALSE(m.daemon_shares_cpu);
  EXPECT_EQ(m.compute_nodes / m.compute_nodes_per_io_node, m.io_nodes);
}

TEST(Presets, PetascaleHasMillionCores) {
  const MachineConfig m = petascale();
  EXPECT_EQ(static_cast<std::uint64_t>(m.compute_nodes) *
                m.cores_per_compute_node,
            1048576ull);
}

TEST(Presets, ByNameBuildsTheNamedPreset) {
  for (const char* name : {"atlas", "bgl", "petascale"}) {
    const auto machine = preset(name);
    ASSERT_TRUE(machine.is_ok()) << name;
    EXPECT_EQ(machine.value().name, name);
  }
  EXPECT_EQ(preset("bgl").value().max_tool_connections,
            bgl().max_tool_connections);
  for (const char* name : {"cray", "", "Atlas", "bgl "}) {
    EXPECT_EQ(preset(name).status().code(), StatusCode::kInvalidArgument)
        << "'" << name << "'";
  }
}

TEST(Layout, AtlasPacksEightTasksPerDaemon) {
  const auto layout = layout_daemons(atlas(), {.num_tasks = 1024});
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout.value().num_daemons, 128u);
  EXPECT_EQ(layout.value().tasks_per_daemon, 8u);
}

TEST(Layout, BglCoprocessorSixtyFourPerDaemon) {
  JobConfig job;
  job.num_tasks = 16384;
  job.mode = BglMode::kCoprocessor;
  const auto layout = layout_daemons(bgl(), job);
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout.value().tasks_per_daemon, 64u);
  EXPECT_EQ(layout.value().num_daemons, 256u);  // the Fig. 5 failure point
}

TEST(Layout, BglVirtualNode128PerDaemon) {
  JobConfig job;
  job.num_tasks = 212992;
  job.mode = BglMode::kVirtualNode;
  const auto layout = layout_daemons(bgl(), job);
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout.value().tasks_per_daemon, 128u);
  EXPECT_EQ(layout.value().num_daemons, 1664u);  // the paper's 1664 daemons
}

TEST(Layout, RejectsOversizedJobs) {
  const auto too_big = layout_daemons(atlas(), {.num_tasks = 10000});
  EXPECT_FALSE(too_big.is_ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);

  JobConfig job;
  job.num_tasks = 300000;
  job.mode = BglMode::kVirtualNode;
  EXPECT_FALSE(layout_daemons(bgl(), job).is_ok());
}

TEST(Layout, RejectsEmptyJob) {
  EXPECT_EQ(layout_daemons(atlas(), {.num_tasks = 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Layout, LastDaemonMayBePartial) {
  const auto layout = layout_daemons(atlas(), {.num_tasks = 100});
  ASSERT_TRUE(layout.is_ok());
  const DaemonLayout& l = layout.value();
  EXPECT_EQ(l.num_daemons, 13u);
  EXPECT_EQ(l.tasks_of(DaemonId(0)), 8u);
  EXPECT_EQ(l.tasks_of(DaemonId(12)), 4u);
  std::uint64_t total = 0;
  for (std::uint32_t d = 0; d < l.num_daemons; ++d) total += l.tasks_of(DaemonId(d));
  EXPECT_EQ(total, 100u);
}

TEST(Layout, DaemonOfTaskInverse) {
  const auto layout = layout_daemons(atlas(), {.num_tasks = 1024}).value();
  for (std::uint32_t t = 0; t < 1024; t += 7) {
    const DaemonId d = layout.daemon_of_task(TaskId(t));
    const std::uint32_t first = layout.first_task_of(d);
    EXPECT_GE(t, first);
    EXPECT_LT(t, first + layout.tasks_of(d));
  }
}

TEST(DaemonHost, FollowsPlacementPolicy) {
  EXPECT_EQ(node_role(daemon_host(atlas(), DaemonId(3))), NodeRole::kCompute);
  EXPECT_EQ(node_role(daemon_host(bgl(), DaemonId(3))), NodeRole::kIo);
  EXPECT_EQ(node_index(daemon_host(bgl(), DaemonId(42))), 42u);
}

class TasksPerNode
    : public ::testing::TestWithParam<std::tuple<BglMode, std::uint32_t>> {};

TEST_P(TasksPerNode, BglModesMatchPaper) {
  const auto [mode, expected] = GetParam();
  EXPECT_EQ(tasks_per_compute_node(bgl(), mode), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TasksPerNode,
    ::testing::Values(std::make_tuple(BglMode::kCoprocessor, 1u),
                      std::make_tuple(BglMode::kVirtualNode, 2u)));

TEST(CostModel, BglIsSlowerAtWalkingAndFiltering) {
  const CostModel atlas_costs = default_cost_model(atlas());
  const CostModel bgl_costs = default_cost_model(bgl());
  EXPECT_GT(bgl_costs.sampling.walk_per_frame, atlas_costs.sampling.walk_per_frame);
  EXPECT_GT(bgl_costs.merge.per_packet_cpu, atlas_costs.merge.per_packet_cpu);
}

TEST(CostModel, RemapMatchesPaperAnchor) {
  // 0.66 s at 208K tasks => ~3.1 us per task.
  const CostModel c = default_cost_model(bgl());
  const double remap_208k = to_seconds(c.merge.remap_per_task) * 212992;
  EXPECT_NEAR(remap_208k, 0.66, 0.05);
}

}  // namespace
}  // namespace petastat::machine
