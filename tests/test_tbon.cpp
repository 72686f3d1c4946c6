// Unit tests for TBON topology construction, connect-time model, the
// reduction engine, and multicast.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/serializer.hpp"
#include "machine/cost_model.hpp"
#include "tbon/multicast.hpp"
#include "tbon/reduction.hpp"
#include "tbon/topology.hpp"

namespace petastat::tbon {
namespace {

machine::DaemonLayout layout_of(const machine::MachineConfig& m,
                                std::uint32_t tasks,
                                machine::BglMode mode = machine::BglMode::kCoprocessor) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = mode;
  return machine::layout_daemons(m, job).value();
}

void check_tree_invariants(const TbonTopology& topo, std::uint32_t daemons) {
  // procs[0] is the front end with no parent.
  EXPECT_EQ(topo.procs[0].parent, -1);
  EXPECT_EQ(topo.procs[0].level, 0u);
  // Every other proc has a valid parent at the previous level, and parents
  // list exactly their children.
  std::vector<std::uint32_t> child_counts(topo.procs.size(), 0);
  for (std::uint32_t i = 1; i < topo.procs.size(); ++i) {
    const auto& p = topo.procs[i];
    ASSERT_GE(p.parent, 0);
    const auto& parent = topo.procs[static_cast<std::uint32_t>(p.parent)];
    EXPECT_EQ(parent.level + 1, p.level);
    EXPECT_NE(std::find(parent.children.begin(), parent.children.end(), i),
              parent.children.end());
    ++child_counts[static_cast<std::uint32_t>(p.parent)];
  }
  for (std::uint32_t i = 0; i < topo.procs.size(); ++i) {
    EXPECT_EQ(topo.procs[i].children.size(), child_counts[i]);
  }
  // Leaves are exactly the daemons, in order.
  ASSERT_EQ(topo.leaf_of_daemon.size(), daemons);
  for (std::uint32_t d = 0; d < daemons; ++d) {
    const auto& leaf = topo.procs[topo.leaf_of_daemon[d]];
    EXPECT_TRUE(leaf.is_leaf());
    EXPECT_EQ(leaf.daemon.value(), d);
    EXPECT_TRUE(leaf.children.empty());
  }
}

TEST(Topology, FlatTreeHasNoCommProcs) {
  const auto layout = layout_of(machine::atlas(), 512);
  const auto topo = build_topology(machine::atlas(), layout,
                                   TopologySpec::flat());
  ASSERT_TRUE(topo.is_ok());
  EXPECT_EQ(topo.value().num_comm_procs(), 0u);
  EXPECT_EQ(topo.value().front_end().children.size(), 64u);  // 512/8 daemons
  check_tree_invariants(topo.value(), 64);
}

class BalancedDepth
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(BalancedDepth, InvariantsHoldAcrossScales) {
  const auto [depth, tasks] = GetParam();
  const auto layout = layout_of(machine::atlas(), tasks);
  const auto topo = build_topology(machine::atlas(), layout,
                                   TopologySpec::balanced(depth));
  ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
  check_tree_invariants(topo.value(), layout.num_daemons);
  // Balanced rule: fanout near the depth-th root of the daemon count.
  const double root = std::pow(layout.num_daemons, 1.0 / depth);
  EXPECT_LE(topo.value().max_fanout(),
            static_cast<std::uint32_t>(std::ceil(root)) * 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BalancedDepth,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(64u, 512u, 4096u, 8192u)));

TEST(Topology, FullClusterLeavesNoCommAllocation) {
  // With every Atlas node running daemons there is no separate compute
  // allocation left for comm processes; only the flat tree fits.
  const auto layout = layout_of(machine::atlas(), 9216);
  EXPECT_TRUE(build_topology(machine::atlas(), layout, TopologySpec::flat())
                  .is_ok());
  const auto deep =
      build_topology(machine::atlas(), layout, TopologySpec::balanced(2));
  EXPECT_EQ(deep.status().code(), StatusCode::kResourceExhausted);
}

TEST(Topology, BglTwoDeepFanoutRule) {
  // "fanout from the front end = sqrt(#daemons) or 28, whichever is less"
  const auto m = machine::bgl();
  {
    const auto layout = layout_of(m, 16384);  // 256 daemons -> sqrt = 16
    const auto topo = build_topology(m, layout, TopologySpec::bgl(2)).value();
    EXPECT_EQ(topo.front_end().children.size(), 16u);
  }
  {
    const auto layout = layout_of(m, 104448);  // 1632 daemons -> min(41,28)=28
    const auto topo = build_topology(m, layout, TopologySpec::bgl(2)).value();
    EXPECT_EQ(topo.front_end().children.size(), 28u);
    check_tree_invariants(topo, layout.num_daemons);
  }
}

TEST(Topology, BglThreeDeepUsesFourThenSecondLevel) {
  const auto m = machine::bgl();
  const auto layout = layout_of(m, 65536);
  for (const std::uint32_t second : {16u, 24u}) {
    const auto topo =
        build_topology(m, layout, TopologySpec::bgl(3, second)).value();
    EXPECT_EQ(topo.front_end().children.size(), 4u);
    EXPECT_EQ(topo.num_comm_procs(), 4u + second);
    check_tree_invariants(topo, layout.num_daemons);
  }
}

TEST(Topology, CommProcsPlacedOnLoginNodesOnBgl) {
  const auto m = machine::bgl();
  const auto layout = layout_of(m, 65536);
  const auto topo = build_topology(m, layout, TopologySpec::bgl(2)).value();
  for (const auto& p : topo.procs) {
    if (!p.is_leaf() && p.parent >= 0) {
      EXPECT_EQ(machine::node_role(p.host), machine::NodeRole::kLogin);
      EXPECT_LT(machine::node_index(p.host), m.login_nodes);
    }
  }
}

TEST(Topology, CommProcsPlacedOnExtraComputeNodesOnAtlas) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 4096);  // daemons on nodes 0..511
  const auto topo =
      build_topology(m, layout, TopologySpec::balanced(2)).value();
  for (const auto& p : topo.procs) {
    if (!p.is_leaf() && p.parent >= 0) {
      EXPECT_EQ(machine::node_role(p.host), machine::NodeRole::kCompute);
      EXPECT_GE(machine::node_index(p.host), 512u);  // separate allocation
    }
  }
}

TEST(Topology, LoginCapacityIsEnforced) {
  auto m = machine::bgl();
  m.max_comm_procs_per_login = 1;  // capacity 14
  const auto layout = layout_of(m, 104448);
  const auto topo = build_topology(m, layout, TopologySpec::bgl(2));
  EXPECT_EQ(topo.status().code(), StatusCode::kResourceExhausted);
}

TEST(Topology, ExplicitWidthsValidated) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 512);
  TopologySpec spec;
  spec.depth = 3;
  spec.level_widths = {8};  // needs depth-1 = 2 entries
  EXPECT_FALSE(build_topology(m, layout, spec).is_ok());
  spec.level_widths = {8, 4};  // narrower than parent level
  EXPECT_FALSE(build_topology(m, layout, spec).is_ok());
  spec.level_widths = {4, 8};
  EXPECT_TRUE(build_topology(m, layout, spec).is_ok());
}

TEST(Topology, DeriveLevelsRejectsMalformedSpecsUpFront) {
  // The hardening contract: zero depth, zero-width levels, and explicit
  // widths beyond the machine's comm-process slots are INVALID_ARGUMENT at
  // derive_levels — callers (planner enumeration included) never see
  // a malformed width vector, let alone a downstream crash.
  const auto m = machine::bgl();
  TopologySpec spec;
  spec.depth = 0;
  EXPECT_EQ(derive_levels(m, spec, 64).status().code(),
            StatusCode::kInvalidArgument);

  spec = TopologySpec();
  spec.depth = 2;
  spec.level_widths = {0};
  EXPECT_EQ(derive_levels(m, spec, 64).status().code(),
            StatusCode::kInvalidArgument);

  spec.level_widths = {400};  // login tier holds 14 x 24 = 336
  EXPECT_EQ(derive_levels(m, spec, 64).status().code(),
            StatusCode::kInvalidArgument);

  spec.level_widths = {24};
  ASSERT_TRUE(derive_levels(m, spec, 64).is_ok());
  EXPECT_EQ(derive_levels(m, spec, 64).value().widths,
            (std::vector<std::uint32_t>{24}));

  // Zero daemons cannot anchor any tree.
  EXPECT_EQ(derive_levels(m, TopologySpec::flat(), 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Topology, ZeroWidthLevelRejectedByBuild) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 512);
  TopologySpec spec;
  spec.depth = 2;
  spec.level_widths = {0};
  EXPECT_EQ(build_topology(m, layout, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Topology, CommProcessCapacityByMachine) {
  // BG/L: 14 login nodes x 24 slots, independent of the job.
  EXPECT_EQ(comm_process_capacity(machine::bgl(), 64), 336u);
  EXPECT_EQ(comm_process_capacity(machine::bgl(), 1664), 336u);
  // Atlas: whatever compute nodes the daemons left free, one per core.
  const auto atlas = machine::atlas();
  EXPECT_EQ(comm_process_capacity(atlas, 512), (1152u - 512u) * 8u);
  EXPECT_EQ(comm_process_capacity(atlas, 1152), 0u);
}

TEST(Topology, ExplicitWidthsBeyondCommSlotsFailEarly) {
  // A full-cluster Atlas job leaves no comm allocation: explicit widths must
  // be rejected as INVALID_ARGUMENT (malformed request), not discovered as
  // an exhausted allocation mid-placement.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 9216);
  TopologySpec spec;
  spec.depth = 2;
  spec.level_widths = {8};
  EXPECT_EQ(build_topology(m, layout, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Topology, ExplicitWidthSpecNamesIncludeWidths) {
  TopologySpec spec;
  spec.depth = 3;
  spec.level_widths = {4, 16};
  EXPECT_EQ(spec.name(), "3-deep[4,16]");
}

TEST(Topology, DepthBoundsChecked) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 64);
  TopologySpec spec;
  spec.depth = 0;
  EXPECT_FALSE(build_topology(m, layout, spec).is_ok());
  spec.depth = 5;
  EXPECT_FALSE(build_topology(m, layout, spec).is_ok());
}

// --------------------------------------------------------------------------
// Sharded front end: reducers as a synthetic first internal level.

TEST(Topology, ShardedFlatInsertsReducerLevel) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto topo =
      build_topology(m, layout, TopologySpec::flat().with_shards(4));
  ASSERT_TRUE(topo.is_ok());
  const TbonTopology& t = topo.value();
  EXPECT_TRUE(t.sharded());
  ASSERT_EQ(t.reducers.size(), 4u);
  EXPECT_EQ(t.front_end().children.size(), 4u);
  EXPECT_EQ(t.num_comm_procs(), 4u);  // reducers are comm processes
  EXPECT_EQ(t.depth, 2u);             // FE + reducer level
  check_tree_invariants(t, 32);
  // Each reducer owns a contiguous daemon range, together covering all 32.
  std::uint32_t next_daemon = 0;
  for (const std::uint32_t r : t.reducers) {
    EXPECT_EQ(t.procs[r].level, 1u);
    for (const std::uint32_t c : t.procs[r].children) {
      ASSERT_TRUE(t.procs[c].is_leaf());
      EXPECT_EQ(t.procs[c].daemon.value(), next_daemon);
      ++next_daemon;
    }
  }
  EXPECT_EQ(next_daemon, 32u);
}

TEST(Topology, ShardedDeepTreePutsReducersAboveCommLevel) {
  const auto m = machine::bgl();
  const auto layout = layout_of(m, 4096);  // 64 daemons
  const auto topo =
      build_topology(m, layout, TopologySpec::bgl(2).with_shards(4));
  ASSERT_TRUE(topo.is_ok());
  const TbonTopology& t = topo.value();
  ASSERT_EQ(t.reducers.size(), 4u);
  EXPECT_EQ(t.front_end().children.size(), 4u);
  EXPECT_EQ(t.depth, 3u);  // FE + reducers + the BG/L comm level
  // Reducer children are the spec's own comm processes, not leaves.
  for (const std::uint32_t r : t.reducers) {
    for (const std::uint32_t c : t.procs[r].children) {
      EXPECT_FALSE(t.procs[c].is_leaf());
    }
  }
  check_tree_invariants(t, 64);
}

TEST(Topology, ShardTaskCountsCoverTheJob) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);
  const auto topo =
      build_topology(m, layout, TopologySpec::flat().with_shards(4)).value();
  const std::vector<std::uint64_t> slices = shard_task_counts(topo, layout);
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(std::accumulate(slices.begin(), slices.end(), std::uint64_t{0}),
            256u);
  // Balanced contiguous split: 8 daemons x 8 tasks each.
  for (const std::uint64_t s : slices) EXPECT_EQ(s, 64u);
  // Unsharded trees have no slices.
  const auto flat =
      build_topology(m, layout, TopologySpec::flat()).value();
  EXPECT_TRUE(shard_task_counts(flat, layout).empty());
}

TEST(Topology, ZeroShardsRejectedUpFront) {
  const auto m = machine::atlas();
  TopologySpec spec = TopologySpec::flat().with_shards(0);
  const auto levels = derive_levels(m, spec, 32);
  EXPECT_EQ(levels.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(build_topology(m, layout_of(m, 256), spec).is_ok());
}

TEST(Topology, MoreShardsThanFirstLevelWidthRejected) {
  // bgl(2) at 64 daemons derives an 8-wide comm level; 16 reducers above it
  // would own no shard.
  const auto m = machine::bgl();
  const auto result = build_topology(m, layout_of(m, 4096),
                                     TopologySpec::bgl(2).with_shards(16));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Topology, ReducersCountAgainstCommSlots) {
  // BG/L login capacity is 14 x 24 = 336: an explicit 334-wide level plus 4
  // reducers does not fit.
  const auto m = machine::bgl();
  TopologySpec spec;
  spec.depth = 2;
  spec.level_widths = {334};
  spec.fe_shards = 4;
  const auto levels = derive_levels(m, spec, 1024);
  EXPECT_EQ(levels.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Reducer trees: K > kShardCombineFanIn grows combiner levels under the FE.

TEST(Topology, ReducerTreeInsertsCombinerLevels) {
  // K = 64 on the petascale preset: 8 combiners fold the 64 shard payloads,
  // so no merge root fans in more than kShardCombineFanIn shard streams.
  const auto m = machine::petascale();
  machine::JobConfig job;
  job.num_tasks = 131072;
  job.mode = machine::BglMode::kVirtualNode;
  const auto layout = machine::layout_daemons(m, job).value();  // 256 daemons
  const auto topo =
      build_topology(m, layout, TopologySpec::flat().with_shards(64));
  ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
  const TbonTopology& t = topo.value();
  EXPECT_TRUE(t.sharded());
  ASSERT_EQ(t.reducers.size(), 64u);
  ASSERT_EQ(t.combiners.size(), 8u);
  EXPECT_EQ(t.num_shard_procs(), 72u);
  EXPECT_EQ(t.num_comm_procs(), 72u);
  EXPECT_EQ(t.depth, 3u);  // FE + combiner level + reducer level
  EXPECT_EQ(t.front_end().children.size(), 8u);
  for (const std::uint32_t c : t.combiners) {
    EXPECT_EQ(t.procs[c].level, 1u);
    EXPECT_LE(t.procs[c].children.size(), kShardCombineFanIn);
    for (const std::uint32_t r : t.procs[c].children) {
      EXPECT_FALSE(t.procs[r].is_leaf());  // combiners feed off reducers
    }
  }
  // Reducers still own contiguous daemon ranges covering the whole job.
  std::uint32_t next_daemon = 0;
  for (const std::uint32_t r : t.reducers) {
    EXPECT_EQ(t.procs[r].level, 2u);
    for (const std::uint32_t c : t.procs[r].children) {
      ASSERT_TRUE(t.procs[c].is_leaf());
      EXPECT_EQ(t.procs[c].daemon.value(), next_daemon);
      ++next_daemon;
    }
  }
  EXPECT_EQ(next_daemon, layout.num_daemons);
  check_tree_invariants(t, layout.num_daemons);
  // Every merge root is within the machine's connection ceiling.
  EXPECT_TRUE(connection_viability(t, m.max_tool_connections).is_ok());
}

TEST(Topology, ReducerTreeFanInNeverExceedsTheConnectionLimit) {
  // A tiny connection ceiling tightens the combine fan-in below 8: K = 16
  // over limit 2 folds through three binary combiner levels.
  auto m = machine::petascale();
  m.max_tool_connections = 2;
  const auto levels = derive_levels(m, TopologySpec::flat().with_shards(16),
                                    /*num_daemons=*/256);
  ASSERT_TRUE(levels.is_ok());
  EXPECT_EQ(levels.value().widths,
            (std::vector<std::uint32_t>{2, 4, 8, 16}));
  EXPECT_EQ(levels.value().shard_levels, 4u);
  EXPECT_EQ(levels.value().num_reducers(), 16u);

  machine::JobConfig job;
  job.num_tasks = 131072;
  job.mode = machine::BglMode::kVirtualNode;
  const auto layout = machine::layout_daemons(m, job).value();
  const auto topo =
      build_topology(m, layout, TopologySpec::flat().with_shards(16));
  ASSERT_TRUE(topo.is_ok());
  // The combiner levels honor the tightened limit; the reducers themselves
  // still fan out to their daemon shards (that is what the rx-buffer and
  // connection checks on reducers are for).
  for (const std::uint32_t c : topo.value().combiners) {
    EXPECT_LE(topo.value().procs[c].children.size(), 2u);
  }
  EXPECT_EQ(topo.value().front_end().children.size(), 2u);
}

TEST(Topology, SmallShardCountsReproduceTheFlatReducerLayoutByteForByte) {
  // K <= kShardCombineFanIn must keep the PR-4 layout: reducers directly
  // under the FE (no combiners), placed by the machine's comm rule — the
  // spare compute allocation packed one proc per core on Atlas, round-robin
  // over the login tier on BG/L — and the spec name unchanged.
  {
    const auto m = machine::atlas();
    const auto layout = layout_of(m, 256);  // 32 daemons on nodes 0..31
    const auto t =
        build_topology(m, layout, TopologySpec::flat().with_shards(8)).value();
    EXPECT_TRUE(t.combiners.empty());
    ASSERT_EQ(t.reducers.size(), 8u);
    EXPECT_EQ(t.depth, 2u);
    EXPECT_EQ(t.front_end().children.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const auto& proc = t.procs[t.reducers[i]];
      EXPECT_EQ(proc.level, 1u);
      // Comm rule on Atlas: core-packed onto the first spare compute node.
      EXPECT_EQ(proc.host,
                m.compute_node(32 + i / m.cores_per_compute_node));
    }
  }
  {
    const auto m = machine::bgl();
    const auto layout = layout_of(m, 4096);  // 64 daemons
    const auto t =
        build_topology(m, layout, TopologySpec::flat().with_shards(4)).value();
    EXPECT_TRUE(t.combiners.empty());
    ASSERT_EQ(t.reducers.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      // Comm rule on BG/L: round-robin over the 14 login nodes.
      EXPECT_EQ(t.procs[t.reducers[i]].host,
                m.login_node(i % m.login_nodes));
    }
  }
  EXPECT_EQ(TopologySpec::flat().with_shards(4).name(), "1-deep x4shard");
}

// --------------------------------------------------------------------------
// Reducer placement: pack vs spread host assignment.

TEST(Topology, PackPlacementFillsLoginNodesFirst) {
  const auto m = machine::bgl();  // 14 logins x 24 slots
  const auto layout = layout_of(m, 16384);  // 256 daemons
  const auto spec = TopologySpec::flat().with_shards(64).with_placement(
      ReducerPlacement::kPack);
  const auto t = build_topology(m, layout, spec).value();
  ASSERT_EQ(t.num_shard_procs(), 72u);  // 8 combiners + 64 reducers
  // Shard procs fill login 0's 24 slots, then login 1, then login 2.
  EXPECT_EQ(shard_spawn_hosts(t), 3u);
  std::uint32_t seq = 0;
  for (const std::uint32_t c : t.combiners) {
    EXPECT_EQ(t.procs[c].host,
              m.login_node(seq++ / m.max_comm_procs_per_login));
  }
  for (const std::uint32_t r : t.reducers) {
    EXPECT_EQ(t.procs[r].host,
              m.login_node(seq++ / m.max_comm_procs_per_login));
  }
}

TEST(Topology, SpreadPlacementTakesWholeComputeNodesOnClusters) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // daemons on nodes 0..31
  TopologySpec spec;
  spec.depth = 2;
  spec.level_widths = {16};  // one comm proc under each reducer
  spec = spec.with_shards(16).with_placement(ReducerPlacement::kSpread);
  const auto t = build_topology(m, layout, spec).value();
  // Shard machinery: 2 combiners + 16 reducers, one spare node each.
  ASSERT_EQ(t.num_shard_procs(), 18u);
  EXPECT_EQ(shard_spawn_hosts(t), 18u);
  std::uint32_t node = 32;
  for (const std::uint32_t c : t.combiners) {
    EXPECT_EQ(t.procs[c].host, m.compute_node(node++));
  }
  for (const std::uint32_t r : t.reducers) {
    EXPECT_EQ(t.procs[r].host, m.compute_node(node++));
  }
  // The spec's own comm level packs per core *after* the spread nodes.
  for (const auto& p : t.procs) {
    if (!p.is_leaf() && p.parent >= 0 && p.level == 3) {
      EXPECT_GE(machine::node_index(p.host), 32u + 18u);
    }
  }
  check_tree_invariants(t, 32);
}

TEST(Topology, SpreadPlacementFailsWhenTheAllocationIsTight) {
  // 1,120 daemons leave 32 spare Atlas nodes: 36 shard procs (4 combiners +
  // 32 reducers) cannot take a whole node each, but pack fits them onto the
  // spare cores easily.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 8960);  // 1120 daemons
  const auto spec = TopologySpec::flat().with_shards(32);
  const auto spread = build_topology(
      m, layout, spec.with_placement(ReducerPlacement::kSpread));
  EXPECT_EQ(spread.status().code(), StatusCode::kResourceExhausted);
  const auto pack =
      build_topology(m, layout, spec.with_placement(ReducerPlacement::kPack));
  ASSERT_TRUE(pack.is_ok()) << pack.status().to_string();
  EXPECT_LE(shard_spawn_hosts(pack.value()), 5u);
}

TEST(Topology, PackNeverOvercommitsALoginNodePastItsSlotLimit) {
  // kPack fills hosts to their helper-slot maximum; the spec's own comm
  // level must then land on the *least-loaded* logins rather than blindly
  // round-robining onto the already-full ones — the per-host limit holds
  // for every placement mix, not just in aggregate.
  auto m = machine::bgl();
  m.max_comm_procs_per_login = 4;  // capacity 14 x 4 = 56
  const auto layout = layout_of(m, 16384);  // 256 daemons
  TopologySpec spec;
  spec.depth = 2;
  spec.level_widths = {16};  // one comm proc under each reducer
  spec = spec.with_shards(16).with_placement(ReducerPlacement::kPack);
  const auto t = build_topology(m, layout, spec).value();
  ASSERT_EQ(t.num_shard_procs(), 18u);  // 2 combiners + 16 reducers
  std::vector<std::uint32_t> per_login(m.login_nodes, 0);
  for (const auto& p : t.procs) {
    if (p.is_leaf() || p.parent < 0) continue;
    ASSERT_EQ(machine::node_role(p.host), machine::NodeRole::kLogin);
    ++per_login[machine::node_index(p.host)];
  }
  for (const std::uint32_t load : per_login) {
    EXPECT_LE(load, m.max_comm_procs_per_login);
  }
}

TEST(Topology, PlacementNamesAreDescriptive) {
  EXPECT_EQ(TopologySpec::flat().with_shards(64)
                .with_placement(ReducerPlacement::kSpread).name(),
            "1-deep x64shard/spread");
  EXPECT_EQ(TopologySpec::flat().with_shards(16)
                .with_placement(ReducerPlacement::kPack).name(),
            "1-deep x16shard/pack");
  // The comm-like default keeps the historical name.
  EXPECT_EQ(TopologySpec::flat().with_shards(4)
                .with_placement(ReducerPlacement::kCommLike).name(),
            "1-deep x4shard");
}

TEST(Topology, ShardTaskCountsCoverTheJobThroughTheReducerTree) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 512);  // 64 daemons
  const auto topo =
      build_topology(m, layout, TopologySpec::flat().with_shards(16)).value();
  ASSERT_EQ(topo.reducers.size(), 16u);
  ASSERT_EQ(topo.combiners.size(), 2u);
  const std::vector<std::uint64_t> slices = shard_task_counts(topo, layout);
  ASSERT_EQ(slices.size(), 16u);
  EXPECT_EQ(std::accumulate(slices.begin(), slices.end(), std::uint64_t{0}),
            512u);
  for (const std::uint64_t s : slices) EXPECT_EQ(s, 32u);  // 4 daemons x 8
  EXPECT_EQ(largest_shard_task_count(topo, layout), 32u);
}

TEST(Topology, ConnectionViabilityBoundaryIsExact) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto flat = build_topology(m, layout, TopologySpec::flat()).value();
  EXPECT_TRUE(connection_viability(flat, 33).is_ok());
  EXPECT_TRUE(connection_viability(flat, 32).is_ok());  // exactly the limit
  EXPECT_EQ(connection_viability(flat, 31).code(),
            StatusCode::kResourceExhausted);
  // Sharding relieves the front end, but each reducer must survive its own
  // shard: 4 reducers x 8 daemons.
  const auto sharded =
      build_topology(m, layout, TopologySpec::flat().with_shards(4)).value();
  EXPECT_TRUE(connection_viability(sharded, 8).is_ok());
  EXPECT_EQ(connection_viability(sharded, 7).code(),
            StatusCode::kResourceExhausted);
}

TEST(Topology, ConnectTimeGrowsWithFanout) {
  const auto m = machine::atlas();
  const machine::LaunchCosts costs;
  const auto flat = build_topology(m, layout_of(m, 4096),
                                   TopologySpec::flat()).value();
  const auto deep = build_topology(m, layout_of(m, 4096),
                                   TopologySpec::balanced(2)).value();
  EXPECT_GT(connect_time(flat, costs), connect_time(deep, costs));
}

// --------------------------------------------------------------------------
// Reduction engine, with a toy integer payload.

struct SumPayload {
  std::uint64_t sum = 0;
  std::uint32_t contributions = 0;
};

ReduceOps<SumPayload> sum_ops() {
  ReduceOps<SumPayload> ops;
  ops.merge_cpu = [](const SumPayload&) { return SimTime{100}; };
  ops.merge_into = [](SumPayload& acc, SumPayload&& child) {
    acc.sum += child.sum;
    acc.contributions += child.contributions;
  };
  ops.wire_bytes = [](const SumPayload&) { return std::uint64_t{64}; };
  ops.codec_cost = [](std::uint64_t) { return SimTime{50}; };
  return ops;
}

class ReductionCorrectness : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReductionCorrectness, SumsAllLeavesExactlyOnce) {
  const std::uint32_t tasks = GetParam();
  const auto m = machine::atlas();
  const auto layout = layout_of(m, tasks);
  const auto topo =
      build_topology(m, layout, TopologySpec::balanced(2)).value();

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());

  std::vector<SumPayload> leaves(layout.num_daemons);
  std::uint64_t expected = 0;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    leaves[d] = {static_cast<std::uint64_t>(d) * d + 1, 1};
    expected += leaves[d].sum;
  }

  std::optional<ReduceResult<SumPayload>> result;
  reduction.start(std::move(leaves),
                  [&result](ReduceResult<SumPayload> r) { result = std::move(r); });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload.sum, expected);
  EXPECT_EQ(result->payload.contributions, layout.num_daemons);
  EXPECT_GT(result->finished_at, 0u);
  EXPECT_EQ(result->messages, topo.procs.size() - 1);  // one msg per edge
}

INSTANTIATE_TEST_SUITE_P(Scales, ReductionCorrectness,
                         ::testing::Values(64u, 256u, 1024u, 4096u));

TEST(Reduction, DeeperTreesReduceFrontEndWork) {
  // With expensive per-packet codec cost, the flat tree's front end pays for
  // every daemon; the deep tree amortizes across comm processes.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 4096);

  const auto run_depth = [&](std::uint32_t depth) {
    const auto topo = build_topology(
        m, layout, depth == 1 ? TopologySpec::flat() : TopologySpec::balanced(depth))
        .value();
    sim::Simulator simulator;
    net::Network network(simulator, net::build_switch_graph(m));
    ReduceOps<SumPayload> ops = sum_ops();
    ops.codec_cost = [](std::uint64_t) { return SimTime{1 * kMillisecond}; };
    Reduction<SumPayload> reduction(simulator, network, topo, ops);
    std::vector<SumPayload> leaves(layout.num_daemons, SumPayload{1, 1});
    SimTime finish = 0;
    reduction.start(std::move(leaves),
                    [&finish](ReduceResult<SumPayload> r) { finish = r.finished_at; });
    simulator.run();
    return finish;
  };

  EXPECT_LT(run_depth(2), run_depth(1));
}

TEST(Reduction, StartIsRoundZeroOfTheSameEngine) {
  // The classic merge is round 0 of a run with no baselines: start() and a
  // lone run_round(0, ...) on an engine built from the same ReduceOps move
  // the same messages and bytes and finish at the same virtual time.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 1024);
  const auto topo = build_topology(m, layout, TopologySpec::balanced(3)).value();
  std::vector<SumPayload> leaves(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    leaves[d] = {static_cast<std::uint64_t>(d) * 3 + 7, 1};
  }

  const auto run = [&](bool classic) {
    sim::Simulator simulator;
    net::Network network(simulator, net::build_switch_graph(m));
    Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());
    std::optional<ReduceResult<SumPayload>> result;
    const auto done = [&result](ReduceResult<SumPayload> r) {
      result = std::move(r);
    };
    if (classic) {
      reduction.start(leaves, done);
    } else {
      reduction.run_round(0, leaves, done);
    }
    simulator.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(ReduceResult<SumPayload>{});
  };

  const ReduceResult<SumPayload> classic = run(true);
  const ReduceResult<SumPayload> round0 = run(false);
  EXPECT_EQ(classic.payload.sum, round0.payload.sum);
  EXPECT_EQ(classic.payload.contributions, layout.num_daemons);
  EXPECT_EQ(round0.payload.contributions, layout.num_daemons);
  EXPECT_EQ(classic.messages, round0.messages);
  EXPECT_EQ(classic.messages, topo.procs.size() - 1);
  EXPECT_EQ(classic.bytes_moved, round0.bytes_moved);
  EXPECT_EQ(classic.bytes_moved, 64u * (topo.procs.size() - 1));
  EXPECT_EQ(classic.finished_at, round0.finished_at);
  EXPECT_TRUE(round0.changed);
  EXPECT_EQ(round0.changed_daemons, layout.num_daemons);
  EXPECT_EQ(round0.cached_procs, 0u);
}

TEST(Reduction, PayloadCountMismatchThrows) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 64);
  const auto topo = build_topology(m, layout, TopologySpec::flat()).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());
  std::vector<SumPayload> wrong(3);
  EXPECT_THROW(reduction.start(std::move(wrong), nullptr), std::logic_error);
}

TEST(Multicast, ReachesEveryLeafOnce) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 1024);
  const auto topo = build_topology(m, layout, TopologySpec::balanced(3)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  SimTime finished = 0;
  bool fired = false;
  multicast(simulator, network, topo, 64, [&](SimTime t) {
    finished = t;
    fired = true;
  });
  simulator.run();
  EXPECT_TRUE(fired);
  EXPECT_GT(finished, 0u);
  // One message per edge.
  EXPECT_EQ(network.total_messages(), topo.procs.size() - 1);
}

TEST(Multicast, ZeroLeafTopologyCompletesAtCurrentTimeNotZero) {
  // Regression: with no leaves to reach, the completion callback used to
  // report time 0 instead of the simulator's current time.
  TbonTopology topo;
  TbonTopology::Proc fe;
  fe.host = machine::atlas().compute_node(0);
  topo.procs.push_back(fe);

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(machine::atlas()));
  simulator.schedule_in(5 * kSecond, []() {});
  simulator.run();
  ASSERT_EQ(simulator.now(), 5 * kSecond);

  SimTime finished = 0;
  bool fired = false;
  multicast(simulator, network, topo, 64, [&](SimTime t) {
    finished = t;
    fired = true;
  });
  simulator.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(finished, 5 * kSecond);
}

TEST(Multicast, LeafServingSeveralDaemonsCountsOnce) {
  // Regression: completion used to wait for one decrement per *daemon*; a
  // leaf proc serving several daemons receives the message once, so the
  // multicast never completed on such trees.
  const auto m = machine::atlas();
  TbonTopology topo;
  TbonTopology::Proc fe;
  fe.host = m.compute_node(0);
  fe.children = {1};
  topo.procs.push_back(fe);
  TbonTopology::Proc leaf;
  leaf.host = m.compute_node(1);
  leaf.parent = 0;
  leaf.level = 1;
  leaf.daemon = DaemonId(0);
  topo.procs.push_back(leaf);
  topo.leaf_of_daemon = {1, 1};  // two daemons share the one leaf proc

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  bool fired = false;
  multicast(simulator, network, topo, 64, [&](SimTime) { fired = true; });
  simulator.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(network.total_messages(), 1u);
}

TEST(SampleRequestWire, RoundTripsThroughTheVersionedEnvelope) {
  SampleRequest request;
  request.cursor = 7;
  request.count = 12;
  request.interval = 250 * kMillisecond;
  ByteSink sink;
  request.encode(sink);
  ASSERT_EQ(sink.size(), SampleRequest::wire_bytes());

  ByteSource source(sink.bytes());
  const auto decoded = SampleRequest::decode(source);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().cursor, 7u);
  EXPECT_EQ(decoded.value().count, 12u);
  EXPECT_EQ(decoded.value().interval, 250 * kMillisecond);
}

TEST(SampleRequestWire, TruncationAndSkewDecodeDistinctly) {
  SampleRequest request;
  request.count = 4;
  ByteSink sink;
  request.encode(sink);
  const auto bytes = sink.take();

  // Every proper prefix is truncation, not UB and not version skew.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteSource source(std::span(bytes.data(), cut));
    const auto decoded = SampleRequest::decode(source);
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }

  // A bumped leading version byte is skew, reported as FAILED_PRECONDITION
  // so an old daemon meeting a new front end fails loudly.
  auto skewed = bytes;
  skewed[0] = static_cast<std::uint8_t>(skewed[0] + 1);
  ByteSource source(skewed);
  const auto decoded = SampleRequest::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SampleRequestWire, ZeroSampleRequestRejected) {
  SampleRequest request;
  request.count = 0;
  ByteSink sink;
  request.encode(sink);
  ByteSource source(sink.bytes());
  const auto decoded = SampleRequest::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaHeaderWire, RoundTripsBothAckAndChangedForms) {
  for (const bool changed : {false, true}) {
    DeltaHeader header;
    header.cursor = 3;
    header.changed = changed;
    header.signature = 0xfeedfacecafebeefull;
    ByteSink sink;
    header.encode(sink);
    ASSERT_EQ(sink.size(), kDeltaHeaderBytes);

    ByteSource source(sink.bytes());
    const auto decoded = DeltaHeader::decode(source);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().cursor, 3u);
    EXPECT_EQ(decoded.value().changed, changed);
    EXPECT_EQ(decoded.value().signature, 0xfeedfacecafebeefull);
  }
}

TEST(DeltaHeaderWire, CorruptChangedFlagRejected) {
  DeltaHeader header;
  ByteSink sink;
  header.encode(sink);
  auto bytes = sink.take();
  bytes[5] = 2;  // version u8 + cursor u32, then the changed flag
  ByteSource source(bytes);
  const auto decoded = DeltaHeader::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Broadcast, ArmsEveryLeafAndChargesControlCpu) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 1024);
  const auto topo =
      build_topology(m, layout, TopologySpec::balanced(2)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  const machine::StreamCosts costs;

  SampleRequest request;
  request.count = 5;
  std::vector<std::uint32_t> armed;
  BroadcastReport report;
  bool done_fired = false;
  broadcast(simulator, network, topo, costs, request,
            [&](std::uint32_t leaf, SimTime at) {
              armed.push_back(leaf);
              // Every leaf arms after the decode CPU of each proc on its
              // root-to-leaf path (FE + comm + leaf on a 2-deep tree).
              EXPECT_GE(at, 3 * machine::control_packet_cost(costs));
            },
            [&](BroadcastReport r) {
              done_fired = true;
              report = r;
            });
  simulator.run();

  ASSERT_TRUE(done_fired);
  EXPECT_EQ(armed.size(), layout.num_daemons);
  // One message per tree edge, every one the envelope's exact wire size.
  EXPECT_EQ(report.messages, topo.procs.size() - 1);
  EXPECT_EQ(report.bytes, (topo.procs.size() - 1) * SampleRequest::wire_bytes());
  EXPECT_EQ(network.total_messages(), topo.procs.size() - 1);
  EXPECT_GT(report.finished_at, 0u);
}

TEST(Broadcast, DeeperTreesArmLater) {
  // Each added level costs one more decode + hop before the leaves arm.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 1024);
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  const machine::StreamCosts costs;
  SampleRequest request;

  std::vector<SimTime> finished;
  for (const std::uint32_t depth : {1u, 3u}) {
    const auto topo =
        build_topology(m, layout, TopologySpec::balanced(depth)).value();
    broadcast(simulator, network, topo, costs, request, nullptr,
              [&](BroadcastReport r) { finished.push_back(r.finished_at); });
    const SimTime started = simulator.now();
    simulator.run();
    finished.back() -= started;
  }
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_GT(finished[1], finished[0]);
}

TEST(TopologySpecNames, AreDescriptive) {
  EXPECT_EQ(TopologySpec::flat().name(), "1-deep");
  EXPECT_EQ(TopologySpec::balanced(2).name(), "2-deep");
  EXPECT_EQ(TopologySpec::bgl(3, 24).name(), "3-deep(24)");
  EXPECT_EQ(TopologySpec::flat().with_shards(4).name(), "1-deep x4shard");
  EXPECT_EQ(TopologySpec::balanced(2).with_shards(2).name(),
            "2-deep x2shard");
}

}  // namespace
}  // namespace petastat::tbon
