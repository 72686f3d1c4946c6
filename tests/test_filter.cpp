// Tests for the STAT filter's ReduceOps: merge semantics through the TBON
// plumbing, CPU accounting, and payload sizing.
#include <gtest/gtest.h>

#include "app/appmodel.hpp"
#include "stat/filter.hpp"

namespace petastat::stat {
namespace {

struct FilterFixture : ::testing::Test {
  app::FrameTable frames;
  machine::MergeCosts costs;
  LabelContext ctx{1024};

  StatPayload<GlobalLabel> payload_for(std::uint32_t task) {
    StatPayload<GlobalLabel> payload;
    const auto path = frames.make_path({"_start", "main", "work"});
    payload.tree_2d.insert(path, GlobalLabel::for_task(task));
    payload.tree_3d.insert(path, GlobalLabel::for_task(task));
    return payload;
  }
};

TEST_F(FilterFixture, MergeIntoCombinesBothTrees) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> acc;
  SimTime cpu = 0;
  auto merge = [&](StatPayload<GlobalLabel>&& child) {
    cpu += ops.merge_cpu(child);
    ops.merge_into(acc, std::move(child));
  };
  merge(payload_for(1));
  merge(payload_for(2));
  EXPECT_EQ(acc.tree_2d.node_count(), 3u);
  EXPECT_EQ(acc.tree_3d.node_count(), 3u);
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->label.tasks.count(), 2u);
  EXPECT_GT(cpu, 0u);
}

TEST_F(FilterFixture, CpuCostScalesWithChildSize) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> small = payload_for(1);

  StatPayload<GlobalLabel> big;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto path = frames.make_path(
        {"_start", "main", "f" + std::to_string(i), "g" + std::to_string(i)});
    big.tree_3d.insert(path, GlobalLabel::for_task(i));
    big.tree_2d.insert(path, GlobalLabel::for_task(i));
  }

  const SimTime cpu_small = ops.merge_cpu(small);
  const SimTime cpu_big = ops.merge_cpu(big);
  EXPECT_GT(cpu_big, cpu_small * 5);
}

TEST_F(FilterFixture, CodecCostHasPerPacketFloor) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  EXPECT_GE(ops.codec_cost(0), costs.per_packet_cpu);
  EXPECT_GT(ops.codec_cost(1 << 20), ops.codec_cost(0));
}

TEST_F(FilterFixture, WireBytesReflectRepresentationAndJobSize) {
  auto payload = payload_for(1);
  const std::uint64_t at_1k = payload_wire_bytes(payload, frames, LabelContext{1024});
  const std::uint64_t at_208k =
      payload_wire_bytes(payload, frames, LabelContext{212992});
  // Dense labels: 3 edges x 2 trees x (job/8) bytes dominate.
  EXPECT_GT(at_208k, at_1k * 100);

  StatPayload<HierLabel> hier;
  const auto path = frames.make_path({"_start", "main", "work"});
  hier.tree_2d.insert(path, HierLabel::for_local(0, 1));
  hier.tree_3d.insert(path, HierLabel::for_local(0, 1));
  EXPECT_EQ(payload_wire_bytes(hier, frames, LabelContext{1024}),
            payload_wire_bytes(hier, frames, LabelContext{212992}));
}

TEST_F(FilterFixture, EmptyPayloadMergesAreHarmless) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> acc = payload_for(3);
  ops.merge_into(acc, StatPayload<GlobalLabel>{});  // dead daemon
  EXPECT_EQ(acc.tree_3d.node_count(), 3u);
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  EXPECT_TRUE(start->label.tasks.contains(3));
}

TEST_F(FilterFixture, HierOpsConcatenateDaemonBlocks) {
  auto ops = make_stat_reduce_ops<HierLabel>(costs, frames, ctx);
  const auto path = frames.make_path({"_start", "main"});
  StatPayload<HierLabel> a, b, acc;
  a.tree_3d.insert(path, HierLabel::for_local(0, 5));
  b.tree_3d.insert(path, HierLabel::for_local(7, 2));
  ops.merge_into(acc, std::move(a));
  ops.merge_into(acc, std::move(b));
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  ASSERT_NE(start, nullptr);
  std::size_t blocks = 0;
  start->label.tasks.for_each_block(
      [&blocks](std::uint32_t, std::span<const std::uint32_t>) { ++blocks; });
  EXPECT_EQ(blocks, 2u);
  EXPECT_EQ(start->label.tasks.count(), 2u);
}

}  // namespace
}  // namespace petastat::stat
