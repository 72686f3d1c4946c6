// Unit and property tests for the call-graph prefix trees: insertion,
// merging, serialization, DOT output, remap, and equivalence classes.
#include <gtest/gtest.h>

#include "app/appmodel.hpp"
#include "common/rng.hpp"
#include "stat/equivalence.hpp"
#include "stat/prefix_tree.hpp"

namespace petastat::stat {
namespace {

struct TreeFixture : ::testing::Test {
  app::FrameTable frames;
  app::CallPath path(std::initializer_list<std::string_view> names) {
    return frames.make_path(names);
  }
};

TEST_F(TreeFixture, InsertBuildsSharedPrefixes) {
  GlobalTree tree;
  tree.insert(path({"_start", "main", "PMPI_Barrier"}), GlobalLabel::for_task(0));
  tree.insert(path({"_start", "main", "PMPI_Waitall"}), GlobalLabel::for_task(1));
  EXPECT_EQ(tree.node_count(), 4u);  // _start, main, Barrier, Waitall
  EXPECT_EQ(tree.depth(), 3u);

  const auto* start = tree.root().find_child(frames.intern("_start"));
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->label.tasks.count(), 2u);  // both tasks share the prefix
  const auto* main_node = start->find_child(frames.intern("main"));
  ASSERT_NE(main_node, nullptr);
  EXPECT_EQ(main_node->children.size(), 2u);
}

TEST_F(TreeFixture, InsertAccumulatesVisits) {
  GlobalTree tree;
  for (int s = 0; s < 10; ++s) {
    tree.insert(path({"_start", "main"}), GlobalLabel::for_task(3));
  }
  const auto* start = tree.root().find_child(frames.intern("_start"));
  EXPECT_EQ(start->label.visits, 10u);
  EXPECT_EQ(start->label.tasks.count(), 1u);
}

TEST_F(TreeFixture, MergeEqualsInsertingAllPaths) {
  app::RingHangOptions options;
  options.num_tasks = 256;
  app::RingHangApp app(options);

  // Build one tree by direct insertion and one by merging per-daemon trees.
  GlobalTree direct;
  std::vector<GlobalTree> daemon_trees(8);
  for (std::uint32_t t = 0; t < 256; ++t) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      const auto p = app.stack(TaskId(t), 0, s);
      direct.insert(p, GlobalLabel::for_task(t));
      daemon_trees[t / 32].insert(p, GlobalLabel::for_task(t));
    }
  }
  GlobalTree merged;
  for (auto& dt : daemon_trees) merged.merge(dt);
  EXPECT_EQ(merged, direct);
}

TEST_F(TreeFixture, MergeIsCommutativeAndAssociative) {
  Rng rng(5);
  const auto random_tree = [&]() {
    GlobalTree t;
    for (int i = 0; i < 20; ++i) {
      app::CallPath p{frames.intern("_start"), frames.intern("main")};
      int depth = 1 + static_cast<int>(rng.next_below(4));
      for (int d = 0; d < depth; ++d) {
        p.push_back(frames.intern("f" + std::to_string(rng.next_below(5))));
      }
      t.insert(p, GlobalLabel::for_task(
                      static_cast<std::uint32_t>(rng.next_below(64))));
    }
    return t;
  };
  const GlobalTree a = random_tree();
  const GlobalTree b = random_tree();
  const GlobalTree c = random_tree();
  GlobalTree ab = a;
  ab.merge(b);
  GlobalTree ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  GlobalTree ab_c = ab;
  ab_c.merge(c);
  GlobalTree bc = b;
  bc.merge(c);
  GlobalTree a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST_F(TreeFixture, ChildrenStaySortedByFrame) {
  GlobalTree tree;
  for (int i = 9; i >= 0; --i) {
    tree.insert(path({"root", "f" + std::to_string(i)}),
                GlobalLabel::for_task(static_cast<std::uint32_t>(i)));
  }
  const auto* root = tree.root().find_child(frames.intern("root"));
  for (std::size_t i = 1; i < root->children.size(); ++i) {
    EXPECT_LT(root->children[i - 1].frame, root->children[i].frame);
  }
}

TEST_F(TreeFixture, WireBytesDenseScalesWithJobSize) {
  GlobalTree tree;
  tree.insert(path({"_start", "main", "leaf"}), GlobalLabel::for_task(0));
  const std::uint64_t small = tree.wire_bytes(frames, LabelContext{1024});
  const std::uint64_t big = tree.wire_bytes(frames, LabelContext{212992});
  EXPECT_GT(big, small * 100);  // dense labels dominated by job size
}

TEST_F(TreeFixture, WireBytesHierIndependentOfJobSize) {
  HierTree tree;
  tree.insert(path({"_start", "main", "leaf"}), HierLabel::for_local(0, 0));
  EXPECT_EQ(tree.wire_bytes(frames, LabelContext{1024}),
            tree.wire_bytes(frames, LabelContext{212992}));
}

template <typename Label>
void roundtrip_test(app::FrameTable& frames, const PrefixTree<Label>& tree,
                    const LabelContext& ctx) {
  ByteSink sink;
  tree.encode(sink, frames, ctx);
  EXPECT_EQ(sink.size(), tree.wire_bytes(frames, ctx));
  auto bytes = sink.take();
  ByteSource source(bytes);
  app::FrameTable fresh;  // decoder interns into a fresh table
  auto decoded = PrefixTree<Label>::decode(source, fresh, ctx);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node_count(), tree.node_count());
  EXPECT_EQ(decoded.value().depth(), tree.depth());
  EXPECT_TRUE(source.exhausted());
}

TEST_F(TreeFixture, GlobalTreeSerializationRoundtrips) {
  GlobalTree tree;
  tree.insert(path({"_start", "main", "PMPI_Barrier"}), GlobalLabel::for_task(7));
  tree.insert(path({"_start", "main", "PMPI_Waitall", "poll"}),
              GlobalLabel::for_task(9));
  roundtrip_test(frames, tree, LabelContext{16});
}

TEST_F(TreeFixture, HierTreeSerializationRoundtrips) {
  HierTree tree;
  tree.insert(path({"_start", "main", "a"}), HierLabel::for_local(3, 1));
  tree.insert(path({"_start", "main", "b"}), HierLabel::for_local(5, 0));
  roundtrip_test(frames, tree, LabelContext{16});
}

// Multi-byte varints: a 200-child node's child count and a 200-byte frame
// name's length prefix each take two bytes on the wire.
TEST_F(TreeFixture, WideNodeAndLongNameSerializationRoundtrips) {
  HierTree tree;
  for (std::uint32_t i = 0; i < 200; ++i) {
    tree.insert(path({"_start", "f" + std::to_string(i)}),
                HierLabel::for_local(i % 4, i));
  }
  const std::string long_name(200, 'x');
  tree.insert(path({"_start", long_name}), HierLabel::for_local(0, 0));
  roundtrip_test(frames, tree, LabelContext{1024});
}

TEST_F(TreeFixture, DecodedTreePreservesLabels) {
  GlobalTree tree;
  tree.insert(path({"_start", "main"}), GlobalLabel::for_task(3));
  tree.insert(path({"_start", "main"}), GlobalLabel::for_task(5));
  ByteSink sink;
  tree.encode(sink, frames, LabelContext{8});
  auto bytes = sink.take();
  ByteSource source(bytes);
  app::FrameTable fresh;
  auto decoded = GlobalTree::decode(source, fresh, LabelContext{8});
  ASSERT_TRUE(decoded.is_ok());
  const auto* start =
      decoded.value().root().find_child(fresh.intern("_start"));
  ASSERT_NE(start, nullptr);
  EXPECT_TRUE(start->label.tasks.contains(3));
  EXPECT_TRUE(start->label.tasks.contains(5));
  EXPECT_EQ(start->label.visits, 2u);
}

TEST_F(TreeFixture, RemapTreeRelabelsEveryEdge) {
  machine::DaemonLayout layout;
  layout.num_daemons = 4;
  layout.tasks_per_daemon = 8;
  layout.num_tasks = 32;
  const TaskMap map = TaskMap::shuffled(layout, 9);

  HierTree hier;
  hier.insert(path({"_start", "main", "x"}), HierLabel::for_local(2, 3));
  hier.insert(path({"_start", "main", "y"}), HierLabel::for_local(0, 1));

  const GlobalTree global = remap_tree(hier, map);
  EXPECT_EQ(global.node_count(), hier.node_count());
  const auto* x = global.root()
                      .find_child(frames.intern("_start"))
                      ->find_child(frames.intern("main"))
                      ->find_child(frames.intern("x"));
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->label.tasks.contains(map.global_rank(2, 3)));
  EXPECT_EQ(x->label.tasks.count(), 1u);
}

// The central correctness invariant of Sec. V: the optimized representation
// plus remap produces the *same* global tree as the original representation.
class RepresentationEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepresentationEquivalence, HierPlusRemapEqualsDense) {
  app::RingHangOptions options;
  options.num_tasks = 128;
  options.seed = GetParam();
  app::RingHangApp app(options);

  machine::DaemonLayout layout;
  layout.num_daemons = 16;
  layout.tasks_per_daemon = 8;
  layout.num_tasks = 128;
  const TaskMap map = TaskMap::shuffled(layout, GetParam());

  GlobalTree dense;
  HierTree hier;
  for (std::uint32_t d = 0; d < 16; ++d) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t rank = map.global_rank(d, i);
      for (std::uint32_t s = 0; s < 4; ++s) {
        const auto p = app.stack(TaskId(rank), 0, s);
        dense.insert(p, GlobalLabel::for_task(rank));
        hier.insert(p, HierLabel::for_local(d, i));
      }
    }
  }
  EXPECT_EQ(remap_tree(hier, map), dense);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepresentationEquivalence,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST_F(TreeFixture, DotOutputContainsNodesAndLabels) {
  GlobalTree tree;
  GlobalLabel label;
  label.tasks = TaskSet::range(0, 1021);
  label.visits = 1022;
  tree.insert(path({"_start", "main"}), label);
  const std::string dot = to_dot(tree, frames);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("_start"), std::string::npos);
  EXPECT_NE(dot.find("1022:[0-1021]"), std::string::npos);
}

// --------------------------------------------------------------------------
// Equivalence classes

TEST_F(TreeFixture, ClassesSeparateDivergingTasks) {
  GlobalTree tree;
  tree.insert(path({"_start", "main", "PMPI_Barrier"}), GlobalLabel::for_task(0));
  tree.insert(path({"_start", "main", "PMPI_Barrier"}), GlobalLabel::for_task(3));
  tree.insert(path({"_start", "main", "do_SendOrStall"}),
              GlobalLabel::for_task(1));
  tree.insert(path({"_start", "main", "PMPI_Waitall"}), GlobalLabel::for_task(2));

  const auto classes = equivalence_classes(tree);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0].size(), 2u);  // largest first
  EXPECT_TRUE(classes[0].tasks.contains(0));
  EXPECT_TRUE(classes[0].tasks.contains(3));
}

TEST_F(TreeFixture, ClassesHandleMidTreeStops) {
  // Task 9's trace ends at "main" while others continue deeper.
  GlobalTree tree;
  tree.insert(path({"_start", "main", "work"}), GlobalLabel::for_task(0));
  tree.insert(path({"_start", "main"}), GlobalLabel::for_task(9));
  const auto classes = equivalence_classes(tree);
  ASSERT_EQ(classes.size(), 2u);
  bool found_mid = false;
  for (const auto& cls : classes) {
    if (cls.tasks.contains(9)) {
      found_mid = true;
      EXPECT_EQ(cls.path.size(), 2u);
    }
  }
  EXPECT_TRUE(found_mid);
}

class ClassPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassPartitionProperty, ClassesPartitionAllTasks) {
  app::StatBenchOptions options;
  options.num_tasks = 512;
  options.num_classes = 16;
  options.seed = GetParam();
  app::StatBenchApp app(options);

  GlobalTree tree;
  for (std::uint32_t t = 0; t < 512; ++t) {
    tree.insert(app.stack(TaskId(t), 0, 0), GlobalLabel::for_task(t));
  }
  const auto classes = equivalence_classes(tree);
  TaskSet all;
  std::uint64_t total = 0;
  for (const auto& cls : classes) {
    EXPECT_FALSE(all.intersects(cls.tasks));  // pairwise disjoint
    all.union_with(cls.tasks);
    total += cls.size();
  }
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(all.count(), 512u);
  // Sorted largest-first.
  for (std::size_t i = 1; i < classes.size(); ++i) {
    EXPECT_GE(classes[i - 1].size(), classes[i].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassPartitionProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST_F(TreeFixture, RepresentativesPickLowestRanks) {
  GlobalTree tree;
  tree.insert(path({"_start", "a"}), GlobalLabel::for_task(7));
  tree.insert(path({"_start", "a"}), GlobalLabel::for_task(3));
  tree.insert(path({"_start", "b"}), GlobalLabel::for_task(1));
  const auto classes = equivalence_classes(tree);
  const auto reps = representatives(classes, 1);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0], 3u);
  EXPECT_EQ(reps[1], 1u);
  const auto reps2 = representatives(classes, 2);
  EXPECT_EQ(reps2.size(), 3u);  // class of {1} only has one member
}

TEST_F(TreeFixture, DescribeRendersPathAndCount) {
  GlobalTree tree;
  tree.insert(path({"_start", "main"}), GlobalLabel::for_task(1));
  const auto classes = equivalence_classes(tree);
  const std::string text = describe(classes[0], frames);
  EXPECT_NE(text.find("1 task(s)"), std::string::npos);
  EXPECT_NE(text.find("_start<main"), std::string::npos);
}

}  // namespace
}  // namespace petastat::stat
