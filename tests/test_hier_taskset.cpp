// Unit and property tests for the hierarchical task lists and the front-end
// remap (the Sec. V-B optimization and Fig. 6b).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "stat/hier_taskset.hpp"

namespace petastat::stat {
namespace {

machine::DaemonLayout layout_of(std::uint32_t daemons, std::uint32_t per,
                                std::uint32_t tasks) {
  machine::DaemonLayout l;
  l.num_daemons = daemons;
  l.tasks_per_daemon = per;
  l.num_tasks = tasks;
  return l;
}

TEST(HierTaskSet, SingleAndInsert) {
  HierTaskSet s = HierTaskSet::single(3, 7);
  EXPECT_EQ(s.count(), 1u);
  s.insert(3, 8);
  s.insert(1, 0);
  EXPECT_EQ(s.count(), 3u);
  ASSERT_EQ(s.blocks().size(), 2u);
  EXPECT_EQ(s.blocks()[0].daemon, 1u);  // sorted by daemon
  EXPECT_EQ(s.blocks()[1].daemon, 3u);
}

TEST(HierTaskSet, MergeConcatenatesDisjointDaemons) {
  HierTaskSet a = HierTaskSet::single(0, 5);
  HierTaskSet b = HierTaskSet::single(2, 9);
  a.merge(b);
  EXPECT_EQ(a.blocks().size(), 2u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(HierTaskSet, MergeUnionsSameDaemon) {
  HierTaskSet a = HierTaskSet::single(1, 5);
  HierTaskSet b = HierTaskSet::single(1, 5);
  b.insert(1, 6);
  a.merge(b);
  EXPECT_EQ(a.blocks().size(), 1u);
  EXPECT_EQ(a.count(), 2u);
}

class HierMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierMergeProperty, CommutativeAssociativeSorted) {
  Rng rng(GetParam() * 13 + 1);
  const auto random_set = [&rng]() {
    HierTaskSet s;
    const int n = 1 + static_cast<int>(rng.next_below(30));
    for (int i = 0; i < n; ++i) {
      s.insert(static_cast<std::uint32_t>(rng.next_below(16)),
               static_cast<std::uint32_t>(rng.next_below(128)));
    }
    return s;
  };
  const HierTaskSet a = random_set();
  const HierTaskSet b = random_set();
  const HierTaskSet c = random_set();

  HierTaskSet ab = a;
  ab.merge(b);
  HierTaskSet ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);  // commutative

  HierTaskSet ab_c = ab;
  ab_c.merge(c);
  HierTaskSet bc = b;
  bc.merge(c);
  HierTaskSet a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associative

  // Blocks stay sorted and daemon-unique.
  for (std::size_t i = 1; i < ab_c.blocks().size(); ++i) {
    EXPECT_LT(ab_c.blocks()[i - 1].daemon, ab_c.blocks()[i].daemon);
  }

  // Idempotent.
  HierTaskSet aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);

  // One-block merges, the fold's seed-label shape: the same daemon, and a
  // new daemon before, between and after the existing blocks. Each agrees
  // with inserting the block's members one by one. Blocks sit on even
  // daemons in [4, 28], always including 4 and 20, so every gap has room.
  HierTaskSet sparse;
  sparse.insert(4, static_cast<std::uint32_t>(rng.next_below(128)));
  sparse.insert(20, static_cast<std::uint32_t>(rng.next_below(128)));
  for (int i = 0; i < 20; ++i) {
    sparse.insert(4 + 2 * static_cast<std::uint32_t>(rng.next_below(13)),
                  static_cast<std::uint32_t>(rng.next_below(128)));
  }
  const auto& existing = sparse.blocks();
  const std::uint32_t daemons[] = {
      // the same daemon as an existing block
      existing[rng.next_below(existing.size())].daemon,
      // new daemons: before, between (odd, inside [4, 20]) and after
      static_cast<std::uint32_t>(rng.next_below(4)),
      5 + 2 * static_cast<std::uint32_t>(rng.next_below(8)),
      existing.back().daemon + 1 +
          static_cast<std::uint32_t>(rng.next_below(4)),
  };
  for (const std::uint32_t daemon : daemons) {
    HierTaskSet one;
    const int members = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < members; ++i) {
      one.insert(daemon, static_cast<std::uint32_t>(rng.next_below(128)));
    }
    ASSERT_EQ(one.blocks().size(), 1u);
    HierTaskSet merged = sparse;
    merged.merge(one);
    HierTaskSet expected = sparse;
    for (const std::uint32_t local : one.blocks().front().local.to_vector()) {
      expected.insert(daemon, local);
    }
    EXPECT_EQ(merged, expected) << "daemon " << daemon;
    HierTaskSet reversed = one;
    reversed.merge(sparse);
    EXPECT_EQ(reversed, expected) << "daemon " << daemon;
    for (std::size_t i = 1; i < merged.blocks().size(); ++i) {
      EXPECT_LT(merged.blocks()[i - 1].daemon, merged.blocks()[i].daemon);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierMergeProperty, ::testing::Range<std::uint64_t>(0, 10));

class HierWireRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierWireRoundtrip, EncodeDecode) {
  Rng rng(GetParam() + 99);
  HierTaskSet s;
  for (int i = 0; i < 50; ++i) {
    s.insert(static_cast<std::uint32_t>(rng.next_below(1700)),
             static_cast<std::uint32_t>(rng.next_below(128)));
  }
  ByteSink sink;
  s.encode(sink);
  EXPECT_EQ(sink.size(), s.wire_bytes());
  auto bytes = sink.take();
  ByteSource source(bytes);
  auto decoded = HierTaskSet::decode(source);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), s);
  EXPECT_TRUE(source.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierWireRoundtrip, ::testing::Range<std::uint64_t>(0, 8));

TEST(HierTaskSet, WireSizeTracksSubtreeNotJob) {
  // One daemon's full block costs a handful of bytes no matter the job size.
  HierTaskSet s;
  for (std::uint32_t i = 0; i < 128; ++i) s.insert(1663, i);
  EXPECT_LT(s.wire_bytes(), 12u);
}

// --------------------------------------------------------------------------
// TaskMap

TEST(TaskMap, IdentityMapsContiguously) {
  const TaskMap map = TaskMap::identity(layout_of(4, 8, 32));
  EXPECT_EQ(map.global_rank(0, 0), 0u);
  EXPECT_EQ(map.global_rank(2, 5), 21u);
  EXPECT_EQ(map.global_rank(3, 7), 31u);
}

TEST(TaskMap, ShuffledIsAPermutationOfBlocks) {
  const auto layout = layout_of(16, 8, 128);
  const TaskMap map = TaskMap::shuffled(layout, 7);
  std::vector<bool> seen(128, false);
  for (std::uint32_t d = 0; d < 16; ++d) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t g = map.global_rank(d, i);
      ASSERT_LT(g, 128u);
      EXPECT_FALSE(seen[g]);
      seen[g] = true;
    }
  }
  for (const bool b : seen) EXPECT_TRUE(b);
}

TEST(TaskMap, ShuffledActuallyShuffles) {
  const auto layout = layout_of(64, 8, 512);
  const TaskMap id = TaskMap::identity(layout);
  const TaskMap shuffled = TaskMap::shuffled(layout, 7);
  int moved = 0;
  for (std::uint32_t d = 0; d < 64; ++d) {
    if (id.global_rank(d, 0) != shuffled.global_rank(d, 0)) ++moved;
  }
  EXPECT_GT(moved, 32);
}

TEST(TaskMap, ShuffledIsDeterministicInSeed) {
  const auto layout = layout_of(16, 8, 128);
  const TaskMap a = TaskMap::shuffled(layout, 7);
  const TaskMap b = TaskMap::shuffled(layout, 7);
  const TaskMap c = TaskMap::shuffled(layout, 8);
  int diff_ac = 0;
  for (std::uint32_t d = 0; d < 16; ++d) {
    EXPECT_EQ(a.global_rank(d, 0), b.global_rank(d, 0));
    if (a.global_rank(d, 0) != c.global_rank(d, 0)) ++diff_ac;
  }
  EXPECT_GT(diff_ac, 0);
}

TEST(TaskMap, RemapMatchesElementwiseMapping) {
  // Nine daemons of 16 tasks; the last is short (8 tasks) and keeps its
  // block under the shuffle.
  const auto layout = layout_of(9, 16, 136);
  for (const std::uint64_t seed : {3u, 5u, 11u, 29u, 2008u}) {
    const TaskMap map = TaskMap::shuffled(layout, seed);
    Rng rng(seed * 7 + 1);
    HierTaskSet hier;
    std::set<std::uint32_t> oracle;
    const auto add = [&](std::uint32_t d, std::uint32_t l) {
      hier.insert(d, l);
      oracle.insert(map.global_rank(d, l));
    };
    for (int i = 0; i < 60; ++i) {
      const auto d = static_cast<std::uint32_t>(rng.next_below(9));
      add(d, static_cast<std::uint32_t>(rng.next_below(layout.tasks_of(
                 DaemonId(d)))));
    }
    // Two daemons whose rank blocks abut, fully present: the remap must
    // coalesce them into one interval across the daemon boundary.
    const auto a = static_cast<std::uint32_t>(rng.next_below(8));
    std::uint32_t b = 0;
    while (map.global_rank(b, 0) != map.global_rank(a, 0) + 16) ++b;
    for (std::uint32_t l = 0; l < 16; ++l) add(a, l);
    for (std::uint32_t l = 0; l < layout.tasks_of(DaemonId(b)); ++l) add(b, l);

    const TaskSet global = map.remap(hier);
    EXPECT_EQ(global.count(), hier.count());
    const std::vector<std::uint32_t> expected(oracle.begin(), oracle.end());
    EXPECT_EQ(global.to_vector(), expected) << "seed " << seed;
    // Canonical: sorted, disjoint and never adjacent.
    const auto& ivs = global.intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_GT(ivs[i].lo, ivs[i - 1].hi + 1) << "seed " << seed;
    }
    EXPECT_TRUE(std::any_of(ivs.begin(), ivs.end(), [&](const auto& iv) {
      return iv.lo <= map.global_rank(a, 15) && iv.hi >= map.global_rank(b, 0);
    })) << "seed " << seed;
  }
}

TEST(TaskMap, RemapOfFullJobIsFullRange) {
  const auto layout = layout_of(13, 8, 104);
  const TaskMap map = TaskMap::shuffled(layout, 5);
  HierTaskSet everything;
  for (std::uint32_t d = 0; d < 13; ++d) {
    for (std::uint32_t i = 0; i < 8; ++i) everything.insert(d, i);
  }
  const TaskSet global = map.remap(everything);
  EXPECT_EQ(global.count(), 104u);
  EXPECT_EQ(global.interval_count(), 1u);  // [0, 103]
}

}  // namespace
}  // namespace petastat::stat
