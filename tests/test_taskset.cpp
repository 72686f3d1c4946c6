// Unit and property tests for TaskSet, DenseBitVector, and their wire
// formats — the Fig. 6 data structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "common/rng.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {
namespace {

TEST(TaskSet, InsertAndContains) {
  TaskSet s;
  s.insert(5);
  s.insert(7);
  s.insert(6);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(6));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.interval_count(), 1u);  // coalesced into [5,7]
}

TEST(TaskSet, InsertRangeMergesOverlaps) {
  TaskSet s;
  s.insert_range(10, 20);
  s.insert_range(30, 40);
  s.insert_range(15, 35);  // bridges both
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.count(), 31u);
  EXPECT_EQ(s.intervals().front().lo, 10u);
  EXPECT_EQ(s.intervals().front().hi, 40u);
}

TEST(TaskSet, AdjacentIntervalsCoalesce) {
  TaskSet s;
  s.insert_range(0, 4);
  s.insert_range(5, 9);
  EXPECT_EQ(s.interval_count(), 1u);
}

TEST(TaskSet, UnionWith) {
  TaskSet a = TaskSet::range(0, 9);
  TaskSet b = TaskSet::range(20, 29);
  a.union_with(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.interval_count(), 2u);
  a.union_with(TaskSet::range(10, 19));
  EXPECT_EQ(a.interval_count(), 1u);
}

TEST(TaskSet, CoalescingUnionAllocatesExactly) {
  // Two multi-interval sets whose union bridges every gap: the general
  // merge must not keep the slack of the intervals that coalesced.
  TaskSet a, b;
  for (std::uint32_t k = 0; k < 16; ++k) {
    a.insert_range(20 * k, 20 * k + 9);
    b.insert_range(20 * k + 10, 20 * k + 19);
  }
  a.union_with(b);
  ASSERT_EQ(a.interval_count(), 1u);
  EXPECT_EQ(a.count(), 320u);
  EXPECT_EQ(a.intervals().capacity(), a.intervals().size());
  // A partly coalescing union too.
  TaskSet c = TaskSet::range(0, 9);
  c.union_with(TaskSet::range(30, 39));
  TaskSet d = TaskSet::range(10, 19);
  d.union_with(TaskSet::range(50, 59));
  c.union_with(d);
  EXPECT_EQ(c.interval_count(), 3u);
  EXPECT_EQ(c.intervals().capacity(), c.intervals().size());
}

TEST(TaskSet, DifferenceAndIntersects) {
  TaskSet a = TaskSet::range(0, 99);
  TaskSet b = TaskSet::range(40, 59);
  EXPECT_TRUE(a.intersects(b));
  const TaskSet d = a.difference(b);
  EXPECT_EQ(d.count(), 80u);
  EXPECT_FALSE(d.contains(50));
  EXPECT_TRUE(d.contains(39));
  EXPECT_TRUE(d.contains(60));
  EXPECT_FALSE(d.intersects(b));
}

TEST(TaskSet, EdgeLabelMatchesFigureOne) {
  TaskSet s = TaskSet::single(0);
  s.insert_range(3, 1023);
  EXPECT_EQ(s.edge_label(), "1022:[0,3-1023]");
  EXPECT_EQ(TaskSet::single(1).edge_label(), "1:[1]");
}

TEST(TaskSet, MaxTaskAndEmpty) {
  TaskSet s;
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(100);
  EXPECT_EQ(s.max_task(), 100u);
}

// Property: TaskSet behaves exactly like std::set under random ops.
class TaskSetVsReference : public ::testing::TestWithParam<std::uint64_t> {};

// Which path a one-interval union_with takes, judged from the set before it.
enum UnionBranch {
  kContained,      // inside an interval other than a last one ending at max
  kExtendsLast,    // starts inside or right after the last interval
  kWidensOther,    // overlaps or abuts exactly one, earlier, interval
  kBridges,        // overlaps or abuts several intervals, which merge
  kNewBefore,      // touches nothing: new first interval
  kNewBetween,     // touches nothing: new interval between two others
  kNewAfter,       // touches nothing: new last interval
  kMaxEdge,        // the last interval ends at UINT32_MAX and absorbs it
  kNumUnionBranches,
};

UnionBranch classify_union(const TaskSet& set, std::uint32_t lo,
                           std::uint32_t hi) {
  const auto& ivs = set.intervals();
  const auto& back = ivs.back();
  if (back.hi == UINT32_MAX && lo >= back.lo) return kMaxEdge;
  for (const auto& iv : ivs) {
    if (iv.lo <= lo && hi <= iv.hi) return kContained;
  }
  if (lo >= back.lo && lo <= back.hi + 1) return kExtendsLast;
  const auto touched = std::count_if(ivs.begin(), ivs.end(), [&](const auto& iv) {
    const bool below = iv.hi != UINT32_MAX && iv.hi + 1 < lo;
    const bool above = hi != UINT32_MAX && hi + 1 < iv.lo;
    return !below && !above;
  });
  if (touched == 1) return kWidensOther;
  if (touched > 1) return kBridges;
  if (hi < ivs.front().lo) return kNewBefore;
  return lo > back.hi ? kNewAfter : kNewBetween;
}

TEST_P(TaskSetVsReference, RandomOperationsMatch) {
  Rng rng(GetParam());
  // Small ranks (from 16, leaving room below the lowest member); in odd
  // rounds sometimes the top of the rank space, where interval ends must
  // not overflow.
  bool near_max = false;
  const auto draw = [&rng, &near_max]() {
    return near_max && rng.bernoulli(0.1)
               ? UINT32_MAX - static_cast<std::uint32_t>(rng.next_below(16))
               : 16 + static_cast<std::uint32_t>(rng.next_below(300));
  };
  const auto draw_hi = [&rng](std::uint32_t lo) {
    const auto len = static_cast<std::uint32_t>(rng.next_below(20));
    return lo > UINT32_MAX - len ? UINT32_MAX : lo + len;
  };
  std::array<int, kNumUnionBranches> branch_hits{};
  // Five rounds from empty, so every round passes through sparse states
  // (new intervals) as well as dense ones (coalescing).
  for (int round = 0; round < 5; ++round) {
    near_max = round % 2 == 1;
    TaskSet set;
    std::set<std::uint32_t> reference;
    const auto reference_range = [&reference](std::uint32_t lo,
                                              std::uint32_t hi) {
      for (std::uint32_t v = lo;; ++v) {
        reference.insert(v);
        if (v == hi) break;
      }
    };
    if (round == 0) {
      // The rank-space edge, explicitly: {[max-1, max]} u {max}.
      set = TaskSet::range(UINT32_MAX - 1, UINT32_MAX);
      reference_range(UINT32_MAX - 1, UINT32_MAX);
      ++branch_hits[classify_union(set, UINT32_MAX, UINT32_MAX)];
      set.union_with(TaskSet::single(UINT32_MAX));
    }
    for (int op = 0; op < 100; ++op) {
      const double kind = rng.next_double();
      std::uint32_t lo = draw();
      if (kind >= 0.8 && !set.empty()) {
        // Around the lowest or the highest member. The fold's seeds arrive
        // in rank order, so they land at or just past the highest one.
        const std::uint64_t edge =
            kind < 0.85 ? set.intervals().front().lo : set.max_task();
        const std::uint64_t near = edge - std::min<std::uint64_t>(edge, 3) +
                                   rng.next_below(7);  // edge-3 .. edge+3
        lo = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(near, UINT32_MAX));
      }
      std::uint32_t hi = kind < 0.4 ? lo : draw_hi(lo);
      if (kind < 0.4) {
        set.insert(lo);
      } else if (kind < 0.65) {
        set.insert_range(lo, hi);
      } else {
        // union_with a one-interval set, the fold's seed-label shape.
        if (rng.bernoulli(0.5)) hi = lo;
        if (!set.empty()) ++branch_hits[classify_union(set, lo, hi)];
        set.union_with(lo == hi ? TaskSet::single(lo) : TaskSet::range(lo, hi));
      }
      reference_range(lo, hi);
    }
    EXPECT_EQ(set.count(), reference.size());
    const auto vec = set.to_vector();
    EXPECT_TRUE(std::equal(vec.begin(), vec.end(), reference.begin(),
                           reference.end()));
    for (std::uint32_t v = 0; v < 340; ++v) {
      EXPECT_EQ(set.contains(v), reference.contains(v)) << v;
    }
    for (std::uint32_t v = UINT32_MAX - 20;; ++v) {
      EXPECT_EQ(set.contains(v), reference.contains(v)) << v;
      if (v == UINT32_MAX) break;
    }
    // Intervals are sorted, disjoint, non-adjacent.
    const auto& ivs = set.intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_GT(ivs[i].lo, ivs[i - 1].hi + 1);
    }
  }
  for (int b = 0; b < kNumUnionBranches; ++b) {
    EXPECT_GT(branch_hits[b], 0) << "union_with branch " << b << " not drawn";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskSetVsReference,
                         ::testing::Range<std::uint64_t>(0, 12));

// Property: union_with agrees with std::set_union.
class UnionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionProperty, MatchesReferenceUnion) {
  Rng rng(GetParam() * 977 + 5);
  TaskSet a, b;
  std::set<std::uint32_t> ra, rb;
  for (int i = 0; i < 100; ++i) {
    const auto va = static_cast<std::uint32_t>(rng.next_below(500));
    const auto vb = static_cast<std::uint32_t>(rng.next_below(500));
    a.insert(va);
    ra.insert(va);
    b.insert(vb);
    rb.insert(vb);
  }
  TaskSet u = a;
  u.union_with(b);
  std::set<std::uint32_t> ru = ra;
  ru.insert(rb.begin(), rb.end());
  EXPECT_EQ(u.count(), ru.size());
  // Commutativity.
  TaskSet u2 = b;
  u2.union_with(a);
  EXPECT_EQ(u, u2);
  // Idempotence.
  TaskSet u3 = u;
  u3.union_with(u);
  EXPECT_EQ(u3, u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionProperty, ::testing::Range<std::uint64_t>(0, 10));

// Wire formats.

class WireRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundtrip, DenseAndRangedRoundtrip) {
  Rng rng(GetParam() * 31 + 7);
  TaskSet set;
  const std::uint32_t job_size = 2048;
  for (int i = 0; i < 200; ++i) {
    set.insert(static_cast<std::uint32_t>(rng.next_below(job_size)));
  }

  ByteSink dense_sink;
  set.encode_dense(dense_sink, job_size);
  EXPECT_EQ(dense_sink.size(), set.dense_wire_bytes(job_size));
  auto dense_bytes = dense_sink.take();
  ByteSource dense_source(dense_bytes);
  auto dense_decoded = TaskSet::decode_dense(dense_source, job_size);
  ASSERT_TRUE(dense_decoded.is_ok());
  EXPECT_EQ(dense_decoded.value(), set);

  ByteSink ranged_sink;
  set.encode_ranged(ranged_sink);
  EXPECT_EQ(ranged_sink.size(), set.ranged_wire_bytes());
  auto ranged_bytes = ranged_sink.take();
  ByteSource ranged_source(ranged_bytes);
  auto ranged_decoded = TaskSet::decode_ranged(ranged_source);
  ASSERT_TRUE(ranged_decoded.is_ok());
  EXPECT_EQ(ranged_decoded.value(), set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundtrip, ::testing::Range<std::uint64_t>(0, 10));

TEST(WireFormats, DenseSizeIsJobProportional) {
  const TaskSet s = TaskSet::range(0, 127);  // one daemon's contiguous block
  EXPECT_EQ(s.dense_wire_bytes(212992), 26624u);   // 26 KB at 208K tasks
  EXPECT_EQ(s.dense_wire_bytes(1048576), 131072u); // the 1-megabit edge label
  EXPECT_LT(s.ranged_wire_bytes(), 8u);            // vs a handful of bytes
}

TEST(WireFormats, DenseMatchesDenseBitVectorBytes) {
  TaskSet s;
  s.insert_range(3, 90);
  s.insert(200);
  const std::uint32_t size = 256;
  ByteSink from_set;
  s.encode_dense(from_set, size);
  ByteSink from_bits;
  DenseBitVector::from_task_set(s, size).encode(from_bits);
  ASSERT_EQ(from_set.size(), from_bits.size());
  EXPECT_TRUE(std::equal(from_set.bytes().begin(), from_set.bytes().end(),
                         from_bits.bytes().begin()));
}

TEST(DenseBitVector, SetTestCount) {
  DenseBitVector bits(130);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  EXPECT_THROW(bits.set(130), std::logic_error);
}

TEST(DenseBitVector, OrWithIsUnion) {
  DenseBitVector a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  a.or_with(b);
  EXPECT_EQ(a.count(), 3u);
  DenseBitVector c(64);
  EXPECT_THROW(a.or_with(c), std::logic_error);
}

TEST(DenseBitVector, TaskSetRoundtrip) {
  TaskSet s;
  s.insert_range(10, 20);
  s.insert(63);
  s.insert(64);
  const DenseBitVector bits = DenseBitVector::from_task_set(s, 128);
  EXPECT_EQ(bits.to_task_set(), s);
}

TEST(DenseBitVector, EncodeDecodeRoundtrip) {
  DenseBitVector bits(77);
  for (std::uint32_t i = 0; i < 77; i += 3) bits.set(i);
  ByteSink sink;
  bits.encode(sink);
  EXPECT_EQ(sink.size(), bits.wire_bytes());
  auto bytes = sink.take();
  ByteSource source(bytes);
  auto decoded = DenseBitVector::decode(source, 77);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), bits);
}

}  // namespace
}  // namespace petastat::stat
