// Unit and property tests for the hierarchical task lists and the front-end
// remap (the Sec. V-B optimization and Fig. 6b).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
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

/// Block daemons in storage order, through the block visitor.
std::vector<std::uint32_t> daemons_of(const HierTaskSet& s) {
  std::vector<std::uint32_t> daemons;
  s.for_each_block([&daemons](std::uint32_t daemon,
                              std::span<const std::uint32_t>) {
    daemons.push_back(daemon);
  });
  return daemons;
}

/// The naive oracle: daemon -> its local task indices.
using Oracle = std::map<std::uint32_t, std::set<std::uint32_t>>;

/// Expands a set into the oracle's form, checking the layout's invariants on
/// the way: daemons strictly ascending, no empty block, and every block's
/// intervals sorted, disjoint and never adjacent (canonical).
Oracle oracle_of(const HierTaskSet& s) {
  Oracle out;
  std::int64_t prev_daemon = -1;
  s.for_each_block([&](std::uint32_t daemon,
                       std::span<const std::uint32_t> bounds) {
    EXPECT_GT(static_cast<std::int64_t>(daemon), prev_daemon);
    prev_daemon = daemon;
    EXPECT_FALSE(bounds.empty());
    EXPECT_EQ(bounds.size() % 2, 0u);
    std::set<std::uint32_t>& locals = out[daemon];
    for (std::size_t k = 0; k < bounds.size(); k += 2) {
      EXPECT_LE(bounds[k], bounds[k + 1]);
      if (k > 0) {
        EXPECT_GT(std::uint64_t{bounds[k]}, bounds[k - 1] + 1ull);
      }
      for (std::uint64_t v = bounds[k]; v <= bounds[k + 1]; ++v) {
        locals.insert(static_cast<std::uint32_t>(v));
      }
    }
  });
  return out;
}

Oracle oracle_union(Oracle a, const Oracle& b) {
  for (const auto& [daemon, locals] : b) {
    a[daemon].insert(locals.begin(), locals.end());
  }
  return a;
}

std::uint64_t oracle_count(const Oracle& o) {
  std::uint64_t n = 0;
  for (const auto& [daemon, locals] : o) n += locals.size();
  return n;
}

TEST(HierTaskSet, SingleAndInsert) {
  HierTaskSet s = HierTaskSet::single(3, 7);
  EXPECT_EQ(s.count(), 1u);
  s.insert(3, 8);
  s.insert(1, 0);
  EXPECT_EQ(s.count(), 3u);
  // Sorted by daemon.
  EXPECT_EQ(daemons_of(s), (std::vector<std::uint32_t>{1, 3}));
}

TEST(HierTaskSet, MergeConcatenatesDisjointDaemons) {
  HierTaskSet a = HierTaskSet::single(0, 5);
  HierTaskSet b = HierTaskSet::single(2, 9);
  a.merge(b);
  EXPECT_EQ(daemons_of(a).size(), 2u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(HierTaskSet, MergeUnionsSameDaemon) {
  HierTaskSet a = HierTaskSet::single(1, 5);
  HierTaskSet b = HierTaskSet::single(1, 5);
  b.insert(1, 6);
  a.merge(b);
  EXPECT_EQ(daemons_of(a).size(), 1u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(HierTaskSet, WireFormatGoldenBytes) {
  // Three daemons, multi-interval blocks, multi-byte varints and the
  // UINT32_MAX local edge. The bytes were captured from the encoder that
  // stored one heap-allocated TaskSet per block, before the flat layout:
  // the in-memory layout must not move the wire format.
  HierTaskSet s;
  for (const std::uint32_t l : {0u, 1u, 2u, 3u, 7u}) s.insert(0, l);
  for (const std::uint32_t l : {2u, 10u, 11u, 12u, 127u}) s.insert(5, l);
  s.insert(300, 0);
  for (std::uint32_t l = 200; l < 300; ++l) s.insert(300, l);
  s.insert(300, 5000);
  s.insert(300, UINT32_MAX - 1);
  s.insert(300, UINT32_MAX);
  const std::vector<std::uint8_t> golden = {
      0x01, 0x03, 0x00, 0x02, 0x00, 0x03, 0x03, 0x00, 0x04, 0x03, 0x02,
      0x00, 0x07, 0x02, 0x72, 0x00, 0xa6, 0x02, 0x04, 0x00, 0x00, 0xc7,
      0x01, 0x63, 0xdc, 0x24, 0x00, 0xf5, 0xd8, 0xff, 0xff, 0x0f, 0x01};
  ByteSink sink;
  s.encode(sink);
  const auto bytes = sink.take();
  EXPECT_EQ(bytes, golden);
  EXPECT_EQ(s.wire_bytes(), golden.size());
  EXPECT_EQ(s.count(), 114u);
  ByteSource source(golden);
  auto decoded = HierTaskSet::decode(source);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), s);
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
  const std::vector<std::uint32_t> abc_daemons = daemons_of(ab_c);
  for (std::size_t i = 1; i < abc_daemons.size(); ++i) {
    EXPECT_LT(abc_daemons[i - 1], abc_daemons[i]);
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
  const std::vector<std::uint32_t> existing = daemons_of(sparse);
  const std::uint32_t daemons[] = {
      // the same daemon as an existing block
      existing[rng.next_below(existing.size())],
      // new daemons: before, between (odd, inside [4, 20]) and after
      static_cast<std::uint32_t>(rng.next_below(4)),
      5 + 2 * static_cast<std::uint32_t>(rng.next_below(8)),
      existing.back() + 1 + static_cast<std::uint32_t>(rng.next_below(4)),
  };
  for (const std::uint32_t daemon : daemons) {
    HierTaskSet one;
    const int members = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < members; ++i) {
      one.insert(daemon, static_cast<std::uint32_t>(rng.next_below(128)));
    }
    const Oracle one_members = oracle_of(one);
    ASSERT_EQ(one_members.size(), 1u);
    HierTaskSet merged = sparse;
    merged.merge(one);
    HierTaskSet expected = sparse;
    for (const std::uint32_t local : one_members.at(daemon)) {
      expected.insert(daemon, local);
    }
    EXPECT_EQ(merged, expected) << "daemon " << daemon;
    HierTaskSet reversed = one;
    reversed.merge(sparse);
    EXPECT_EQ(reversed, expected) << "daemon " << daemon;
    const std::vector<std::uint32_t> merged_daemons = daemons_of(merged);
    for (std::size_t i = 1; i < merged_daemons.size(); ++i) {
      EXPECT_LT(merged_daemons[i - 1], merged_daemons[i]);
    }
  }
}

TEST_P(HierMergeProperty, AgreesWithNaiveOracle) {
  Rng rng(GetParam() * 31 + 7);
  constexpr std::uint32_t kDaemons = 32;
  constexpr std::uint32_t kPerDaemon = 64;
  constexpr std::uint32_t kTop = UINT32_MAX;
  const TaskMap map = TaskMap::shuffled(
      layout_of(kDaemons, kPerDaemon, kDaemons * kPerDaemon), GetParam() + 1);

  // Every set is checked against the oracle the same way: members, count,
  // the arithmetic wire size against the encoding, and — when every local
  // index lies inside the layout — the remap.
  const auto expect_matches = [&map](const HierTaskSet& s,
                                     const Oracle& oracle,
                                     const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(oracle_of(s), oracle);
    EXPECT_EQ(s.count(), oracle_count(oracle));
    ByteSink sink;
    s.encode_body(sink);
    EXPECT_EQ(s.body_wire_bytes(), sink.size());
    EXPECT_EQ(s.wire_bytes(), sink.size() + 1);
    std::set<std::uint32_t> ranks;
    for (const auto& [daemon, locals] : oracle) {
      for (const std::uint32_t local : locals) {
        if (local >= kPerDaemon) return;
        ranks.insert(map.global_rank(daemon, local));
      }
    }
    EXPECT_EQ(map.remap(s).to_vector(),
              std::vector<std::uint32_t>(ranks.begin(), ranks.end()));
  };
  // Inserts [lo, hi] of `daemon` one local at a time, checking the oracle
  // after every insert.
  const auto insert_range = [&](HierTaskSet& s, Oracle& oracle,
                                std::uint32_t daemon, std::uint32_t lo,
                                std::uint32_t hi) {
    for (std::uint64_t v = lo; v <= hi; ++v) {
      s.insert(daemon, static_cast<std::uint32_t>(v));
      oracle[daemon].insert(static_cast<std::uint32_t>(v));
    }
    expect_matches(s, oracle, "insert");
  };

  // Random multi-block sets, some locals at the top of the index space:
  // general merges against the oracle's union.
  const auto random_set = [&](Oracle& oracle) {
    HierTaskSet s;
    const int n = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < n; ++i) {
      const auto daemon = static_cast<std::uint32_t>(rng.next_below(kDaemons));
      const auto local = static_cast<std::uint32_t>(
          rng.next_below(4) == 0 ? kTop - rng.next_below(6)
                                 : rng.next_below(kPerDaemon));
      s.insert(daemon, local);
      oracle[daemon].insert(local);
    }
    expect_matches(s, oracle, "random set");
    return s;
  };
  for (int draw = 0; draw < 8; ++draw) {
    Oracle oa, ob;
    const HierTaskSet a = random_set(oa);
    const HierTaskSet b = random_set(ob);
    HierTaskSet ab = a;
    ab.merge(b);
    expect_matches(ab, oracle_union(oa, ob), "general merge");
  }

  // The seed-label branches of merge. The base set has blocks on daemons
  // 8, 16 and 24. Daemon 16 holds three intervals with gaps of at least 3
  // and room below the first; daemon 24 reaches UINT32_MAX.
  HierTaskSet base;
  Oracle base_oracle;
  const auto r = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng.next_below(n));
  };
  insert_range(base, base_oracle, 8, r(8), 8 + r(8));
  const std::uint32_t a_lo = 2 + r(4), a_hi = a_lo + r(4);
  const std::uint32_t b_lo = a_hi + 4 + r(4), b_hi = b_lo + r(4);
  const std::uint32_t c_lo = b_hi + 2 + r(2), c_hi = c_lo + r(4);
  insert_range(base, base_oracle, 16, a_lo, a_hi);
  insert_range(base, base_oracle, 16, b_lo, b_hi);
  insert_range(base, base_oracle, 16, c_lo, c_hi);
  const std::uint32_t t_lo = kTop - r(3);
  const std::uint32_t u_hi = t_lo - 4 - r(4);
  insert_range(base, base_oracle, 24, u_hi - r(3), u_hi);
  insert_range(base, base_oracle, 24, t_lo, kTop);

  struct Seed {
    const char* what;
    std::uint32_t daemon, lo, hi;
  };
  const Seed seeds[] = {
      {"contained in an interval", 16, b_lo + r(b_hi - b_lo + 1), b_lo},
      {"widens one interval", 16, b_hi + 1, b_hi + 1},
      {"widens one interval downward", 16, a_lo - 1, a_lo - 1},
      {"bridges two intervals", 16, a_hi + 1, b_lo - 1},
      {"bridges three intervals", 16, a_hi, c_lo},
      {"new interval before", 16, a_lo - 2 - r(a_lo - 1), a_lo - 2},
      {"new interval between", 16, a_hi + 2, b_lo - 2},
      {"new interval after", 16, c_hi + 2, c_hi + 2 + r(3)},
      {"new daemon before", r(8), 0, r(5)},
      {"new daemon between", 9 + r(7), r(9), 9},
      {"new daemon after", 25 + r(6), r(kPerDaemon), kPerDaemon - 1},
      {"UINT32_MAX contained", 24, kTop, kTop},
      {"widens to UINT32_MAX", 24, t_lo - 1, kTop},
      {"bridges up to UINT32_MAX", 24, u_hi + 1, t_lo - 1},
      {"new interval ending at UINT32_MAX", 8, kTop - r(3), kTop},
  };
  for (const Seed& seed : seeds) {
    const std::uint32_t lo = std::min(seed.lo, seed.hi);
    const std::uint32_t hi = std::max(seed.lo, seed.hi);
    HierTaskSet one;
    Oracle one_oracle;
    insert_range(one, one_oracle, seed.daemon, lo, hi);
    ASSERT_EQ(daemons_of(one).size(), 1u) << seed.what;
    const Oracle expected = oracle_union(base_oracle, one_oracle);

    HierTaskSet merged = base;
    merged.merge(one);
    expect_matches(merged, expected, seed.what);
    HierTaskSet reversed = one;
    reversed.merge(base);
    EXPECT_EQ(reversed, merged) << seed.what;
    HierTaskSet inserted = base;
    for (std::uint64_t v = lo; v <= hi; ++v) {
      inserted.insert(seed.daemon, static_cast<std::uint32_t>(v));
    }
    EXPECT_EQ(inserted, merged) << seed.what;
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
