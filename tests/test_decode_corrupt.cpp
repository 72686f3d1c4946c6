// Adversarial decode tests: every Result-returning decode path must handle
// truncated or corrupt input by returning a non-OK Status — never by
// crashing, throwing, or allocating absurdly. Exercised systematically:
// every prefix truncation and every single-byte corruption of each valid
// encoding, plus handcrafted pathological headers (huge varint lengths and
// counts that used to wrap bounds checks or feed unchecked reserve()).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "app/appmodel.hpp"
#include "common/serializer.hpp"
#include "stat/hier_taskset.hpp"
#include "stat/prefix_tree.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {
namespace {

using Bytes = std::vector<std::uint8_t>;

// --- ByteSource primitives --------------------------------------------------

TEST(ByteSource, TruncatedFixedWidthReadsFail) {
  const Bytes three = {1, 2, 3};
  {
    ByteSource source(three);
    std::uint32_t v = 0;
    EXPECT_FALSE(source.get_u32(v).is_ok());
  }
  {
    ByteSource source(three);
    std::uint64_t v = 0;
    EXPECT_FALSE(source.get_u64(v).is_ok());
  }
  {
    ByteSource source({});
    std::uint8_t v = 0;
    EXPECT_FALSE(source.get_u8(v).is_ok());
  }
}

TEST(ByteSource, UnterminatedVarintFails) {
  const Bytes all_continuation = {0x80, 0x80, 0x80};
  ByteSource source(all_continuation);
  std::uint64_t v = 0;
  EXPECT_FALSE(source.get_varint(v).is_ok());
}

TEST(ByteSource, OverlongVarintFails) {
  // 11 bytes of continuation overflows 64 bits.
  const Bytes overlong(11, 0xff);
  ByteSource source(overlong);
  std::uint64_t v = 0;
  EXPECT_FALSE(source.get_varint(v).is_ok());
}

TEST(ByteSource, ZeroPaddedOverlongVarintFails) {
  // Ten continuation bytes with empty payloads then a terminator: the bytes
  // carry no value bits, but accepting them would shift past 64 (UB). The
  // decoder must reject the 10th byte's continuation bit instead.
  Bytes padded(10, 0x80);
  padded.push_back(0x00);
  ByteSource source(padded);
  std::uint64_t v = 0;
  EXPECT_FALSE(source.get_varint(v).is_ok());
}

TEST(ByteSource, MaxVarintRoundTrips) {
  ByteSink sink;
  sink.put_varint(UINT64_MAX);
  ByteSource source(sink.bytes());
  std::uint64_t v = 0;
  ASSERT_TRUE(source.get_varint(v).is_ok());
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(source.exhausted());
}

TEST(ByteSource, StringWithHugeDeclaredLengthFails) {
  // varint(UINT64_MAX) then no payload: the old `pos_ + len` bounds check
  // wrapped around and accepted this.
  ByteSink sink;
  sink.put_varint(UINT64_MAX);
  ByteSource source(sink.bytes());
  std::string out;
  EXPECT_FALSE(source.get_string(out).is_ok());
}

TEST(ByteSource, StringLongerThanBufferFails) {
  ByteSink sink;
  sink.put_varint(100);
  sink.put_u8('x');
  ByteSource source(sink.bytes());
  std::string out;
  EXPECT_FALSE(source.get_string(out).is_ok());
}

TEST(ByteSource, GetBytesPastEndFails) {
  const Bytes four = {1, 2, 3, 4};
  ByteSource source(four);
  std::span<const std::uint8_t> out;
  EXPECT_TRUE(source.get_bytes(3, out).is_ok());
  EXPECT_FALSE(source.get_bytes(2, out).is_ok());
  // A size that would wrap `pos_ + n` must fail too.
  EXPECT_FALSE(source.get_bytes(SIZE_MAX, out).is_ok());
}

// --- Systematic truncation / corruption over real encodings -----------------

TaskSet sample_set() {
  TaskSet set;
  set.insert_range(0, 3);
  set.insert(77);
  set.insert_range(200, 300);
  return set;
}

HierTaskSet sample_hier() {
  HierTaskSet set;
  for (std::uint32_t local = 0; local < 6; ++local) set.insert(2, local);
  set.insert(40, 1);
  return set;
}

/// Decoding any prefix of `encoded` must return (not crash), and the full
/// buffer must decode OK.
template <typename DecodeFn>
void expect_clean_on_all_prefixes(const Bytes& encoded, DecodeFn decode) {
  for (std::size_t len = 0; len <= encoded.size(); ++len) {
    ByteSource source(std::span(encoded.data(), len));
    (void)decode(source);  // must not crash; status may be either way
  }
  // The full buffer must decode.
  ByteSource full(encoded);
  EXPECT_TRUE(decode(full).is_ok());
}

/// Flipping every byte (one at a time) must never crash the decoder.
template <typename DecodeFn>
void expect_clean_on_byte_flips(const Bytes& encoded, DecodeFn decode) {
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes corrupt = encoded;
    corrupt[i] ^= 0xff;
    ByteSource source(corrupt);
    (void)decode(source);  // must not crash
  }
}

TEST(CorruptRangedTaskSet, TruncationsAndFlipsNeverCrash) {
  ByteSink sink;
  sample_set().encode_ranged(sink);
  const Bytes encoded = sink.take();
  auto decode = [](ByteSource& s) { return TaskSet::decode_ranged(s).status(); };
  expect_clean_on_all_prefixes(encoded, decode);
  expect_clean_on_byte_flips(encoded, decode);
}

TEST(CorruptDenseTaskSet, TruncationsNeverCrash) {
  ByteSink sink;
  sample_set().encode_dense(sink, 512);
  const Bytes encoded = sink.take();
  // Dense payloads have no internal structure to corrupt (every bit pattern
  // is a valid set), but truncation must be caught.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    ByteSource source(std::span(encoded.data(), len));
    EXPECT_FALSE(TaskSet::decode_dense(source, 512).is_ok());
  }
  ByteSource full(encoded);
  EXPECT_TRUE(TaskSet::decode_dense(full, 512).is_ok());
}

TEST(CorruptHierTaskSet, TruncationsAndFlipsNeverCrash) {
  ByteSink sink;
  sample_hier().encode(sink);
  const Bytes encoded = sink.take();
  auto decode = [](ByteSource& s) { return HierTaskSet::decode(s).status(); };
  expect_clean_on_all_prefixes(encoded, decode);
  expect_clean_on_byte_flips(encoded, decode);
}

TEST(CorruptPrefixTree, TruncationsAndFlipsNeverCrash) {
  app::FrameTable frames;
  GlobalTree tree;
  const LabelContext ctx{16};
  tree.insert(frames.make_path({"_start", "main", "MPI_Barrier"}),
              GlobalLabel::for_task(3));
  tree.insert(frames.make_path({"_start", "main", "compute"}),
              GlobalLabel::for_task(4));
  ByteSink sink;
  tree.encode(sink, frames, ctx);
  const Bytes encoded = sink.take();

  auto decode = [&ctx](ByteSource& s) {
    app::FrameTable fresh;
    return GlobalTree::decode(s, fresh, ctx).status();
  };
  expect_clean_on_all_prefixes(encoded, decode);
  expect_clean_on_byte_flips(encoded, decode);
}

TEST(CorruptHierTree, TruncationsAndFlipsNeverCrash) {
  app::FrameTable frames;
  HierTree tree;
  const LabelContext ctx{16};
  tree.insert(frames.make_path({"_start", "main", "MPI_Recv"}),
              HierLabel::for_local(0, 1));
  tree.insert(frames.make_path({"_start", "main", "poll"}),
              HierLabel::for_local(1, 0));
  ByteSink sink;
  tree.encode(sink, frames, ctx);
  const Bytes encoded = sink.take();

  auto decode = [&ctx](ByteSource& s) {
    app::FrameTable fresh;
    return HierTree::decode(s, fresh, ctx).status();
  };
  expect_clean_on_all_prefixes(encoded, decode);
  expect_clean_on_byte_flips(encoded, decode);
}

// --- Wire-format versioning -------------------------------------------------

/// A bumped version byte must fail as version skew (FAILED_PRECONDITION),
/// distinctly from truncation (INVALID_ARGUMENT "truncated buffer") — the
/// operational difference between "daemon runs an old tool build" and "the
/// connection died mid-packet".
TEST(WireVersion, SkewIsDistinguishedFromTruncation) {
  ByteSink sink;
  sample_set().encode_ranged(sink);
  Bytes encoded = sink.take();

  // Full buffer with a bumped version: skew.
  Bytes skewed = encoded;
  skewed[0] = kWireFormatVersion + 1;
  {
    ByteSource source(skewed);
    auto decoded = TaskSet::decode_ranged(source);
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(decoded.status().message().find("version skew"),
              std::string::npos);
  }
  // Empty buffer: truncation, not skew.
  {
    ByteSource source(std::span<const std::uint8_t>{});
    auto decoded = TaskSet::decode_ranged(source);
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireVersion, AllVersionedFormatsRejectSkew) {
  app::FrameTable frames;
  const LabelContext ctx{16};
  GlobalTree tree;
  tree.insert(frames.make_path({"_start", "main"}), GlobalLabel::for_task(1));

  {
    ByteSink sink;
    tree.encode(sink, frames, ctx);
    Bytes encoded = sink.take();
    encoded[0] = 0x7e;  // no such version
    ByteSource source(encoded);
    app::FrameTable fresh;
    auto decoded = GlobalTree::decode(source, fresh, ctx);
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    ByteSink sink;
    sample_hier().encode(sink);
    Bytes encoded = sink.take();
    encoded[0] = 0x7e;
    ByteSource source(encoded);
    auto decoded = HierTaskSet::decode(source);
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  }
}

// --- Pathological headers ---------------------------------------------------

/// A count header claiming 2^60 elements with no payload behind it must be
/// rejected via Status (and must not reserve() petabytes on the way). The
/// valid version byte up front gets the decoder past the envelope check into
/// the count-handling path under test.
TEST(PathologicalHeaders, HugeElementCountsFailCleanly) {
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_varint(1ull << 60);
  const Bytes encoded = sink.take();
  {
    ByteSource source(encoded);
    EXPECT_FALSE(TaskSet::decode_ranged(source).is_ok());
  }
  {
    ByteSource source(encoded);
    EXPECT_FALSE(HierTaskSet::decode(source).is_ok());
  }
  {
    ByteSource source(encoded);
    app::FrameTable frames;
    EXPECT_FALSE(GlobalTree::decode(source, frames, LabelContext{8}).is_ok());
  }
}

TEST(PathologicalHeaders, HugeRangedDeltasFailCleanly) {
  // One interval with gap > UINT32_MAX: used to wrap the cursor arithmetic.
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_varint(1);           // one interval
  sink.put_varint(UINT64_MAX);  // gap
  sink.put_varint(0);           // length
  ByteSource source(sink.bytes());
  EXPECT_FALSE(TaskSet::decode_ranged(source).is_ok());
}

TEST(PathologicalHeaders, HugeDaemonDeltaFailsCleanly) {
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_varint(2);           // two blocks
  sink.put_varint(1);           // daemon 1
  TaskSet::single(0).encode_ranged_body(sink);
  sink.put_varint(UINT64_MAX);  // second daemon delta: overflow
  TaskSet::single(0).encode_ranged_body(sink);
  ByteSource source(sink.bytes());
  EXPECT_FALSE(HierTaskSet::decode(source).is_ok());
}

TEST(PathologicalHeaders, EmptyHierBlockIsRejected) {
  // No encoder emits a daemon block with zero intervals, and the flat
  // in-memory layout cannot hold one.
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_varint(2);  // two blocks
  sink.put_varint(1);  // daemon 1
  TaskSet::single(0).encode_ranged_body(sink);
  sink.put_varint(0);  // daemon 2 ...
  sink.put_varint(0);  // ... with no intervals
  ByteSource source(sink.bytes());
  auto decoded = HierTaskSet::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PathologicalHeaders, HierBlockIntervalCountOverflowIsRejected) {
  // A block's interval count is held in 32 bits: one beyond UINT32_MAX
  // fails before any interval is read.
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_varint(1);                      // one block
  sink.put_varint(7);                      // daemon 7
  sink.put_varint(std::uint64_t{UINT32_MAX} + 1);  // interval count
  sink.put_varint(0);                      // gap
  sink.put_varint(0);                      // length
  ByteSource source(sink.bytes());
  auto decoded = HierTaskSet::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PathologicalHeaders, DeeplyNestedTreeFailsCleanly) {
  // A chain of single-child nodes a few bytes per level: without a decode
  // depth limit this recursed once per level and overflowed the stack.
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  const std::uint32_t levels = 200000;
  for (std::uint32_t i = 0; i < levels; ++i) {
    sink.put_varint(1);                     // one child
    sink.put_string("f");                   // frame name
    TaskSet::single(0).encode_dense(sink, 8);  // GlobalLabel: dense set ...
    sink.put_u32(1);                        // ... plus visits
  }
  sink.put_varint(0);  // leaf
  ByteSource source(sink.bytes());
  app::FrameTable frames;
  auto decoded = GlobalTree::decode(source, frames, LabelContext{8});
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PathologicalHeaders, DenseDecodeForOversizedJobFails) {
  // job_size implies more bytes than the buffer holds.
  ByteSink sink;
  sample_set().encode_dense(sink, 512);
  ByteSource source(sink.bytes());
  EXPECT_FALSE(TaskSet::decode_dense(source, 1 << 20).is_ok());
}

}  // namespace
}  // namespace petastat::stat
