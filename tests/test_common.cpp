// Unit tests for common: strings, stats, RNG, serializer, status, file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "common/serializer.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/types.hpp"

namespace petastat {
namespace {

// --------------------------------------------------------------------------
// strings

TEST(Strings, FormatRangesBasic) {
  const std::vector<std::uint32_t> v{0, 3, 4, 5, 6, 7};
  EXPECT_EQ(format_ranges(v), "0,3-7");
}

TEST(Strings, FormatRangesSingletons) {
  const std::vector<std::uint32_t> v{1, 5, 9};
  EXPECT_EQ(format_ranges(v), "1,5,9");
}

TEST(Strings, FormatRangesEmpty) {
  EXPECT_EQ(format_ranges(std::vector<std::uint32_t>{}), "");
}

TEST(Strings, FormatRangesTruncates) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < 40; i += 2) v.push_back(i);
  const std::string out = format_ranges(v, 3);
  EXPECT_EQ(out, "0,2,4,...");
}

TEST(Strings, FormatEdgeLabelMatchesPaperSyntax) {
  std::vector<std::uint32_t> v{0};
  for (std::uint32_t i = 3; i <= 1023; ++i) v.push_back(i);
  EXPECT_EQ(format_edge_label(v), "1022:[0,3-1023]");
}

TEST(Strings, ParseRangesInvertsFormat) {
  const std::vector<std::uint32_t> v{0, 1, 2, 7, 9, 10, 11, 100};
  EXPECT_EQ(parse_ranges(format_ranges(v, 100)), v);
}

TEST(Strings, ParseRangesIgnoresMalformed) {
  EXPECT_EQ(parse_ranges("abc,5,9-7,3"), (std::vector<std::uint32_t>{5, 3}));
}

TEST(Strings, FormatDurationUnits) {
  EXPECT_EQ(format_duration(2 * kSecond), "2.000 s");
  EXPECT_EQ(format_duration(5 * kMillisecond), "5.000 ms");
  EXPECT_EQ(format_duration(7 * kMicrosecond), "7.000 us");
  EXPECT_EQ(format_duration(42), "42 ns");
}

TEST(Strings, FormatBytesUnits) {
  EXPECT_EQ(format_bytes(17), "17 B");
  EXPECT_EQ(format_bytes(10 * 1024), "10.0 KB");
  EXPECT_EQ(format_bytes(4 * 1024 * 1024), "4.00 MB");
}

TEST(Strings, SecondsConversionRoundtrip) {
  EXPECT_EQ(seconds(1.5), 1'500'000'000ull);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(0.25)), 0.25);
  EXPECT_EQ(seconds(-3.0), 0ull);
}

// --------------------------------------------------------------------------
// stats

TEST(Stats, RunningStatsMatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs{1.0, 4.0, 2.0, 8.0, 5.0};
  double sum = 0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  double var = 0;
  for (const double x : xs) var += (x - s.mean()) * (x - s.mean());
  var /= 4.0;
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.relative_spread(), (8.0 - 1.0) / 4.0, 1e-12);
}

TEST(Stats, PercentileNearestRank) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 1), 10);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.5 * i + 2.0);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Stats, LinearFitDegenerate) {
  EXPECT_DOUBLE_EQ(fit_linear({1.0}, {2.0}).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_linear({2.0, 2.0}, {1.0, 3.0}).slope, 0.0);
}

// --------------------------------------------------------------------------
// rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(42, 1), b(42, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowIsBounded) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  // n == 1 always yields 0.
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalFactorMedianNearOne) {
  Rng r(17);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(r.lognormal_factor(0.5));
  EXPECT_NEAR(percentile(xs, 50), 1.0, 0.03);
  for (const double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// --------------------------------------------------------------------------
// serializer

TEST(Serializer, FixedWidthRoundtrip) {
  ByteSink sink;
  sink.put_u8(0xab);
  sink.put_u32(0xdeadbeef);
  sink.put_u64(0x0123456789abcdefULL);
  auto bytes = sink.take();
  ByteSource source(bytes);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  ASSERT_TRUE(source.get_u8(a).is_ok());
  ASSERT_TRUE(source.get_u32(b).is_ok());
  ASSERT_TRUE(source.get_u64(c).is_ok());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefULL);
  EXPECT_TRUE(source.exhausted());
}

class VarintRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundtrip, Roundtrips) {
  ByteSink sink;
  sink.put_varint(GetParam());
  auto bytes = sink.take();
  ByteSource source(bytes);
  std::uint64_t out = 0;
  ASSERT_TRUE(source.get_varint(out).is_ok());
  EXPECT_EQ(out, GetParam());
  EXPECT_TRUE(source.exhausted());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, VarintRoundtrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull,
                                           16383ull, 16384ull, 1ull << 32,
                                           (1ull << 63) - 1,
                                           ~0ull));

TEST(Serializer, VarintSizeMatchesPutVarintAtEveryLengthBoundary) {
  // The largest value of each byte length (2^(7k) - 1) and the smallest of
  // the next (2^(7k)), for k = 1..9, plus 0 and UINT64_MAX (10 bytes).
  std::vector<std::uint64_t> values = {0, UINT64_MAX};
  for (int k = 1; k <= 9; ++k) {
    const std::uint64_t first_of_next = std::uint64_t{1} << (7 * k);
    values.push_back(first_of_next - 1);
    values.push_back(first_of_next);
  }
  for (const std::uint64_t v : values) {
    ByteSink sink;
    sink.put_varint(v);
    EXPECT_EQ(varint_size(v), sink.size()) << v;
  }
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(UINT64_MAX), 10u);
}

TEST(Serializer, StringRoundtrip) {
  ByteSink sink;
  sink.put_string("BGLML_Messager_advance");
  sink.put_string("");
  auto bytes = sink.take();
  ByteSource source(bytes);
  std::string a, b;
  ASSERT_TRUE(source.get_string(a).is_ok());
  ASSERT_TRUE(source.get_string(b).is_ok());
  EXPECT_EQ(a, "BGLML_Messager_advance");
  EXPECT_EQ(b, "");
}

TEST(Serializer, TruncationIsDetected) {
  ByteSink sink;
  sink.put_u64(1);
  auto bytes = sink.take();
  bytes.pop_back();
  ByteSource source(bytes);
  std::uint64_t out = 0;
  EXPECT_EQ(source.get_u64(out).code(), StatusCode::kInvalidArgument);
}

TEST(Serializer, VarintOverflowIsDetected) {
  // 10 bytes of continuation with high bits beyond 64 set.
  std::vector<std::uint8_t> bytes(10, 0xff);
  ByteSource source(bytes);
  std::uint64_t out = 0;
  EXPECT_FALSE(source.get_varint(out).is_ok());
}

// --------------------------------------------------------------------------
// status & ids

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status s = resource_exhausted("buffers");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.to_string(), "RESOURCE_EXHAUSTED: buffers");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(not_found("nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(StrongId, DistinctTypesAndHash) {
  const TaskId t(5);
  const DaemonId d(5);
  EXPECT_EQ(t.value(), d.value());
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(TaskId::invalid().valid());
  std::set<TaskId> set{TaskId(1), TaskId(2), TaskId(1)};
  EXPECT_EQ(set.size(), 2u);
}

// --------------------------------------------------------------------------
// file I/O

TEST(FileIo, WriteThenReadRoundTrips) {
  const std::string path = ::testing::TempDir() + "file_io_round_trip.bin";
  const std::string contents("line\n\0binary", 13);
  ASSERT_TRUE(write_file(path, contents).is_ok());
  auto read = read_file(path);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value(), contents);
  std::remove(path.c_str());
}

// A full device accepts the buffered fwrite and fails the flush at close:
// the write must still report the failure.
TEST(FileIo, WriteToFullDeviceFails) {
  const Status written = write_file("/dev/full", std::string(64, 'x'));
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  EXPECT_NE(written.message().find("write error"), std::string::npos)
      << written.message();
}

TEST(FileIo, MissingFileIsNotFound) {
  EXPECT_EQ(read_file("/nonexistent/file").status().code(),
            StatusCode::kNotFound);
}

// A directory opens but cannot be read: a read error, not an empty file.
TEST(FileIo, ReadingADirectoryIsAReadError) {
  auto read = read_file(::testing::TempDir());
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(read.status().message().find("read error"), std::string::npos)
      << read.status().message();
}

}  // namespace
}  // namespace petastat
