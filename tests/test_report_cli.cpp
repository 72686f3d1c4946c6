// Tests for the report writers and the CLI configuration parser.
#include <gtest/gtest.h>

#include "stat/cli_config.hpp"
#include "stat/report.hpp"
#include "stat/scenario.hpp"

namespace petastat::stat {
namespace {

struct ReportFixture : ::testing::Test {
  machine::JobConfig job{.num_tasks = 128};
  StatOptions options;
  ReportFixture() { options.topology = tbon::TopologySpec::balanced(2); }
};

TEST_F(ReportFixture, TextReportContainsPhasesAndClasses) {
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  const std::string text =
      render_text_report(result, scenario.app().frames(), /*include_tree=*/true);
  EXPECT_NE(text.find("status: OK"), std::string::npos);
  EXPECT_NE(text.find("startup:"), std::string::npos);
  EXPECT_NE(text.find("sampling:"), std::string::npos);
  EXPECT_NE(text.find("merge:"), std::string::npos);
  EXPECT_NE(text.find("equivalence classes"), std::string::npos);
  EXPECT_NE(text.find("do_SendOrStall"), std::string::npos);
  EXPECT_NE(text.find("3D prefix tree"), std::string::npos);
}

TEST_F(ReportFixture, CsvRowMatchesHeaderArity) {
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  const std::string header = csv_header();
  const std::string row = render_csv_row("atlas", result);
  const auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count_commas(header), count_commas(row));
  EXPECT_EQ(row.substr(0, 6), "atlas,");
  EXPECT_NE(row.find(",OK,"), std::string::npos);
}

TEST_F(ReportFixture, JsonReportIsStructurallySound) {
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  const std::string json = render_json_report(result, scenario.app().frames());
  // Balanced braces/brackets and the expected keys.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\""), std::string::npos);
  EXPECT_NE(json.find("\"startup_s\""), std::string::npos);
}

TEST_F(ReportFixture, StreamingRunsRenderPerSampleRows) {
  options.stream_samples = 3;
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(result.stream_samples.size(), 3u);

  const std::string text =
      render_text_report(result, scenario.app().frames(), /*include_tree=*/false);
  EXPECT_NE(text.find("streaming: 3 round(s)"), std::string::npos);

  const std::string json = render_json_report(result, scenario.app().frames());
  EXPECT_NE(json.find("\"stream_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"stream_rounds\": 3"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("plain"), "plain");
}

// --------------------------------------------------------------------------
// CLI parsing

std::vector<std::string_view> args(std::initializer_list<std::string_view> a) {
  return {a};
}

TEST(Cli, DefaultsAreSane) {
  const auto config = parse_cli({});
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().machine.name, "atlas");
  EXPECT_EQ(config.value().job.num_tasks, 1024u);
  EXPECT_EQ(config.value().options.launcher, LauncherKind::kLaunchMon);
  EXPECT_EQ(config.value().format, OutputFormat::kText);
}

TEST(Cli, FullConfiguration) {
  const auto argv = args({"--machine", "bgl", "--tasks", "212992", "--mode",
                          "vn", "--topology", "bgl2deep", "--repr", "dense",
                          "--launcher", "ciod-unpatched", "--samples", "5",
                          "--fs", "lustre", "--sbrs", "--slim-binaries",
                          "--seed", "7", "--format", "json", "--print-tree",
                          "--dot", "/tmp/t.dot", "--fail-fraction", "0.01"});
  const auto config = parse_cli(argv);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const CliConfig& c = config.value();
  EXPECT_EQ(c.machine.name, "bgl");
  EXPECT_EQ(c.job.num_tasks, 212992u);
  EXPECT_EQ(c.job.mode, machine::BglMode::kVirtualNode);
  EXPECT_TRUE(c.options.topology.bgl_rules);
  EXPECT_EQ(c.options.repr, TaskSetRepr::kDenseGlobal);
  EXPECT_EQ(c.options.launcher, LauncherKind::kCiodUnpatched);
  EXPECT_EQ(c.options.num_samples, 5u);
  EXPECT_EQ(c.options.shared_fs, SharedFsKind::kLustre);
  EXPECT_TRUE(c.options.use_sbrs);
  EXPECT_TRUE(c.options.slim_binaries);
  EXPECT_EQ(c.options.seed, 7u);
  EXPECT_EQ(c.format, OutputFormat::kJson);
  EXPECT_TRUE(c.print_tree);
  EXPECT_EQ(c.dot_path, "/tmp/t.dot");
  EXPECT_DOUBLE_EQ(c.options.daemon_failure_probability, 0.01);
}

TEST(Cli, BglDefaultsToCiodLauncher) {
  const auto config = parse_cli(args({"--machine", "bgl", "--tasks", "8192"}));
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().options.launcher, LauncherKind::kCiodPatched);
}

TEST(Cli, ThreadsImplyThreadedApp) {
  const auto config = parse_cli(args({"--threads", "4"}));
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().options.app, AppKind::kThreadedRing);
  EXPECT_EQ(config.value().job.threads_per_task, 4u);
}

TEST(Cli, RejectsUnknownFlagsAndValues) {
  EXPECT_FALSE(parse_cli(args({"--bogus"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--machine", "cray"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--tasks", "abc"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--tasks"})).is_ok());  // missing value
  EXPECT_FALSE(parse_cli(args({"--tasks", "0"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--mode", "virtual"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fail-fraction", "1.5"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--format", "xml"})).is_ok());
}

TEST(Cli, FailureFractionOutOfRangeIsInvalidArgument) {
  const auto over = parse_cli(args({"--fail-fraction", "1.5"}));
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  const auto under = parse_cli(args({"--fail-fraction", "-0.5"}));
  EXPECT_EQ(under.status().code(), StatusCode::kInvalidArgument);
  const auto word = parse_cli(args({"--fail-fraction", "half"}));
  EXPECT_EQ(word.status().code(), StatusCode::kInvalidArgument);
  const auto nan = parse_cli(args({"--fail-fraction", "nan"}));
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
}

TEST(Cli, RecoveryFlags) {
  const auto config = parse_cli(args({"--fail-at", "0.5", "--ping-period",
                                      "0.125", "--app", "oomcascade"}));
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_DOUBLE_EQ(config.value().options.fail_at_seconds, 0.5);
  EXPECT_DOUBLE_EQ(config.value().options.ping_period_seconds, 0.125);
  EXPECT_EQ(config.value().options.app, AppKind::kOomCascade);

  // No kill scheduled unless the user asks for one.
  const auto defaults = parse_cli({});
  ASSERT_TRUE(defaults.is_ok());
  EXPECT_LT(defaults.value().options.fail_at_seconds, 0.0);

  EXPECT_FALSE(parse_cli(args({"--fail-at", "-1"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fail-at", "soon"})).is_ok());
  // Seconds must fit SimTime: no NaN, no infinity, nothing past 1.8e10 s.
  EXPECT_FALSE(parse_cli(args({"--fail-at", "nan"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fail-at", "inf"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fail-at", "2e10"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--ping-period", "0"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--ping-period", "-0.25"})).is_ok());
}

TEST(Cli, FeShardsFlag) {
  const auto pinned = parse_cli(args({"--fe-shards", "4"}));
  ASSERT_TRUE(pinned.is_ok());
  EXPECT_EQ(pinned.value().options.fe_shards, 4u);
  EXPECT_FALSE(pinned.value().options.fe_shards_auto);

  const auto autos = parse_cli(args({"--fe-shards", "auto"}));
  ASSERT_TRUE(autos.is_ok());
  EXPECT_TRUE(autos.value().options.fe_shards_auto);

  // Zero shards is a typo, not a request for the default.
  EXPECT_FALSE(parse_cli(args({"--fe-shards", "0"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fe-shards", "128"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--fe-shards"})).is_ok());
}

TEST(Cli, StreamFlagParsesCountAndOptionalInterval) {
  const auto bare = parse_cli(args({"--stream", "5"}));
  ASSERT_TRUE(bare.is_ok()) << bare.status().to_string();
  EXPECT_EQ(bare.value().options.stream_samples, 5u);

  const auto timed = parse_cli(args({"--stream", "5:0.25"}));
  ASSERT_TRUE(timed.is_ok()) << timed.status().to_string();
  EXPECT_EQ(timed.value().options.stream_samples, 5u);
  EXPECT_DOUBLE_EQ(timed.value().options.stream_interval_seconds, 0.25);

  // Classic batched pipeline unless the user opts into streaming.
  const auto defaults = parse_cli({});
  ASSERT_TRUE(defaults.is_ok());
  EXPECT_EQ(defaults.value().options.stream_samples, 0u);
  EXPECT_FALSE(defaults.value().options.stream_full_remerge);
}

TEST(Cli, StreamFlagRejectsMalformedRequests) {
  EXPECT_FALSE(parse_cli(args({"--stream"})).is_ok());  // missing value
  EXPECT_FALSE(parse_cli(args({"--stream", "0"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--stream", "abc"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--stream", "5:"})).is_ok());  // empty interval
  EXPECT_FALSE(parse_cli(args({"--stream", "5:fast"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--stream", "20000"})).is_ok());  // out of range
  // The interval becomes SimTime: NaN, infinity and anything past
  // kMaxSimSeconds are rejected, the bound itself is kept.
  EXPECT_FALSE(parse_cli(args({"--stream", "3:nan"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--stream", "3:inf"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--stream", "3:1e12"})).is_ok());
  EXPECT_EQ(parse_cli(args({"--stream", "3:nan"})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(parse_cli(args({"--stream", "3:1.8e10"})).is_ok());
}

TEST(Cli, StreamFullRemergeAndEvolveFlags) {
  const auto remerge =
      parse_cli(args({"--stream", "4", "--stream-full-remerge"}));
  ASSERT_TRUE(remerge.is_ok());
  EXPECT_TRUE(remerge.value().options.stream_full_remerge);

  const auto drift = parse_cli(args({"--evolve", "drift"}));
  ASSERT_TRUE(drift.is_ok());
  EXPECT_EQ(drift.value().options.evolution, app::TraceEvolution::kDrift);

  const auto jitter = parse_cli(args({"--evolve", "jitter"}));
  ASSERT_TRUE(jitter.is_ok());
  EXPECT_EQ(jitter.value().options.evolution, app::TraceEvolution::kJitter);

  EXPECT_FALSE(parse_cli(args({"--evolve", "static"})).is_ok());
  EXPECT_FALSE(parse_cli(args({"--evolve"})).is_ok());
}

TEST(Cli, RejectsJobsThatDoNotFit) {
  const auto config = parse_cli(args({"--machine", "atlas", "--tasks", "50000"}));
  EXPECT_EQ(config.status().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// Failure injection (scenario-level)

TEST(FailureInjection, SurvivorsStillProduceClasses) {
  machine::JobConfig job;
  job.num_tasks = 1024;
  StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.daemon_failure_probability = 0.1;
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_GT(result.phases.failed_daemons, 0u);
  EXPECT_LT(result.phases.failed_daemons, 128u);
  // Covered tasks = tasks of surviving daemons.
  std::uint64_t covered = 0;
  for (const auto& cls : result.classes) covered += cls.size();
  const std::uint64_t expected =
      1024u - static_cast<std::uint64_t>(result.phases.failed_daemons) * 8;
  EXPECT_EQ(covered, expected);
}

TEST(FailureInjection, TotalLossIsReported) {
  machine::JobConfig job;
  job.num_tasks = 64;
  StatOptions options;
  options.daemon_failure_probability = 1.0;
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.phases.failed_daemons, 8u);
}

// p = 1.0 takes the deterministic everyone-dies path: no RNG draw, so the
// verdict cannot depend on the seed.
TEST(FailureInjection, CertainTotalLossIsSeedIndependent) {
  machine::JobConfig job;
  job.num_tasks = 64;  // 8 Atlas daemons
  for (const std::uint32_t seed : {1u, 999u}) {
    StatOptions options;
    options.daemon_failure_probability = 1.0;
    options.seed = seed;
    StatScenario scenario(machine::atlas(), job, options);
    const auto result = scenario.run();
    EXPECT_EQ(result.status.code(), StatusCode::kUnavailable) << "seed " << seed;
    EXPECT_EQ(result.phases.failed_daemons, 8u) << "seed " << seed;
    EXPECT_EQ(result.dead_daemons.size(), 8u) << "seed " << seed;
  }
}

TEST(FailureInjection, OutOfRangeProbabilityIsRejected) {
  machine::JobConfig job;
  job.num_tasks = 64;
  for (const double p : {1.5, -0.1}) {
    StatOptions options;
    options.daemon_failure_probability = p;
    StatScenario scenario(machine::atlas(), job, options);
    EXPECT_EQ(scenario.run().status.code(), StatusCode::kInvalidArgument)
        << "p = " << p;
  }
}

TEST(FailureInjection, NonPositivePingPeriodIsRejected) {
  machine::JobConfig job;
  job.num_tasks = 64;
  StatOptions options;
  options.ping_period_seconds = 0.0;
  StatScenario scenario(machine::atlas(), job, options);
  EXPECT_EQ(scenario.run().status.code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjection, ZeroProbabilityIsNoop) {
  machine::JobConfig job;
  job.num_tasks = 64;
  StatOptions options;
  options.daemon_failure_probability = 0.0;
  StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.phases.failed_daemons, 0u);
}

}  // namespace
}  // namespace petastat::stat
