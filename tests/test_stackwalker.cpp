// Unit tests for the StackWalker service: symbol I/O, walk costs, CPU
// contention, the task resolver, and per-daemon caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "fs/filesystem.hpp"
#include "stackwalker/stackwalker.hpp"

namespace petastat::stackwalker {
namespace {

struct WalkerFixture {
  sim::Simulator sim;
  machine::MachineConfig machine = machine::atlas();
  machine::CostModel costs = machine::default_cost_model(machine);
  fs::NfsFileSystem nfs;
  fs::RamDiskFileSystem local;
  fs::MountTable mounts;
  fs::FileAccess files;
  app::RingHangApp app;
  machine::DaemonLayout layout;

  static fs::NfsParams quiet() {
    fs::NfsParams p;
    p.background_sigma = 0;
    p.run_load_sigma = 0;
    return p;
  }
  static app::RingHangOptions ring(std::uint32_t tasks) {
    app::RingHangOptions o;
    o.num_tasks = tasks;
    o.bgl_frames = false;
    o.binaries = app::ring_binaries_dynamic("/nfs/home/user", /*slim=*/true);
    return o;
  }

  explicit WalkerFixture(std::uint32_t tasks = 64)
      : nfs(sim, quiet(), 1),
        local(sim, fs::RamDiskParams{}),
        files(sim, mounts),
        app(ring(tasks)) {
    mounts.mount("/nfs", &nfs);
    mounts.mount("/usr/lib", &local);
    layout = machine::layout_daemons(machine, {.num_tasks = tasks}).value();
    // Deterministic contention for timing assertions.
    costs.sampling.cpu_contention_sigma = 0.0;
  }

  StackWalker make_walker(std::uint64_t seed = 1) {
    return StackWalker(sim, machine, costs.sampling, files, app, layout, seed);
  }
};

TEST(StackWalker, SinkReceivesEveryTrace) {
  WalkerFixture f(64);  // 8 daemons x 8 tasks
  auto walker = f.make_walker();
  std::uint32_t traces = 0;
  std::uint32_t batches = 0;
  std::optional<SampleReport> report;
  walker.sample_daemon(DaemonId(0), 10,
                       [&](const app::TraceBatch& batch) {
                         ++batches;
                         traces += static_cast<std::uint32_t>(batch.size());
                         for (std::size_t i = 0; i < batch.size(); ++i) {
                           const auto& trace = batch.trace(i);
                           EXPECT_FALSE(batch.path(i).empty());
                           EXPECT_TRUE(std::ranges::equal(
                               batch.path(i),
                               f.app.stack(trace.task, 0, trace.sample)));
                         }
                       },
                       [&](const SampleReport& r) { report = r; });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(batches, 1u);  // one batch per daemon pass
  EXPECT_EQ(traces, 80u);  // 8 tasks x 10 samples
  EXPECT_EQ(report->traces, 80u);
  EXPECT_EQ(report->finished_at,
            report->started_at + report->symbol_io_time +
                report->symbol_parse_time + report->walk_time);
}

TEST(StackWalker, SymbolIoChargedOnceAcrossPasses) {
  WalkerFixture f(64);
  auto walker = f.make_walker();
  const auto noop_sink = [](const app::TraceBatch&) {};
  std::optional<SampleReport> first, second;
  walker.sample_daemon(DaemonId(0), 10, noop_sink,
                       [&](const SampleReport& r) { first = r; });
  f.sim.run();
  walker.sample_daemon(DaemonId(0), 10, noop_sink,
                       [&](const SampleReport& r) { second = r; });
  f.sim.run();
  EXPECT_GT(first->symbol_io_time, 0u);
  EXPECT_EQ(second->symbol_io_time, 0u);
  EXPECT_EQ(second->symbol_parse_time, 0u);
  EXPECT_GT(second->walk_time, 0u);
}

TEST(StackWalker, ResetForcesReparsing) {
  WalkerFixture f(64);
  auto walker = f.make_walker();
  const auto noop_sink = [](const app::TraceBatch&) {};
  walker.sample_daemon(DaemonId(0), 1, noop_sink, [](const SampleReport&) {});
  f.sim.run();
  walker.reset();
  std::optional<SampleReport> report;
  walker.sample_daemon(DaemonId(0), 1, noop_sink,
                       [&](const SampleReport& r) { report = r; });
  f.sim.run();
  EXPECT_GT(report->symbol_parse_time, 0u);  // parsed again (client cache
                                             // still spares the server I/O)
}

TEST(StackWalker, WalkCostGrowsWithFrames) {
  WalkerFixture f;
  auto walker = f.make_walker();
  EXPECT_GT(walker.walk_cost(20), walker.walk_cost(5));
  EXPECT_EQ(walker.walk_cost(5) - walker.walk_cost(4),
            f.costs.sampling.walk_per_frame +
                f.costs.sampling.local_merge_per_node);
}

TEST(StackWalker, ContentionInflatesSharedCpuMachines) {
  // Atlas (shared CPU) vs BG/L-style dedicated I/O node, identical costs.
  WalkerFixture shared(64);
  shared.costs.sampling.cpu_contention_mean = 3.0;
  auto walker_shared = shared.make_walker();

  WalkerFixture dedicated(64);
  dedicated.machine.daemon_shares_cpu = false;
  dedicated.costs.sampling.cpu_contention_mean = 3.0;
  auto walker_dedicated =
      StackWalker(dedicated.sim, dedicated.machine, dedicated.costs.sampling,
                  dedicated.files, dedicated.app, dedicated.layout, 1);

  const auto noop_sink = [](const app::TraceBatch&) {};
  std::optional<SampleReport> rs, rd;
  walker_shared.sample_daemon(DaemonId(0), 10, noop_sink,
                              [&](const SampleReport& r) { rs = r; });
  shared.sim.run();
  walker_dedicated.sample_daemon(DaemonId(0), 10, noop_sink,
                                 [&](const SampleReport& r) { rd = r; });
  dedicated.sim.run();
  EXPECT_GT(to_seconds(rs->walk_time), 2.5 * to_seconds(rd->walk_time));
}

TEST(StackWalker, ResolverControlsWhichTasksAreWalked) {
  WalkerFixture f(64);
  auto walker = f.make_walker();
  // Reverse mapping: daemon 0 walks the *last* 8 ranks.
  walker.set_task_resolver([](DaemonId, std::uint32_t local) {
    return TaskId(63 - local);
  });
  std::vector<std::uint32_t> walked;
  walker.sample_daemon(DaemonId(0), 1,
                       [&](const app::TraceBatch& batch) {
                         for (std::size_t i = 0; i < batch.size(); ++i) {
                           const auto& trace = batch.trace(i);
                           walked.push_back(trace.task.value());
                           EXPECT_EQ(trace.task.value(),
                                     63 - trace.local_index);
                           EXPECT_TRUE(std::ranges::equal(
                               batch.path(i),
                               f.app.stack(trace.task, 0, trace.sample)));
                         }
                       },
                       [](const SampleReport&) {});
  f.sim.run();
  EXPECT_EQ(walked.size(), 8u);
  EXPECT_EQ(walked.front(), 63u);
}

TEST(StackWalker, ThreadsMultiplyTraces) {
  WalkerFixture f(64);
  app::ThreadedRingOptions threaded;
  threaded.ring = WalkerFixture::ring(64);
  threaded.threads_per_task = 4;
  app::ThreadedRingApp app(threaded);
  StackWalker walker(f.sim, f.machine, f.costs.sampling, f.files, app,
                     f.layout, 1);
  std::uint32_t traces = 0;
  std::optional<SampleReport> report;
  walker.sample_daemon(
      DaemonId(2), 5,
      [&](const app::TraceBatch& batch) {
        traces += static_cast<std::uint32_t>(batch.size());
        // Walk order: sample-major, then local index, then thread.
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto& trace = batch.trace(i);
          const auto thread = static_cast<std::uint32_t>(i % 4);
          EXPECT_EQ(trace.sample, i / (8 * 4));
          EXPECT_EQ(trace.local_index, (i / 4) % 8);
          EXPECT_EQ(trace.task.value(), 16 + trace.local_index);
          EXPECT_TRUE(std::ranges::equal(
              batch.path(i), app.stack(trace.task, thread, trace.sample)));
        }
      },
      [&](const SampleReport& r) { report = r; });
  f.sim.run();
  EXPECT_EQ(traces, 8u * 5u * 4u);
  EXPECT_EQ(report->traces, traces);
}

TEST(StackWalker, OutOfRangeDaemonThrows) {
  WalkerFixture f(64);
  auto walker = f.make_walker();
  EXPECT_THROW(walker.sample_daemon(
                   DaemonId(99), 1, [](const app::TraceBatch&) {},
                   [](const SampleReport&) {}),
               std::logic_error);
}

}  // namespace
}  // namespace petastat::stackwalker
