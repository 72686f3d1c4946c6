// The execution engine's determinism contract: a scenario run with worker
// threads must produce a StatRunResult *bit-identical* to the serial run —
// same merged trees, same classes, same virtual timings, same byte counts.
// Virtual timestamps are fixed arithmetically on the simulator thread; the
// workers only overlap the real computations (trace synthesis, TBON merges,
// remap) between those timestamps, so nothing observable may drift.
//
// Cells are sampled across both machines, both representations, deep and
// flat topologies, all four app models, SBRS, and failure injection; each
// cell runs serial and with --exec-threads {2, 8}.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stat/checkpoint.hpp"
#include "stat/scenario.hpp"
#include "stat/statbench.hpp"

namespace petastat::stat {
namespace {

struct Cell {
  const char* name;
  machine::MachineConfig machine;
  machine::JobConfig job;
  StatOptions options;
};

std::vector<Cell> cells() {
  std::vector<Cell> out;
  {
    Cell c{"atlas_ring_hier_flat", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::flat();
    c.options.repr = TaskSetRepr::kHierarchical;
    out.push_back(c);
  }
  {
    Cell c{"atlas_statbench_dense_2deep", machine::atlas(), {}, {}};
    c.job.num_tasks = 512;
    c.options.topology = tbon::TopologySpec::balanced(2);
    c.options.repr = TaskSetRepr::kDenseGlobal;
    c.options.app = AppKind::kStatBench;
    c.options.statbench_classes = 16;
    out.push_back(c);
  }
  {
    Cell c{"bgl_threaded_hier_bgl2", machine::bgl(), {}, {}};
    c.job.num_tasks = 4096;
    c.job.mode = machine::BglMode::kCoprocessor;
    c.job.threads_per_task = 4;
    c.options.topology = tbon::TopologySpec::bgl(2);
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.launcher = LauncherKind::kCiodPatched;
    c.options.app = AppKind::kThreadedRing;
    out.push_back(c);
  }
  {
    Cell c{"bgl_iostall_dense_vn", machine::bgl(), {}, {}};
    c.job.num_tasks = 8192;
    c.job.mode = machine::BglMode::kVirtualNode;
    c.options.topology = tbon::TopologySpec::bgl(2);
    c.options.repr = TaskSetRepr::kDenseGlobal;
    c.options.launcher = LauncherKind::kCiodPatched;
    c.options.app = AppKind::kIoStall;
    out.push_back(c);
  }
  {
    // SBRS + failure injection: the operationally gnarly path.
    Cell c{"atlas_ring_hier_sbrs_failures", machine::atlas(), {}, {}};
    c.job.num_tasks = 512;
    c.options.topology = tbon::TopologySpec::balanced(2);
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.use_sbrs = true;
    c.options.daemon_failure_probability = 0.05;
    out.push_back(c);
  }
  {
    // Sharded front end, flat tree: reducers merge shards on their own
    // strands, the FE combines, reducers remap slices.
    Cell c{"atlas_ring_hier_flat_4shards", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::flat();
    c.options.fe_shards = 4;
    c.options.repr = TaskSetRepr::kHierarchical;
    out.push_back(c);
  }
  {
    // Reducer tree (K = 16 > the combine fan-in): reducers feed combiner
    // strands which feed the FE combine — three levels of real merges
    // overlapping across workers, timings still exact.
    Cell c{"atlas_ring_hier_flat_16shards", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::flat();
    c.options.fe_shards = 16;
    c.options.repr = TaskSetRepr::kHierarchical;
    out.push_back(c);
  }
  {
    // Sharded deep tree with dense labels at BG/L scale.
    Cell c{"bgl_ring_dense_bgl2_2shards", machine::bgl(), {}, {}};
    c.job.num_tasks = 4096;
    c.options.topology = tbon::TopologySpec::bgl(2);
    c.options.fe_shards = 2;
    c.options.repr = TaskSetRepr::kDenseGlobal;
    c.options.launcher = LauncherKind::kCiodPatched;
    out.push_back(c);
  }
  {
    // Mid-merge reducer kill: the health monitor detects the corpse, the
    // trigger fires Reduction::recover, and the orphaned shard re-merges
    // through siblings — recovery timestamps are fixed on the sim thread,
    // so every recovery field must match the serial run exactly.
    Cell c{"atlas_ring_hier_16shards_midmerge_kill", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::flat();
    c.options.fe_shards = 16;
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.fail_at_seconds = 0.02;
    c.options.ping_period_seconds = 0.1;
    out.push_back(c);
  }
  {
    // Streaming deltas under drift: per-round incremental merges, signature
    // checks, and cache folds all run through the worker pool; every
    // per-round stat must still match the serial run exactly.
    Cell c{"bgl_imbalance_hier_bgl2_stream", machine::bgl(), {}, {}};
    c.job.num_tasks = 4096;
    c.options.topology = tbon::TopologySpec::bgl(2);
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.launcher = LauncherKind::kCiodPatched;
    c.options.app = AppKind::kImbalance;
    c.options.evolution = app::TraceEvolution::kDrift;
    c.options.stream_samples = 5;
    out.push_back(c);
  }
  {
    // Mid-stream kill: the victim dies as round 2's merge starts, the monitor
    // sweeps during the round, and the orphans' payloads are re-sent to
    // adopters in that round — the in-round recovery and the re-parented
    // caches of later rounds must match the serial run exactly.
    Cell c{"atlas_imbalance_hier_2deep_stream_kill", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::balanced(2);
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.app = AppKind::kImbalance;
    c.options.evolution = app::TraceEvolution::kDrift;
    c.options.stream_samples = 5;
    c.options.stream_interval_seconds = 0.1;
    c.options.fail_at_seconds = 0.15;
    c.options.ping_period_seconds = 0.05;
    out.push_back(c);
  }
  {
    // OOM cascade: the victim rank's daemon dies pre-sampling, survivors
    // produce the allocation-spiral / retransmit / barrier classes.
    Cell c{"atlas_oomcascade_hier_2deep", machine::atlas(), {}, {}};
    c.job.num_tasks = 256;
    c.options.topology = tbon::TopologySpec::balanced(2);
    c.options.repr = TaskSetRepr::kHierarchical;
    c.options.app = AppKind::kOomCascade;
    out.push_back(c);
  }
  return out;
}

StatRunResult run_cell(const Cell& cell, std::uint32_t threads) {
  StatOptions options = cell.options;
  options.exec_threads = threads;
  StatScenario scenario(cell.machine, cell.job, options);
  return scenario.run();
}

/// Every observable field must match exactly — "close" is a bug.
void expect_identical(const StatRunResult& serial, const StatRunResult& parallel,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  ASSERT_TRUE(parallel.status.is_ok()) << parallel.status.to_string();

  // Merged trees and classes: the actual tool product.
  EXPECT_TRUE(serial.tree_2d == parallel.tree_2d);
  EXPECT_TRUE(serial.tree_3d == parallel.tree_3d);
  ASSERT_EQ(serial.classes.size(), parallel.classes.size());
  for (std::size_t i = 0; i < serial.classes.size(); ++i) {
    EXPECT_EQ(serial.classes[i].path, parallel.classes[i].path);
    EXPECT_TRUE(serial.classes[i].tasks == parallel.classes[i].tasks);
  }

  // Virtual timings and modelled volumes, to the nanosecond and byte.
  const PhaseBreakdown& a = serial.phases;
  const PhaseBreakdown& b = parallel.phases;
  EXPECT_EQ(a.startup_total, b.startup_total);
  EXPECT_EQ(a.connect_time, b.connect_time);
  EXPECT_EQ(a.sbrs_grace, b.sbrs_grace);
  EXPECT_EQ(a.sbrs_relocation, b.sbrs_relocation);
  EXPECT_EQ(a.sample_time, b.sample_time);
  EXPECT_EQ(a.sample_symbol_io_max, b.sample_symbol_io_max);
  EXPECT_EQ(a.failed_daemons, b.failed_daemons);
  EXPECT_EQ(a.merge_time, b.merge_time);
  EXPECT_EQ(a.remap_time, b.remap_time);
  EXPECT_EQ(a.merge_bytes, b.merge_bytes);
  EXPECT_EQ(a.merge_messages, b.merge_messages);
  EXPECT_EQ(a.leaf_payload_bytes, b.leaf_payload_bytes);
  // Failure recovery: who died, when it was noticed, what was re-merged.
  EXPECT_EQ(serial.dead_daemons, parallel.dead_daemons);
  EXPECT_EQ(a.killed_procs, b.killed_procs);
  EXPECT_EQ(a.orphaned_daemons, b.orphaned_daemons);
  EXPECT_EQ(a.lost_daemons, b.lost_daemons);
  EXPECT_EQ(a.health_sweeps, b.health_sweeps);
  EXPECT_EQ(a.failure_detect_latency, b.failure_detect_latency);
  EXPECT_EQ(a.recovery_remerge_time, b.recovery_remerge_time);
  // Streaming rounds: every per-round stat, in order (empty in classic mode).
  EXPECT_EQ(a.stream_rounds, b.stream_rounds);
  EXPECT_EQ(a.stream_changed_rounds, b.stream_changed_rounds);
  ASSERT_EQ(serial.stream_samples.size(), parallel.stream_samples.size());
  for (std::size_t i = 0; i < serial.stream_samples.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const StreamSampleStats& s = serial.stream_samples[i];
    const StreamSampleStats& p = parallel.stream_samples[i];
    EXPECT_EQ(s.sample, p.sample);
    EXPECT_EQ(s.sample_time, p.sample_time);
    EXPECT_EQ(s.merge_time, p.merge_time);
    EXPECT_EQ(s.merge_bytes, p.merge_bytes);
    EXPECT_EQ(s.merge_messages, p.merge_messages);
    EXPECT_EQ(s.changed_daemons, p.changed_daemons);
    EXPECT_EQ(s.remerged_procs, p.remerged_procs);
    EXPECT_EQ(s.cached_procs, p.cached_procs);
    EXPECT_EQ(s.changed, p.changed);
  }
  // Per-daemon sampling statistics accumulate in event order, which the
  // engine keeps deterministic — bitwise-equal floating point, not "close".
  EXPECT_EQ(a.daemon_sample_seconds.count(), b.daemon_sample_seconds.count());
  EXPECT_EQ(a.daemon_sample_seconds.mean(), b.daemon_sample_seconds.mean());
  EXPECT_EQ(a.daemon_sample_seconds.max(), b.daemon_sample_seconds.max());
}

class ParallelDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelDeterminism, MatchesSerialBitForBit) {
  const std::uint32_t threads = GetParam();
  for (const Cell& cell : cells()) {
    const StatRunResult serial = run_cell(cell, 1);
    const StatRunResult parallel = run_cell(cell, threads);
    expect_identical(serial, parallel,
                     std::string(cell.name) + " x" + std::to_string(threads));
  }
}

// A restored session introduces no thread-sensitive state: the resumed
// streaming rounds (cold caches, re-armed mid-series cursor, seeded trees)
// at any thread count must match the serial restore bit for bit.
TEST_P(ParallelDeterminism, RestoredRunMatchesSerialBitForBit) {
  const std::uint32_t threads = GetParam();
  Cell cell{"atlas_stream_restore", machine::atlas(), {}, {}};
  cell.job.num_tasks = 512;
  cell.options.topology = tbon::TopologySpec::flat();
  cell.options.fe_shards = 16;
  cell.options.repr = TaskSetRepr::kHierarchical;
  cell.options.evolution = app::TraceEvolution::kDrift;
  cell.options.stream_samples = 5;

  // Vacate at round 2 (serial) to capture the checkpoint both restores share.
  StatOptions vacate = cell.options;
  vacate.exec_threads = 1;
  vacate.vacate_at_round = 2;
  StatScenario vacate_scenario(cell.machine, cell.job, vacate);
  const StatRunResult killed = vacate_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
  ASSERT_NE(killed.checkpoint, nullptr);

  const auto run_restore = [&](std::uint32_t n) {
    StatOptions options = cell.options;
    options.exec_threads = n;
    StatScenario scenario(cell.machine, cell.job, options, nullptr,
                          killed.checkpoint);
    return scenario.run();
  };
  const StatRunResult serial = run_restore(1);
  const StatRunResult parallel = run_restore(threads);
  EXPECT_TRUE(serial.restored);
  EXPECT_TRUE(parallel.restored);
  expect_identical(serial, parallel,
                   "restore x" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelDeterminism,
                         ::testing::Values(2u, 8u));

TEST(ParallelDeterminism, StatBenchEmulationMatchesSerial) {
  StatBenchConfig config;
  config.machine = machine::bgl();
  config.virtual_tasks = 1u << 15;
  config.topology = tbon::TopologySpec::bgl(2);
  config.repr = TaskSetRepr::kHierarchical;

  config.exec_threads = 1;
  const StatBenchResult serial = run_statbench(config);
  config.exec_threads = 8;
  const StatBenchResult parallel = run_statbench(config);

  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  ASSERT_TRUE(parallel.status.is_ok()) << parallel.status.to_string();
  EXPECT_EQ(serial.generate_time, parallel.generate_time);
  EXPECT_EQ(serial.merge_time, parallel.merge_time);
  EXPECT_EQ(serial.remap_time, parallel.remap_time);
  EXPECT_EQ(serial.merge_bytes, parallel.merge_bytes);
  EXPECT_EQ(serial.leaf_payload_bytes, parallel.leaf_payload_bytes);
  EXPECT_TRUE(serial.tree_3d == parallel.tree_3d);
  ASSERT_EQ(serial.classes.size(), parallel.classes.size());
}

// Repeated parallel runs of one cell must agree with each other too (no
// run-to-run scheduling sensitivity).
TEST(ParallelDeterminism, RepeatedParallelRunsAgree) {
  const Cell cell = cells().front();
  const StatRunResult first = run_cell(cell, 8);
  const StatRunResult second = run_cell(cell, 8);
  expect_identical(first, second, "repeat x8");
}

}  // namespace
}  // namespace petastat::stat
