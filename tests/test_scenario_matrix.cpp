// Scenario-matrix harness: runs StatScenario over the pruned cross-product of
//   {Atlas, BG/L} x {CO, VN} x {dense, hierarchical} x {flat, balanced(2),
//   balanced(16)} x {launchmon, mrnet-rsh, ciod-patched} x {ring-hang,
//   threaded-ring, statbench, io-stall, imbalance}
// and asserts, in every valid cell:
//   1. the pipeline completes with an OK status,
//   2. phase ordering (launch before connect before sampling before merge,
//      every measured phase positive, remap only for the hierarchical repr),
//   3. task-count conservation (classes cover the job exactly; partition it
//      for single-threaded apps),
//   4. dense/hierarchical equivalence-class agreement: the same cell with the
//      representation flipped yields the same classes.
// Cells that are invalid on the platform (VN mode off BG/L, rsh on BG/L,
// CIOD off BG/L, 16-deep trees) are pruned; the pruning itself is tested —
// pruned-but-runnable configurations must fail cleanly, never crash.
//
// PETASTAT_EXEC_THREADS=N runs every cell through the parallel execution
// engine (default 1 = serial). Results are bit-identical by the engine's
// determinism contract — test_parallel_determinism asserts that — so the
// matrix passes identically either way, just faster on more cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "stat/checkpoint.hpp"
#include "stat/scenario.hpp"

namespace petastat::stat {
namespace {

enum class MachineKind { kAtlas, kBgl };
enum class TopoKind { kFlat, kBalanced2, kBalanced16 };

struct MatrixCase {
  MachineKind machine;
  machine::BglMode mode;
  TaskSetRepr repr;
  TopoKind topo;
  LauncherKind launcher;
  AppKind app;
};

const char* machine_name(MachineKind m) {
  return m == MachineKind::kAtlas ? "atlas" : "bgl";
}

const char* topo_name(TopoKind t) {
  switch (t) {
    case TopoKind::kFlat: return "flat";
    case TopoKind::kBalanced2: return "bal2";
    case TopoKind::kBalanced16: return "bal16";
  }
  return "?";
}

const char* app_name(AppKind a) {
  switch (a) {
    case AppKind::kOomCascade: return "oomcascade";  // failure matrix only
    case AppKind::kRingHang: return "ring";
    case AppKind::kThreadedRing: return "threadedring";
    case AppKind::kStatBench: return "statbench";
    case AppKind::kIoStall: return "iostall";
    case AppKind::kImbalance: return "imbalance";
  }
  return "?";
}

std::uint32_t exec_threads_from_env() {
  const char* env = std::getenv("PETASTAT_EXEC_THREADS");
  if (env == nullptr) return 1;
  // Fail loudly on a bad value: a silent serial fallback would quietly strip
  // the TSan job of the concurrency coverage it exists for.
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || n < 1 || n > 256) {
    ADD_FAILURE() << "PETASTAT_EXEC_THREADS='" << env
                  << "' is not a thread count in [1,256]";
    return 1;
  }
  return static_cast<std::uint32_t>(n);
}

std::string cell_name(const MatrixCase& c) {
  std::string name = std::string(machine_name(c.machine)) + "_" +
                     machine::bgl_mode_name(c.mode) + "_" +
                     (c.repr == TaskSetRepr::kDenseGlobal ? "dense" : "hier");
  name += std::string("_") + topo_name(c.topo) + "_";
  switch (c.launcher) {
    case LauncherKind::kLaunchMon: name += "launchmon"; break;
    case LauncherKind::kMrnetRsh: name += "mrnetrsh"; break;
    case LauncherKind::kCiodPatched: name += "ciod"; break;
    default: name += "other"; break;
  }
  return name + "_" + app_name(c.app);
}

/// The full 2x2x2x3x3x3 cross-product, before pruning.
std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  for (MachineKind machine : {MachineKind::kAtlas, MachineKind::kBgl}) {
    for (machine::BglMode mode :
         {machine::BglMode::kCoprocessor, machine::BglMode::kVirtualNode}) {
      for (TaskSetRepr repr :
           {TaskSetRepr::kDenseGlobal, TaskSetRepr::kHierarchical}) {
        for (TopoKind topo :
             {TopoKind::kFlat, TopoKind::kBalanced2, TopoKind::kBalanced16}) {
          for (LauncherKind launcher :
               {LauncherKind::kLaunchMon, LauncherKind::kMrnetRsh,
                LauncherKind::kCiodPatched}) {
            for (AppKind app : {AppKind::kRingHang, AppKind::kThreadedRing,
                                AppKind::kStatBench, AppKind::kIoStall,
                                AppKind::kImbalance}) {
              cases.push_back({machine, mode, repr, topo, launcher, app});
            }
          }
        }
      }
    }
  }
  return cases;
}

/// Platform-validity pruning:
///  * VN mode exists only on BG/L (JobConfig::mode is ignored on clusters,
///    so Atlas x VN would duplicate Atlas x CO);
///  * rsh spawning needs rshd on the daemon hosts — Atlas only;
///  * CIOD is BG/L system software;
///  * the topology builder supports depth 1..4, so 16-deep trees are invalid
///    everywhere (their clean rejection is tested separately).
bool is_valid(const MatrixCase& c) {
  if (c.machine != MachineKind::kBgl &&
      c.mode == machine::BglMode::kVirtualNode) {
    return false;
  }
  if (c.topo == TopoKind::kBalanced16) return false;
  if (c.launcher == LauncherKind::kMrnetRsh && c.machine != MachineKind::kAtlas) {
    return false;
  }
  if (c.launcher == LauncherKind::kCiodPatched && c.machine != MachineKind::kBgl) {
    return false;
  }
  return true;
}

std::vector<MatrixCase> valid_cases() {
  std::vector<MatrixCase> cases = all_cases();
  std::erase_if(cases, [](const MatrixCase& c) { return !is_valid(c); });
  return cases;
}

machine::MachineConfig machine_for(const MatrixCase& c) {
  return c.machine == MachineKind::kAtlas ? machine::atlas() : machine::bgl();
}

machine::JobConfig job_for(const MatrixCase& c) {
  machine::JobConfig job;
  if (c.machine == MachineKind::kAtlas) {
    job.num_tasks = 256;  // 32 daemons
  } else {
    // Same 64 I/O-node daemons in both modes.
    job.num_tasks = c.mode == machine::BglMode::kVirtualNode ? 8192 : 4096;
  }
  job.mode = c.mode;
  if (c.app == AppKind::kThreadedRing) job.threads_per_task = 4;
  return job;
}

StatOptions options_for(const MatrixCase& c) {
  StatOptions options;
  switch (c.topo) {
    case TopoKind::kFlat: options.topology = tbon::TopologySpec::flat(); break;
    case TopoKind::kBalanced2:
      options.topology = tbon::TopologySpec::balanced(2);
      break;
    case TopoKind::kBalanced16:
      options.topology = tbon::TopologySpec::balanced(16);
      break;
  }
  options.repr = c.repr;
  options.launcher = c.launcher;
  options.app = c.app;
  options.statbench_classes = 16;
  options.exec_threads = exec_threads_from_env();
  return options;
}

/// Runs a cell's scenario once and memoizes the result: the agreement check
/// needs the repr-flipped cell, which is itself a primary cell elsewhere in
/// the matrix, so every configuration is simulated exactly once.
const StatRunResult& run_cached(const MatrixCase& c) {
  static std::map<std::string, StatRunResult>& cache =
      *new std::map<std::string, StatRunResult>();
  const std::string key = cell_name(c);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  StatScenario scenario(machine_for(c), job_for(c), options_for(c));
  return cache.emplace(key, scenario.run()).first->second;
}

/// Order-independent class signature: (task count, exact member set) pairs.
std::vector<std::string> class_signature(const StatRunResult& result) {
  std::vector<std::string> signature;
  signature.reserve(result.classes.size());
  for (const EquivalenceClass& cls : result.classes) {
    signature.push_back(std::to_string(cls.size()) + ":" +
                        cls.tasks.edge_label(/*max_items=*/64));
  }
  std::sort(signature.begin(), signature.end());
  return signature;
}

class ScenarioMatrix : public ::testing::TestWithParam<MatrixCase> {};

std::string param_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return cell_name(info.param);
}

TEST_P(ScenarioMatrix, CellInvariantsHold) {
  const MatrixCase& c = GetParam();
  const machine::JobConfig job = job_for(c);
  const StatRunResult& result = run_cached(c);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  // --- Phase ordering -------------------------------------------------------
  const PhaseBreakdown& phases = result.phases;
  EXPECT_TRUE(phases.launch.status.is_ok());
  EXPECT_GE(phases.launch.finished_at, phases.launch.started_at);
  EXPECT_GT(phases.connect_time, 0u);
  // Startup subsumes both the launch and the MRNet connect that follows it.
  EXPECT_GE(phases.startup_total,
            phases.launch.finished_at - phases.launch.started_at);
  EXPECT_GE(phases.startup_total, phases.connect_time);
  EXPECT_TRUE(phases.sample_status.is_ok());
  EXPECT_GT(phases.sample_time, 0u);
  EXPECT_TRUE(phases.merge_status.is_ok());
  EXPECT_GT(phases.merge_time, 0u);
  EXPECT_GT(phases.merge_bytes, 0u);
  if (c.repr == TaskSetRepr::kHierarchical) {
    EXPECT_GT(phases.remap_time, 0u);  // the front-end remap step
  } else {
    EXPECT_EQ(phases.remap_time, 0u);  // dense has no remap
  }

  // --- Topology shape -------------------------------------------------------
  if (c.topo == TopoKind::kFlat) {
    EXPECT_EQ(result.num_comm_procs, 0u);
  } else {
    EXPECT_GT(result.num_comm_procs, 0u);
  }

  // --- Task-count conservation ----------------------------------------------
  ASSERT_FALSE(result.classes.empty());
  TaskSet covered;
  std::uint64_t total = 0;
  for (const EquivalenceClass& cls : result.classes) {
    EXPECT_FALSE(cls.tasks.empty());
    EXPECT_LE(cls.tasks.max_task(), job.num_tasks - 1);
    total += cls.size();
    covered.union_with(cls.tasks);
  }
  // Every rank is accounted for, and no rank is invented.
  EXPECT_EQ(covered.count(), job.num_tasks);
  if (c.app != AppKind::kRingHang) {
    // Per-thread stacks (threaded ring) and per-sample stack variation
    // (statbench) legitimately end a rank in several classes, so the classes
    // cover (not partition) the rank space.
    EXPECT_GE(total, job.num_tasks);
  } else {
    // The ring hang pins every task's stack: exact partition.
    EXPECT_EQ(total, job.num_tasks);
    TaskSet disjoint;
    for (const EquivalenceClass& cls : result.classes) {
      EXPECT_FALSE(disjoint.intersects(cls.tasks));
      disjoint.union_with(cls.tasks);
    }
  }

  // --- Dense/hierarchical agreement -----------------------------------------
  MatrixCase flipped = c;
  flipped.repr = c.repr == TaskSetRepr::kDenseGlobal
                     ? TaskSetRepr::kHierarchical
                     : TaskSetRepr::kDenseGlobal;
  const StatRunResult& other = run_cached(flipped);
  ASSERT_TRUE(other.status.is_ok()) << other.status.to_string();
  EXPECT_EQ(result.classes.size(), other.classes.size());
  EXPECT_EQ(class_signature(result), class_signature(other));
  // The merged 3D trees agree structurally too (remap restores rank order).
  EXPECT_EQ(result.tree_3d, other.tree_3d);
}

INSTANTIATE_TEST_SUITE_P(Pruned, ScenarioMatrix,
                         ::testing::ValuesIn(valid_cases()), param_name);

// --- Sharded front end: bit-identity against the unsharded cell -------------
// A sampled sub-matrix (both machines and modes, both reprs, flat and deep
// topologies, two app models) re-runs each cell with the merge split across
// 4 reducers and asserts the merged trees and equivalence classes are
// bit-identical to the memoized unsharded run. The shard grouping must never
// show through the canonical merge.
std::vector<MatrixCase> sharded_sample_cases() {
  std::vector<MatrixCase> cases = valid_cases();
  std::erase_if(cases, [](const MatrixCase& c) {
    return c.app != AppKind::kRingHang && c.app != AppKind::kStatBench;
  });
  return cases;
}

class ScenarioMatrixSharded : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ScenarioMatrixSharded, MatchesUnshardedBitForBit) {
  const MatrixCase& c = GetParam();
  const StatRunResult& unsharded = run_cached(c);
  ASSERT_TRUE(unsharded.status.is_ok()) << unsharded.status.to_string();

  StatOptions options = options_for(c);
  options.fe_shards = 4;
  StatScenario scenario(machine_for(c), job_for(c), options);
  const StatRunResult sharded = scenario.run();
  ASSERT_TRUE(sharded.status.is_ok()) << sharded.status.to_string();
  EXPECT_EQ(sharded.topology.fe_shards, 4u);
  // Reducers are comm processes: even a flat cell now carries them.
  EXPECT_GE(sharded.num_comm_procs, 4u);

  EXPECT_EQ(unsharded.tree_2d, sharded.tree_2d);
  EXPECT_EQ(unsharded.tree_3d, sharded.tree_3d);
  ASSERT_EQ(unsharded.classes.size(), sharded.classes.size());
  for (std::size_t i = 0; i < unsharded.classes.size(); ++i) {
    EXPECT_EQ(unsharded.classes[i].path, sharded.classes[i].path);
    EXPECT_TRUE(unsharded.classes[i].tasks == sharded.classes[i].tasks);
  }
  EXPECT_EQ(class_signature(unsharded), class_signature(sharded));
}

INSTANTIATE_TEST_SUITE_P(Sampled, ScenarioMatrixSharded,
                         ::testing::ValuesIn(sharded_sample_cases()),
                         param_name);

// --- Reducer tree: K = 16 bit-identity against the unsharded cell -----------
// K > tbon::kShardCombineFanIn interposes combiner levels between the front
// end and the reducers; the extra merge hop must be just as invisible in the
// canonical trees as the shard grouping itself. Flat cells only: a K above
// the first derived comm level's width is INVALID_ARGUMENT by construction.
std::vector<MatrixCase> reducer_tree_sample_cases() {
  std::vector<MatrixCase> cases = valid_cases();
  std::erase_if(cases, [](const MatrixCase& c) {
    return c.app != AppKind::kRingHang || c.topo != TopoKind::kFlat;
  });
  return cases;
}

class ScenarioMatrixReducerTree : public ::testing::TestWithParam<MatrixCase> {
};

TEST_P(ScenarioMatrixReducerTree, K16MatchesUnshardedBitForBit) {
  const MatrixCase& c = GetParam();
  const StatRunResult& unsharded = run_cached(c);
  ASSERT_TRUE(unsharded.status.is_ok()) << unsharded.status.to_string();

  StatOptions options = options_for(c);
  options.fe_shards = 16;
  StatScenario scenario(machine_for(c), job_for(c), options);
  const StatRunResult sharded = scenario.run();
  ASSERT_TRUE(sharded.status.is_ok()) << sharded.status.to_string();
  EXPECT_EQ(sharded.topology.fe_shards, 16u);
  // 16 reducers + 2 combiners: the reducer tree is engaged.
  EXPECT_GE(sharded.num_comm_procs, 18u);

  EXPECT_EQ(unsharded.tree_2d, sharded.tree_2d);
  EXPECT_EQ(unsharded.tree_3d, sharded.tree_3d);
  ASSERT_EQ(unsharded.classes.size(), sharded.classes.size());
  for (std::size_t i = 0; i < unsharded.classes.size(); ++i) {
    EXPECT_EQ(unsharded.classes[i].path, sharded.classes[i].path);
    EXPECT_TRUE(unsharded.classes[i].tasks == sharded.classes[i].tasks);
  }
  EXPECT_EQ(class_signature(unsharded), class_signature(sharded));
}

INSTANTIATE_TEST_SUITE_P(Sampled, ScenarioMatrixReducerTree,
                         ::testing::ValuesIn(reducer_tree_sample_cases()),
                         param_name);

// --- Streaming sub-matrix: incremental deltas == full re-merge, bit for bit -
// A sampled sub-matrix (every machine/mode/repr/topology/launcher cell, with
// a static app and the drifting-imbalance app) runs 4 streaming rounds twice:
// once with the incremental delta/cache pipeline and once with
// --stream-full-remerge. The products — canonical trees, equivalence classes
// — must be bit-identical; the caches may only change what moves on the wire,
// never what the front end reports.
std::vector<MatrixCase> streaming_sample_cases() {
  std::vector<MatrixCase> cases = valid_cases();
  std::erase_if(cases, [](const MatrixCase& c) {
    return c.app != AppKind::kRingHang && c.app != AppKind::kImbalance;
  });
  return cases;
}

class ScenarioMatrixStreaming : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ScenarioMatrixStreaming, IncrementalMatchesFullRemergeBitForBit) {
  const MatrixCase& c = GetParam();
  StatOptions options = options_for(c);
  options.stream_samples = 4;
  options.evolution = app::TraceEvolution::kDrift;

  StatScenario incremental_scenario(machine_for(c), job_for(c), options);
  const StatRunResult incremental = incremental_scenario.run();
  ASSERT_TRUE(incremental.status.is_ok()) << incremental.status.to_string();
  ASSERT_EQ(incremental.stream_samples.size(), 4u);
  EXPECT_EQ(incremental.phases.stream_rounds, 4u);

  options.stream_full_remerge = true;
  StatScenario full_scenario(machine_for(c), job_for(c), options);
  const StatRunResult full = full_scenario.run();
  ASSERT_TRUE(full.status.is_ok()) << full.status.to_string();
  ASSERT_EQ(full.stream_samples.size(), 4u);

  EXPECT_EQ(incremental.tree_2d, full.tree_2d);
  EXPECT_EQ(incremental.tree_3d, full.tree_3d);
  ASSERT_EQ(incremental.classes.size(), full.classes.size());
  for (std::size_t i = 0; i < incremental.classes.size(); ++i) {
    EXPECT_EQ(incremental.classes[i].path, full.classes[i].path);
    EXPECT_TRUE(incremental.classes[i].tasks == full.classes[i].tasks);
  }
  EXPECT_EQ(class_signature(incremental), class_signature(full));

  // Past the priming round the caches must pay for themselves: unchanged
  // subtrees answer with bare-header acks, so the delta traffic is strictly
  // below a from-scratch merge and the round never costs more.
  for (std::uint32_t round = 0; round < 4; ++round) {
    const StreamSampleStats& inc = incremental.stream_samples[round];
    const StreamSampleStats& ref = full.stream_samples[round];
    EXPECT_EQ(inc.sample, ref.sample) << "round " << round;
    if (round == 0) continue;  // priming round: everything is new either way
    EXPECT_LT(inc.merge_bytes, ref.merge_bytes) << "round " << round;
    EXPECT_LE(inc.merge_time, ref.merge_time) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Sampled, ScenarioMatrixStreaming,
                         ::testing::ValuesIn(streaming_sample_cases()),
                         param_name);

// --- Failure sub-matrix: mid-merge death across machines and shard counts ---
// A separate suite (the 120-cell pruning lock above must not move): each cell
// runs
//   1. a clean baseline (no failures at all),
//   2. a survivor baseline (pre-sampling injection only, p = 0.05),
//   3. the kill run (same injection + a reducer/comm-proc death mid-merge,
//      detected by ping sweep and recovered by subtree re-merge),
// and asserts the kill run's product is bit-identical to the survivor
// baseline (reducer death recovers in full; a flat tree's leaf death loses
// exactly that daemon), which in turn equals the clean baseline restricted to
// surviving ranks (empty classes dropped). Recovery may change *when* the
// merge finishes, never *what* the survivors produce.
// The failure matrix spans the petascale preset too, which the main matrix's
// MachineKind deliberately omits (it would triple the 120-cell budget).
enum class FailureMachine { kAtlas, kBgl, kPetascale };

struct FailureCell {
  FailureMachine machine;
  std::uint32_t fe_shards;  // 1 = unsharded flat tree
};

std::string failure_cell_name(const ::testing::TestParamInfo<FailureCell>& info) {
  const char* machine = "?";
  switch (info.param.machine) {
    case FailureMachine::kAtlas: machine = "atlas"; break;
    case FailureMachine::kBgl: machine = "bgl"; break;
    case FailureMachine::kPetascale: machine = "petascale"; break;
  }
  return std::string(machine) + "_k" + std::to_string(info.param.fe_shards);
}

machine::MachineConfig failure_machine(const FailureCell& c) {
  switch (c.machine) {
    case FailureMachine::kAtlas: return machine::atlas();
    case FailureMachine::kBgl: return machine::bgl();
    case FailureMachine::kPetascale: return machine::petascale();
  }
  return machine::atlas();
}

machine::JobConfig failure_job(const FailureCell& c) {
  machine::JobConfig job;
  // Enough daemons that K = 64 still owns one daemon per shard: 64 daemons
  // on Atlas (8 tasks each) and BG/L CO (64 tasks each), 1,024 on petascale.
  switch (c.machine) {
    case FailureMachine::kAtlas: job.num_tasks = 512; break;
    case FailureMachine::kBgl: job.num_tasks = 4096; break;
    case FailureMachine::kPetascale: job.num_tasks = 65536; break;
  }
  return job;
}

class FailureMatrix : public ::testing::TestWithParam<FailureCell> {};

TEST_P(FailureMatrix, MidMergeKillPreservesSurvivorClasses) {
  const FailureCell& c = GetParam();
  const machine::MachineConfig m = failure_machine(c);
  const machine::JobConfig job = failure_job(c);

  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = c.fe_shards;
  options.repr = TaskSetRepr::kHierarchical;
  if (c.machine == FailureMachine::kBgl) {
    options.launcher = LauncherKind::kCiodPatched;
  }
  options.num_samples = c.machine == FailureMachine::kPetascale ? 3 : 5;
  options.exec_threads = exec_threads_from_env();

  StatScenario clean_scenario(m, job, options);
  const StatRunResult clean = clean_scenario.run();
  ASSERT_TRUE(clean.status.is_ok()) << clean.status.to_string();

  options.daemon_failure_probability = 0.05;
  StatScenario survivor_scenario(m, job, options);
  const StatRunResult survivors = survivor_scenario.run();
  ASSERT_TRUE(survivors.status.is_ok()) << survivors.status.to_string();

  options.fail_at_seconds = 0.0;
  options.ping_period_seconds = 0.05;
  StatScenario kill_scenario(m, job, options);
  const StatRunResult killed = kill_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();

  // The kill actually happened and was noticed by the ping sweep.
  EXPECT_EQ(killed.phases.killed_procs, 1u);
  EXPECT_GT(killed.phases.failure_detect_latency, 0u);
  EXPECT_EQ(killed.dead_daemons, survivors.dead_daemons);

  if (c.fe_shards > 1) {
    // A reducer died: its shard is re-merged through siblings in full, so
    // the kill run == survivor baseline, bit for bit.
    EXPECT_EQ(killed.phases.lost_daemons, 0u);
    ASSERT_EQ(killed.classes.size(), survivors.classes.size());
    for (std::size_t i = 0; i < killed.classes.size(); ++i) {
      EXPECT_EQ(killed.classes[i].path, survivors.classes[i].path);
      EXPECT_TRUE(killed.classes[i].tasks == survivors.classes[i].tasks);
    }
    EXPECT_EQ(class_signature(killed), class_signature(survivors));
    EXPECT_TRUE(killed.tree_3d == survivors.tree_3d);
  } else {
    // Flat tree: the victim is a daemon's own leaf proc, so that daemon's
    // samples are unrecoverable. The merge must still complete, losing at
    // most that one daemon — the product is the survivor baseline restricted
    // to the ranks that made it through.
    TaskSet killed_covered;
    for (const EquivalenceClass& cls : killed.classes) {
      killed_covered.union_with(cls.tasks);
    }
    TaskSet survivor_covered;
    for (const EquivalenceClass& cls : survivors.classes) {
      survivor_covered.union_with(cls.tasks);
    }
    // Nothing appears from thin air, and the casualty list is one daemon at
    // most (zero when the victim's daemon was already dead pre-sampling).
    EXPECT_TRUE(killed_covered.difference(survivor_covered).empty());
    const TaskSet leaf_lost = survivor_covered.difference(killed_covered);
    EXPECT_LE(leaf_lost.count(), killed.layout.tasks_per_daemon);
    std::vector<std::string> expected;
    for (const EquivalenceClass& cls : survivors.classes) {
      const TaskSet kept = cls.tasks.difference(leaf_lost);
      if (kept.empty()) continue;
      expected.push_back(std::to_string(kept.count()) + ":" +
                         kept.edge_label(/*max_items=*/64));
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(class_signature(killed), expected);
  }

  // Survivor baseline == clean baseline restricted to surviving ranks.
  TaskSet surviving;
  for (const EquivalenceClass& cls : survivors.classes) {
    surviving.union_with(cls.tasks);
  }
  const TaskSet dead_ranks =
      TaskSet::range(0, job.num_tasks - 1).difference(surviving);
  EXPECT_EQ(dead_ranks.empty(), survivors.dead_daemons.empty());
  std::vector<std::string> restricted;
  for (const EquivalenceClass& cls : clean.classes) {
    const TaskSet kept = cls.tasks.difference(dead_ranks);
    if (kept.empty()) continue;
    restricted.push_back(std::to_string(kept.count()) + ":" +
                         kept.edge_label(/*max_items=*/64));
  }
  std::sort(restricted.begin(), restricted.end());
  EXPECT_EQ(class_signature(survivors), restricted);
}

INSTANTIATE_TEST_SUITE_P(
    Sampled, FailureMatrix,
    ::testing::Values(FailureCell{FailureMachine::kAtlas, 1},
                      FailureCell{FailureMachine::kAtlas, 16},
                      FailureCell{FailureMachine::kAtlas, 64},
                      FailureCell{FailureMachine::kBgl, 1},
                      FailureCell{FailureMachine::kBgl, 16},
                      FailureCell{FailureMachine::kBgl, 64},
                      FailureCell{FailureMachine::kPetascale, 1},
                      FailureCell{FailureMachine::kPetascale, 16},
                      FailureCell{FailureMachine::kPetascale, 64}),
    failure_cell_name);

// --- Checkpoint/restart sub-matrix: kill at every round boundary ------------
// A separate suite (the 120-cell pruning lock below must not move): for each
// {machine} x {K} cell of the failure matrix's grid, a streaming session is
// checkpointed, killed (vacated — the simulated front-end loss), and restored
// at *every* interior round boundary, and the resumed run's products must be
// bit-identical to the never-killed run. A re-sharded resume (the restore
// folds a different explicit K over the checkpointed spec) is held to the
// same bit-identity bar: traces come from the app model alone, and the
// canonical merge is associative, so K only moves timings.
std::uint32_t checkpoint_rounds(const FailureCell& c) {
  return c.machine == FailureMachine::kPetascale ? 3 : 4;
}

StatOptions checkpoint_options(const FailureCell& c) {
  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = c.fe_shards;
  options.repr = TaskSetRepr::kHierarchical;
  if (c.machine == FailureMachine::kBgl) {
    options.launcher = LauncherKind::kCiodPatched;
  }
  options.stream_samples = checkpoint_rounds(c);
  options.evolution = app::TraceEvolution::kDrift;
  options.exec_threads = exec_threads_from_env();
  return options;
}

/// Uninterrupted streaming baseline, memoized per cell: every boundary's
/// restore run compares against the same never-killed product.
const StatRunResult& checkpoint_baseline(const FailureCell& c) {
  static std::map<std::string, StatRunResult>& cache =
      *new std::map<std::string, StatRunResult>();
  const std::string key =
      std::to_string(static_cast<int>(c.machine)) + "_k" +
      std::to_string(c.fe_shards);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  StatScenario scenario(failure_machine(c), failure_job(c),
                        checkpoint_options(c));
  return cache.emplace(key, scenario.run()).first->second;
}

void expect_same_product(const StatRunResult& resumed,
                         const StatRunResult& baseline) {
  EXPECT_TRUE(resumed.tree_2d == baseline.tree_2d);
  EXPECT_TRUE(resumed.tree_3d == baseline.tree_3d);
  ASSERT_EQ(resumed.classes.size(), baseline.classes.size());
  for (std::size_t i = 0; i < resumed.classes.size(); ++i) {
    EXPECT_EQ(resumed.classes[i].path, baseline.classes[i].path);
    EXPECT_TRUE(resumed.classes[i].tasks == baseline.classes[i].tasks);
  }
  EXPECT_EQ(class_signature(resumed), class_signature(baseline));
}

class CheckpointRestartMatrix : public ::testing::TestWithParam<FailureCell> {};

TEST_P(CheckpointRestartMatrix, KillAtEveryBoundaryRestoresBitIdentical) {
  const FailureCell& c = GetParam();
  const machine::MachineConfig m = failure_machine(c);
  const machine::JobConfig job = failure_job(c);
  const StatRunResult& baseline = checkpoint_baseline(c);
  ASSERT_TRUE(baseline.status.is_ok()) << baseline.status.to_string();

  const std::uint32_t rounds = checkpoint_rounds(c);
  for (std::uint32_t boundary = 1; boundary < rounds; ++boundary) {
    StatOptions options = checkpoint_options(c);
    options.vacate_at_round = static_cast<std::int32_t>(boundary);
    StatScenario killed_scenario(m, job, options);
    const StatRunResult killed = killed_scenario.run();
    ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
    ASSERT_TRUE(killed.vacated);
    ASSERT_NE(killed.checkpoint, nullptr);
    EXPECT_EQ(killed.checkpoint->cursor, boundary);
    EXPECT_EQ(killed.checkpoint->total_rounds, rounds);
    EXPECT_TRUE(killed.classes.empty());  // vacated, not finalized

    StatOptions resume = checkpoint_options(c);
    StatScenario resumed_scenario(m, job, resume, nullptr, killed.checkpoint);
    const StatRunResult resumed = resumed_scenario.run();
    ASSERT_TRUE(resumed.status.is_ok()) << resumed.status.to_string();
    EXPECT_TRUE(resumed.restored);
    EXPECT_EQ(resumed.restore_cursor, boundary);
    EXPECT_EQ(resumed.phases.stream_rounds, rounds - boundary);
    expect_same_product(resumed, baseline);
  }
}

TEST_P(CheckpointRestartMatrix, ReshardedResumeStaysBitIdentical) {
  const FailureCell& c = GetParam();
  const machine::MachineConfig m = failure_machine(c);
  const machine::JobConfig job = failure_job(c);
  const StatRunResult& baseline = checkpoint_baseline(c);
  ASSERT_TRUE(baseline.status.is_ok()) << baseline.status.to_string();

  StatOptions options = checkpoint_options(c);
  options.vacate_at_round = 1;
  StatScenario killed_scenario(m, job, options);
  const StatRunResult killed = killed_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
  ASSERT_NE(killed.checkpoint, nullptr);

  // Resume under a *different* explicit K (the restore resolution folds it
  // over the checkpointed spec): the product must not move.
  StatOptions resume = checkpoint_options(c);
  resume.fe_shards = c.fe_shards == 1 ? 16 : 4;
  StatScenario resumed_scenario(m, job, resume, nullptr, killed.checkpoint);
  const StatRunResult resumed = resumed_scenario.run();
  ASSERT_TRUE(resumed.status.is_ok()) << resumed.status.to_string();
  EXPECT_TRUE(resumed.restored);
  EXPECT_EQ(resumed.topology.fe_shards, resume.fe_shards);
  expect_same_product(resumed, baseline);
}

INSTANTIATE_TEST_SUITE_P(
    Sampled, CheckpointRestartMatrix,
    ::testing::Values(FailureCell{FailureMachine::kAtlas, 1},
                      FailureCell{FailureMachine::kAtlas, 16},
                      FailureCell{FailureMachine::kAtlas, 64},
                      FailureCell{FailureMachine::kBgl, 1},
                      FailureCell{FailureMachine::kBgl, 16},
                      FailureCell{FailureMachine::kBgl, 64},
                      FailureCell{FailureMachine::kPetascale, 1},
                      FailureCell{FailureMachine::kPetascale, 16},
                      FailureCell{FailureMachine::kPetascale, 64}),
    failure_cell_name);

// --- Kill-at-a-round-boundary ordering regression ---------------------------
// `--fail-at` landing exactly on a round boundary (t = 0 included) used to
// race the boundary sweep: whether the kill event drained before or after the
// next SampleRequest broadcast depended on event insertion order. The kill
// must drain *first* — deterministically — so two identical runs agree and
// the victim never acks the round it died before.
TEST(StreamFailAtBoundary, KillOnTheBoundaryIsDeterministic) {
  StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = 16;
  options.repr = TaskSetRepr::kHierarchical;
  options.stream_samples = 3;
  options.fail_at_seconds = 0.0;  // exactly on the first round boundary
  options.ping_period_seconds = 0.05;
  options.exec_threads = exec_threads_from_env();
  machine::JobConfig job;
  job.num_tasks = 512;

  StatScenario first_scenario(machine::atlas(), job, options);
  const StatRunResult first = first_scenario.run();
  ASSERT_TRUE(first.status.is_ok()) << first.status.to_string();
  EXPECT_EQ(first.phases.killed_procs, 1u);

  StatScenario second_scenario(machine::atlas(), job, options);
  const StatRunResult second = second_scenario.run();
  ASSERT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(second.phases.killed_procs, 1u);
  EXPECT_TRUE(first.tree_3d == second.tree_3d);
  EXPECT_EQ(class_signature(first), class_signature(second));
  EXPECT_EQ(first.phases.failure_detect_latency,
            second.phases.failure_detect_latency);
  EXPECT_EQ(first.total_virtual_time, second.total_virtual_time);
}

TEST(ScenarioMatrixPruning, CrossProductKeepsAtLeast24ValidCells) {
  EXPECT_EQ(all_cases().size(), 360u);
  EXPECT_GE(valid_cases().size(), 24u);
  // Lock the exact matrix: 3 machine-modes x 2 topologies x 2 reprs x
  // 2 launchers x 5 apps. A pruning regression that silently drops cells
  // must fail here, not shrink coverage unnoticed.
  EXPECT_EQ(valid_cases().size(), 120u);
}

// Pruned-but-runnable configurations must fail with a clean Status — the
// tool reports "cannot build that tree / cannot launch that way", it does
// not crash.
TEST(ScenarioMatrixPruning, SixteenDeepTopologyFailsCleanly) {
  MatrixCase c{MachineKind::kAtlas, machine::BglMode::kCoprocessor,
               TaskSetRepr::kHierarchical, TopoKind::kBalanced16,
               LauncherKind::kLaunchMon, AppKind::kRingHang};
  StatScenario scenario(machine_for(c), job_for(c), options_for(c));
  const StatRunResult result = scenario.run();
  EXPECT_FALSE(result.status.is_ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioMatrixPruning, RshOnBglFailsCleanly) {
  MatrixCase c{MachineKind::kBgl, machine::BglMode::kCoprocessor,
               TaskSetRepr::kHierarchical, TopoKind::kFlat,
               LauncherKind::kMrnetRsh, AppKind::kRingHang};
  StatScenario scenario(machine_for(c), job_for(c), options_for(c));
  const StatRunResult result = scenario.run();
  EXPECT_FALSE(result.status.is_ok());
}

}  // namespace
}  // namespace petastat::stat
