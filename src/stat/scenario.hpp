// End-to-end STAT scenario: the one-stop API that examples and benches use.
//
// A scenario assembles a simulated platform (machine + network + file
// systems), a target application model, and a STAT configuration (topology,
// task-set representation, launcher, SBRS), then runs the tool's three
// measured phases (Sec. III):
//   1. startup  — daemon/app launch + MRNet instantiation (Figs. 2, 3)
//   2. sampling — per-daemon trace gathering and local aggregation
//                 (Figs. 8, 9, 10)
//   3. merge    — TBON reduction of the 2D and 3D prefix trees to the front
//                 end, plus the remap step for the optimized representation
//                 (Figs. 4, 5, 7)
// and returns per-phase timings plus the real merged trees and equivalence
// classes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/appmodel.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "fs/filesystem.hpp"
#include "launchmon/launchmon.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "net/network.hpp"
#include "rm/launcher.hpp"
#include "sbrs/sbrs.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"
#include "stackwalker/stackwalker.hpp"
#include "stat/equivalence.hpp"
#include "stat/filter.hpp"
#include "stat/prefix_tree.hpp"
#include "tbon/topology.hpp"

namespace petastat::stat {

using rm::LauncherKind;

enum class TaskSetRepr {
  kDenseGlobal,    // original: full-job bit vectors on every edge
  kHierarchical,   // optimized: subtree-local task lists + front-end remap
};

[[nodiscard]] const char* task_set_repr_name(TaskSetRepr repr);

enum class SharedFsKind { kNfs, kLustre };
enum class AppKind {
  kRingHang,
  kThreadedRing,
  kStatBench,
  kIoStall,
  kImbalance,
  kOomCascade,
};

/// How far the pipeline runs (startup benches skip sampling/merge).
enum class RunThrough { kStartup, kSampling, kFull };

struct SessionCheckpoint;  // stat/checkpoint.hpp

struct StatOptions {
  tbon::TopologySpec topology = tbon::TopologySpec::flat();
  /// Ignore `topology` and let the plan::TopologySearch pick the predicted
  /// fastest machine-feasible spec (the CLI's `--topology auto`).
  bool topology_auto = false;
  /// Shard the front-end merge across this many reducer processes (applied
  /// to whatever topology the run uses, including an auto-chosen one).
  /// 1 = unsharded; 0 is INVALID_ARGUMENT.
  std::uint32_t fe_shards = 1;
  /// Ignore `fe_shards` and let plan::resolve pick the
  /// predicted-fastest viable (K, placement) with K in {1, 2, 4, 8, 16, 32,
  /// 64} (the CLI's `--fe-shards auto`; K > 8 engages the reducer tree).
  /// With `--topology auto` the shard dimension joins the spec search
  /// instead.
  bool fe_shards_auto = false;
  /// Host-assignment policy for the shard machinery (the CLI's
  /// `--reducer-placement comm|pack|spread`), applied to whatever topology
  /// the run uses. The auto modes rank pack against spread themselves and
  /// override this.
  tbon::ReducerPlacement reducer_placement = tbon::ReducerPlacement::kCommLike;
  /// Override of MachineConfig::max_tool_connections for this run (the
  /// Sec. V-A what-if knob). Unset = machine default. An explicit 0 is
  /// INVALID_ARGUMENT at construction — a front end with no connections is
  /// a configuration error, not a request for the default.
  std::optional<std::uint32_t> max_frontend_connections;
  TaskSetRepr repr = TaskSetRepr::kHierarchical;
  LauncherKind launcher = LauncherKind::kLaunchMon;
  std::uint32_t num_samples = 10;
  bool use_sbrs = false;
  SharedFsKind shared_fs = SharedFsKind::kNfs;
  /// Post-OS-update binary layout (Fig. 10): only the executable and the MPI
  /// library remain on the shared FS.
  bool slim_binaries = false;
  /// Daemon-to-rank-block assignment is out of order (forces a real remap).
  bool shuffle_task_map = true;
  AppKind app = AppKind::kRingHang;
  std::uint32_t statbench_classes = 32;
  RunThrough run_through = RunThrough::kFull;
  /// Streaming time-series sampling (the CLI's `--stream N[:interval]`):
  /// run this many per-sample rounds — each round multicasts one cursor of
  /// the SampleRequest window, gathers one snapshot per daemon, and merges
  /// it incrementally (unchanged subtrees acknowledge instead of resending).
  /// 0 = the classic batched pipeline. Only meaningful with
  /// RunThrough::kFull; `num_samples` is ignored in streaming mode.
  std::uint32_t stream_samples = 0;
  /// Virtual seconds between consecutive stream rounds (0 = back to back).
  double stream_interval_seconds = 0.0;
  /// Disable the delta caches: every streaming round is a from-scratch
  /// merge through the same code path. The bit-identity baseline and the
  /// incremental-vs-full bench comparator.
  bool stream_full_remerge = false;
  /// Capture a SessionCheckpoint every N round boundaries of a streaming
  /// run (the CLI's `--checkpoint-period N`). 0 = never. The latest capture
  /// is returned in StatRunResult::checkpoint; its virtual write time
  /// (local-disk bandwidth) is charged to the session. Requires --stream.
  std::uint32_t checkpoint_period = 0;
  /// Simulated front-end loss at this round boundary (the scheduler's
  /// vacate operation, modelled on SLURM's checkpoint/vacate pair): the run
  /// completes rounds [0, R), captures a checkpoint with cursor R, and
  /// returns early with StatRunResult::vacated set — no finalization, empty
  /// trees, status OK. Valid range [1, stream_samples); on a restored run,
  /// (restore cursor, stream_samples). Negative = disabled.
  std::int32_t vacate_at_round = -1;
  /// How traces evolve across samples (the CLI's `--evolve`): kJitter
  /// reshuffles the noise streams every sample (historical behaviour),
  /// kDrift pins the noise and moves only scripted events — hang onsets,
  /// straggler drift — so unchanged subtrees really are unchanged.
  app::TraceEvolution evolution = app::TraceEvolution::kJitter;
  /// Drift cadence under kDrift: the task space is cut into this many
  /// phase-staggered bands and one band's stragglers drift per sample, so
  /// the changed fraction per round is ~1/drift_period. Larger = sparser
  /// drift (the petascale streaming headline uses a band narrower than the
  /// tree fanout). Ignored under kJitter.
  std::uint32_t drift_period = 8;
  /// Failure injection: each daemon independently dies before sampling with
  /// this probability (node failures are routine at 1,664 daemons). Dead
  /// daemons contribute nothing; STAT proceeds and reports coverage, the
  /// operational behaviour the LLNL deployment needed.
  double daemon_failure_probability = 0.0;
  /// Mid-merge failure injection: this many (virtual) seconds after the
  /// merge phase starts, kill tbon::default_victim(topology) — a reducer
  /// when sharded, else an internal comm process. The health monitor's ping
  /// sweep detects the death and Reduction::recover folds the orphaned
  /// subtree into the victim's siblings within the same round. A streaming
  /// run kills in the first round that begins at or past this time.
  /// Negative = disabled.
  double fail_at_seconds = -1.0;
  /// Ping-sweep period of the TBON health monitor (only running during the
  /// merge rounds in which an armed kill is due or awaits detection). Must
  /// be > 0.
  double ping_period_seconds = 0.25;
  std::uint64_t seed = 2008;
  /// Worker threads for the execution engine (sampling synthesis, TBON
  /// merges, front-end remap). 0 or 1 = serial. Results are bit-identical
  /// across thread counts: virtual timestamps come from the cost model, and
  /// the engine only overlaps the real computations between them.
  std::uint32_t exec_threads = 1;
};

/// Builds the generative application model a scenario samples traces from.
/// Shared with the planner's workload probe so predictions price exactly the
/// traces the simulator would gather.
[[nodiscard]] std::unique_ptr<app::AppModel> make_app_model(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const StatOptions& options);

/// NFS parameters a scenario mounts for `machine`'s shared file system.
/// Shared with the planner, which approximates symbol I/O against the same
/// server's aggregate bandwidth (one formulation, two consumers).
[[nodiscard]] fs::NfsParams shared_nfs_params(
    const machine::MachineConfig& machine);

struct PhaseBreakdown {
  rm::LaunchReport launch;
  SimTime connect_time = 0;
  SimTime startup_total = 0;

  SimTime sbrs_grace = 0;
  SimTime sbrs_relocation = 0;

  Status sample_status = Status::ok();
  SimTime sample_time = 0;
  RunningStats daemon_sample_seconds;  // across daemons
  SimTime sample_symbol_io_max = 0;

  std::uint32_t failed_daemons = 0;  // failure injection casualties

  Status merge_status = Status::ok();
  SimTime merge_time = 0;   // reduction through the TBON (2D + 3D trees)
  SimTime remap_time = 0;   // front-end remap (optimized repr only)
  std::uint64_t merge_bytes = 0;
  std::uint64_t merge_messages = 0;
  std::uint64_t leaf_payload_bytes = 0;  // one daemon's serialized trees
  /// Per-link traffic of the merge phase — the delta of the network's
  /// link_stats() across the reduction — busiest (longest busy time) first.
  /// Empty when the merge never ran. The front entry is the max-contention
  /// link the report surfaces; plan::PhasePredictor::predict_merge_link_bytes
  /// prices the same per-device byte totals analytically.
  std::vector<net::LinkStat> merge_links;
  /// Same delta across the whole streaming phase (--stream), busiest first.
  std::vector<net::LinkStat> stream_links;

  // Mid-merge failure recovery (fail_at_seconds armed). merge_bytes (and a
  // stream round's merge_bytes) then also counts the monitor's ping traffic.
  std::uint32_t killed_procs = 0;      // mid-merge kills injected
  std::uint32_t orphaned_daemons = 0;  // daemons re-merged via adopters
  std::uint32_t lost_daemons = 0;      // daemons unrecoverable (dead/no copy)
  std::uint32_t health_sweeps = 0;     // completed monitor ping sweeps
  SimTime failure_detect_latency = 0;  // death -> sweep notices the silence
  SimTime recovery_remerge_time = 0;   // detection -> merge completion

  // Streaming mode (--stream): sample_time/merge_time then hold the totals
  // across rounds; the per-round breakdown is StatRunResult::stream_samples.
  std::uint32_t stream_rounds = 0;          // rounds completed
  std::uint32_t stream_changed_rounds = 0;  // rounds where a payload moved

  // Session durability (--checkpoint-period / --vacate-at / --restore).
  std::uint32_t checkpoints_taken = 0;      // captures this run
  std::uint64_t checkpoint_bytes = 0;       // latest capture's encoded size
};

/// One streaming round's outcome (--stream mode), in round order.
struct StreamSampleStats {
  std::uint32_t sample = 0;          // cursor (absolute sample index)
  SimTime sample_time = 0;           // gather: slowest daemon's walk round
  SimTime merge_time = 0;            // incremental merge round
  std::uint64_t merge_bytes = 0;     // delta traffic (acks + payloads)
  std::uint64_t merge_messages = 0;
  std::uint32_t changed_daemons = 0;
  std::uint32_t remerged_procs = 0;  // dirty non-leaf procs (incl. the FE)
  std::uint32_t cached_procs = 0;    // clean non-leaf procs (incl. the FE)
  bool changed = true;               // false: FE answered from its cache
};

struct StatRunResult {
  Status status = Status::ok();  // first failing phase's status
  /// The topology the run actually used (what `--topology auto` resolved to).
  tbon::TopologySpec topology;
  /// The scenario simulator's clock when run() returned — the session's total
  /// virtual duration across every phase that executed (including partial
  /// runs that stopped at a failing phase). The service scheduler uses this
  /// to place a session's completion on the shared service clock.
  SimTime total_virtual_time = 0;
  PhaseBreakdown phases;
  GlobalTree tree_2d;
  GlobalTree tree_3d;
  std::vector<EquivalenceClass> classes;  // from the 3D tree
  /// Per-round breakdown of a streaming run (empty in classic mode).
  std::vector<StreamSampleStats> stream_samples;
  machine::DaemonLayout layout;
  std::uint32_t num_comm_procs = 0;
  /// Daemons dead before sampling (pre-sampling injection + the OOM-cascade
  /// victim), ascending. Mid-merge kills hit comm procs, not daemons, and
  /// are not listed here.
  std::vector<std::uint32_t> dead_daemons;

  // Session durability. `checkpoint` is the latest capture (periodic or
  // vacate); `vacated` means the run stopped at the vacate boundary without
  // finalizing (trees empty, status OK) and `checkpoint` is what resumes it.
  std::shared_ptr<const SessionCheckpoint> checkpoint;
  bool vacated = false;
  bool restored = false;            // this run resumed from a checkpoint
  std::uint32_t restore_cursor = 0; // first round this run sampled
};

/// A StatScenario is a *re-entrant session object*: every piece of mutable
/// state it touches — simulator, executor, network, file systems, app model,
/// RNG streams — is owned by (or borrowed explicitly into) the instance, so
/// any number of scenarios can coexist in one process and produce results
/// bit-identical to running each alone. The one process-wide exception is
/// plan::profile_workload's memoized probe cache, which is deterministic and
/// mutex-guarded (see src/plan/predictor.hpp).
class StatScenario {
 public:
  /// `executor` (optional): run this scenario's real computations on a
  /// shared, caller-owned executor instead of spawning a private worker pool
  /// (the multi-session form). It must outlive the scenario;
  /// `options.exec_threads` is then ignored. Virtual timings are unaffected —
  /// the executor only overlaps the real work between modelled timestamps —
  /// so results stay bit-identical to a privately-pooled run.
  ///
  /// `restore` (optional): resume a vacated streaming session from this
  /// checkpoint. The streaming window (round count, cadence) is normalized
  /// from the checkpoint; the session identity (machine, job, seed, app) must
  /// hash to the checkpoint's — a mismatch is FAILED_PRECONDITION in
  /// config_status(). A cursor outside [1, total_rounds) is INVALID_ARGUMENT,
  /// and a topology the machine cannot build (an incompatible K) fails here
  /// too. The topology is adopted from the checkpoint, unless the auto modes
  /// are set — then plan::resolve re-prices K/placement against the measured
  /// payload bytes — or the CLI re-shards explicitly. run() then skips
  /// launch/SBRS (daemons persist across a front-end loss), re-arms the
  /// multicast cursor at restore->cursor, and merges the resumed rounds into
  /// the checkpointed trees; the canonical merge keeps the products
  /// bit-identical to the never-killed run.
  ///
  /// `resolved` (optional): the spec plan::resolve already chose for exactly
  /// this (machine, job, options, restore), as the service scheduler does
  /// when it prices a session's demand. The run uses it as is instead of
  /// planning again; without it the constructor calls plan::resolve.
  StatScenario(machine::MachineConfig machine, machine::JobConfig job,
               StatOptions options, sim::Executor* executor = nullptr,
               std::shared_ptr<const SessionCheckpoint> restore = nullptr,
               std::optional<tbon::TopologySpec> resolved = std::nullopt);
  ~StatScenario();

  StatScenario(const StatScenario&) = delete;
  StatScenario& operator=(const StatScenario&) = delete;

  /// Runs all phases to completion inside the simulator. A failed phase
  /// stops the pipeline; the result carries the failure and the timings of
  /// the phases that did run. A scenario runs once: a second call returns
  /// FAILED_PRECONDITION (construct a fresh scenario per run).
  [[nodiscard]] StatRunResult run();

  [[nodiscard]] const app::AppModel& app() const { return *app_; }

  /// Construction-time validation/auto-resolution outcome, readable without
  /// running.
  [[nodiscard]] const Status& config_status() const { return config_status_; }
  /// The options after construction resolved `--topology auto` /
  /// `--fe-shards auto`: `resolved_options().topology` is the spec the run
  /// will use. Meaningless when config_status() is not OK.
  [[nodiscard]] const StatOptions& resolved_options() const { return options_; }

 private:
  [[nodiscard]] StatRunResult run_impl();

  template <typename Label>
  void run_merge_phase(const tbon::TbonTopology& topology, StatRunResult& result,
                       std::vector<StatPayload<Label>> payloads,
                       const TaskMap& task_map,
                       const std::vector<bool>& daemon_dead);

  /// Streaming mode: sampling and merging interleave per round, so one
  /// phase runs both (replacing phases 2b and 3 of the classic pipeline).
  template <typename Label>
  void run_stream_phase(const tbon::TbonTopology& topology,
                        StatRunResult& result, const TaskMap& task_map,
                        const std::vector<bool>& daemon_dead);

  /// Both merge paths end here: remap the merged trees to rank order (hier
  /// labels, priced over the daemons not in `dead`) into `result`.
  template <typename Label>
  void finalize_trees(const tbon::TbonTopology& topology,
                      const std::vector<bool>& dead, PrefixTree<Label>&& tree_2d,
                      PrefixTree<Label>&& tree_3d, const TaskMap& task_map,
                      StatRunResult& result);

  machine::MachineConfig machine_;
  machine::JobConfig job_;
  StatOptions options_;
  /// Checkpoint this session resumes from (null for a cold run).
  std::shared_ptr<const SessionCheckpoint> restore_;
  /// Construction-time outcome: option validation plus `--topology auto` /
  /// `--fe-shards auto` resolution. run() reports it without simulating.
  Status config_status_ = Status::ok();
  machine::CostModel costs_;
  machine::DaemonLayout layout_;

  sim::Simulator sim_;
  /// Private pool (empty when a shared executor was borrowed), declared
  /// before everything that may hold submitted work.
  std::unique_ptr<sim::Executor> owned_exec_;
  sim::Executor* exec_ = nullptr;  // the pool in use (owned or borrowed)
  bool ran_ = false;               // run() is single-shot
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<fs::FileSystem> shared_fs_;
  std::unique_ptr<fs::FileSystem> local_fs_;
  std::unique_ptr<fs::FileSystem> ramdisk_;
  fs::MountTable mounts_;
  std::unique_ptr<fs::FileAccess> files_;
  std::unique_ptr<app::AppModel> app_;
  std::unique_ptr<stackwalker::StackWalker> walker_;
  /// The daemons' collective fabric (SBRS broadcasts binaries over it).
  std::unique_ptr<launchmon::BackEndFabric> fabric_;
};

}  // namespace petastat::stat
