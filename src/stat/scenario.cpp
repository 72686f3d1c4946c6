#include "stat/scenario.hpp"

#include <algorithm>

#include "plan/search.hpp"
#include "stat/checkpoint.hpp"
#include "stat/filter.hpp"
#include "tbon/health.hpp"
#include "tbon/multicast.hpp"
#include "tbon/reduction.hpp"

namespace petastat::stat {

const char* task_set_repr_name(TaskSetRepr repr) {
  return repr == TaskSetRepr::kDenseGlobal ? "dense-bitvector"
                                           : "hierarchical-list";
}

namespace {
constexpr const char* kSharedBase = "/nfs/home/user";

/// The sampling sink folding a daemon pass's traces into a stream round's
/// snapshot. Its wire bytes are needed only if it changed, so the
/// reduction's leaf classification sizes it.
template <typename Label>
stackwalker::TraceSink trace_sink(StreamSnapshot<Label>& leaf,
                                  std::uint32_t daemon_id) {
  return [leaf = &leaf, daemon_id](const app::TraceBatch& batch) {
    fold_batch(*leaf, batch, daemon_id);
  };
}

/// The sampling sink of the classic merge: every batched payload is sent
/// and sized by the receive-buffer check, so it carries both sizes from
/// the synthesis job on.
template <typename Label>
stackwalker::TraceSink trace_sink(StatPayload<Label>& leaf,
                                  std::uint32_t daemon_id,
                                  const app::FrameTable& frames,
                                  LabelContext ctx) {
  return [leaf = &leaf, daemon_id, &frames, ctx](const app::TraceBatch& batch) {
    fold_batch(*leaf, batch, daemon_id);
    leaf->carry_sizes(frames, ctx);
  };
}

/// Per-link traffic since `before` (a link_stats() snapshot), busiest first
/// (ties to the lower device key), links with no new traffic dropped.
std::vector<net::LinkStat> link_stats_since(
    const net::Network& network, const std::vector<net::LinkStat>& before) {
  std::vector<net::LinkStat> delta = network.link_stats();
  // Both snapshots are sorted by device key, and devices are only ever
  // added, so a linear pairwise walk lines them up.
  std::size_t b = 0;
  for (net::LinkStat& stat : delta) {
    while (b < before.size() && before[b].device < stat.device) ++b;
    if (b < before.size() && before[b].device == stat.device) {
      stat.bytes -= before[b].bytes;
      stat.messages -= before[b].messages;
      stat.busy -= before[b].busy;
    }
  }
  delta.erase(std::remove_if(delta.begin(), delta.end(),
                             [](const net::LinkStat& s) {
                               return s.messages == 0 && s.bytes == 0 &&
                                      s.busy == 0;
                             }),
              delta.end());
  std::stable_sort(delta.begin(), delta.end(),
                   [](const net::LinkStat& lhs, const net::LinkStat& rhs) {
                     if (lhs.busy != rhs.busy) return lhs.busy > rhs.busy;
                     return lhs.device < rhs.device;
                   });
  return delta;
}
}  // namespace

std::unique_ptr<app::AppModel> make_app_model(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const StatOptions& options) {
  const bool bgl_style =
      machine.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  app::AppBinarySpec binaries =
      machine.static_binary
          ? app::ring_binaries_static(kSharedBase)
          : app::ring_binaries_dynamic(kSharedBase, options.slim_binaries);

  switch (options.app) {
    case AppKind::kRingHang: {
      app::RingHangOptions ring;
      ring.num_tasks = job.num_tasks;
      ring.bgl_frames = bgl_style;
      ring.seed = options.seed;
      ring.evolution = options.evolution;
      ring.binaries = std::move(binaries);
      return std::make_unique<app::RingHangApp>(std::move(ring));
    }
    case AppKind::kThreadedRing: {
      app::ThreadedRingOptions threaded;
      threaded.ring.num_tasks = job.num_tasks;
      threaded.ring.bgl_frames = bgl_style;
      threaded.ring.seed = options.seed;
      threaded.ring.evolution = options.evolution;
      threaded.ring.binaries = std::move(binaries);
      threaded.threads_per_task = std::max(1u, job.threads_per_task);
      return std::make_unique<app::ThreadedRingApp>(std::move(threaded));
    }
    case AppKind::kStatBench: {
      app::StatBenchOptions bench;
      bench.num_tasks = job.num_tasks;
      bench.num_classes = options.statbench_classes;
      bench.seed = options.seed;
      bench.evolution = options.evolution;
      bench.binaries = std::move(binaries);
      return std::make_unique<app::StatBenchApp>(std::move(bench));
    }
    case AppKind::kIoStall: {
      app::IoStallOptions stall;
      stall.num_tasks = job.num_tasks;
      stall.bgl_frames = bgl_style;
      stall.seed = options.seed;
      stall.evolution = options.evolution;
      stall.binaries = std::move(binaries);
      return std::make_unique<app::IoStallApp>(std::move(stall));
    }
    case AppKind::kImbalance: {
      app::ImbalanceOptions imbalance;
      imbalance.num_tasks = job.num_tasks;
      imbalance.bgl_frames = bgl_style;
      imbalance.seed = options.seed;
      imbalance.evolution = options.evolution;
      imbalance.drift_period = std::max(1u, options.drift_period);
      if (options.evolution == app::TraceEvolution::kDrift) {
        // Align the drift bands with daemon boundaries so each sample's
        // changed set is a slice of *adjacent daemons* — a few dirty
        // subtrees, not every subtree a little dirty.
        if (auto layout = machine::layout_daemons(machine, job);
            layout.is_ok()) {
          imbalance.drift_block =
              std::max(1u, layout.value().tasks_of(DaemonId(0)));
        }
      }
      return std::make_unique<app::ImbalanceApp>(std::move(imbalance));
    }
    case AppKind::kOomCascade: {
      app::OomCascadeOptions oom;
      oom.num_tasks = job.num_tasks;
      oom.bgl_frames = bgl_style;
      oom.seed = options.seed;
      oom.evolution = options.evolution;
      oom.binaries = std::move(binaries);
      return std::make_unique<app::OomCascadeApp>(std::move(oom));
    }
  }
  check(false, "unknown AppKind");
  return nullptr;
}

fs::NfsParams shared_nfs_params(const machine::MachineConfig& machine) {
  fs::NfsParams nfs;
  if (machine.daemon_placement == machine::DaemonPlacement::kPerIoNode) {
    // Lab-grade NFS farm behind the I/O nodes: faster cached reads (every
    // daemon reads the same static binary), more lanes, but a moodier
    // shared server.
    nfs.server_threads = 8;
    nfs.cached_bytes_per_sec = 150.0e6;  // aggregate 1.2 GB/s
    nfs.run_load_sigma = 0.58;
  }
  return nfs;
}

StatScenario::StatScenario(machine::MachineConfig machine,
                           machine::JobConfig job, StatOptions options,
                           sim::Executor* executor,
                           std::shared_ptr<const SessionCheckpoint> restore,
                           std::optional<tbon::TopologySpec> resolved)
    : machine_(std::move(machine)),
      job_(job),
      options_(std::move(options)),
      restore_(std::move(restore)),
      costs_(machine::default_cost_model(machine_)) {
  if (executor != nullptr) {
    exec_ = executor;
  } else {
    owned_exec_ = std::make_unique<sim::Executor>(options_.exec_threads);
    exec_ = owned_exec_.get();
  }
  auto layout = machine::layout_daemons(machine_, job_);
  check(layout.is_ok(), "StatScenario: job does not fit the machine");
  layout_ = layout.value();

  // The streaming window is part of the checkpoint, not the restore-side
  // options: normalize it so the resumed series is the interrupted one.
  if (restore_ != nullptr) {
    options_.stream_samples = restore_->total_rounds;
    options_.stream_interval_seconds = restore_->interval_seconds;
    options_.run_through = RunThrough::kFull;
  }

  // Explicit zeros are configuration errors, not requests for a default: a
  // front end with no connections and a merge with no shards both mean the
  // caller typed something they did not intend.
  if (options_.max_frontend_connections &&
      *options_.max_frontend_connections == 0) {
    config_status_ = invalid_argument(
        "max_frontend_connections override must be >= 1 (leave it unset for "
        "the machine default)");
  } else if (options_.fe_shards == 0 && !options_.fe_shards_auto) {
    config_status_ =
        invalid_argument("fe_shards must be >= 1 (1 = unsharded front end)");
  } else if (options_.daemon_failure_probability < 0.0 ||
             options_.daemon_failure_probability > 1.0) {
    config_status_ = invalid_argument(
        "daemon_failure_probability must be in [0, 1]");
  } else if (options_.ping_period_seconds <= 0.0) {
    config_status_ =
        invalid_argument("ping_period_seconds must be > 0");
  } else if (options_.stream_interval_seconds < 0.0) {
    config_status_ =
        invalid_argument("stream_interval_seconds must be >= 0");
  } else if ((options_.checkpoint_period > 0 || options_.vacate_at_round >= 0) &&
             (options_.stream_samples == 0 ||
              options_.run_through != RunThrough::kFull)) {
    config_status_ = invalid_argument(
        "checkpoint_period/vacate_at_round require a streaming run "
        "(--stream)");
  } else if (options_.vacate_at_round == 0 ||
             (options_.vacate_at_round > 0 &&
              static_cast<std::uint32_t>(options_.vacate_at_round) >=
                  options_.stream_samples)) {
    config_status_ = invalid_argument(
        "vacate_at_round must be an interior round boundary in "
        "[1, stream_samples)");
  }

  // Restore validation: the checkpoint must describe *this* session (stale
  // hash → FAILED_PRECONDITION) and a resumable point in it.
  if (config_status_.is_ok() && restore_ != nullptr) {
    if (restore_->cursor == 0 || restore_->cursor >= restore_->total_rounds) {
      config_status_ = invalid_argument(
          "restore: checkpoint cursor beyond series (cursor " +
          std::to_string(restore_->cursor) + " of " +
          std::to_string(restore_->total_rounds) + " rounds)");
    } else if (restore_->num_tasks != layout_.num_tasks ||
               restore_->num_daemons != layout_.num_daemons) {
      config_status_ = invalid_argument(
          "restore: checkpoint job shape does not match the machine layout");
    } else if (session_identity_hash(machine_, job_, options_) !=
               restore_->identity_hash) {
      config_status_ = failed_precondition(
          "restore: stale session hash — the checkpoint was captured under a "
          "different machine/job/seed/app configuration");
    } else if (options_.vacate_at_round >= 0 &&
               static_cast<std::uint32_t>(options_.vacate_at_round) <=
                   restore_->cursor) {
      config_status_ = invalid_argument(
          "vacate_at_round must be past the restore cursor");
    }
  }

  // The per-run connection override *is* the machine's ceiling for this run:
  // folding it into the config here means every consumer — the reducer-tree
  // fan-in clamp in tbon::derive_levels, connection_viability, and the
  // planner the auto modes consult below — sees one consistent limit, so
  // the tree that gets checked is the tree that limit would demand.
  if (config_status_.is_ok() && options_.max_frontend_connections) {
    machine_.max_tool_connections = *options_.max_frontend_connections;
  }

  // Resolve `--topology auto` / `--fe-shards auto` / the restore re-plan up
  // front (unless the caller already did) so the run-seed salting below (and
  // everything seeded from it) sees the spec the run will actually use.
  if (config_status_.is_ok()) {
    Result<tbon::TopologySpec> spec =
        resolved ? Result<tbon::TopologySpec>(std::move(*resolved))
                 : plan::resolve(machine_, job_, options_, costs_,
                                 restore_.get());
    if (spec.is_ok()) {
      options_.topology = std::move(spec).value();
    } else {
      config_status_ = spec.status();
    }
    // Reject a restored spec the machine cannot build (a K incompatible
    // with this layout) at construction, before any simulated work.
    if (config_status_.is_ok() && restore_ != nullptr) {
      auto topo = tbon::build_topology(machine_, layout_, options_.topology);
      if (!topo.is_ok()) config_status_ = topo.status();
    }
  }

  net_ = std::make_unique<net::Network>(sim_, net::build_switch_graph(machine_));

  // Per-run noise streams are salted with the configuration so that
  // "essentially identical" runs under different topologies draw different
  // server moods — the paper's Fig. 9 variation.
  const std::uint64_t run_seed =
      options_.seed ^
      std::hash<std::string>{}(options_.topology.name() +
                               task_set_repr_name(options_.repr));

  // File systems: the shared FS under /nfs, node-local /usr/lib, and the
  // per-node RAM disk SBRS relocates into.
  if (options_.shared_fs == SharedFsKind::kLustre) {
    shared_fs_ = std::make_unique<fs::LustreFileSystem>(sim_, fs::LustreParams{},
                                                        run_seed);
  } else {
    shared_fs_ = std::make_unique<fs::NfsFileSystem>(
        sim_, shared_nfs_params(machine_), run_seed);
  }
  local_fs_ = std::make_unique<fs::RamDiskFileSystem>(
      sim_, fs::RamDiskParams{.bytes_per_sec = 150.0e6,
                              .per_open = 300 * kMicrosecond});
  ramdisk_ = std::make_unique<fs::RamDiskFileSystem>(sim_, fs::RamDiskParams{});
  mounts_.mount("/nfs", shared_fs_.get());
  mounts_.mount("/usr/lib", local_fs_.get());
  mounts_.mount("/ramdisk", ramdisk_.get());
  files_ = std::make_unique<fs::FileAccess>(sim_, mounts_);

  app_ = make_app_model(machine_, job_, options_);
  walker_ = std::make_unique<stackwalker::StackWalker>(
      sim_, machine_, costs_.sampling, *files_, *app_, layout_, run_seed);
  walker_->set_executor(exec_);
  fabric_ = std::make_unique<launchmon::BackEndFabric>(sim_, machine_, *net_,
                                                       layout_);
}

StatScenario::~StatScenario() = default;

StatRunResult StatScenario::run() {
  if (ran_) {
    StatRunResult result;
    result.layout = layout_;
    result.topology = options_.topology;
    result.status = failed_precondition(
        "StatScenario::run() is single-shot: construct a fresh scenario per "
        "session");
    return result;
  }
  ran_ = true;
  StatRunResult result = run_impl();
  // The scenario clock only ever advances inside this run, so "now" is the
  // session's total virtual duration — including the phases a failure cut
  // short.
  result.total_virtual_time = sim_.now();
  return result;
}

StatRunResult StatScenario::run_impl() {
  StatRunResult result;
  result.layout = layout_;
  result.topology = options_.topology;
  if (!config_status_.is_ok()) {
    // Invalid options, or auto resolution found no viable spec.
    result.status = config_status_;
    return result;
  }
  PhaseBreakdown& phases = result.phases;

  // Walkers see the (possibly shuffled) process-table mapping.
  const TaskMap task_map = options_.shuffle_task_map
                               ? TaskMap::shuffled(layout_, options_.seed)
                               : TaskMap::identity(layout_);
  walker_->set_task_resolver([task_map](DaemonId d, std::uint32_t local) {
    return TaskId(task_map.global_rank(d.value(), local));
  });

  // --- Topology --------------------------------------------------------------
  auto topo_result = tbon::build_topology(machine_, layout_, options_.topology);
  if (!topo_result.is_ok()) {
    result.status = topo_result.status();
    return result;
  }
  const tbon::TbonTopology topology = std::move(topo_result).value();
  result.num_comm_procs = topology.num_comm_procs();

  // --- Phase 1: startup --------------------------------------------------------
  // A restored session skips the launch: the daemons survived the front-end
  // loss and stay attached. Only the front end's half is rebuilt below —
  // comm/shard process spawn plus MRNet instantiation (connect_time).
  if (restore_ != nullptr) {
    result.restored = true;
    result.restore_cursor = restore_->cursor;
  } else {
    rm::LaunchReport& launch = phases.launch;
    launch = rm::launch(options_.launcher, machine_, costs_.launch,
                        rm::launch_request(machine_, layout_), options_.seed);
    launch.started_at += sim_.now();
    launch.finished_at += sim_.now();
    sim_.schedule_at(launch.finished_at, []() {});
    sim_.run();
    if (!launch.status.is_ok()) {
      result.status = launch.status;
      phases.startup_total = sim_.now();
      return result;
    }
  }

  // MRNet comm processes — the shard machinery included — are spawned
  // serially from the front end, then the whole network instantiates level
  // by level.
  phases.connect_time = tbon::connect_phase_time(topology, costs_.launch);
  sim_.schedule_in(phases.connect_time, []() {});
  sim_.run();
  phases.startup_total = sim_.now();
  if (options_.run_through == RunThrough::kStartup) return result;

  // --- Phase 2a: SBRS (optional; already done before the checkpoint) -----------
  if (options_.use_sbrs && restore_ == nullptr) {
    sbrs::Sbrs service(sim_, machine_, layout_, *files_, *fabric_,
                       sbrs::SbrsParams{});
    service.relocate(app_->binaries(), [&phases](const sbrs::SbrsReport& report) {
      phases.sbrs_grace = report.grace_time;
      phases.sbrs_relocation = report.relocation_time;
    });
    sim_.run();
  }

  // --- Phase 2b: sampling --------------------------------------------------------
  // Streaming mode replaces phases 2b and 3 with interleaved per-sample
  // rounds; its own SampleRequest broadcast is the control message.
  const bool streaming =
      options_.stream_samples > 0 && options_.run_through == RunThrough::kFull;
  const bool dense = options_.repr == TaskSetRepr::kDenseGlobal;
  if (!streaming) {
    // Sample request multicast down the tree (small control message).
    tbon::multicast(sim_, *net_, topology, /*bytes=*/96, [](SimTime) {});
    sim_.run();
  }

  const SimTime sample_start = sim_.now();
  const std::uint32_t num_daemons = layout_.num_daemons;

  std::vector<StatPayload<GlobalLabel>> dense_payloads;
  std::vector<StatPayload<HierLabel>> hier_payloads;
  if (!streaming) {
    if (dense) {
      dense_payloads.resize(num_daemons);
    } else {
      hier_payloads.resize(num_daemons);
    }
  }

  // Failure injection: decide casualties up front (dead before sampling).
  std::vector<bool> daemon_dead(num_daemons, false);
  if (restore_ != nullptr) {
    // The checkpoint's dead set already carries the original injection, the
    // OOM-cascade victim, and any mid-stream losses; re-drawing here would
    // kill a different set than the run being resumed.
    for (const std::uint32_t d : restore_->dead_daemons) {
      daemon_dead[d] = true;
      ++phases.failed_daemons;
    }
  } else if (options_.daemon_failure_probability >= 1.0) {
    // Certain death is certain: no RNG draw, so every seed reports the same
    // total loss.
    std::fill(daemon_dead.begin(), daemon_dead.end(), true);
    phases.failed_daemons = num_daemons;
  } else if (options_.daemon_failure_probability > 0.0) {
    Rng failure_rng(options_.seed, /*stream_id=*/0xdead);
    for (std::uint32_t d = 0; d < num_daemons; ++d) {
      if (failure_rng.bernoulli(options_.daemon_failure_probability)) {
        daemon_dead[d] = true;
        ++phases.failed_daemons;
      }
    }
  }
  // The OOM cascade kills its victim's compute node outright: the daemon
  // serving the first-killed rank is gone before sampling starts (the tool
  // sees the hole, not the OOM).
  if (options_.app == AppKind::kOomCascade && restore_ == nullptr) {
    const auto& oom = dynamic_cast<const app::OomCascadeApp&>(*app_);
    const std::uint32_t victim_rank = oom.victim_task().value();
    bool found = false;
    for (std::uint32_t d = 0; d < num_daemons && !found; ++d) {
      const std::uint32_t locals = layout_.tasks_of(DaemonId(d));
      for (std::uint32_t local = 0; local < locals && !found; ++local) {
        if (task_map.global_rank(d, local) != victim_rank) continue;
        found = true;
        if (!daemon_dead[d]) {
          daemon_dead[d] = true;
          ++phases.failed_daemons;
        }
      }
    }
    check(found, "OOM-cascade victim rank not in the task map");
  }
  for (std::uint32_t d = 0; d < num_daemons; ++d) {
    if (daemon_dead[d]) result.dead_daemons.push_back(d);
  }
  // A tool with zero surviving daemons has nothing to merge.
  if (phases.failed_daemons == num_daemons) {
    phases.sample_status = unavailable("all daemons failed");
    result.status = phases.sample_status;
    return result;
  }

  if (!streaming) {
    // Each daemon folds its traces straight into its own payload.
    const LabelContext ctx{layout_.num_tasks};
    SimTime sample_end = sample_start;
    for (std::uint32_t d = 0; d < num_daemons; ++d) {
      if (daemon_dead[d]) continue;
      walker_->sample_daemon(
          DaemonId(d), options_.num_samples,
          dense ? trace_sink(dense_payloads[d], d, app_->frames(), ctx)
                : trace_sink(hier_payloads[d], d, app_->frames(), ctx),
          [&phases, &sample_end](const stackwalker::SampleReport& report) {
            phases.daemon_sample_seconds.add(to_seconds(report.total()));
            phases.sample_symbol_io_max =
                std::max(phases.sample_symbol_io_max, report.symbol_io_time);
            sample_end = std::max(sample_end, report.finished_at);
          });
    }
    sim_.run();
    phases.sample_time = sample_end - sample_start;
    if (options_.run_through == RunThrough::kSampling) return result;
  }

  // --- Phase 3: merge (streaming: interleaved sample + merge rounds) ----------
  // Front-end viability checks (Sec. V-A failures): one shared formulation
  // with the planner, `> limit` rejects.
  // Dead daemons never dial in, so viability is judged on the survivors —
  // a tree that would overflow the front end at full strength can be fine
  // after casualties, and the planner's mask overload agrees.
  const std::uint32_t conn_limit =
      options_.max_frontend_connections.value_or(
          machine_.max_tool_connections);
  if (Status conn =
          tbon::connection_viability(topology, conn_limit, daemon_dead);
      !conn.is_ok()) {
    phases.merge_status = std::move(conn);
    result.status = phases.merge_status;
    return result;
  }

  if (streaming && dense) {
    run_stream_phase<GlobalLabel>(topology, result, task_map, daemon_dead);
  } else if (streaming) {
    run_stream_phase<HierLabel>(topology, result, task_map, daemon_dead);
  } else if (dense) {
    run_merge_phase<GlobalLabel>(topology, result, std::move(dense_payloads),
                                 task_map, daemon_dead);
  } else {
    run_merge_phase<HierLabel>(topology, result, std::move(hier_payloads),
                               task_map, daemon_dead);
  }
  if (!phases.merge_status.is_ok()) {
    result.status = phases.merge_status;
    return result;
  }

  result.classes = equivalence_classes(result.tree_3d);
  return result;
}

namespace {

/// The mid-merge failure drill shared by the classic merge and the stream:
/// the armed kill (`--fail-at`), the health monitor's ping sweep, and the
/// callback that runs the engine's in-round recovery. The kill lands in the
/// first round that begins at or past its time (a stream round begins with
/// its gather), dying as that round's merge starts, so a stream and its
/// cache-free twin lose the victim in the same round; in a round with no
/// later boundary (the classic merge, the stream's last round) it fires by
/// timer mid-round instead, and a timer the round outlives is cancelled.
/// The monitor runs during every round in which the kill is due or awaits
/// detection — the only window in which a death can stall the tree — and is
/// stopped when the round completes, so the simulator can drain; an unarmed
/// run pays nothing.
template <typename Payload>
class FailureDrill {
 public:
  FailureDrill(sim::Simulator& sim, net::Network& network,
               const tbon::TbonTopology& topology, const StatOptions& options,
               tbon::Reduction<Payload>& engine, PhaseBreakdown& phases)
      : sim_(sim),
        engine_(engine),
        phases_(phases),
        monitor_(sim, network, topology,
                 [this](const tbon::FailureEvent& event) {
                   phases_.failure_detect_latency =
                       event.detected_at - event.dead_at;
                   detected_at_ = event.detected_at;
                   const tbon::RecoveryReport report =
                       engine_.recover(event.proc);
                   if (report.acted) {
                     phases_.orphaned_daemons += report.orphan_daemons;
                     phases_.lost_daemons += report.lost_daemons;
                   }
                 },
                 seconds(options.ping_period_seconds)),
        armed_(options.fail_at_seconds >= 0.0),
        kill_at_(sim.now() + seconds(std::max(0.0, options.fail_at_seconds))),
        victim_(armed_ ? tbon::default_victim(topology) : 0) {
    // Leaf payload retention — the recovery's raw material — only while a
    // kill is armed.
    engine_.set_retain_payloads(armed_);
  }

  /// Call just before the engine starts the merge of a round that began at
  /// `round_start`.
  void begin_round(SimTime round_start, bool last_round) {
    if (!armed_ || detected_at_ != kSimTimeNever) return;
    const bool killed = phases_.killed_procs > 0;
    if (!killed && round_start < kill_at_ && !last_round) return;
    monitor_.start();
    if (killed) return;
    kill_event_ = sim_.schedule_at(std::max(sim_.now(), kill_at_), [this]() {
      engine_.mark_dead(victim_);
      monitor_.mark_dead(victim_, sim_.now());
      ++phases_.killed_procs;
    });
  }

  /// Call from the round's completion callback.
  void end_round(SimTime finished_at) {
    monitor_.stop();
    if (phases_.killed_procs == 0) sim_.cancel(kill_event_);  // 0: none armed
    if (detected_at_ != kSimTimeNever && phases_.recovery_remerge_time == 0 &&
        finished_at > detected_at_) {
      phases_.recovery_remerge_time = finished_at - detected_at_;
    }
  }

  [[nodiscard]] std::uint32_t sweeps() const {
    return monitor_.sweeps_completed();
  }

 private:
  sim::Simulator& sim_;
  tbon::Reduction<Payload>& engine_;
  PhaseBreakdown& phases_;
  tbon::HealthMonitor monitor_;
  bool armed_;
  SimTime kill_at_;
  std::uint32_t victim_;
  sim::EventId kill_event_ = 0;
  SimTime detected_at_ = kSimTimeNever;
};

/// Builds a SessionCheckpoint at round boundary `boundary` (rounds
/// [0, boundary) are folded into the accumulators) and charges its virtual
/// write time. Timing only — the trees are timing-independent, so the
/// bit-identity contract is unaffected.
template <typename Label>
void capture_session_checkpoint(
    sim::Simulator& sim, const machine::MachineConfig& machine,
    const machine::JobConfig& job, const machine::DaemonLayout& layout,
    const StatOptions& options, const app::FrameTable& frames,
    const LabelContext& ctx, const tbon::TbonTopology& topology,
    const tbon::Reduction<StreamSnapshot<Label>>& streaming,
    const PrefixTree<Label>& acc_2d, const PrefixTree<Label>& acc_3d,
    const TaskMap& task_map, std::uint32_t boundary, StatRunResult& result) {
  auto cp = std::make_shared<SessionCheckpoint>();
  cp->machine_name = machine.name;
  cp->num_tasks = layout.num_tasks;
  cp->num_daemons = layout.num_daemons;
  cp->identity_hash = session_identity_hash(machine, job, options);
  cp->spec = options.topology;
  cp->cursor = boundary;
  cp->total_rounds = options.stream_samples;
  cp->interval_seconds = options.stream_interval_seconds;
  cp->repr = options.repr;
  cp->seed = options.seed;
  const std::vector<bool>& dead = streaming.dead_daemons();
  for (std::uint32_t d = 0; d < dead.size(); ++d) {
    if (dead[d]) cp->dead_daemons.push_back(d);
  }
  cp->daemon_cache_valid = streaming.daemon_cache_valid();
  cp->proc_cache_complete = streaming.proc_cache_complete();
  cp->leaf_payload_bytes = result.phases.leaf_payload_bytes;

  // Estimated per-shard inbound bytes: the measured per-daemon payload
  // scaled by each shard's surviving task share (one entry = the unsharded
  // front end). The restore-side re-planner's measured input.
  const double per_task =
      layout.tasks_per_daemon > 0
          ? static_cast<double>(cp->leaf_payload_bytes) /
                layout.tasks_per_daemon
          : 0.0;
  if (topology.sharded()) {
    for (const std::uint64_t tasks :
         tbon::shard_task_counts(topology, layout, dead)) {
      cp->shard_payload_bytes.push_back(
          static_cast<std::uint64_t>(per_task * static_cast<double>(tasks)));
    }
  } else {
    cp->shard_payload_bytes.push_back(static_cast<std::uint64_t>(
        per_task *
        static_cast<double>(tbon::surviving_task_count(layout, dead))));
  }

  ByteSink sink_2d;
  acc_2d.encode(sink_2d, frames, ctx);
  cp->tree_2d_wire = sink_2d.take();
  ByteSink sink_3d;
  acc_3d.encode(sink_3d, frames, ctx);
  cp->tree_3d_wire = sink_3d.take();

  // Classes at the boundary, name-based. Rank order needs the remap for the
  // hierarchical representation; dense labels already carry global ranks.
  std::vector<EquivalenceClass> classes;
  if constexpr (std::is_same_v<Label, HierLabel>) {
    classes = equivalence_classes(remap_tree(acc_3d, task_map));
  } else {
    classes = equivalence_classes(acc_3d);
  }
  cp->classes.reserve(classes.size());
  for (const EquivalenceClass& cls : classes) {
    SessionCheckpoint::ClassEntry entry;
    entry.frames.reserve(cls.path.size());
    for (const FrameId frame : cls.path) {
      entry.frames.emplace_back(frames.name(frame));
    }
    entry.tasks = cls.tasks;
    cp->classes.push_back(std::move(entry));
  }

  const std::vector<std::uint8_t> bytes = cp->encoded();
  result.phases.checkpoint_bytes = bytes.size();
  ++result.phases.checkpoints_taken;
  // The front end streams the envelope to its local disk at RAM-disk
  // bandwidth before the next round starts.
  sim.schedule_in(seconds(static_cast<double>(bytes.size()) / 150.0e6),
                  []() {});
  sim.run();
  result.checkpoint = std::move(cp);
}

}  // namespace

template <typename Label>
void StatScenario::finalize_trees(const tbon::TbonTopology& topology,
                                  const std::vector<bool>& dead,
                                  PrefixTree<Label>&& tree_2d,
                                  PrefixTree<Label>&& tree_3d,
                                  const TaskMap& task_map,
                                  StatRunResult& result) {
  // The optimized representation pays the remap from daemon order to MPI
  // rank order (0.66 s at 208K tasks), over the ranks that reported.
  if constexpr (std::is_same_v<Label, HierLabel>) {
    PhaseBreakdown& phases = result.phases;
    phases.remap_time = tbon::remap_time(costs_.merge, topology, layout_, dead);
    sim_.schedule_in(phases.remap_time, []() {});
    // The two trees remap independently; overlap them across workers while
    // the modelled remap duration elapses.
    auto remap_2d =
        exec_->run([&]() { result.tree_2d = remap_tree(tree_2d, task_map); });
    result.tree_3d = remap_tree(tree_3d, task_map);
    exec_->wait(remap_2d);
    sim_.run();
  } else {
    result.tree_2d = std::move(tree_2d);
    result.tree_3d = std::move(tree_3d);
  }
}

template <typename Label>
void StatScenario::run_merge_phase(const tbon::TbonTopology& topology,
                                   StatRunResult& result,
                                   std::vector<StatPayload<Label>> payloads,
                                   const TaskMap& task_map,
                                   const std::vector<bool>& daemon_dead) {
  PhaseBreakdown& phases = result.phases;
  const LabelContext ctx{layout_.num_tasks};
  const app::FrameTable& frames = app_->frames();

  const auto first_alive = static_cast<std::size_t>(
      std::find(daemon_dead.begin(), daemon_dead.end(), false) -
      daemon_dead.begin());
  check(first_alive < payloads.size(), "merge phase with every daemon dead");
  phases.leaf_payload_bytes =
      carried_wire_bytes(payloads[first_alive], frames, ctx);

  // Receive-buffer viability at every merge root (streaming helps internal
  // comm procs, but the merge root of a flat subtree holds every daemon's
  // full-job bit vectors at once). Dead daemons send nothing.
  phases.merge_status = tbon::rx_buffer_viability(
      topology, costs_.merge.frontend_rx_buffer_bytes,
      [&](std::uint32_t daemon) -> std::uint64_t {
        return daemon_dead[daemon]
                   ? 0
                   : carried_wire_bytes(payloads[daemon], frames, ctx);
      });
  if (!phases.merge_status.is_ok()) return;

  // The classic merge is one round of the reduction engine: no baselines,
  // every leaf sends, every proc merges. merge_bytes counts all traffic of
  // the round — the monitor's pings included when a kill is armed.
  const SimTime merge_start = sim_.now();
  const std::vector<net::LinkStat> links_before = net_->link_stats();
  tbon::Reduction<StatPayload<Label>> reduction(
      sim_, *net_, topology, make_stat_reduce_ops<Label>(costs_.merge, frames, ctx),
      exec_);
  reduction.set_dead_daemons(daemon_dead);
  FailureDrill<StatPayload<Label>> drill(sim_, *net_, topology, options_,
                                         reduction, phases);

  std::optional<StatPayload<Label>> merged;
  SimTime merge_done_at = merge_start;
  drill.begin_round(merge_start, /*last_round=*/true);
  reduction.start(std::move(payloads),
                  [&](tbon::ReduceResult<StatPayload<Label>> reduce_result) {
                    merged = std::move(reduce_result.payload);
                    merge_done_at = reduce_result.finished_at;
                    phases.merge_bytes = reduce_result.bytes_moved;
                    phases.merge_messages = reduce_result.messages;
                    drill.end_round(merge_done_at);
                  });
  sim_.run();
  phases.health_sweeps = drill.sweeps();
  phases.merge_links = link_stats_since(*net_, links_before);
  if (!merged.has_value()) {
    // The victim died holding state the recovery could not rebuild (or died
    // where no sibling could adopt). The tool reports the stall instead of
    // spinning on a reduction that can never finish.
    phases.merge_status = unavailable(
        "merge stalled: a tool process died mid-merge and could not be "
        "recovered");
    return;
  }
  phases.merge_time = merge_done_at - merge_start;
  finalize_trees<Label>(topology, daemon_dead, std::move(merged->tree_2d),
                        std::move(merged->tree_3d), task_map, result);
}

template <typename Label>
void StatScenario::run_stream_phase(const tbon::TbonTopology& topology,
                                    StatRunResult& result,
                                    const TaskMap& task_map,
                                    const std::vector<bool>& daemon_dead) {
  PhaseBreakdown& phases = result.phases;
  const LabelContext ctx{layout_.num_tasks};
  const app::FrameTable& frames = app_->frames();
  const std::uint32_t num_daemons = layout_.num_daemons;
  const std::uint32_t rounds = options_.stream_samples;
  // A restored session re-arms the series at the checkpoint's cursor.
  const std::uint32_t start = restore_ != nullptr ? restore_->cursor : 0;

  const std::vector<net::LinkStat> links_before = net_->link_stats();

  tbon::Reduction<StreamSnapshot<Label>> streaming(
      sim_, *net_, topology,
      make_stream_ops<Label>(costs_.merge, costs_.stream, frames, ctx),
      exec_);
  streaming.set_dead_daemons(daemon_dead);
  streaming.set_full_remerge(options_.stream_full_remerge);
  // Mid-stream failure recovery runs in the round the victim dies in: the
  // orphans' payloads of that round are re-sent to adopters, and the
  // re-parenting invalidates every cache it touches, so every round equals
  // a from-scratch merge of the survivors.
  FailureDrill<StreamSnapshot<Label>> drill(sim_, *net_, topology, options_,
                                            streaming, phases);

  // Control plane: one versioned SampleRequest announces the whole window —
  // the cursor to resume at, the remaining round count, the cadence — to
  // every leaf before the first round.
  tbon::SampleRequest request;
  request.cursor = start;
  request.count = rounds - start;
  request.interval = seconds(options_.stream_interval_seconds);
  tbon::broadcast(sim_, *net_, topology, costs_.stream, request, {},
                  [&phases](tbon::BroadcastReport report) {
                    phases.merge_bytes += report.bytes;
                    phases.merge_messages += report.messages;
                  });
  sim_.run();

  // A restore seeds the accumulators from the checkpoint's tree blobs —
  // frame names re-intern idempotently against this session's table. The
  // resumed rounds then merge on top; the canonical merge keeps the final
  // trees bit-identical to the never-killed run.
  PrefixTree<Label> acc_2d;
  PrefixTree<Label> acc_3d;
  if (restore_ != nullptr) {
    auto tree_2d = decode_tree_blob<Label>(restore_->tree_2d_wire,
                                           app_->frames(), ctx);
    check(tree_2d.is_ok(), "restore: checkpoint 2D tree blob failed to decode");
    acc_2d = std::move(tree_2d).value();
    auto tree_3d = decode_tree_blob<Label>(restore_->tree_3d_wire,
                                           app_->frames(), ctx);
    check(tree_3d.is_ok(), "restore: checkpoint 3D tree blob failed to decode");
    acc_3d = std::move(tree_3d).value();
  }
  result.stream_samples.reserve(rounds - start);
  for (std::uint32_t s = start; s < rounds; ++s) {
    // --- gather round: one cursor of samples per reachable daemon ---------
    const SimTime gather_start = sim_.now();
    SimTime gather_end = gather_start;
    std::vector<StreamSnapshot<Label>> snapshots(num_daemons);
    const std::vector<bool>& unreachable = streaming.dead_daemons();
    for (std::uint32_t d = 0; d < num_daemons; ++d) {
      if (unreachable[d]) continue;
      walker_->sample_daemon_from(
          DaemonId(d), s, 1, trace_sink(snapshots[d], d),
          [&phases, &gather_end](const stackwalker::SampleReport& report) {
            phases.daemon_sample_seconds.add(to_seconds(report.total()));
            phases.sample_symbol_io_max =
                std::max(phases.sample_symbol_io_max, report.symbol_io_time);
            gather_end = std::max(gather_end, report.finished_at);
          });
    }
    sim_.run();
    if (s == start) {
      const auto first_alive = static_cast<std::size_t>(
          std::find(unreachable.begin(), unreachable.end(), false) -
          unreachable.begin());
      check(first_alive < num_daemons, "stream phase with every daemon dead");
      phases.leaf_payload_bytes =
          snapshot_wire_bytes(snapshots[first_alive], frames, ctx);
    }

    // --- merge round ------------------------------------------------------
    const SimTime merge_start = sim_.now();
    std::optional<tbon::StreamRoundResult<StreamSnapshot<Label>>> merged;
    drill.begin_round(gather_start, /*last_round=*/s + 1 == rounds);
    streaming.run_round(
        s, std::move(snapshots),
        [&](tbon::StreamRoundResult<StreamSnapshot<Label>> r) {
          drill.end_round(r.finished_at);
          merged = std::move(r);
        });
    sim_.run();
    if (!merged.has_value()) {
      phases.merge_status = unavailable(
          "stream stalled: a tool process died mid-stream and round " +
          std::to_string(s) + " could never complete");
      phases.stream_links = link_stats_since(*net_, links_before);
      return;
    }

    StreamSampleStats stats;
    stats.sample = s;
    stats.sample_time = gather_end - gather_start;
    stats.merge_time = merged->finished_at - merge_start;
    stats.merge_bytes = merged->bytes_moved;
    stats.merge_messages = merged->messages;
    stats.changed_daemons = merged->changed_daemons;
    stats.remerged_procs = merged->remerged_procs;
    stats.cached_procs = merged->cached_procs;
    stats.changed = merged->changed;
    result.stream_samples.push_back(stats);

    phases.sample_time += stats.sample_time;
    phases.merge_time += stats.merge_time;
    phases.merge_bytes += stats.merge_bytes;
    phases.merge_messages += stats.merge_messages;
    ++phases.stream_rounds;
    if (stats.changed) ++phases.stream_changed_rounds;

    // Fold the round's snapshot into the accumulated trees. The canonical
    // merge makes the fold order-independent, so the accumulated trees are
    // bit-identical to the classic batched 2D/3D trees.
    if (s == 0) {
      acc_2d = merged->payload.tree;
      acc_3d = std::move(merged->payload.tree);
    } else {
      acc_3d.merge(merged->payload.tree);
    }

    // --- round boundary: durability hooks ---------------------------------
    const std::uint32_t boundary = s + 1;
    const bool vacate_here =
        options_.vacate_at_round >= 0 &&
        boundary == static_cast<std::uint32_t>(options_.vacate_at_round);
    if (vacate_here ||
        (options_.checkpoint_period > 0 && boundary < rounds &&
         boundary % options_.checkpoint_period == 0)) {
      capture_session_checkpoint<Label>(sim_, machine_, job_, layout_,
                                        options_, frames, ctx, topology,
                                        streaming, acc_2d, acc_3d, task_map,
                                        boundary, result);
    }
    if (vacate_here) {
      // Simulated front-end loss: the session stops here, unfinalized (the
      // checkpoint just captured is what resumes it). Status stays OK — a
      // vacate is an operation, not a failure.
      result.vacated = true;
      phases.health_sweeps = drill.sweeps();
      phases.stream_links = link_stats_since(*net_, links_before);
      return;
    }

    if (s + 1 == rounds) break;
    if (options_.stream_interval_seconds > 0.0) {
      // Fixed cadence: the next round starts one interval after this round
      // started gathering, or immediately when the round overran it.
      const SimTime next_at =
          gather_start + seconds(options_.stream_interval_seconds);
      if (next_at > sim_.now()) {
        sim_.schedule_at(next_at, []() {});
        sim_.run();
      }
    }
  }
  phases.health_sweeps = drill.sweeps();
  phases.stream_links = link_stats_since(*net_, links_before);

  // Finalization: identical to the classic merge phase, except survivors
  // are judged after mid-stream losses (a daemon whose leaf died mid-stream
  // stopped contributing and is not remapped).
  finalize_trees<Label>(topology, streaming.dead_daemons(), std::move(acc_2d),
                        std::move(acc_3d), task_map, result);
}

}  // namespace petastat::stat
