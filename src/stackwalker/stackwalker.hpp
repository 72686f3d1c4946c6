// StackWalker-API-equivalent sampling service (Sec. VI).
//
// A tool daemon gathers third-party stack traces from its co-located (Atlas)
// or associated (BG/L) processes. The walk itself is lightweight, but the
// first walk must parse symbol tables from the binary images — file I/O on a
// *shared* file system, which is where "ostensibly-independent" sampling
// stops scaling. On Atlas the daemon additionally contends for CPU with
// spin-waiting MPI ranks on the fully packed node.
//
// Sampling one daemon:
//   1. Symbol acquisition (once): read every binary image through
//      fs::FileAccess (honoring SBRS redirects + page cache), then parse
//      (CPU, proportional to image megabytes).
//   2. num_samples rounds of walking every local task's threads; each walk
//      charges per-process attach plus per-frame cost, scaled by the CPU
//      contention factor where the daemon shares the node.
//   3. The pass's traces go to a TraceSink as one batch; the caller (the
//      STAT daemon) folds them into its local prefix trees. The daemon's
//      local merge CPU is part of the per-trace walk cost.
#pragma once

#include <functional>
#include <unordered_set>

#include "app/appmodel.hpp"
#include "app/trace_batch.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fs/filesystem.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"

namespace petastat::stackwalker {

/// Receives one daemon pass's ground-truth traces, once per pass, on the
/// job that synthesized them. Each trace carries its global MPI rank (via
/// the task resolver), its daemon-local slot (which the hierarchical
/// representation labels with) and its sample, in walk order: sample-major,
/// then local index, then thread. The batch lives only for the call.
using TraceSink = std::function<void(const app::TraceBatch& batch)>;

/// Phase breakdown of one daemon's sampling pass.
struct SampleReport {
  DaemonId daemon;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  SimTime symbol_io_time = 0;     // shared-FS reads (the Sec. VI villain)
  SimTime symbol_parse_time = 0;  // CPU
  SimTime walk_time = 0;          // CPU (contention-scaled)
  std::uint32_t traces = 0;

  [[nodiscard]] SimTime total() const { return finished_at - started_at; }
};

using SampleCallback = std::function<void(const SampleReport&)>;

class StackWalker {
 public:
  StackWalker(sim::Simulator& simulator, const machine::MachineConfig& machine,
              const machine::SamplingCosts& costs, fs::FileAccess& files,
              const app::AppModel& app, machine::DaemonLayout layout,
              std::uint64_t seed);

  /// Samples `num_samples` rounds of traces for every task of `daemon`.
  /// `done` fires at the modelled completion time with the phase breakdown.
  ///
  /// The symbol-acquisition I/O, the contention draw, and every modelled
  /// duration are fixed on the simulator thread, in call order. The trace
  /// synthesis itself (the pass's batch of app stacks, then one `sink`
  /// call) is real work with no effect on virtual time: with a parallel
  /// executor installed it runs on a worker — one job per daemon, daemons
  /// being independent — and is waited for before the daemon's completion
  /// event consumes the traces. `sink` must therefore only touch per-daemon
  /// state, and the app model's frame table must be fully interned up front
  /// (models do this in their constructors) so concurrent stack_into() calls
  /// are read-only.
  void sample_daemon(DaemonId daemon, std::uint32_t num_samples,
                     const TraceSink& sink, SampleCallback done);

  /// Cursor form for streaming: samples `num_samples` rounds starting at
  /// sample index `first_sample` (the app model sees the absolute index, so
  /// time-varying workloads evolve across rounds). Symbol acquisition is
  /// amortized across calls — only the first round on each daemon pays the
  /// shared-FS walk; later cursors reuse the parsed tables.
  void sample_daemon_from(DaemonId daemon, std::uint32_t first_sample,
                          std::uint32_t num_samples, const TraceSink& sink,
                          SampleCallback done);

  /// Installs the execution engine. Null or serial: synthesis runs inline,
  /// the historical behaviour. The executor must outlive all sampling.
  void set_executor(sim::Executor* executor) { executor_ = executor; }

  /// Modelled CPU time to walk one path of `frames` frames (before
  /// contention scaling). Includes the daemon's local per-node merge cost.
  /// Exposed for tests and calibration.
  [[nodiscard]] SimTime walk_cost(std::size_t frames) const;

  /// Overrides the daemon-local-index -> global-rank mapping (the process
  /// table). Defaults to the layout's rank-ordered mapping; STAT installs
  /// the (possibly shuffled) TaskMap-backed resolver here so ground truth
  /// and remap agree.
  using TaskResolver = std::function<TaskId(DaemonId, std::uint32_t local)>;
  void set_task_resolver(TaskResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Drops per-daemon symbol caches (between scenario repetitions).
  void reset();

 private:
  struct DaemonKey {
    DaemonId daemon;
    std::string path;
    bool operator==(const DaemonKey&) const = default;
  };
  struct DaemonKeyHash {
    std::size_t operator()(const DaemonKey& k) const {
      return std::hash<DaemonId>{}(k.daemon) ^
             (std::hash<std::string>{}(k.path) * 131);
    }
  };

  sim::Simulator& sim_;
  machine::MachineConfig machine_;
  machine::SamplingCosts costs_;
  fs::FileAccess& files_;
  const app::AppModel& app_;
  machine::DaemonLayout layout_;
  Rng rng_;
  TaskResolver resolver_;
  sim::Executor* executor_ = nullptr;
  std::unordered_set<DaemonKey, DaemonKeyHash> parsed_;
};

}  // namespace petastat::stackwalker
