// Generative models of the target application (Sec. III).
//
// STAT never executes target code; it samples stack traces. So the substrate
// for reproduction is a generator that yields ground-truth call paths per
// (task, thread, sample), structured to produce the paper's equivalence
// classes:
//
//  * RingHangApp — the paper's MPI ring test with an injected bug: every
//    task posts MPI_Irecv from its predecessor and MPI_Isend to its
//    successor, then MPI_Waitall and MPI_Barrier. Task 1 hangs *before* its
//    send; task 2 therefore blocks in MPI_Waitall on the missing message;
//    all other tasks reach MPI_Barrier and churn in the messager progress
//    engine at varying depths (the 577/275/264-task sub-classes visible in
//    Figure 1).
//  * ThreadedRingApp — Sec. VII: each task additionally runs worker threads
//    in a compute kernel; stacks are collected per thread and folded into
//    the process-level representation.
//  * StatBenchApp — a synthetic class generator in the spirit of the
//    authors' STATBench emulator: configurable task count, distinct-class
//    count, and path depth, for scalability studies without an application.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/callpath.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace petastat::app {

/// How ground-truth traces evolve across the sample index.
enum class TraceEvolution : std::uint8_t {
  /// Historical default: fresh per-sample noise in every task's
  /// progress-engine depth, so nearly every task's trace wiggles on every
  /// sample. Right for one-shot class snapshots; worst case for streaming.
  kJitter = 0,
  /// Streaming drift mode: the noise draws are frozen per task and traces
  /// change only through sparse scripted temporal events — hang onset,
  /// straggler drift, the OOM-cascade front — so per-sample deltas are
  /// proportional to what actually happened, not to the job size.
  kDrift,
};

/// One on-disk binary image the dynamic loader maps.
struct BinaryImage {
  std::string path;
  std::uint64_t bytes = 0;
};

/// The set of images a tool daemon must parse to symbolize stacks.
struct AppBinarySpec {
  std::vector<BinaryImage> images;
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& image : images) sum += image.bytes;
    return sum;
  }
};

/// Abstract target application.
class AppModel {
 public:
  virtual ~AppModel() = default;

  [[nodiscard]] virtual std::uint32_t num_tasks() const = 0;
  [[nodiscard]] virtual std::uint32_t threads_per_task() const { return 1; }

  /// Writes the ground-truth stack of (task, thread) at sample `sample`
  /// into `out`, replacing its contents (a reused buffer keeps its
  /// capacity). Deterministic in (task, thread, sample) given the model
  /// seed.
  virtual void stack_into(TaskId task, std::uint32_t thread,
                          std::uint32_t sample, CallPath& out) const = 0;

  /// Value form of stack_into.
  [[nodiscard]] CallPath stack(TaskId task, std::uint32_t thread,
                               std::uint32_t sample) const {
    CallPath path;
    stack_into(task, thread, sample, path);
    return path;
  }

  [[nodiscard]] virtual const AppBinarySpec& binaries() const = 0;

  /// The intern table that this model's paths reference. Mutable through a
  /// const model: generating a stack may intern frames lazily.
  [[nodiscard]] virtual FrameTable& frames() const { return frames_; }

 protected:
  mutable FrameTable frames_;
};

struct RingHangOptions {
  std::uint32_t num_tasks = 1024;
  /// "_start_blrts" on BG/L, "_start" elsewhere.
  bool bgl_frames = true;
  std::uint64_t seed = 2008;
  TraceEvolution evolution = TraceEvolution::kJitter;
  /// First sample at which tasks 1 and 2 show the hang signature; before it
  /// they sit in the barrier with everyone else. 0 = hung from the start
  /// (the historical behaviour).
  std::uint32_t hang_onset_sample = 0;
  AppBinarySpec binaries;
};

class RingHangApp : public AppModel {
 public:
  explicit RingHangApp(RingHangOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return options_.num_tasks;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return options_.binaries;
  }

 private:
  RingHangOptions options_;
  // Pre-interned frame ids for the fixed parts of every class.
  FrameId f_start_, f_main_;
  FrameId f_barrier_, f_gi_barrier_, f_bglmp_gibarrier_;
  FrameId f_send_or_stall_, f_gettimeofday_;
  FrameId f_waitall_, f_progress_wait_;
  FrameId f_pollfcn_, f_advance_, f_cmadvance_;
};

struct ThreadedRingOptions {
  RingHangOptions ring;
  std::uint32_t threads_per_task = 4;  // thread 0 is the MPI thread
};

class ThreadedRingApp : public AppModel {
 public:
  explicit ThreadedRingApp(ThreadedRingOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return ring_.num_tasks();
  }
  [[nodiscard]] std::uint32_t threads_per_task() const override {
    return options_.threads_per_task;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return ring_.binaries();
  }
  [[nodiscard]] FrameTable& frames() const override { return ring_.frames(); }

 private:
  ThreadedRingOptions options_;
  RingHangApp ring_;
  // Pre-interned worker-thread frames (stack_into() stays read-only).
  FrameId f_clone_, f_start_thread_, f_gomp_start_, f_kernel_;
  FrameId f_stencil_, f_reduce_, f_memcpy_;
};

struct IoStallOptions {
  std::uint32_t num_tasks = 1024;
  /// "_start_blrts" on BG/L, "_start" elsewhere.
  bool bgl_frames = true;
  /// Every `aggregator_stride`-th rank is an I/O aggregator.
  std::uint32_t aggregator_stride = 64;
  std::uint64_t seed = 2008;
  /// kDrift freezes the barrier-depth noise: the stall is persistent, so a
  /// streaming run sees an entirely static trace set.
  TraceEvolution evolution = TraceEvolution::kJitter;
  AppBinarySpec binaries;
};

/// I/O-stall hang (the classic checkpoint pathology): the job's I/O
/// aggregators (every Nth rank) are wedged inside a collective checkpoint
/// write — some blocked on the file-system client, some spinning on the
/// write lock — while every other rank sits in the barrier that follows the
/// checkpoint, churning the progress engine at task-dependent depth.
class IoStallApp : public AppModel {
 public:
  explicit IoStallApp(IoStallOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return options_.num_tasks;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return options_.binaries;
  }

  [[nodiscard]] bool is_aggregator(TaskId task) const {
    return task.value() % options_.aggregator_stride == 0;
  }

 private:
  IoStallOptions options_;
  // Pre-interned frames (stack_into() stays read-only for parallel samplers).
  FrameId f_start_, f_main_, f_checkpoint_;
  FrameId f_write_all_, f_fwrite_, f_write_nocancel_, f_nfs_wait_;
  FrameId f_lock_spin_, f_sched_yield_;
  FrameId f_barrier_, f_progress_wait_, f_pollfcn_, f_advance_;
};

struct ImbalanceOptions {
  std::uint32_t num_tasks = 1024;
  /// "_start_blrts" on BG/L, "_start" elsewhere.
  bool bgl_frames = true;
  /// Every `straggler_stride`-th rank is a straggler.
  std::uint32_t straggler_stride = 32;
  /// Straggler recursion depth range (per task, stable across samples).
  std::uint32_t min_recursion = 6;
  std::uint32_t max_recursion = 22;
  std::uint64_t seed = 2008;
  /// kDrift freezes the noise and instead *drifts* the stragglers: each
  /// sample, the stragglers of one phase band push one refine_cell level
  /// deeper. With drift_block set to the daemon width, exactly one
  /// contiguous 1/drift_period slice of the daemons changes per sample —
  /// the streaming bench's low-drift workload.
  TraceEvolution evolution = TraceEvolution::kJitter;
  /// Samples between two drift steps of the same straggler.
  std::uint32_t drift_period = 8;
  /// Tasks per drift phase block (bands are contiguous in task order). The
  /// scenario sets this to tasks-per-daemon so drift changes whole daemons.
  std::uint32_t drift_block = 32;
  AppBinarySpec binaries;
};

/// Load-imbalance hang (the adaptive-refinement pathology): a sparse set of
/// stragglers is still grinding through oversized subdomains — deep in a
/// recursive refine_cell chain whose depth is a stable per-task signature —
/// while every other rank sits in the phase barrier churning the progress
/// engine. Looks like a hang to the operator; STAT's classes separate the
/// "idle in barrier" majority from the handful of distinct-depth stragglers.
class ImbalanceApp : public AppModel {
 public:
  explicit ImbalanceApp(ImbalanceOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return options_.num_tasks;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return options_.binaries;
  }

  [[nodiscard]] bool is_straggler(TaskId task) const {
    return task.value() % options_.straggler_stride == 0;
  }
  /// Drift phase band of a task (kDrift): contiguous blocks of drift_block
  /// tasks share a phase, bands spread evenly over [0, drift_period).
  [[nodiscard]] std::uint32_t drift_phase(TaskId task) const;
  /// True when `task`'s trace at `sample` differs from `sample - 1` under
  /// kDrift — the exact per-sample delta rule, exposed so the streaming
  /// bench can hand plan::predict_stream_sample the true changed set.
  [[nodiscard]] bool drifts_at(TaskId task, std::uint32_t sample) const;

 private:
  ImbalanceOptions options_;
  // Pre-interned frames (stack_into() stays read-only for parallel samplers).
  FrameId f_start_, f_main_, f_solve_, f_refine_, f_kernel_, f_flux_;
  FrameId f_barrier_, f_progress_wait_, f_pollfcn_, f_advance_;
};

struct OomCascadeOptions {
  std::uint32_t num_tasks = 1024;
  /// "_start_blrts" on BG/L, "_start" elsewhere.
  bool bgl_frames = true;
  /// Rank whose allocation spiral kills its node. Defaults (when invalid)
  /// to the middle rank.
  TaskId victim_task = TaskId::invalid();
  /// Sample index at which the victim's node dies.
  std::uint32_t kill_sample = 4;
  /// Ranks within this distance of the victim inherit its traffic.
  std::uint32_t neighbour_radius = 8;
  std::uint64_t seed = 2008;
  /// kDrift freezes the barrier/leaf noise, leaving the cascade itself —
  /// the deepening spiral and the advancing onset front — as the only
  /// per-sample change.
  TraceEvolution evolution = TraceEvolution::kJitter;
  AppBinarySpec binaries;
};

/// OOM-cascade hang (the paper's mid-run node-death pathology): one task's
/// allocation spiral — a malloc/morecore chain deepening sample by sample —
/// kills its node at kill_sample. The dead rank's communication partners
/// inherit its traffic: nearest neighbours first, then outward, each flipping
/// from normal compute into a peer-loss/retransmit signature at a
/// distance-dependent onset sample, so the class structure *cascades over
/// time* (the 3D tree's time dimension). Everyone else idles in the phase
/// barrier. The scenario kills the victim's daemon mid-run, making this the
/// end-to-end driver for the failure-recovery subsystem.
class OomCascadeApp : public AppModel {
 public:
  explicit OomCascadeApp(OomCascadeOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return options_.num_tasks;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return options_.binaries;
  }

  [[nodiscard]] TaskId victim_task() const { return options_.victim_task; }
  [[nodiscard]] std::uint32_t kill_sample() const {
    return options_.kill_sample;
  }
  [[nodiscard]] bool is_neighbour(TaskId task) const {
    return task != options_.victim_task &&
           distance_to_victim(task) <= options_.neighbour_radius;
  }
  /// First sample at which a neighbour shows the inherited-traffic
  /// signature: the cascade spreads outward about two ranks per sample.
  [[nodiscard]] std::uint32_t cascade_onset(TaskId task) const {
    return options_.kill_sample + (distance_to_victim(task) + 1) / 2;
  }

 private:
  [[nodiscard]] std::uint32_t distance_to_victim(TaskId task) const {
    const std::uint32_t t = task.value();
    const std::uint32_t v = options_.victim_task.value();
    return t > v ? t - v : v - t;
  }

  OomCascadeOptions options_;
  // Pre-interned frames (stack_into() stays read-only for parallel samplers).
  FrameId f_start_, f_main_;
  FrameId f_fill_, f_malloc_, f_morecore_, f_sbrk_;
  FrameId f_exchange_, f_peer_wait_, f_retransmit_;
  FrameId f_barrier_, f_progress_wait_, f_pollfcn_, f_advance_;
};

struct StatBenchOptions {
  std::uint32_t num_tasks = 4096;
  std::uint32_t num_classes = 32;   // distinct behaviour classes
  std::uint32_t max_depth = 12;
  std::uint32_t branch_factor = 3;  // distinct callees per frame
  std::uint64_t seed = 7;
  /// kDrift freezes the class-wander draws: tasks stay in their class.
  TraceEvolution evolution = TraceEvolution::kJitter;
  AppBinarySpec binaries;
};

/// Synthetic trace generator (after STATBench [9]): builds `num_classes`
/// random call paths over a deterministic synthetic call graph and assigns
/// tasks to classes with a skewed distribution (a few big classes, many
/// small — the shape real hangs produce).
class StatBenchApp : public AppModel {
 public:
  explicit StatBenchApp(StatBenchOptions options);

  [[nodiscard]] std::uint32_t num_tasks() const override {
    return options_.num_tasks;
  }
  void stack_into(TaskId task, std::uint32_t thread, std::uint32_t sample,
                  CallPath& out) const override;
  [[nodiscard]] const AppBinarySpec& binaries() const override {
    return options_.binaries;
  }

  [[nodiscard]] std::uint32_t class_of(TaskId task) const;

 private:
  StatBenchOptions options_;
  std::vector<CallPath> class_paths_;
};

/// Binary layout of the ring app as a dynamically linked executable.
/// `base_dir` is where the user staged it (e.g. "/nfs/home/user").
/// `slim` models the post-OS-update layout of Fig. 10 where "several
/// dependent shared libraries" moved off the shared FS: only the executable
/// (10 KB) and the MPI library (4 MB) remain on `base_dir`; the rest live
/// under /usr/lib (node-local).
[[nodiscard]] AppBinarySpec ring_binaries_dynamic(const std::string& base_dir,
                                                  bool slim);

/// Single statically linked image (BG/L): one ~8 MB file on `base_dir`.
[[nodiscard]] AppBinarySpec ring_binaries_static(const std::string& base_dir);

}  // namespace petastat::app
