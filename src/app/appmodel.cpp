#include "app/appmodel.hpp"

#include <algorithm>

namespace petastat::app {

namespace {

/// Deterministic per-(task, sample) noise stream.
Rng trace_rng(std::uint64_t seed, std::uint32_t task, std::uint32_t thread,
              std::uint32_t sample) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (task + 1)) ^
                (0xc2b2ae3d27d4eb4fULL * (thread + 1)) ^
                (0x165667b19e3779f9ULL * (sample + 1)));
  return Rng(sm.next());
}

/// kDrift pins the noise stream to sample 0: only scripted events move.
std::uint32_t noise_sample(TraceEvolution evolution, std::uint32_t sample) {
  return evolution == TraceEvolution::kJitter ? sample : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// RingHangApp

RingHangApp::RingHangApp(RingHangOptions options) : options_(std::move(options)) {
  check(options_.num_tasks >= 3, "RingHangApp needs at least 3 tasks");
  f_start_ = frames_.intern(options_.bgl_frames ? "_start_blrts" : "_start");
  f_main_ = frames_.intern("main");
  f_barrier_ = frames_.intern("PMPI_Barrier");
  f_gi_barrier_ = frames_.intern("MPIDI_BGLGI_Barrier");
  f_bglmp_gibarrier_ = frames_.intern("BGLMP_GIBarrier");
  f_send_or_stall_ = frames_.intern("do_SendOrStall");
  f_gettimeofday_ = frames_.intern("__gettimeofday");
  f_waitall_ = frames_.intern("PMPI_Waitall");
  f_progress_wait_ = frames_.intern("MPID_Progress_wait");
  f_pollfcn_ = frames_.intern("BGLML_pollfcn");
  f_advance_ = frames_.intern("BGLML_Messager_advance");
  f_cmadvance_ = frames_.intern("BGLML_Messager_CMadvance");
}

void RingHangApp::stack_into(TaskId task, std::uint32_t thread,
                             std::uint32_t sample, CallPath& out) const {
  check(task.value() < options_.num_tasks, "RingHangApp::stack task out of range");
  Rng rng = trace_rng(options_.seed, task.value(), thread,
                      noise_sample(options_.evolution, sample));

  // Before the hang onset, tasks 1 and 2 are still healthy and sit in the
  // barrier with everyone else (onset 0 = hung from the start).
  const bool hung = sample >= options_.hang_onset_sample;
  out.assign({f_start_, f_main_});
  if (task.value() == 1 && hung) {
    // The injected bug: task 1 stalls before its send, polling the clock.
    out.push_back(f_send_or_stall_);
    out.push_back(f_gettimeofday_);
    return;
  }
  if (task.value() == 2 && hung) {
    // Task 2 never receives from task 1: stuck in MPI_Waitall driving the
    // progress engine.
    out.push_back(f_waitall_);
    out.push_back(f_progress_wait_);
    out.push_back(f_pollfcn_);
    const std::uint32_t spins = static_cast<std::uint32_t>(rng.next_below(3));
    for (std::uint32_t i = 0; i < spins; ++i) {
      out.push_back(f_advance_);
      out.push_back(f_cmadvance_);
    }
    return;
  }
  // Everyone else made it to the barrier and churns in the messager advance
  // loop at a sample-dependent depth; the depth spread produces the nested
  // sub-classes of Figure 1 (e.g. 577/275/264 of the 1022 barrier tasks).
  out.push_back(f_barrier_);
  out.push_back(f_gi_barrier_);
  out.push_back(f_bglmp_gibarrier_);
  out.push_back(f_pollfcn_);
  // Depth distribution: ~44% stop at pollfcn+advance, then tail off.
  const double u = rng.next_double();
  std::uint32_t depth = 0;
  if (u < 0.56) depth = 1;
  if (u < 0.27) depth = 2;
  if (u < 0.10) depth = 3;
  out.push_back(f_advance_);
  for (std::uint32_t i = 0; i < depth; ++i) {
    out.push_back(f_cmadvance_);
    if (i + 1 < depth) out.push_back(f_advance_);
  }
}

// ---------------------------------------------------------------------------
// ThreadedRingApp

ThreadedRingApp::ThreadedRingApp(ThreadedRingOptions options)
    : options_(options), ring_(options.ring) {
  check(options_.threads_per_task >= 1, "threads_per_task must be >= 1");
  // Pre-intern every worker-thread frame: stack_into() must be read-only on
  // the frame table so parallel samplers can synthesize traces concurrently.
  FrameTable& table = frames();
  f_clone_ = table.intern("clone");
  f_start_thread_ = table.intern("start_thread");
  f_gomp_start_ = table.intern("gomp_thread_start");
  f_kernel_ = table.intern("compute_kernel");
  f_stencil_ = table.intern("stencil_sweep");
  f_reduce_ = table.intern("reduce_partial");
  f_memcpy_ = table.intern("__memcpy");
}

void ThreadedRingApp::stack_into(TaskId task, std::uint32_t thread,
                                 std::uint32_t sample, CallPath& out) const {
  if (thread == 0) {
    ring_.stack_into(task, 0, sample, out);
    return;
  }
  // Worker threads: OpenMP-style compute kernel with two hot inner loops.
  Rng rng = trace_rng(options_.ring.seed * 31, task.value(), thread,
                      noise_sample(options_.ring.evolution, sample));
  out.assign({f_clone_, f_start_thread_, f_gomp_start_, f_kernel_});
  if (rng.bernoulli(0.6)) {
    out.push_back(f_stencil_);
  } else {
    out.push_back(f_reduce_);
    if (rng.bernoulli(0.5)) out.push_back(f_memcpy_);
  }
}

// ---------------------------------------------------------------------------
// IoStallApp

IoStallApp::IoStallApp(IoStallOptions options) : options_(std::move(options)) {
  check(options_.num_tasks >= 2, "IoStallApp needs at least 2 tasks");
  check(options_.aggregator_stride >= 1, "aggregator_stride must be >= 1");
  f_start_ = frames_.intern(options_.bgl_frames ? "_start_blrts" : "_start");
  f_main_ = frames_.intern("main");
  f_checkpoint_ = frames_.intern("checkpoint_write");
  f_write_all_ = frames_.intern("MPIO_Write_all");
  f_fwrite_ = frames_.intern("_IO_fwrite");
  f_write_nocancel_ = frames_.intern("__write_nocancel");
  f_nfs_wait_ = frames_.intern("nfs_wait_on_request");
  f_lock_spin_ = frames_.intern("adioi_lock_spin");
  f_sched_yield_ = frames_.intern("__sched_yield");
  f_barrier_ = frames_.intern("PMPI_Barrier");
  f_progress_wait_ = frames_.intern("MPID_Progress_wait");
  f_pollfcn_ = frames_.intern("BGLML_pollfcn");
  f_advance_ = frames_.intern("BGLML_Messager_advance");
}

void IoStallApp::stack_into(TaskId task, std::uint32_t thread,
                            std::uint32_t sample, CallPath& out) const {
  check(task.value() < options_.num_tasks, "IoStallApp::stack task out of range");
  Rng rng = trace_rng(options_.seed, task.value(), thread,
                      noise_sample(options_.evolution, sample));

  out.assign({f_start_, f_main_});
  if (is_aggregator(task)) {
    // Wedged in the collective checkpoint write. Most aggregators are deep
    // in the FS client waiting on the unresponsive server; a stable subset
    // (per task, not per sample — the hang is persistent) spins on the
    // shared-file write lock instead.
    out.push_back(f_checkpoint_);
    out.push_back(f_write_all_);
    Rng task_rng(options_.seed, /*stream_id=*/task.value());
    if (task_rng.bernoulli(0.25)) {
      out.push_back(f_lock_spin_);
      out.push_back(f_sched_yield_);
    } else {
      out.push_back(f_fwrite_);
      out.push_back(f_write_nocancel_);
      out.push_back(f_nfs_wait_);
    }
    return;
  }
  // Everyone else reached the post-checkpoint barrier and churns the
  // progress engine at a sample-varying depth (the time dimension).
  out.push_back(f_barrier_);
  out.push_back(f_progress_wait_);
  out.push_back(f_pollfcn_);
  const std::uint32_t spins = static_cast<std::uint32_t>(rng.next_below(2));
  for (std::uint32_t i = 0; i < spins; ++i) out.push_back(f_advance_);
}

// ---------------------------------------------------------------------------
// ImbalanceApp

ImbalanceApp::ImbalanceApp(ImbalanceOptions options)
    : options_(std::move(options)) {
  check(options_.num_tasks >= 2, "ImbalanceApp needs at least 2 tasks");
  check(options_.straggler_stride >= 1, "straggler_stride must be >= 1");
  check(options_.min_recursion >= 1 &&
            options_.min_recursion <= options_.max_recursion,
        "ImbalanceApp recursion range is empty");
  check(options_.drift_period >= 1 && options_.drift_block >= 1,
        "ImbalanceApp drift_period and drift_block must be >= 1");
  f_start_ = frames_.intern(options_.bgl_frames ? "_start_blrts" : "_start");
  f_main_ = frames_.intern("main");
  f_solve_ = frames_.intern("solve_domain");
  f_refine_ = frames_.intern("refine_cell");
  f_kernel_ = frames_.intern("relax_kernel");
  f_flux_ = frames_.intern("compute_flux");
  f_barrier_ = frames_.intern("PMPI_Barrier");
  f_progress_wait_ = frames_.intern("MPID_Progress_wait");
  f_pollfcn_ = frames_.intern("BGLML_pollfcn");
  f_advance_ = frames_.intern("BGLML_Messager_advance");
}

std::uint32_t ImbalanceApp::drift_phase(TaskId task) const {
  const std::uint32_t block = task.value() / options_.drift_block;
  const std::uint32_t blocks =
      (options_.num_tasks + options_.drift_block - 1) / options_.drift_block;
  // Contiguous bands: blocks [0, blocks/period) get phase 0, the next band
  // phase 1, ... so one band of *adjacent daemons* drifts per sample.
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(block) * options_.drift_period) / blocks);
}

bool ImbalanceApp::drifts_at(TaskId task, std::uint32_t sample) const {
  if (options_.evolution != TraceEvolution::kDrift) return false;
  if (!is_straggler(task) || sample == 0) return false;
  return (sample + drift_phase(task)) % options_.drift_period == 0;
}

void ImbalanceApp::stack_into(TaskId task, std::uint32_t thread,
                              std::uint32_t sample, CallPath& out) const {
  check(task.value() < options_.num_tasks, "ImbalanceApp::stack out of range");
  Rng rng = trace_rng(options_.seed, task.value(), thread,
                      noise_sample(options_.evolution, sample));

  out.assign({f_start_, f_main_});
  if (is_straggler(task)) {
    // Still refining an oversized subdomain: a recursive refine_cell chain
    // whose depth is a stable per-task signature of how much work that rank
    // was dealt (the hang diagnosis the classes must surface).
    out.push_back(f_solve_);
    Rng task_rng(options_.seed, /*stream_id=*/task.value());
    std::uint32_t depth =
        options_.min_recursion +
        static_cast<std::uint32_t>(task_rng.next_below(
            options_.max_recursion - options_.min_recursion + 1));
    if (options_.evolution == TraceEvolution::kDrift) {
      // The straggler grinds deeper over time: one refine_cell level per
      // drift_period samples, phase-staggered across bands. Count of
      // s' in [1, sample] with (s' + phase) % period == 0.
      depth += (sample + drift_phase(task)) / options_.drift_period;
    }
    for (std::uint32_t i = 0; i < depth; ++i) out.push_back(f_refine_);
    // The straggler is actively computing, so the leaf varies sample to
    // sample (the 3D tree's time dimension).
    out.push_back(rng.bernoulli(0.7) ? f_kernel_ : f_flux_);
    return;
  }
  // Everyone else finished its subdomain and is idle in the phase barrier,
  // churning the progress engine at a sample-varying depth.
  out.push_back(f_barrier_);
  out.push_back(f_progress_wait_);
  out.push_back(f_pollfcn_);
  const std::uint32_t spins = static_cast<std::uint32_t>(rng.next_below(2));
  for (std::uint32_t i = 0; i < spins; ++i) out.push_back(f_advance_);
}

// ---------------------------------------------------------------------------
// OomCascadeApp

OomCascadeApp::OomCascadeApp(OomCascadeOptions options)
    : options_(std::move(options)) {
  check(options_.num_tasks >= 2, "OomCascadeApp needs at least 2 tasks");
  check(options_.neighbour_radius >= 1, "neighbour_radius must be >= 1");
  if (!options_.victim_task.valid()) {
    options_.victim_task = TaskId(options_.num_tasks / 2);
  }
  check(options_.victim_task.value() < options_.num_tasks,
        "OomCascadeApp victim_task out of range");
  f_start_ = frames_.intern(options_.bgl_frames ? "_start_blrts" : "_start");
  f_main_ = frames_.intern("main");
  f_fill_ = frames_.intern("fill_halo_buffers");
  f_malloc_ = frames_.intern("malloc");
  f_morecore_ = frames_.intern("sYSMALLOc");
  f_sbrk_ = frames_.intern("sbrk");
  f_exchange_ = frames_.intern("exchange_halo");
  f_peer_wait_ = frames_.intern("MPID_Recv_peer_wait");
  f_retransmit_ = frames_.intern("BGLML_retransmit");
  f_barrier_ = frames_.intern("PMPI_Barrier");
  f_progress_wait_ = frames_.intern("MPID_Progress_wait");
  f_pollfcn_ = frames_.intern("BGLML_pollfcn");
  f_advance_ = frames_.intern("BGLML_Messager_advance");
}

void OomCascadeApp::stack_into(TaskId task, std::uint32_t thread,
                               std::uint32_t sample, CallPath& out) const {
  check(task.value() < options_.num_tasks, "OomCascadeApp::stack out of range");
  Rng rng = trace_rng(options_.seed, task.value(), thread,
                      noise_sample(options_.evolution, sample));

  out.assign({f_start_, f_main_});
  if (task == options_.victim_task) {
    // The allocation spiral: one morecore level deeper per sample until the
    // node dies. (The daemon is dead past kill_sample; if a planner probe
    // still asks, it sees the terminal spiral.)
    out.push_back(f_fill_);
    out.push_back(f_malloc_);
    const std::uint32_t depth =
        1 + std::min(sample, options_.kill_sample);
    for (std::uint32_t i = 0; i < depth; ++i) out.push_back(f_morecore_);
    out.push_back(f_sbrk_);
    return;
  }
  if (is_neighbour(task) && sample >= cascade_onset(task)) {
    // Inherited traffic: the victim's messages re-route here once the
    // cascade front reaches this rank; the retransmit depth is a stable
    // per-rank signature, the leaf varies sample to sample.
    out.push_back(f_exchange_);
    out.push_back(f_peer_wait_);
    const std::uint32_t depth = 1 + distance_to_victim(task) % 3;
    for (std::uint32_t i = 0; i < depth; ++i) out.push_back(f_retransmit_);
    out.push_back(rng.bernoulli(0.5) ? f_pollfcn_ : f_advance_);
    return;
  }
  // Everyone else (and not-yet-reached neighbours) idles in the phase
  // barrier, churning the progress engine at a sample-varying depth.
  out.push_back(f_barrier_);
  out.push_back(f_progress_wait_);
  out.push_back(f_pollfcn_);
  const std::uint32_t spins = static_cast<std::uint32_t>(rng.next_below(2));
  for (std::uint32_t i = 0; i < spins; ++i) out.push_back(f_advance_);
}

// ---------------------------------------------------------------------------
// StatBenchApp

StatBenchApp::StatBenchApp(StatBenchOptions options) : options_(options) {
  check(options_.num_classes >= 1, "StatBenchApp needs at least 1 class");
  check(options_.max_depth >= 2, "StatBenchApp max_depth must be >= 2");
  Rng rng(options_.seed, /*stream_id=*/0xbe);
  class_paths_.reserve(options_.num_classes);
  const FrameId start = frames_.intern("_start");
  const FrameId fmain = frames_.intern("main");
  for (std::uint32_t c = 0; c < options_.num_classes; ++c) {
    CallPath path{start, fmain};
    const std::uint32_t depth = 2 + static_cast<std::uint32_t>(rng.next_below(
                                        options_.max_depth - 1));
    std::uint32_t lineage = 0;
    for (std::uint32_t d = 0; d < depth; ++d) {
      // Shared prefixes: early frames are drawn from a small pool so classes
      // overlap near the root (like real programs), diverging deeper down.
      const std::uint32_t pool =
          d < 2 ? 2 : options_.branch_factor + d;
      lineage = lineage * 131 + static_cast<std::uint32_t>(rng.next_below(pool));
      path.push_back(frames_.intern("f_" + std::to_string(d) + "_" +
                                    std::to_string(lineage % pool)));
    }
    class_paths_.push_back(std::move(path));
  }
}

std::uint32_t StatBenchApp::class_of(TaskId task) const {
  // Zipf-ish skew: class k gets a share proportional to 1/(k+1).
  double total = 0;
  for (std::uint32_t k = 0; k < options_.num_classes; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
  }
  const double point =
      (static_cast<double>(task.value()) + 0.5) /
      static_cast<double>(options_.num_tasks) * total;
  double acc = 0;
  for (std::uint32_t k = 0; k < options_.num_classes; ++k) {
    acc += 1.0 / static_cast<double>(k + 1);
    if (point <= acc) return k;
  }
  return options_.num_classes - 1;
}

void StatBenchApp::stack_into(TaskId task, std::uint32_t /*thread*/,
                              std::uint32_t sample, CallPath& out) const {
  check(task.value() < options_.num_tasks, "StatBenchApp::stack out of range");
  // Tasks mostly stay in their class; a small sample-dependent fraction
  // wander (time dimension of the 3D tree).
  Rng rng = trace_rng(options_.seed, task.value(), 0,
                      noise_sample(options_.evolution, sample));
  std::uint32_t cls = class_of(task);
  if (rng.bernoulli(0.05)) {
    cls = static_cast<std::uint32_t>(rng.next_below(options_.num_classes));
  }
  out = class_paths_[cls];
}

// ---------------------------------------------------------------------------
// Binary layouts

AppBinarySpec ring_binaries_dynamic(const std::string& base_dir, bool slim) {
  AppBinarySpec spec;
  spec.images.push_back({base_dir + "/mpi_ringtopo", 10 * 1024});      // 10 KB
  spec.images.push_back({base_dir + "/lib/libmpi.so.0", 4 * 1024 * 1024});
  if (!slim) {
    // Pre-update layout: the whole dependency closure lives on the shared FS.
    spec.images.push_back({base_dir + "/lib/libc-2.5.so", 1700 * 1024});
    spec.images.push_back({base_dir + "/lib/libstdc++.so.6", 1000 * 1024});
    spec.images.push_back({base_dir + "/lib/libm-2.5.so", 600 * 1024});
    spec.images.push_back({base_dir + "/lib/libibverbs.so.1", 120 * 1024});
    spec.images.push_back({base_dir + "/lib/libpthread-2.5.so", 130 * 1024});
    spec.images.push_back({base_dir + "/lib/librt-2.5.so", 40 * 1024});
    spec.images.push_back({base_dir + "/lib/libelan.so.1", 8 * 1024 * 1024});
    spec.images.push_back({base_dir + "/lib/libibumad.so.2", 2 * 1024 * 1024});
  } else {
    // Post-update: dependent libraries resolved from node-local /usr/lib.
    spec.images.push_back({"/usr/lib/libc-2.5.so", 1700 * 1024});
    spec.images.push_back({"/usr/lib/libstdc++.so.6", 1000 * 1024});
    spec.images.push_back({"/usr/lib/libm-2.5.so", 600 * 1024});
    spec.images.push_back({"/usr/lib/libpthread-2.5.so", 130 * 1024});
  }
  return spec;
}

AppBinarySpec ring_binaries_static(const std::string& base_dir) {
  AppBinarySpec spec;
  spec.images.push_back({base_dir + "/mpi_ringtopo_static", 8 * 1024 * 1024});
  return spec;
}

}  // namespace petastat::app
