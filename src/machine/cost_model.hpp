// Calibrated model constants for tool-side CPU work and launch services.
//
// Every constant traces to an anchor in the paper (see DESIGN.md Sec. 6) or
// to a conservative order-of-magnitude estimate for 2008-era hardware. The
// *shapes* of all figures emerge from the structure of the models; these
// constants only pin the axes.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "machine/machine.hpp"

namespace petastat::machine {

/// Launch-path constants (Sec. IV).
struct LaunchCosts {
  /// Serial per-daemon cost of an rsh/ssh spawn from the front end: process
  /// fork + remote shell handshake + daemon exec. Fig. 2's MRNet line is
  /// ~0.25 s/daemon (128 daemons ~ 32 s).
  SimTime remote_shell_per_daemon = seconds(0.247);
  /// Log-space sigma of spawn-time noise.
  double remote_shell_sigma = 0.08;
  /// rsh connection table exhaustion: MRNet "consistently fails" to launch
  /// 512 daemons with rsh on Atlas.
  std::uint32_t rsh_failure_threshold = 512;

  /// LaunchMON: one RM request, then a tree broadcast inside the RM.
  SimTime rm_request_overhead = seconds(4.0);     // job-step setup
  SimTime rm_broadcast_per_level = seconds(0.32); // per fanout-32 tree level
  std::uint32_t rm_broadcast_fanout = 32;
  /// Local daemon initialization once the binary reaches the node.
  SimTime daemon_init = seconds(0.18);

  /// BG/L CIOD/system-software launch (Fig. 3). The unpatched code packs the
  /// process table with strcat, which rescans the buffer each append —
  /// quadratic in the process count — and hangs outright at 208K.
  SimTime ciod_base = seconds(70.0);
  SimTime ciod_per_proc = seconds(0.00115);           // patched, linear
  double ciod_strcat_ns_per_proc_sq = 30.0;           // unpatched extra, ~P^2
  std::uint32_t ciod_unpatched_hang_threshold = 208 * 1024;
  /// App launch under tool control (BG/L prototype requirement).
  SimTime app_launch_base = seconds(25.0);
  SimTime app_launch_per_proc = seconds(0.00021);

  /// MRNet network instantiation: each parent accepts and handshakes its
  /// children serially; children connect in parallel across parents.
  SimTime mrnet_connect_per_child = seconds(0.0015);
  SimTime mrnet_connect_base = seconds(0.35);

  /// Spawning another helper process on a host the burst has already
  /// handshaked: a local fork+exec behind the existing remote shell, an
  /// order of magnitude cheaper than a fresh per-host handshake
  /// (remote_shell_per_daemon). This is the spawn-locality half of the
  /// reducer-placement trade (see placed_spawn_time).
  SimTime colocated_spawn_per_proc = seconds(0.021);
};

/// Stack-sampling constants (Sec. VI).
struct SamplingCosts {
  /// Third-party stack walk of one frame via ptrace-equivalent reads.
  SimTime walk_per_frame = seconds(0.00035);
  /// Per-process attach/refresh overhead per sample.
  SimTime walk_per_process = seconds(0.0011);
  /// Daemon-local merge cost per call-path node inserted.
  SimTime local_merge_per_node = seconds(0.0000012);
  /// Multiplier when the daemon contends with spin-waiting MPI ranks on a
  /// fully packed node (Atlas). Expected value of the slowdown.
  double cpu_contention_mean = 1.7;
  double cpu_contention_sigma = 0.10;  // log-space, per daemon
  /// Symbol-table parse CPU per MB of binary image (I/O modelled separately).
  SimTime symtab_parse_per_mb = seconds(0.085);
};

/// Merge/communication constants (Sec. V).
struct MergeCosts {
  /// Filter CPU per prefix-tree node visited during a merge.
  SimTime merge_per_tree_node = seconds(0.0000018);
  /// Filter CPU per byte of edge-label payload processed (bit-vector OR or
  /// list concatenation are both byte-proportional in their own format).
  SimTime merge_per_label_byte = seconds(0.0000000009);
  /// Serialization (pack/unpack) per payload byte.
  SimTime pack_per_byte = seconds(0.0000000022);
  /// Fixed CPU per packet handled by a filter process (MRNet dispatch,
  /// allocation, syscalls). Dominates flat-tree merges at the front end.
  SimTime per_packet_cpu = seconds(0.0007);
  /// Front-end remap of daemon-order lists to MPI rank order: 0.66 s at
  /// 208K tasks => ~3.17 us per task.
  SimTime remap_per_task = seconds(0.0000031);
  /// Hard per-connection receive-buffer limit at the front end (and at each
  /// reducer of a sharded front end, which takes over the same role): the
  /// 1-deep topology "fails to merge" at 256 daemons x full-job bit vectors.
  /// The connection ceiling itself lives in
  /// MachineConfig::max_tool_connections — the single source of truth every
  /// viability check consults.
  std::uint64_t frontend_rx_buffer_bytes = 64ull << 20;
};

/// Streaming-sampling constants (the --stream continuous mode).
struct StreamCosts {
  /// Comm-process/daemon CPU to handle one SampleRequest control packet:
  /// decode the envelope, arm the sample timer, queue the per-child copies.
  /// Far below per_packet_cpu — control packets carry a 17-byte cursor or a
  /// 14-byte DeltaHeader ack, not a payload: no tree decode, no allocation,
  /// one fixed-size envelope read.
  SimTime control_packet_cpu = seconds(0.00003);
  /// Daemon CPU per trace folded into the per-sample class-signature hash
  /// (one canonical-encode pass over the local snapshot tree).
  SimTime signature_per_trace = seconds(0.0000004);
  /// Proc CPU per tree node to fold a *cached* child payload back into the
  /// accumulator. Far below merge_per_tree_node: the cached tree is already
  /// decoded, its children already sorted canonically, and its frames
  /// already interned, so the fold is a lock-step walk with label unions —
  /// no unpack, no allocation churn.
  SimTime cached_merge_per_node = seconds(0.0000002);
};

/// All cost constants for one platform.
struct CostModel {
  LaunchCosts launch;
  SamplingCosts sampling;
  MergeCosts merge;
  StreamCosts stream;
};

/// Default cost model for a machine preset.
[[nodiscard]] CostModel default_cost_model(const MachineConfig& machine);

// ---------------------------------------------------------------------------
// Analytic phase formulas.
//
// Noise-free expectations of every modelled duration. The simulated services
// (stackwalker::StackWalker, the STAT filter, StatScenario) draw per-run
// noise *around exactly these formulas*; plan::PhasePredictor consumes them
// directly. The launch formulas below have one caller, rm::launch, which
// the scenario runs with its seed and the planner without one. One shared
// formulation is what makes the
// predictor's topology ranking trustworthy — if a service's timing model
// changes, it must change here, where both sides see it.

/// Fan-out tree levels needed to reach n leaves (n itself for n <= 1).
[[nodiscard]] std::uint32_t tree_levels(std::uint32_t n, std::uint32_t fanout);

/// MRNet's ad hoc spawner: one remote shell per process, strictly serial
/// from the front end — daemons (the Fig. 2 linear trend) and MRNet comm
/// processes alike.
[[nodiscard]] SimTime serial_shell_spawn_time(const LaunchCosts& costs,
                                              std::uint32_t procs);

/// LaunchMON path: one RM request plus the RM's internal broadcast tree.
[[nodiscard]] SimTime bulk_tree_spawn_time(const LaunchCosts& costs,
                                           std::uint32_t daemons);

/// BG/L process-table generation; quadratic strcat term when unpatched.
[[nodiscard]] SimTime ciod_process_table_time(const LaunchCosts& costs,
                                              std::uint32_t app_procs,
                                              bool patched);

/// BG/L daemon push to the I/O nodes through the control network
/// (daemon_init, which applies to every launcher, is accounted separately).
[[nodiscard]] SimTime ciod_spawn_time(const LaunchCosts& costs,
                                      std::uint32_t daemons);

/// BG/L application launch under tool control.
[[nodiscard]] SimTime ciod_app_launch_time(const LaunchCosts& costs,
                                           std::uint32_t app_procs);

/// One third-party stack walk of `frames` frames, including the daemon-local
/// merge of the resulting path (before contention scaling).
[[nodiscard]] SimTime stack_walk_cost(const SamplingCosts& costs,
                                      std::size_t frames);

/// Symbol-table parse CPU for `image_bytes` of binary images.
[[nodiscard]] SimTime symtab_parse_cost(const SamplingCosts& costs,
                                        std::uint64_t image_bytes);

/// Expected CPU-contention factor for a daemon's walk/parse work: the full
/// spin-wait slowdown on shared nodes, 1.0 on dedicated I/O nodes.
[[nodiscard]] double expected_contention(const SamplingCosts& costs,
                                         bool daemon_shares_cpu);

/// Filter-process CPU to pack or unpack one `bytes`-sized payload packet.
[[nodiscard]] SimTime packet_codec_cost(const MergeCosts& costs,
                                        std::uint64_t bytes);

/// Filter-process CPU to merge an incoming payload of `tree_nodes` prefix
/// tree nodes carrying `label_bytes` of edge labels into the accumulator.
[[nodiscard]] SimTime filter_merge_cost(const MergeCosts& costs,
                                        std::uint64_t tree_nodes,
                                        std::uint64_t label_bytes);

/// Remap of `tasks` daemon-order task lists to MPI rank order (the
/// optimized representation's finalization step). A sharded front end's
/// reducers remap their slices concurrently, so there the phase costs the
/// largest slice (tbon::remap_time).
[[nodiscard]] SimTime frontend_remap_cost(const MergeCosts& costs,
                                          std::uint64_t tasks);

// --- Sharded front end (reducer tree) --------------------------------------
//
// A sharded front end splits the final merge across `fe_shards` reducer
// processes (plus, for K > tbon::kShardCombineFanIn, the combiner levels of
// the reducer tree above them); these formulas price the pieces the split
// adds. They delegate to the per-piece formulas above so the simulator's
// reduction (which charges codec/merge per arrival through the same
// functions) and the planner can never drift apart.

/// Placement-aware serial spawn of a burst of `procs` helper processes
/// landing on `distinct_hosts` hosts: one remote-shell handshake per host,
/// then cheap local forks for every colocated extra. This is the
/// spawn-locality side of the reducer-placement trade — packing helpers onto
/// few hosts makes this formula small and the merge-time link contention
/// (every transfer serialized on each link of its net::route_between route,
/// so colocated helpers queue on one access link) large; spreading does the
/// reverse. tbon::connect_phase_time prices the shard machinery (reducers +
/// combiners) with it, over tbon::shard_spawn_hosts.
[[nodiscard]] SimTime placed_spawn_time(const LaunchCosts& costs,
                                        std::uint32_t procs,
                                        std::uint32_t distinct_hosts);

/// Front-end CPU to accept and fold one reducer's merged shard payload
/// during the final combine (unpack + structural merge).
[[nodiscard]] SimTime shard_combine_cost(const MergeCosts& costs,
                                         std::uint64_t tree_nodes,
                                         std::uint64_t payload_bytes);

// --- Failure recovery ------------------------------------------------------
//
// Mid-merge recovery (tbon::HealthMonitor + Reduction::recover) is priced
// through the same per-piece formulas as the live merge, so plan:: can
// predict what a reducer death costs without a private model.

/// Expected latency from a proc's death to its detection by the periodic
/// ping sweep: on average half a period passes before the next sweep leaves
/// the front end, then one fan-out + echo-gather round trip completes before
/// the missing echo is noticed.
[[nodiscard]] SimTime expected_detection_latency(SimTime ping_period,
                                                 SimTime sweep_round_trip);

/// CPU critical path of re-merging a lost subtree of `orphan_leaves` leaf
/// payloads folded into `adopters` surviving procs: the busiest adopter
/// unpacks and merges its ceil(orphans/adopters) arrivals serially, exactly
/// as the live merge would have (shard_combine_cost per arrival). Scales
/// with the lost subtree, never with the job.
[[nodiscard]] SimTime subtree_remerge_cost(const MergeCosts& costs,
                                           std::uint32_t orphan_leaves,
                                           std::uint32_t adopters,
                                           std::uint64_t leaf_tree_nodes,
                                           std::uint64_t leaf_payload_bytes);

// --- Streaming sampling ----------------------------------------------------
//
// The --stream mode broadcasts one SampleRequest down the tree, then runs N
// incremental per-sample merge rounds upward (tbon::Reduction::run_round).
// These formulas price the pieces streaming adds; transfers still go through
// net::, payload codec/merge through the MergeCosts formulas above, so the
// simulator and plan::predict_stream_sample can never drift apart.

/// CPU a proc spends handling one SampleRequest control packet on its way
/// down the tree (decode + re-arm + forward bookkeeping).
[[nodiscard]] SimTime control_packet_cost(const StreamCosts& costs);

/// Daemon CPU to hash its per-sample snapshot into a class signature —
/// the cost of *knowing* nothing changed, paid every round by every daemon.
[[nodiscard]] SimTime signature_cost(const StreamCosts& costs,
                                     std::uint64_t traces);

/// Incremental re-merge of one *cached* child accumulator: the cache holds
/// the decoded tree from the last round, so a dirty proc pays a lock-step
/// structural walk (cached_merge_per_node per node, plus the usual
/// per-label-byte union work) but no unpack codec and none of the
/// decode-side allocation churn. This asymmetry (full codec + merge only
/// for changed arrivals) is where the streaming win comes from on the CPU
/// side; the network side saves the whole payload transfer.
[[nodiscard]] SimTime cached_merge_cost(const MergeCosts& merge,
                                        const StreamCosts& stream,
                                        std::uint64_t tree_nodes,
                                        std::uint64_t label_bytes);

}  // namespace petastat::machine
