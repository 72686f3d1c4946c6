// Analytic per-phase cost prediction — the planning half of the topology
// auto-tuner (ROADMAP: "--topology auto", validated against the Fig. 4/5
// crossovers).
//
// A PhasePredictor prices a (machine, job, options, TopologySpec) tuple
// WITHOUT running the discrete-event simulator. It is side-effect-free and
// consumes the exact formulation the simulated services use:
//   * the run's own startup functions, rm::launch (without its noise seed)
//     and tbon::connect_phase_time, and its remap pricer tbon::remap_time,
//   * the analytic sampling/merge formulas in machine/cost_model
//     (the services draw their per-run noise *around* these),
//   * the switch-graph route pricing in net::route_between /
//     net::bottleneck_rate (the exact links the simulated Network reserves
//     per transfer, shared trunks included),
//   * the process tree from tbon::build_topology (the same placement and
//     fanouts the reduction runs over).
// The only empirical input is the WorkloadProfile: payload sizes and prefix
// tree node counts measured by synthesizing a probe subset of daemons'
// traces through the real PrefixTree/label code — real data structures, no
// simulator, no virtual time.
//
// Fidelity contract: startup (launch + comm spawn + connect) and merge are
// modelled closely enough to rank topologies and to land within tens of
// percent of the simulated magnitudes (bench/ablation_autotopo records the
// agreement). The sampling estimate is coarser — symbol I/O runs through a
// contention-free aggregate-bandwidth approximation of the shared FS — and
// is topology-independent anyway, so it never affects the ranking.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "net/network.hpp"
#include "rm/launcher.hpp"
#include "stat/scenario.hpp"
#include "tbon/topology.hpp"

namespace petastat::plan {

/// Topology-independent workload summary, measured from a probe subset of
/// daemons (contiguous from daemon 0, counts ascending).
struct WorkloadProfile {
  std::uint64_t traces_per_daemon = 0;
  double avg_frames_per_trace = 0.0;

  /// One daemon's serialized 2D+3D trees (averaged over the probe set).
  double leaf_payload_bytes = 0.0;
  double leaf_tree_nodes = 0.0;

  /// Merged payload size / node count after merging the first k probe
  /// daemons, for each k in probe_counts.
  std::vector<std::uint32_t> probe_counts;
  std::vector<double> merged_payload_bytes;
  std::vector<double> merged_tree_nodes;

  /// Binary images each daemon parses; the shared-FS subset is what every
  /// daemon pulls over the shared file system on its first sample.
  std::uint64_t symbol_image_bytes = 0;
  std::uint64_t shared_fs_image_bytes = 0;

  /// Payload size / node count of a subtree accumulator covering `daemons`
  /// daemons: piecewise-linear over the probe points, extrapolated with the
  /// last segment's slope (hier labels grow with the subtree, dense labels
  /// and both node counts saturate — both shapes are captured).
  [[nodiscard]] double payload_bytes_for(double daemons) const;
  [[nodiscard]] double tree_nodes_for(double daemons) const;
};

/// A probe leaf: one daemon's batched 2D+3D payload over every sample (the
/// classic merge), or its single-sample snapshot (a --stream round).
enum class ProbeLeaf { kBatchedPayload, kStreamSnapshot };

/// Measures the profile for this scenario configuration by synthesizing the
/// traces of up to 8 probe daemons through the real tree/label code, folded
/// into leaves of the given type.
///
/// Memoized process-wide on the leaf type and the trace-determining inputs
/// (machine shape, job size/mode, app kind, seed, representation, sampling
/// options): every PhasePredictor::create re-measures the same workload, and
/// the service scheduler creates a predictor per admitted session, so
/// identical probes would otherwise be re-synthesized many times per
/// process. The cache is the one deliberate exception to the "no
/// process-global mutable state" rule of the re-entrant session refactor: it
/// is a pure function cache — entries are deterministic in their key and
/// never depend on co-resident sessions — and it is mutex-guarded, so
/// concurrent sessions stay bit-identical to solo runs.
[[nodiscard]] WorkloadProfile profile_workload(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const machine::DaemonLayout& layout, const stat::StatOptions& options,
    ProbeLeaf leaf = ProbeLeaf::kBatchedPayload);

/// Observability for the profile_workload memoization (tests assert the
/// miss-then-hit pattern; benches report the synthesis work saved).
struct ProfileCacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
[[nodiscard]] ProfileCacheCounters profile_cache_counters();

/// Drops every cached profile and zeroes the counters (test isolation).
void reset_profile_cache();

/// Predicted per-phase times for one topology spec.
struct PhasePrediction {
  /// OK when the run is predicted to complete. Non-OK carries the predicted
  /// failure: front-end connection limit, receive-buffer overflow, launcher
  /// unsupported on the machine, rsh port exhaustion, CIOD hang.
  Status viability = Status::ok();

  /// Daemon (and BG/L app) launch: rm::launch without noise, so a doomed
  /// launcher costs the time the run takes to surface its failure.
  SimTime launch = 0;
  SimTime connect = 0;   // comm-process spawn + MRNet instantiation
  SimTime startup = 0;   // launch + connect
  SimTime sampling = 0;  // symbol I/O + parse + walks (coarse; see header)
  SimTime merge = 0;     // TBON reduction to the front end
  SimTime remap = 0;     // front-end remap (hierarchical repr only)
  std::uint32_t num_comm_procs = 0;

  /// The auto-tuner's objective (ROADMAP: minimal startup+merge time).
  [[nodiscard]] SimTime startup_plus_merge() const {
    return startup + merge + remap;
  }
};

/// Predicted cost of one streaming sample round (--stream): the delta merge
/// from the leaves' signature hashes to the front end's completion, given
/// which daemons' snapshots changed since the previous round.
struct StreamSamplePrediction {
  SimTime merge = 0;              // run_round -> front-end completion
  std::uint64_t delta_bytes = 0;  // upward wire traffic this round
  std::uint32_t changed_daemons = 0;
  std::uint32_t remerged_procs = 0;  // dirty non-leaf procs (incl. the FE)
  std::uint32_t cached_procs = 0;    // clean non-leaf procs (incl. the FE)
};

/// Predicted cost of one mid-merge proc death under the ping-sweep monitor
/// (tbon::HealthMonitor + Reduction::recover), priced through the shared
/// machine/cost_model recovery formulas.
struct RecoveryPrediction {
  SimTime detection = 0;  // death -> the sweep's missing echo is noticed
  SimTime remerge = 0;    // folding the lost subtree into the adopters
  std::uint32_t orphan_leaves = 0;
  std::uint32_t adopters = 0;

  [[nodiscard]] SimTime total() const { return detection + remerge; }
};

/// Priced traffic of one link device (see predict_merge_link_bytes).
struct LinkBytesPrediction {
  std::uint64_t device = 0;
  std::string link;  // SwitchGraph::device_name()
  double bytes = 0.0;
  std::uint64_t messages = 0;
};

class PhasePredictor {
 public:
  /// Fails when the job does not fit the machine.
  [[nodiscard]] static Result<PhasePredictor> create(
      machine::MachineConfig machine, machine::JobConfig job,
      stat::StatOptions options, machine::CostModel costs);

  /// Predicts all phases for `spec`. Fails (rather than predicting) when the
  /// spec cannot be built on the machine at all; a buildable spec that is
  /// predicted to die at runtime comes back OK with a non-OK `viability`.
  [[nodiscard]] Result<PhasePrediction> predict(
      const tbon::TopologySpec& spec) const;

  /// Prices losing tbon::default_victim(spec's tree) mid-merge: detection by
  /// a ping sweep of `ping_period`, then the lost subtree's re-merge into
  /// the victim's surviving siblings. The re-merge scales with the orphaned
  /// subtree (daemons / fe_shards when sharded), never with the job — the
  /// recovery counterpart of the merge prediction.
  [[nodiscard]] Result<RecoveryPrediction> predict_recovery(
      const tbon::TopologySpec& spec, SimTime ping_period) const;

  /// Prices one streaming delta round (tbon::Reduction::run_round) for `spec`:
  /// each daemon in `daemon_changed` resends its packed snapshot, every
  /// other daemon acknowledges with a bare DeltaHeader; a proc with a
  /// changed child re-merges it (codec + filter merge) plus its cached
  /// copies of the unchanged children (machine::cached_merge_cost) and
  /// forwards its whole subtree snapshot, while a clean subtree costs acks
  /// all the way up — the exact per-arrival formulas make_stream_ops plugs
  /// into the simulated reduction, over single-sample snapshot sizes
  /// measured through the real tree code. An empty mask means "every daemon
  /// changed" (the sample-0 / post-recovery full round).
  [[nodiscard]] Result<StreamSamplePrediction> predict_stream_sample(
      const tbon::TopologySpec& spec,
      const std::vector<bool>& daemon_changed) const;

  /// Per-link merge-phase traffic the predictor prices for `spec`: every
  /// tree edge's payload charged to every link device along its route —
  /// the byte-level half of the shared formulation. The simulated merge
  /// phase's link deltas (stat::PhaseBreakdown::merge_links) must agree:
  /// message counts exactly, bytes within per-edge float truncation.
  [[nodiscard]] Result<std::vector<LinkBytesPrediction>>
  predict_merge_link_bytes(const tbon::TopologySpec& spec) const;

  /// Re-anchors the payload curves to a payload size *measured by a live
  /// run* — a SessionCheckpoint's recorded leaf bytes — instead of the probe
  /// synthesis: every byte curve in both profiles is scaled by
  /// measured / probed. This is the checkpoint/restart re-planning hook
  /// (plan::resolve on a restore): the restored session re-prices K and
  /// placement against what the interrupted run actually moved. Node counts
  /// and symbol I/O stay as probed; non-positive inputs are ignored.
  void scale_payload_profile(double measured_leaf_bytes) {
    if (measured_leaf_bytes <= 0.0 ||
        stream_profile_.leaf_payload_bytes <= 0.0) {
      return;
    }
    const double factor =
        measured_leaf_bytes / stream_profile_.leaf_payload_bytes;
    for (WorkloadProfile* profile : {&profile_, &stream_profile_}) {
      profile->leaf_payload_bytes *= factor;
      for (double& bytes : profile->merged_payload_bytes) bytes *= factor;
    }
  }

  [[nodiscard]] const machine::MachineConfig& machine() const {
    return machine_;
  }
  [[nodiscard]] const net::SwitchGraph& graph() const { return graph_; }
  [[nodiscard]] const machine::DaemonLayout& layout() const { return layout_; }
  [[nodiscard]] const WorkloadProfile& profile() const { return profile_; }
  [[nodiscard]] const stat::StatOptions& options() const { return options_; }

 private:
  PhasePredictor(machine::MachineConfig machine, machine::JobConfig job,
                 stat::StatOptions options, machine::CostModel costs,
                 machine::DaemonLayout layout);

  [[nodiscard]] SimTime predict_sampling() const;

  /// The one round pricer behind every merge prediction: what
  /// tbon::Reduction charges for a round in which the daemons flagged in
  /// `daemon_changed` send payloads (see src/plan/README.md). `stream` adds
  /// the StreamOps charges — snapshot profile, DeltaHeader bytes, signature.
  /// A non-null `links` tallies every message on each link it crosses.
  [[nodiscard]] StreamSamplePrediction price_round(
      const tbon::TbonTopology& topo, const std::vector<bool>& daemon_changed,
      bool stream,
      std::unordered_map<std::uint64_t, LinkBytesPrediction>* links) const;

  machine::MachineConfig machine_;
  machine::JobConfig job_;
  stat::StatOptions options_;
  machine::CostModel costs_;
  machine::DaemonLayout layout_;
  net::SwitchGraph graph_;
  WorkloadProfile profile_;
  /// Single-sample snapshot sizes (stat::StreamSnapshot — one tree, not the
  /// batched 2D+3D payload): what the streaming delta rounds actually move.
  WorkloadProfile stream_profile_;
};

}  // namespace petastat::plan
