// Topology auto-tuning: enumerate the machine-feasible TopologySpec space
// and rank it by predicted startup+merge time (ROADMAP: `--topology auto`).
//
// The spec space follows the paper's Figs. 4/5 axes — depth 1/2/3, the
// balanced n-th-root rule, the BG/L fanout rules — plus explicit level-width
// sweeps under the machine's comm-process placement limits (login-node slots
// on BG/L, the leftover compute allocation on clusters). Every candidate is
// priced by the same PhasePredictor; specs that cannot be built, or that the
// predictor flags as doomed (front-end connection limit, receive-buffer
// overflow), are excluded from the ranking but reported with their reason.
#pragma once

#include <vector>

#include "plan/predictor.hpp"

namespace petastat::plan {

struct RankedTopology {
  tbon::TopologySpec spec;
  PhasePrediction prediction;  // viability non-OK for `rejected` entries
};

struct TopologySearchResult {
  /// Viable specs, best predicted startup+merge first.
  std::vector<RankedTopology> viable;
  /// Buildable-but-doomed specs, with the predicted failure in `viability`.
  std::vector<RankedTopology> rejected;

  [[nodiscard]] const RankedTopology& best() const { return viable.front(); }
};

/// Candidate specs for this machine/scale (before feasibility filtering).
/// `shard_counts` is the front-end shard dimension: each base spec is
/// emitted once per viable K (reducers — and the combiner levels of a
/// K > 8 reducer tree — counted against the comm-process placement limits)
/// and, for K > 1, once per reducer placement (pack vs spread). The default
/// {1} keeps the space unsharded; `--fe-shards auto` searches
/// {1, 2, 4, 8, 16, 32, 64}.
[[nodiscard]] std::vector<tbon::TopologySpec> enumerate_specs(
    const machine::MachineConfig& machine, std::uint32_t num_daemons,
    const std::vector<std::uint32_t>& shard_counts = {1});

/// Prices every candidate with `predictor` and ranks the viable ones
/// (shard dimension derived from the predictor's options). Fails only when
/// no candidate is viable.
[[nodiscard]] Result<TopologySearchResult> search_topologies(
    const PhasePredictor& predictor);

/// Which spec a run uses: the one entry point for `--topology auto`,
/// `--fe-shards auto` and the restore re-plan. `machine` is the machine the
/// run builds on; its `max_tool_connections` is the run's ceiling.
///  * restore with an auto mode: adopt `restore->spec`, then re-price K and
///    placement against the measured `leaf_payload_bytes` the checkpoint
///    recorded (a resumed session may legally re-shard);
///  * `topology_auto`: the best-ranked spec of the search (which sweeps K
///    itself under `fe_shards_auto`, and pins it otherwise);
///  * `fe_shards_auto`: `options.topology` at the predicted-fastest viable
///    (K, placement), K in {1, 2, 4, 8, 16, 32, 64};
///  * pinned: `options.topology` (the checkpoint's spec on a restore) with
///    the CLI-level `fe_shards` and `reducer_placement` folded in.
/// Fails when no candidate is viable.
[[nodiscard]] Result<tbon::TopologySpec> resolve(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const stat::StatOptions& options, const machine::CostModel& costs,
    const stat::SessionCheckpoint* restore = nullptr);

}  // namespace petastat::plan
