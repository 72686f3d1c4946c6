#include "plan/search.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "stat/checkpoint.hpp"

namespace petastat::plan {

namespace {

/// The placement dimension for one shard count: pack vs spread vs route for
/// K > 1 (kCommLike coincides with pack on compute-allocation machines and
/// with spread on login tiers, so the trio covers the space without
/// duplicate candidates; route sees the switch graph and can differ from
/// both on oversubscribed fabrics). Comm-like alone when unsharded. One
/// definition for enumerate_specs and the K sweep of `--fe-shards auto`, so
/// the two auto paths can never search different placement spaces.
std::vector<tbon::ReducerPlacement> placements_for(std::uint32_t shards) {
  if (shards > 1) {
    return {tbon::ReducerPlacement::kPack, tbon::ReducerPlacement::kSpread,
            tbon::ReducerPlacement::kRoute};
  }
  return {tbon::ReducerPlacement::kCommLike};
}

}  // namespace

std::vector<tbon::TopologySpec> enumerate_specs(
    const machine::MachineConfig& machine, std::uint32_t num_daemons,
    const std::vector<std::uint32_t>& shard_counts) {
  std::vector<tbon::TopologySpec> specs;
  // Dedup by derived widths: the balanced rule, the BG/L rule, and an
  // explicit sweep can all land on the same tree. A sharded tree with the
  // same widths is *not* the same candidate — its reducers own the
  // connection checks and the distributed remap — so the (effective) shard
  // count joins the key, and so does the placement: pack and spread put the
  // same procs on different hosts, which is exactly the spawn-locality vs
  // NIC-contention trade the search exists to price.
  std::set<std::tuple<std::vector<std::uint32_t>, std::uint32_t,
                      tbon::ReducerPlacement>>
      seen;
  const auto add = [&](const tbon::TopologySpec& base) {
    for (const std::uint32_t shards : shard_counts) {
      for (const tbon::ReducerPlacement placement : placements_for(shards)) {
        tbon::TopologySpec spec =
            shards > 1 ? base.with_shards(shards).with_placement(placement)
                       : base;
        auto levels = tbon::derive_levels(machine, spec, num_daemons);
        if (!levels.is_ok()) continue;  // malformed for this scale; skip
        const std::uint32_t effective_shards =
            std::max(1u, levels.value().num_reducers());
        if (!seen.insert({levels.value().widths, effective_shards, placement})
                 .second) {
          continue;
        }
        specs.push_back(std::move(spec));
      }
    }
  };

  // The paper's rules (Figs. 4/5).
  add(tbon::TopologySpec::flat());
  add(tbon::TopologySpec::balanced(2));
  add(tbon::TopologySpec::balanced(3));
  if (!machine.comm_procs_on_compute_allocation) {
    add(tbon::TopologySpec::bgl(2));
    add(tbon::TopologySpec::bgl(3, 16));
    add(tbon::TopologySpec::bgl(3, 24));
  }

  // Explicit width sweeps under the comm-process placement limits.
  const std::uint64_t capacity =
      tbon::comm_process_capacity(machine, num_daemons);
  const auto explicit_spec = [](std::vector<std::uint32_t> widths) {
    tbon::TopologySpec spec;
    spec.depth = static_cast<std::uint32_t>(widths.size()) + 1;
    spec.level_widths = std::move(widths);
    return spec;
  };
  for (std::uint32_t w = 2; w <= num_daemons && w <= capacity && w <= 512;
       w *= 2) {
    add(explicit_spec({w}));
    // 3-deep: a narrow front-end fanout over a wider second level.
    for (const std::uint32_t f : {4u, 8u}) {
      if (f <= w && static_cast<std::uint64_t>(f) + w <= capacity) {
        add(explicit_spec({f, w}));
      }
    }
  }
  return specs;
}

Result<TopologySearchResult> search_topologies(
    const PhasePredictor& predictor) {
  TopologySearchResult result;
  // The shard dimension: `--fe-shards auto` searches K in {1,...,64} —
  // K > 8 engages the reducer tree — and a pinned K restricts every
  // candidate to it; the placement dimension rides along inside
  // enumerate_specs for every K > 1.
  const std::vector<std::uint32_t> shard_counts =
      predictor.options().fe_shards_auto
          ? std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64}
          : std::vector<std::uint32_t>{predictor.options().fe_shards};
  const std::vector<tbon::TopologySpec> specs = enumerate_specs(
      predictor.machine(), predictor.layout().num_daemons, shard_counts);
  for (const tbon::TopologySpec& spec : specs) {
    auto prediction = predictor.predict(spec);
    if (!prediction.is_ok()) continue;  // not buildable at this scale
    if (prediction.value().viability.is_ok()) {
      result.viable.push_back({spec, std::move(prediction).value()});
    } else {
      result.rejected.push_back({spec, std::move(prediction).value()});
    }
  }
  if (result.viable.empty()) {
    return resource_exhausted(
        "no viable topology: every candidate is predicted to fail on " +
        predictor.machine().name);
  }
  std::stable_sort(result.viable.begin(), result.viable.end(),
                   [](const RankedTopology& a, const RankedTopology& b) {
                     return a.prediction.startup_plus_merge() <
                            b.prediction.startup_plus_merge();
                   });
  return result;
}

namespace {

/// The K × placement sweep of `--fe-shards auto` and of the restore re-plan:
/// one loop, so the cold path and the restore path can never rank different
/// shard spaces.
Result<tbon::TopologySpec> best_fe_shard_spec(
    const PhasePredictor& predictor, const machine::MachineConfig& machine,
    const stat::StatOptions& options) {
  std::optional<tbon::TopologySpec> best;
  SimTime best_time = 0;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    for (const tbon::ReducerPlacement placement : placements_for(k)) {
      tbon::TopologySpec spec =
          options.topology.with_shards(k).with_placement(placement);
      auto prediction = predictor.predict(spec);
      if (!prediction.is_ok()) continue;  // not buildable at this K
      if (!prediction.value().viability.is_ok()) continue;  // predicted doomed
      const SimTime t = prediction.value().startup_plus_merge();
      if (!best || t < best_time) {
        best = std::move(spec);
        best_time = t;
      }
    }
  }
  if (!best) {
    return resource_exhausted(
        "no viable front-end shard count in {1,...,64} for topology " +
        options.topology.name() + " on " + machine.name);
  }
  return *best;
}

}  // namespace

Result<tbon::TopologySpec> resolve(const machine::MachineConfig& machine,
                                   const machine::JobConfig& job,
                                   const stat::StatOptions& options,
                                   const machine::CostModel& costs,
                                   const stat::SessionCheckpoint* restore) {
  const bool auto_mode = options.topology_auto || options.fe_shards_auto;
  if (!auto_mode) {
    // The CLI-level knobs land on the spec; a spec already sharded/placed by
    // a direct API caller (or restored from a checkpoint) keeps its own
    // values where a knob is left at its default.
    tbon::TopologySpec spec =
        restore != nullptr ? restore->spec : options.topology;
    if (options.fe_shards != 1) spec.fe_shards = options.fe_shards;
    if (options.reducer_placement != tbon::ReducerPlacement::kCommLike) {
      spec.reducer_placement = options.reducer_placement;
    }
    return spec;
  }

  stat::StatOptions planned = options;
  if (restore != nullptr) planned.topology = restore->spec;
  auto predictor = PhasePredictor::create(machine, job, planned, costs);
  if (!predictor.is_ok()) return predictor.status();
  if (restore != nullptr) {
    // Re-anchor the payload curves to what the interrupted run measured, so
    // K and placement are re-priced against real traffic instead of the
    // probe synthesis (a non-positive measurement leaves them as probed).
    predictor.value().scale_payload_profile(
        static_cast<double>(restore->leaf_payload_bytes));
  } else if (options.topology_auto) {
    // The search sweeps the shard dimension itself under `fe_shards_auto`.
    auto ranked = search_topologies(predictor.value());
    if (!ranked.is_ok()) return ranked.status();
    return ranked.value().best().spec;
  }
  return best_fe_shard_spec(predictor.value(), machine, planned);
}

}  // namespace petastat::plan
