// The STAT filter: the payload type and reduction operations plugged into
// the TBON (Sec. II: "a custom STAT filter efficiently merges the stack
// traces as they propagate up the communication tree").
//
// A payload carries both prefix trees a daemon contributes: the 2D
// trace/space tree (one sample) and the 3D trace/space/time tree (all
// samples). The filter's merge is the *real* structural merge; the CPU cost
// charged to the hosting comm process is proportional to the incoming
// tree's node count and label bytes — which is exactly why full-job bit
// vectors hurt: their bytes scale with the whole job.
#pragma once

#include <type_traits>

#include "app/callpath.hpp"
#include "app/trace_batch.hpp"
#include "machine/cost_model.hpp"
#include "stat/path_groups.hpp"
#include "stat/prefix_tree.hpp"
#include "tbon/reduction.hpp"

namespace petastat::stat {

template <typename Label>
struct StatPayload {
  PrefixTree<Label> tree_2d;
  PrefixTree<Label> tree_3d;

  [[nodiscard]] std::uint64_t node_count() const {
    return tree_2d.node_count() + tree_3d.node_count();
  }
  void merge(const StatPayload& other) {
    tree_2d.merge(other.tree_2d);
    tree_3d.merge(other.tree_3d);
  }
};

/// The label a daemon's trace is seeded with, per representation: the task's
/// global rank (dense) or its daemon-local slot (hierarchical).
template <typename Label>
[[nodiscard]] Label seed_label([[maybe_unused]] std::uint32_t daemon,
                               [[maybe_unused]] std::uint32_t local_index,
                               [[maybe_unused]] TaskId task) {
  if constexpr (std::is_same_v<Label, GlobalLabel>) {
    return GlobalLabel::for_task(task.value());
  } else {
    return HierLabel::for_local(daemon, local_index);
  }
}

/// Folds one gathered trace into a daemon's payload: the first sample seeds
/// the 2D trace/space tree, every sample the 3D trace/space/time tree. The
/// per-trace reference the grouped fold (fold_batch) must match exactly.
template <typename Label>
void insert_trace(StatPayload<Label>& payload, const app::CallPath& path,
                  std::uint32_t daemon, std::uint32_t local_index, TaskId task,
                  std::uint32_t sample) {
  const Label seed = seed_label<Label>(daemon, local_index, task);
  if (sample == 0) payload.tree_2d.insert(path, seed);
  payload.tree_3d.insert(path, seed);
}

/// Group `g`'s label over `samples`, per representation.
template <typename Label>
[[nodiscard]] Label group_label(const PathGroups& groups, std::size_t g,
                                PathGroups::Samples samples,
                                [[maybe_unused]] std::uint32_t daemon) {
  if constexpr (std::is_same_v<Label, GlobalLabel>) {
    return groups.global_label(g, samples);
  } else {
    return groups.hier_label(g, samples, daemon);
  }
}

/// The grouped fold: folds one daemon pass's traces into its payload, each
/// distinct call path once per tree, with the label of every trace on it
/// and `visits` equal to their number. The trees equal those a loop of
/// insert_trace calls builds. One formulation, three consumers: the
/// scenario's sampling sinks, the planner's workload probe and statbench
/// all fold through here (and the StreamSnapshot overload), so predicted
/// payloads follow the same rule.
template <typename Label>
void fold_batch(StatPayload<Label>& payload, const app::TraceBatch& batch,
                std::uint32_t daemon) {
  using Samples = PathGroups::Samples;
  const PathGroups groups(batch);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::span<const FrameId> path = groups.path(g);
    if (groups.visits(g, Samples::kFirst) > 0) {
      payload.tree_2d.insert(
          path, group_label<Label>(groups, g, Samples::kFirst, daemon));
    }
    payload.tree_3d.insert(
        path, group_label<Label>(groups, g, Samples::kAll, daemon));
  }
}

template <typename Label>
[[nodiscard]] std::uint64_t payload_wire_bytes(const StatPayload<Label>& payload,
                                               const app::FrameTable& frames,
                                               const LabelContext& ctx) {
  // Two trees plus a small packet header.
  return payload.tree_2d.wire_bytes(frames, ctx) +
         payload.tree_3d.wire_bytes(frames, ctx) + 16;
}

/// Builds the ReduceOps the TBON runs at every analysis node. `frames` and
/// `ctx` must outlive the reduction.
template <typename Label>
[[nodiscard]] tbon::ReduceOps<StatPayload<Label>> make_stat_reduce_ops(
    const machine::MergeCosts& costs, const app::FrameTable& frames,
    const LabelContext& ctx) {
  tbon::ReduceOps<StatPayload<Label>> ops;
  ops.wire_bytes = [&frames, ctx](const StatPayload<Label>& payload) {
    return payload_wire_bytes(payload, frames, ctx);
  };
  ops.codec_cost = [costs](std::uint64_t bytes) {
    return machine::packet_codec_cost(costs, bytes);
  };
  // The modelled cost depends on the incoming payload only (streaming
  // filters charge per arrival), which lets the real merge run on a worker.
  ops.merge_cpu = [costs, &frames, ctx](const StatPayload<Label>& child) {
    return machine::filter_merge_cost(costs, child.node_count(),
                                      payload_wire_bytes(child, frames, ctx));
  };
  ops.merge_into = [](StatPayload<Label>& acc, StatPayload<Label>&& child) {
    acc.merge(child);
  };
  return ops;
}

/// One streaming round's payload: the per-sample snapshot tree. The front
/// end folds each round's merged snapshot into its 3D accumulator — the
/// canonical merge makes the fold order-independent, so the accumulated
/// tree is bit-identical to the classic batched 3D tree — and round 0's
/// snapshot *is* the 2D tree. operator== is the leaf's change detector.
template <typename Label>
struct StreamSnapshot {
  PrefixTree<Label> tree;

  [[nodiscard]] std::uint64_t node_count() const { return tree.node_count(); }
  void merge(const StreamSnapshot& other) { tree.merge(other.tree); }

  friend bool operator==(const StreamSnapshot&, const StreamSnapshot&) =
      default;
};

/// Folds one gathered trace into a daemon's streaming snapshot. A snapshot
/// holds one sample, so the sample index does not matter.
template <typename Label>
void insert_trace(StreamSnapshot<Label>& snapshot, const app::CallPath& path,
                  std::uint32_t daemon, std::uint32_t local_index, TaskId task,
                  std::uint32_t /*sample*/) {
  snapshot.tree.insert(path, seed_label<Label>(daemon, local_index, task));
}

/// The grouped fold of one daemon pass into a streaming snapshot: every
/// trace of the batch, whatever its sample.
template <typename Label>
void fold_batch(StreamSnapshot<Label>& snapshot, const app::TraceBatch& batch,
                std::uint32_t daemon) {
  const PathGroups groups(batch);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    snapshot.tree.insert(groups.path(g),
                         group_label<Label>(groups, g,
                                            PathGroups::Samples::kAll, daemon));
  }
}

template <typename Label>
[[nodiscard]] std::uint64_t snapshot_wire_bytes(
    const StreamSnapshot<Label>& snapshot, const app::FrameTable& frames,
    const LabelContext& ctx) {
  // One tree plus a small packet header (the DeltaHeader is charged by the
  // streaming layer on top of this).
  return snapshot.tree.wire_bytes(frames, ctx) + 8;
}

/// Builds the StreamOps the reduction engine runs every stream round.
/// Costs are priced by the same shared formulas as the batched filter, so
/// the planner's predict_stream_sample and the simulator agree by
/// construction. `frames` and `ctx` must outlive the reduction.
template <typename Label>
[[nodiscard]] tbon::StreamOps<StreamSnapshot<Label>> make_stream_ops(
    const machine::MergeCosts& merge, const machine::StreamCosts& stream,
    const app::FrameTable& frames, const LabelContext& ctx) {
  tbon::StreamOps<StreamSnapshot<Label>> ops;
  ops.base.wire_bytes = [&frames, ctx](const StreamSnapshot<Label>& snapshot) {
    return snapshot_wire_bytes(snapshot, frames, ctx);
  };
  ops.base.codec_cost = [merge](std::uint64_t bytes) {
    return machine::packet_codec_cost(merge, bytes);
  };
  ops.base.merge_cpu = [merge, &frames, ctx](
                           const StreamSnapshot<Label>& child) {
    return machine::filter_merge_cost(
        merge, child.node_count(),
        snapshot_wire_bytes(child, frames, ctx));
  };
  ops.base.merge_into = [](StreamSnapshot<Label>& acc,
                           StreamSnapshot<Label>&& child) {
    acc.merge(child);
  };
  ops.signature_cpu = [stream](const StreamSnapshot<Label>& snapshot) {
    return machine::signature_cost(stream, snapshot.node_count());
  };
  ops.cached_merge_cpu = [merge, stream, &frames, ctx](
                             const StreamSnapshot<Label>& child) {
    return machine::cached_merge_cost(
        merge, stream, child.node_count(),
        snapshot_wire_bytes(child, frames, ctx));
  };
  ops.ack_cpu = machine::control_packet_cost(stream);
  return ops;
}

}  // namespace petastat::stat
