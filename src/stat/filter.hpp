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

/// A payload's node count and wire bytes, carried with it so the
/// reduction's pricers read them instead of walking its trees again. They
/// are set where the payload is built or finished — fold_batch counts the
/// nodes it creates, and carry_sizes (a classic leaf's sink, the engine's
/// leaf classification and its pack step) fills in what is missing — and
/// every change made through the payload (merge, insert_trace, fold_batch)
/// clears what it invalidates. Code that edits a payload's trees directly
/// must clear them too. operator== ignores them.
struct CarriedSizes {
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  std::uint64_t nodes = kUnknown;
  std::uint64_t wire = kUnknown;

  [[nodiscard]] bool complete() const {
    return nodes != kUnknown && wire != kUnknown;
  }
};

/// Header bytes a classic payload's packet adds to its two trees.
inline constexpr std::uint64_t kPayloadHeaderBytes = 16;

template <typename Label>
struct StatPayload {
  PrefixTree<Label> tree_2d;
  PrefixTree<Label> tree_3d;
  CarriedSizes sizes;

  [[nodiscard]] std::uint64_t node_count() const {
    return sizes.nodes != CarriedSizes::kUnknown
               ? sizes.nodes
               : tree_2d.node_count() + tree_3d.node_count();
  }
  void merge(const StatPayload& other) {
    tree_2d.merge(other.tree_2d);
    tree_3d.merge(other.tree_3d);
    sizes = {};
  }
  /// Carries both sizes (one walk per tree) unless it already does.
  void carry_sizes(const app::FrameTable& frames, const LabelContext& ctx) {
    if (sizes.complete()) return;
    const auto s2 = tree_2d.sizes(frames, ctx);
    const auto s3 = tree_3d.sizes(frames, ctx);
    sizes = {s2.nodes + s3.nodes, s2.wire + s3.wire + kPayloadHeaderBytes};
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
  payload.sizes = {};
}

/// The label of the traces of `members` among `samples`, per representation.
template <typename Label>
[[nodiscard]] Label group_label(PathGroups& groups,
                                std::span<const std::uint32_t> members,
                                PathGroups::Samples samples,
                                [[maybe_unused]] std::uint32_t daemon) {
  if constexpr (std::is_same_v<Label, GlobalLabel>) {
    return groups.global_label(members, samples);
  } else {
    return groups.hier_label(members, samples, daemon);
  }
}

namespace detail {

/// The trie walk behind fold_batch. `run` holds groups in path order that
/// share their first `depth` frames — the path to `node` — and the walk
/// folds them into `node`'s subtree: each child's label is built once, at
/// exact size, from the union of the groups through it, and a childless
/// node reserves its children exactly. Returns the nodes it created.
template <typename Label>
std::uint64_t fold_trie(typename PrefixTree<Label>::Node& node,
                        PathGroups& groups,
                        std::span<const std::uint32_t> run, std::size_t depth,
                        PathGroups::Samples samples, std::uint32_t daemon) {
  using Node = typename PrefixTree<Label>::Node;
  // Paths that end at `node` sort first and have no child here.
  std::size_t begin = 0;
  while (begin < run.size() && groups.path(run[begin]).size() == depth) {
    ++begin;
  }
  const auto frame_at = [&](std::size_t k) {
    return groups.path(run[k])[depth];
  };
  const bool fresh = node.children.empty();
  if (fresh) {
    std::size_t distinct = 0;
    for (std::size_t k = begin; k < run.size(); ++k) {
      if (k == begin || frame_at(k) != frame_at(k - 1)) ++distinct;
    }
    node.children.reserve(distinct);
  }
  std::uint64_t created = 0;
  for (std::size_t end = begin; begin < run.size(); begin = end) {
    const FrameId frame = frame_at(begin);
    while (end < run.size() && frame_at(end) == frame) ++end;
    const std::span<const std::uint32_t> through =
        run.subspan(begin, end - begin);
    Label label = group_label<Label>(groups, through, samples, daemon);
    Node* child = nullptr;
    if (fresh) {
      child = &node.children.emplace_back(Node{frame, std::move(label), {}});
      ++created;
    } else {
      const std::size_t before = node.children.size();
      child = &node.ensure_child(frame);
      if (node.children.size() != before) {
        child->label = std::move(label);
        ++created;
      } else {
        child->label.merge(label);
      }
    }
    created += fold_trie<Label>(*child, groups, through, depth + 1, samples,
                                daemon);
  }
  return created;
}

/// Folds the pass's groups present among `samples` into `tree`.
template <typename Label>
std::uint64_t fold_groups(PrefixTree<Label>& tree, PathGroups& groups,
                          PathGroups::Samples samples, std::uint32_t daemon) {
  return fold_trie<Label>(tree.root(), groups, groups.by_path(samples), 0,
                          samples, daemon);
}

/// The node count after a fold created `created` nodes in a payload that
/// held `before` (unknown stays unknown).
inline std::uint64_t nodes_after_fold(bool was_empty, std::uint64_t before,
                                      std::uint64_t created) {
  if (was_empty) return created;
  return before == CarriedSizes::kUnknown ? before : before + created;
}

/// The five ReduceOps hooks, one formulation for both payload types (the
/// batched StatPayload and the per-round StreamSnapshot): each is priced
/// from the sizes the payload carries, or a fresh walk when it carries none.
template <typename Payload>
[[nodiscard]] tbon::ReduceOps<Payload> make_reduce_ops(
    const machine::MergeCosts& costs, const app::FrameTable& frames,
    const LabelContext& ctx) {
  tbon::ReduceOps<Payload> ops;
  ops.wire_bytes = [&frames, ctx](const Payload& payload) {
    return carried_wire_bytes(payload, frames, ctx);
  };
  ops.codec_cost = [costs](std::uint64_t bytes) {
    return machine::packet_codec_cost(costs, bytes);
  };
  // The modelled cost depends on the incoming payload only (streaming
  // filters charge per arrival), which lets the real merge run on a worker.
  ops.merge_cpu = [costs, &frames, ctx](const Payload& child) {
    return machine::filter_merge_cost(costs, child.node_count(),
                                      carried_wire_bytes(child, frames, ctx));
  };
  ops.merge_into = [](Payload& acc, Payload&& child) { acc.merge(child); };
  ops.carry_sizes = [&frames, ctx](Payload& payload) {
    payload.carry_sizes(frames, ctx);
  };
  return ops;
}

}  // namespace detail

/// The grouped fold: folds one daemon pass's traces into its payload as a
/// trie walk over the pass's distinct paths (see detail::fold_trie), so
/// every prefix-tree node's label is built once, with the label of every
/// trace through it and `visits` equal to their number. The trees equal
/// those a loop of insert_trace calls builds. The payload carries the node
/// count afterwards. One formulation, three consumers: the scenario's
/// sampling sinks, the planner's workload probe and statbench all fold
/// through here (and the StreamSnapshot overload), so predicted payloads
/// follow the same rule.
template <typename Label>
void fold_batch(StatPayload<Label>& payload, const app::TraceBatch& batch,
                std::uint32_t daemon) {
  using Samples = PathGroups::Samples;
  PathGroups& groups = PathGroups::for_pass(batch);
  const bool was_empty = payload.tree_2d.empty() && payload.tree_3d.empty();
  const std::uint64_t created =
      detail::fold_groups(payload.tree_2d, groups, Samples::kFirst, daemon) +
      detail::fold_groups(payload.tree_3d, groups, Samples::kAll, daemon);
  payload.sizes = {
      detail::nodes_after_fold(was_empty, payload.sizes.nodes, created),
      CarriedSizes::kUnknown};
}

template <typename Label>
[[nodiscard]] std::uint64_t payload_wire_bytes(const StatPayload<Label>& payload,
                                               const app::FrameTable& frames,
                                               const LabelContext& ctx) {
  // Two trees plus a small packet header.
  return payload.tree_2d.wire_bytes(frames, ctx) +
         payload.tree_3d.wire_bytes(frames, ctx) + kPayloadHeaderBytes;
}

/// The wire bytes a payload carries, or a fresh walk when it carries none.
template <typename Label>
[[nodiscard]] std::uint64_t carried_wire_bytes(
    const StatPayload<Label>& payload, const app::FrameTable& frames,
    const LabelContext& ctx) {
  return payload.sizes.wire != CarriedSizes::kUnknown
             ? payload.sizes.wire
             : payload_wire_bytes(payload, frames, ctx);
}

/// Builds the ReduceOps the TBON runs at every analysis node. `frames` and
/// `ctx` must outlive the reduction.
template <typename Label>
[[nodiscard]] tbon::ReduceOps<StatPayload<Label>> make_stat_reduce_ops(
    const machine::MergeCosts& costs, const app::FrameTable& frames,
    const LabelContext& ctx) {
  return detail::make_reduce_ops<StatPayload<Label>>(costs, frames, ctx);
}

/// One streaming round's payload: the per-sample snapshot tree. The front
/// end folds each round's merged snapshot into its 3D accumulator — the
/// canonical merge makes the fold order-independent, so the accumulated
/// tree is bit-identical to the classic batched 3D tree — and round 0's
/// snapshot *is* the 2D tree. operator== is the leaf's change detector.
template <typename Label>
struct StreamSnapshot {
  PrefixTree<Label> tree;
  CarriedSizes sizes;

  [[nodiscard]] std::uint64_t node_count() const {
    return sizes.nodes != CarriedSizes::kUnknown ? sizes.nodes
                                                 : tree.node_count();
  }
  void merge(const StreamSnapshot& other) {
    tree.merge(other.tree);
    sizes = {};
  }
  /// Carries both sizes (one walk) unless it already does.
  void carry_sizes(const app::FrameTable& frames, const LabelContext& ctx);

  friend bool operator==(const StreamSnapshot& a, const StreamSnapshot& b) {
    return a.tree == b.tree;
  }
};

/// Folds one gathered trace into a daemon's streaming snapshot. A snapshot
/// holds one sample, so the sample index does not matter.
template <typename Label>
void insert_trace(StreamSnapshot<Label>& snapshot, const app::CallPath& path,
                  std::uint32_t daemon, std::uint32_t local_index, TaskId task,
                  std::uint32_t /*sample*/) {
  snapshot.tree.insert(path, seed_label<Label>(daemon, local_index, task));
  snapshot.sizes = {};
}

/// The grouped fold of one daemon pass into a streaming snapshot: every
/// trace of the batch, whatever its sample.
template <typename Label>
void fold_batch(StreamSnapshot<Label>& snapshot, const app::TraceBatch& batch,
                std::uint32_t daemon) {
  const bool was_empty = snapshot.tree.empty();
  const std::uint64_t created =
      detail::fold_groups(snapshot.tree, PathGroups::for_pass(batch),
                          PathGroups::Samples::kAll, daemon);
  snapshot.sizes = {
      detail::nodes_after_fold(was_empty, snapshot.sizes.nodes, created),
      CarriedSizes::kUnknown};
}

/// Header bytes a snapshot's packet adds to its tree (the DeltaHeader is
/// charged by the streaming layer on top of this).
inline constexpr std::uint64_t kSnapshotHeaderBytes = 8;

template <typename Label>
[[nodiscard]] std::uint64_t snapshot_wire_bytes(
    const StreamSnapshot<Label>& snapshot, const app::FrameTable& frames,
    const LabelContext& ctx) {
  return snapshot.tree.wire_bytes(frames, ctx) + kSnapshotHeaderBytes;
}

template <typename Label>
void StreamSnapshot<Label>::carry_sizes(const app::FrameTable& frames,
                                        const LabelContext& ctx) {
  if (sizes.complete()) return;
  const auto s = tree.sizes(frames, ctx);
  sizes = {s.nodes, s.wire + kSnapshotHeaderBytes};
}

/// The wire bytes a snapshot carries, or a fresh walk when it carries none.
template <typename Label>
[[nodiscard]] std::uint64_t carried_wire_bytes(
    const StreamSnapshot<Label>& snapshot, const app::FrameTable& frames,
    const LabelContext& ctx) {
  return snapshot.sizes.wire != CarriedSizes::kUnknown
             ? snapshot.sizes.wire
             : snapshot_wire_bytes(snapshot, frames, ctx);
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
  ops.base = detail::make_reduce_ops<StreamSnapshot<Label>>(merge, frames, ctx);
  ops.signature_cpu = [stream](const StreamSnapshot<Label>& snapshot) {
    return machine::signature_cost(stream, snapshot.node_count());
  };
  ops.cached_merge_cpu = [merge, stream, &frames, ctx](
                             const StreamSnapshot<Label>& child) {
    return machine::cached_merge_cost(merge, stream, child.node_count(),
                                      carried_wire_bytes(child, frames, ctx));
  };
  ops.ack_cpu = machine::control_packet_cost(stream);
  return ops;
}

}  // namespace petastat::stat
