// Checkpoint/restart of a streaming debug session (ROADMAP item 2).
//
// A SessionCheckpoint is the full resumable state of a --stream series at a
// round boundary: the merged prefix trees accumulated so far, the equivalence
// classes, the resolved TopologySpec, the streaming caches' validity bits,
// and the absolute SampleRequest cursor. Serialized through the versioned
// wire format (docs/WIRE_FORMAT.md), it survives a front-end loss: a restored
// StatScenario re-arms the multicast cursor mid-series instead of re-sampling
// the whole job, and may legally re-shard first (plan::resolve re-prices K
// and placement against the measured payload bytes recorded here) — the
// canonical merge keeps the final products bit-identical to the never-killed
// run either way.
//
// The prefix trees are stored as *nested wire blobs*, not decoded trees: a
// tree's FrameIds are only meaningful against the FrameTable that interned
// them, so the envelope carries the self-describing encoded form (frame
// names on every edge) and consumers decode against their own table, where
// intern-by-name is idempotent. Equivalence classes are name-based for the
// same reason.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/serializer.hpp"
#include "common/status.hpp"
#include "stat/prefix_tree.hpp"
#include "stat/scenario.hpp"
#include "stat/taskset.hpp"
#include "tbon/topology.hpp"

namespace petastat::stat {

struct SessionCheckpoint {
  // --- session identity -----------------------------------------------------
  std::string machine_name;
  std::uint32_t num_tasks = 0;
  std::uint32_t num_daemons = 0;
  /// session_identity_hash() of the configuration that produced this
  /// checkpoint. A restore against a different identity (machine, job, seed,
  /// app, evolution...) is FAILED_PRECONDITION: the cached trees would be
  /// merged with traces from a different world.
  std::uint64_t identity_hash = 0;

  // --- resumable streaming state -------------------------------------------
  /// The resolved TopologySpec the interrupted run used (what a restore
  /// adopts unless it re-plans or the CLI re-shards explicitly).
  tbon::TopologySpec spec;
  /// Absolute index of the next sample round (SampleRequest::cursor the
  /// restore re-arms with). Valid range for a restore: [1, total_rounds).
  std::uint32_t cursor = 0;
  std::uint32_t total_rounds = 0;
  double interval_seconds = 0.0;
  TaskSetRepr repr = TaskSetRepr::kHierarchical;
  std::uint64_t seed = 0;
  /// Daemons dead at the boundary (pre-sampling injection + mid-stream
  /// losses), ascending. The restored run adopts this set verbatim.
  std::vector<std::uint32_t> dead_daemons;

  // --- streaming cache summary ---------------------------------------------
  /// Per daemon: the leaf held a baseline payload for the delta protocol
  /// (tbon::Reduction::daemon_cache_valid). A restored run starts with
  /// cold caches — its first resumed round is a full merge — so these bits
  /// are the record of what the interrupted run had warmed, not state the
  /// restore replays.
  std::vector<bool> daemon_cache_valid;
  /// Per TBON proc: every live contributing child's payload was cached
  /// (tbon::Reduction::proc_cache_complete).
  std::vector<bool> proc_cache_complete;

  // --- measured payloads (the re-planning hook's input) ----------------------
  /// One daemon's serialized stream snapshot, measured at sampling time —
  /// what plan::resolve scales the predictor's payload curves by on a restore.
  std::uint64_t leaf_payload_bytes = 0;
  /// Estimated per-shard inbound payload bytes at the boundary (leaf bytes
  /// scaled by each shard's task share; one entry = the unsharded front end).
  std::vector<std::uint64_t> shard_payload_bytes;

  // --- merged products ------------------------------------------------------
  /// Versioned PrefixTree envelopes (GlobalLabel when repr is dense,
  /// HierLabel otherwise), in pre-remap daemon-order label space. tree_2d is
  /// the sample-0 tree; tree_3d the union over rounds [0, cursor).
  std::vector<std::uint8_t> tree_2d_wire;
  std::vector<std::uint8_t> tree_3d_wire;

  /// Name-based equivalence classes of the 3D tree at the boundary (task
  /// sets in MPI rank order).
  struct ClassEntry {
    std::vector<std::string> frames;
    TaskSet tasks;
  };
  std::vector<ClassEntry> classes;

  /// Versioned envelope; see docs/WIRE_FORMAT.md. Truncation decodes to
  /// INVALID_ARGUMENT, version skew to FAILED_PRECONDITION, and the nested
  /// tree blobs are validated structurally against a scratch frame table.
  void encode(ByteSink& sink) const;
  [[nodiscard]] static Result<SessionCheckpoint> decode(ByteSource& source);
  [[nodiscard]] std::vector<std::uint8_t> encoded() const;

  [[nodiscard]] bool operator==(const SessionCheckpoint& other) const;
};

[[nodiscard]] bool operator==(const SessionCheckpoint::ClassEntry& a,
                              const SessionCheckpoint::ClassEntry& b);

/// Hash of everything that determines a session's traces and task map:
/// machine name, job shape, seed, representation, app model, evolution.
/// Streaming-window fields (round count, cadence) are normalized from the
/// checkpoint at restore and deliberately excluded.
[[nodiscard]] std::uint64_t session_identity_hash(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const StatOptions& options);

/// Decodes one of the nested tree blobs against the consumer's frame table
/// (names re-intern idempotently; trailing bytes are INVALID_ARGUMENT).
template <typename Label>
[[nodiscard]] Result<PrefixTree<Label>> decode_tree_blob(
    std::span<const std::uint8_t> blob, app::FrameTable& frames,
    const LabelContext& ctx) {
  ByteSource source(blob);
  auto tree = PrefixTree<Label>::decode(source, frames, ctx);
  if (!tree.is_ok()) return tree.status();
  if (!source.exhausted()) {
    return invalid_argument("checkpoint tree blob has trailing bytes");
  }
  return tree;
}

}  // namespace petastat::stat
