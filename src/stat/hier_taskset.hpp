// Hierarchical task lists: the optimized edge-label representation (Sec. V-B,
// Fig. 6b).
//
// Each analysis node only represents tasks within its own subtree, as a list
// of (daemon, daemon-local task indices) blocks. Merging along the tree is
// block concatenation (daemon ids are disjoint across sibling subtrees). In
// memory the blocks lie flat in one vector; on the wire each block is a
// daemon delta plus a ranged task-set body, and the two layouts are
// independent (the bytes do not depend on how the set is stored).
// Because compute nodes are not guaranteed to map to daemons in MPI rank
// order, the front end performs a final remap from (daemon, local index) to
// global MPI rank using the process-table map collected once at setup.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serializer.hpp"
#include "common/status.hpp"
#include "machine/machine.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {

/// Per-subtree task membership: (daemon, local-index set) blocks, sorted by
/// daemon, stored flat in one vector. Each block is the words
/// [daemon, n, lo_0, hi_0, ..., lo_{n-1}, hi_{n-1}]: n >= 1 sorted, disjoint,
/// inclusive intervals of daemon-local task indices. A copy, merge or
/// rebuild of a label therefore costs one allocation, not one per block.
class HierTaskSet {
 public:
  HierTaskSet() = default;

  /// Singleton: local task `local_index` of `daemon`.
  static HierTaskSet single(std::uint32_t daemon, std::uint32_t local_index);

  /// Block builder: one block of `daemon` whose local intervals are
  /// `bounds`, as inclusive (lo, hi) pairs — at least one, sorted, and
  /// neither overlapping nor abutting. Stored at exact size.
  static HierTaskSet block(std::uint32_t daemon,
                           std::span<const std::uint32_t> bounds);

  /// Merge another subtree's membership into this one. Sibling subtrees
  /// cover disjoint daemons, so this is concatenation; same-daemon blocks
  /// (re-merging within one daemon) union their local intervals. A
  /// one-interval `other` (a trace's seed label) updates in place when the
  /// result needs no slot added or emptied; every other result is rebuilt
  /// at exact size.
  void merge(const HierTaskSet& other);

  void insert(std::uint32_t daemon, std::uint32_t local_index) {
    merge(single(daemon, local_index));
  }

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] bool empty() const { return words_.empty(); }

  /// Visits the blocks in daemon order: f(daemon, bounds), where `bounds`
  /// holds the block's local intervals as inclusive (lo, hi) pairs.
  template <typename F>
  void for_each_block(F&& f) const {
    for (std::size_t at = 0; at < words_.size();) {
      const std::size_t bounds = 2 * std::size_t{words_[at + 1]};
      f(words_[at],
        std::span<const std::uint32_t>(words_.data() + at + 2, bounds));
      at += 2 + bounds;
    }
  }

  friend bool operator==(const HierTaskSet&, const HierTaskSet&) = default;

  /// Wire format: version byte, varint block count, then per block varint
  /// daemon delta and the local set's ranged body. The *_body variants omit
  /// the version byte — the nested form prefix-tree labels embed inside the
  /// tree's versioned envelope.
  [[nodiscard]] std::uint64_t wire_bytes() const;
  void encode(ByteSink& sink) const;
  static Result<HierTaskSet> decode(ByteSource& source);
  [[nodiscard]] std::uint64_t body_wire_bytes() const;
  void encode_body(ByteSink& sink) const;
  static Result<HierTaskSet> decode_body(ByteSource& source);

 private:
  /// Unions the one-interval seed [lo, hi] of `daemon` into this set.
  void merge_seed(std::uint32_t daemon, std::uint32_t lo, std::uint32_t hi);
  /// Rebuilds words_ at exact size with `erase` words at `at` replaced by
  /// `insert`.
  void splice(std::size_t at, std::size_t erase,
              std::initializer_list<std::uint32_t> insert);

  std::vector<std::uint32_t> words_;  // blocks, sorted by daemon
};

/// The process-table map: daemon + local index -> global MPI rank. The
/// paper's point is that this mapping is *not* guaranteed to follow rank
/// order, hence the explicit remap step at the front end; `shuffled()`
/// produces such an out-of-order assignment for testing and benching.
class TaskMap {
 public:
  /// Rank-ordered map: daemon d starts at d * tasks_per_daemon.
  static TaskMap identity(const machine::DaemonLayout& layout);

  /// Deterministically permuted daemon-to-rank-block assignment: daemons
  /// still own contiguous rank blocks, but block order is shuffled (the
  /// realistic "nodes not in MPI rank order" case).
  static TaskMap shuffled(const machine::DaemonLayout& layout,
                          std::uint64_t seed);

  [[nodiscard]] std::uint32_t global_rank(std::uint32_t daemon,
                                          std::uint32_t local_index) const;

  /// Remaps a hierarchical set to global MPI ranks (the Fig. 6b remap).
  [[nodiscard]] TaskSet remap(const HierTaskSet& hier) const;

  [[nodiscard]] std::uint32_t num_daemons() const {
    return static_cast<std::uint32_t>(base_rank_.size());
  }

 private:
  std::vector<std::uint32_t> base_rank_;  // per daemon
};

}  // namespace petastat::stat
