// A daemon pass's traces grouped by call path: the grouped fold's index.
//
// A daemon's tasks follow few distinct call paths (a 208K BG/L pass folds
// 1,280 traces over about 4), so the fold builds each prefix-tree node's
// label once, from the groups whose path runs through it, instead of
// merging one seed label per frame of every trace. Each group keeps two
// bitmaps over the daemon's local indices — the traces of sample 0 (the 2D
// tree) and of every sample (the 3D tree and stream snapshots) — and a
// visit count for each. A label is built from the union of its groups'
// bitmaps in local-index order, so each is allocated once at exact size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "app/trace_batch.hpp"
#include "stat/prefix_tree.hpp"

namespace petastat::stat {

class PathGroups {
 public:
  /// Which traces of a group a label covers.
  enum class Samples : std::uint8_t {
    kFirst,  // sample 0 only: the 2D trace/space tree
    kAll,    // every sample: the 3D tree, or a stream snapshot
  };

  PathGroups() = default;
  explicit PathGroups(const app::TraceBatch& batch) { assign(batch); }

  /// This thread's groups, regrouped for `batch`: one PathGroups per thread
  /// serves every pass folded there, so grouping allocates only while a
  /// pass outgrows every pass before it on that thread. Valid until the
  /// thread's next call.
  static PathGroups& for_pass(const app::TraceBatch& batch);

  /// Groups `batch` by call path, reusing this object's storage: FrameId
  /// sequences are hashed into an open-addressed table and compared
  /// whenever two hashes match. The batch must outlive the groups' use.
  void assign(const app::TraceBatch& batch);

  /// Distinct paths, in order of first appearance in the batch.
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] std::span<const FrameId> path(std::size_t g) const {
    return batch_->path(groups_[g].trace);
  }
  /// Traces of group `g` among `samples` (0: the group is absent there).
  [[nodiscard]] std::uint64_t visits(std::size_t g, Samples samples) const {
    return samples == Samples::kFirst ? groups_[g].visits_first
                                      : groups_[g].visits_all;
  }

  /// The groups present among `samples`, in path order: lexicographic by
  /// frame id, a path before its extensions. Groups that share a prefix are
  /// contiguous here, which is what lets a fold build the prefix tree as a
  /// trie walk.
  [[nodiscard]] std::span<const std::uint32_t> by_path(Samples samples) const {
    return samples == Samples::kFirst ? by_path_first_ : by_path_all_;
  }

  /// The dense label of the traces of `groups` among `samples`: the global
  /// ranks of their local indices, which the batch resolves, with visits
  /// summed. Correct for any resolver, in rank order or not.
  [[nodiscard]] GlobalLabel global_label(std::span<const std::uint32_t> groups,
                                         Samples samples);
  /// The hierarchical label of the same traces: one block of `daemon`.
  [[nodiscard]] HierLabel hier_label(std::span<const std::uint32_t> groups,
                                     Samples samples, std::uint32_t daemon);

 private:
  struct Group {
    std::uint64_t hash = 0;
    std::uint32_t trace = 0;  // first trace on this path
    std::uint64_t visits_first = 0;
    std::uint64_t visits_all = 0;
  };

  [[nodiscard]] const std::uint64_t* bitmap(std::size_t g,
                                            Samples samples) const {
    return bits_.data() +
           (2 * g + (samples == Samples::kFirst ? 0 : 1)) * words_;
  }
  [[nodiscard]] std::uint64_t visits(std::span<const std::uint32_t> groups,
                                     Samples samples) const;
  /// Fills bounds_ with the maximal runs of local indices, as inclusive
  /// (lo, hi) pairs, of the union of `groups`' bitmaps.
  void collect_runs(std::span<const std::uint32_t> groups, Samples samples);

  const app::TraceBatch* batch_ = nullptr;
  std::vector<Group> groups_;
  std::size_t words_ = 0;            // bitmap words per group and samples
  std::vector<std::uint64_t> bits_;  // per group: kFirst words, kAll words
  std::vector<TaskId> task_of_;      // by local index
  // Every local index present and its rank one above the previous local's:
  // a run of locals is then one interval of ranks.
  bool ranks_contiguous_ = false;
  std::vector<std::uint32_t> by_path_all_;
  std::vector<std::uint32_t> by_path_first_;
  // Scratch, reused pass after pass.
  std::vector<std::uint32_t> slots_;   // the hash table: group or empty
  std::vector<std::uint64_t> union_;   // the union of several bitmaps
  std::vector<std::uint32_t> bounds_;  // collect_runs' output
  std::vector<std::uint32_t> ranks_;   // a dense label's ranks, unsorted
};

}  // namespace petastat::stat
