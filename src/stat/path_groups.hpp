// A daemon pass's traces grouped by call path: the grouped fold's index.
//
// A daemon's tasks follow few distinct call paths (a 208K BG/L pass folds
// 1,280 traces over about 4), so the fold inserts each distinct path once
// per tree with the group's label instead of merging one seed label per
// frame of every trace. Each group keeps two bitmaps over the daemon's local
// indices — the traces of sample 0 (the 2D tree) and of every sample (the
// 3D tree and stream snapshots) — and a visit count for each. Labels are
// built from the bitmaps in local-index order, so each is allocated once at
// exact size.
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

  /// Groups `batch` by call path: FrameId sequences are hashed into an
  /// open-addressed table and compared whenever two hashes match. The batch
  /// must outlive the groups.
  explicit PathGroups(const app::TraceBatch& batch);

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

  /// Group `g`'s dense label over `samples`: the global ranks of its local
  /// indices, which the batch resolves. Correct for any resolver, in rank
  /// order or not.
  [[nodiscard]] GlobalLabel global_label(std::size_t g, Samples samples) const;
  /// Group `g`'s hierarchical label over `samples`: one block of `daemon`.
  [[nodiscard]] HierLabel hier_label(std::size_t g, Samples samples,
                                     std::uint32_t daemon) const;

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
  /// Calls f(lo, hi) for each maximal run [lo, hi] of set local indices.
  template <typename F>
  void for_each_run(std::size_t g, Samples samples, F&& f) const;

  const app::TraceBatch* batch_;
  std::vector<Group> groups_;
  std::size_t words_ = 0;            // bitmap words per group and samples
  std::vector<std::uint64_t> bits_;  // per group: kFirst words, kAll words
  std::vector<TaskId> task_of_;      // by local index
};

}  // namespace petastat::stat
