// Task-set representations for prefix-tree edge labels (Sec. V).
//
// Semantically a label is a set of MPI ranks. Two wire representations are
// at issue in the paper:
//
//  * Dense bit vector (the original STAT): every label reserves one bit per
//    task of the *entire job*, regardless of how many tasks the subtree
//    covers. A million-core job needs a megabit per edge. DenseBitVector is
//    the real thing (actual words); TaskSet::encode_dense emits the same
//    bytes from the interval representation.
//
//  * Hierarchical task lists (the fix): each analysis node only represents
//    tasks within its own subtree as daemon-local lists; merges concatenate;
//    only the front end ever materializes a job-wide view, after a remap
//    from daemon order to MPI rank order (Fig. 6). See hier_taskset.hpp.
//
// TaskSet stores sorted disjoint inclusive intervals: exact set semantics
// with memory proportional to the set's fragmentation, which lets the
// simulation hold hundreds of thousands of tasks while still emitting real
// dense bytes on demand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serializer.hpp"
#include "common/status.hpp"

namespace petastat::stat {

/// Sorted, disjoint, inclusive intervals of task ranks.
class TaskSet {
 public:
  struct Interval {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;  // inclusive
    friend bool operator==(const Interval&, const Interval&) = default;
  };

  TaskSet() = default;
  /// Singleton {task}.
  static TaskSet single(std::uint32_t task);
  /// Contiguous [lo, hi] inclusive.
  static TaskSet range(std::uint32_t lo, std::uint32_t hi);

  void insert(std::uint32_t task);
  void insert_range(std::uint32_t lo, std::uint32_t hi);
  /// Updates in place when `other` is one interval that lies inside or
  /// widens exactly one interval (the result needs no new slot and leaves
  /// none empty); otherwise rebuilds into exact-size storage.
  void union_with(const TaskSet& other);

  /// Builder for rank-ordered emitters: appends [lo, hi], which must lie
  /// above every member, coalescing with the last interval when adjacent.
  /// reserve() sizes the storage up front.
  void append_range(std::uint32_t lo, std::uint32_t hi);
  void reserve(std::size_t intervals) { intervals_.reserve(intervals); }

  [[nodiscard]] bool contains(std::uint32_t task) const;
  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::size_t interval_count() const { return intervals_.size(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] std::vector<std::uint32_t> to_vector() const;
  [[nodiscard]] std::uint32_t max_task() const;  // empty() must be false

  /// True when the two sets share any task.
  [[nodiscard]] bool intersects(const TaskSet& other) const;
  /// this \ other.
  [[nodiscard]] TaskSet difference(const TaskSet& other) const;

  friend bool operator==(const TaskSet&, const TaskSet&) = default;

  /// "1022:[0,3-1023]" (Fig. 1 edge-label syntax).
  [[nodiscard]] std::string edge_label(std::size_t max_items = 8) const;

  // --- Wire formats ---------------------------------------------------------

  /// Dense format: ceil(job_size/8) bytes, bit t set iff t in set. All tasks
  /// must be < job_size.
  [[nodiscard]] std::uint64_t dense_wire_bytes(std::uint32_t job_size) const {
    return (static_cast<std::uint64_t>(job_size) + 7) / 8;
  }
  void encode_dense(ByteSink& sink, std::uint32_t job_size) const;
  static Result<TaskSet> decode_dense(ByteSource& source, std::uint32_t job_size);

  /// Ranged format: version byte, varint interval count, then delta-coded
  /// intervals. The *_body variants omit the version byte — they are the
  /// nested form composite encodings (HierTaskSet blocks) embed inside
  /// their own versioned envelope.
  [[nodiscard]] std::uint64_t ranged_wire_bytes() const;
  void encode_ranged(ByteSink& sink) const;
  static Result<TaskSet> decode_ranged(ByteSource& source);
  [[nodiscard]] std::uint64_t ranged_body_bytes() const;
  void encode_ranged_body(ByteSink& sink) const;
  static Result<TaskSet> decode_ranged_body(ByteSource& source);

 private:
  /// First interval that touches or lies above a range starting at `lo`
  /// (adjacency counts as touching).
  std::vector<Interval>::iterator first_touching(std::uint32_t lo);

  std::vector<Interval> intervals_;
};

/// A real fixed-width bit vector over [0, size). This is the original STAT
/// representation, bit for bit; unit tests prove TaskSet's dense encoding
/// equals DenseBitVector's bytes, and micro-benchmarks (Fig. 6) measure its
/// merge/serialize costs against the ranged list.
class DenseBitVector {
 public:
  explicit DenseBitVector(std::uint32_t size);

  void set(std::uint32_t bit);
  [[nodiscard]] bool test(std::uint32_t bit) const;
  void or_with(const DenseBitVector& other);  // sizes must match
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return (static_cast<std::uint64_t>(size_) + 7) / 8;
  }

  [[nodiscard]] static DenseBitVector from_task_set(const TaskSet& set,
                                                    std::uint32_t size);
  [[nodiscard]] TaskSet to_task_set() const;

  void encode(ByteSink& sink) const;
  static Result<DenseBitVector> decode(ByteSource& source, std::uint32_t size);

  friend bool operator==(const DenseBitVector&, const DenseBitVector&) = default;

 private:
  std::uint32_t size_;
  std::vector<std::uint64_t> words_;
};

}  // namespace petastat::stat
