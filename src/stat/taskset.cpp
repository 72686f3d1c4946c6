#include "stat/taskset.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace petastat::stat {

// ---------------------------------------------------------------------------
// TaskSet

namespace {

/// Calls emit(iv) for each interval of the union of two sorted interval
/// lists, in order, coalescing intervals that touch.
template <typename Emit>
void union_walk(const std::vector<TaskSet::Interval>& a,
                const std::vector<TaskSet::Interval>& b, Emit&& emit) {
  std::size_t i = 0, j = 0;
  bool open = false;
  TaskSet::Interval run;
  while (i < a.size() || j < b.size()) {
    const TaskSet::Interval next =
        j == b.size() || (i < a.size() && a[i].lo <= b[j].lo) ? a[i++]
                                                              : b[j++];
    if (open && next.lo <= (run.hi == UINT32_MAX ? run.hi : run.hi + 1)) {
      run.hi = std::max(run.hi, next.hi);
    } else {
      if (open) emit(run);
      run = next;
      open = true;
    }
  }
  if (open) emit(run);
}

}  // namespace

TaskSet TaskSet::single(std::uint32_t task) {
  TaskSet s;
  s.intervals_.push_back({task, task});
  return s;
}

TaskSet TaskSet::range(std::uint32_t lo, std::uint32_t hi) {
  check(lo <= hi, "TaskSet::range lo > hi");
  TaskSet s;
  s.intervals_.push_back({lo, hi});
  return s;
}

void TaskSet::insert(std::uint32_t task) { insert_range(task, task); }

void TaskSet::insert_range(std::uint32_t lo, std::uint32_t hi) {
  check(lo <= hi, "TaskSet::insert_range lo > hi");
  auto it = first_touching(lo);
  Interval merged{lo, hi};
  auto erase_begin = it;
  while (it != intervals_.end() && it->lo <= (hi == UINT32_MAX ? hi : hi + 1)) {
    merged.lo = std::min(merged.lo, it->lo);
    merged.hi = std::max(merged.hi, it->hi);
    ++it;
  }
  if (erase_begin == it) {
    intervals_.insert(erase_begin, merged);
  } else {
    *erase_begin = merged;
    intervals_.erase(erase_begin + 1, it);
  }
}

std::vector<TaskSet::Interval>::iterator TaskSet::first_touching(
    std::uint32_t lo) {
  return std::lower_bound(intervals_.begin(), intervals_.end(), lo,
                          [](const Interval& iv, std::uint32_t v) {
                            return iv.hi != UINT32_MAX && iv.hi + 1 < v;
                          });
}

void TaskSet::union_with(const TaskSet& other) {
  if (other.intervals_.empty()) return;
  if (intervals_.empty()) {
    intervals_ = other.intervals_;
    return;
  }
  if (other.intervals_.size() == 1) {
    // One interval (a trace's seed label) that lies inside or widens exactly
    // one interval needs no new slot: update that interval in place. One
    // that touches nothing needs a slot, and one that bridges intervals
    // leaves slots empty; both rebuild below, so storage stays exact as
    // labels coalesce.
    const Interval iv = other.intervals_.front();
    const std::uint32_t reach = iv.hi == UINT32_MAX ? iv.hi : iv.hi + 1;
    const auto it = first_touching(iv.lo);
    if (it != intervals_.end() && it->lo <= reach &&
        (it + 1 == intervals_.end() || (it + 1)->lo > reach)) {
      it->lo = std::min(it->lo, iv.lo);
      it->hi = std::max(it->hi, iv.hi);
      return;
    }
  }
  // Linear two-pointer merge of sorted interval lists, in two walks: size
  // the result, then write it into exact-size storage (coalescing intervals
  // would otherwise leave slack behind).
  std::size_t size = 0;
  union_walk(intervals_, other.intervals_, [&size](Interval) { ++size; });
  std::vector<Interval> result;
  result.reserve(size);
  union_walk(intervals_, other.intervals_,
             [&result](Interval iv) { result.push_back(iv); });
  intervals_ = std::move(result);
}

void TaskSet::append_range(std::uint32_t lo, std::uint32_t hi) {
  check(lo <= hi, "TaskSet::append_range lo > hi");
  if (intervals_.empty()) {
    intervals_.push_back({lo, hi});
    return;
  }
  Interval& back = intervals_.back();
  check(back.hi != UINT32_MAX && lo > back.hi,
        "TaskSet::append_range out of order");
  if (lo == back.hi + 1) {
    back.hi = hi;
  } else {
    intervals_.push_back({lo, hi});
  }
}

bool TaskSet::contains(std::uint32_t task) const {
  auto it = std::upper_bound(intervals_.begin(), intervals_.end(), task,
                             [](std::uint32_t v, const Interval& iv) {
                               return v < iv.lo;
                             });
  if (it == intervals_.begin()) return false;
  --it;
  return task >= it->lo && task <= it->hi;
}

std::uint64_t TaskSet::count() const {
  std::uint64_t n = 0;
  for (const auto& iv : intervals_) {
    n += static_cast<std::uint64_t>(iv.hi) - iv.lo + 1;
  }
  return n;
}

std::vector<std::uint32_t> TaskSet::to_vector() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  for (const auto& iv : intervals_) {
    for (std::uint32_t v = iv.lo;; ++v) {
      out.push_back(v);
      if (v == iv.hi) break;
    }
  }
  return out;
}

std::uint32_t TaskSet::max_task() const {
  check(!intervals_.empty(), "TaskSet::max_task on empty set");
  return intervals_.back().hi;
}

bool TaskSet::intersects(const TaskSet& other) const {
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    if (a.hi < b.lo) {
      ++i;
    } else if (b.hi < a.lo) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

TaskSet TaskSet::difference(const TaskSet& other) const {
  TaskSet out;
  std::size_t j = 0;
  for (const Interval& a : intervals_) {
    std::uint32_t lo = a.lo;
    bool open = true;
    while (j < other.intervals_.size() && other.intervals_[j].hi < lo) ++j;
    std::size_t k = j;
    while (open && k < other.intervals_.size() && other.intervals_[k].lo <= a.hi) {
      const Interval& b = other.intervals_[k];
      if (b.lo > lo) out.intervals_.push_back({lo, b.lo - 1});
      if (b.hi >= a.hi) {
        open = false;
      } else {
        lo = b.hi + 1;
        ++k;
      }
    }
    if (open) out.intervals_.push_back({lo, a.hi});
  }
  return out;
}

std::string TaskSet::edge_label(std::size_t max_items) const {
  const auto tasks = to_vector();
  return format_edge_label(tasks, max_items);
}

void TaskSet::encode_dense(ByteSink& sink, std::uint32_t job_size) const {
  const std::uint64_t nbytes = dense_wire_bytes(job_size);
  std::vector<std::uint8_t> bytes(nbytes, 0);
  for (const auto& iv : intervals_) {
    check(iv.hi < job_size, "TaskSet::encode_dense task >= job_size");
    for (std::uint32_t v = iv.lo;; ++v) {
      bytes[v >> 3] |= static_cast<std::uint8_t>(1u << (v & 7));
      if (v == iv.hi) break;
    }
  }
  sink.put_bytes(bytes);
}

Result<TaskSet> TaskSet::decode_dense(ByteSource& source,
                                      std::uint32_t job_size) {
  const std::uint64_t nbytes = (static_cast<std::uint64_t>(job_size) + 7) / 8;
  std::span<const std::uint8_t> bytes;
  if (auto s = source.get_bytes(nbytes, bytes); !s.is_ok()) return s;
  TaskSet set;
  std::uint32_t run_start = 0;
  bool in_run = false;
  for (std::uint32_t v = 0; v < job_size; ++v) {
    const bool bit = (bytes[v >> 3] >> (v & 7)) & 1;
    if (bit && !in_run) {
      run_start = v;
      in_run = true;
    } else if (!bit && in_run) {
      set.intervals_.push_back({run_start, v - 1});
      in_run = false;
    }
  }
  if (in_run) set.intervals_.push_back({run_start, job_size - 1});
  return set;
}

std::uint64_t TaskSet::ranged_wire_bytes() const {
  return 1 + ranged_body_bytes();  // version byte + body
}

void TaskSet::encode_ranged(ByteSink& sink) const {
  put_wire_version(sink);
  encode_ranged_body(sink);
}

Result<TaskSet> TaskSet::decode_ranged(ByteSource& source) {
  if (auto s = check_wire_version(source); !s.is_ok()) return s;
  return decode_ranged_body(source);
}

std::uint64_t TaskSet::ranged_body_bytes() const {
  // Mirrors encode_ranged_body.
  std::uint64_t bytes = varint_size(intervals_.size());
  std::uint32_t prev_hi = 0;
  bool first = true;
  for (const auto& iv : intervals_) {
    bytes += varint_size(first ? iv.lo : iv.lo - prev_hi - 1) +
             varint_size(iv.hi - iv.lo);
    prev_hi = iv.hi;
    first = false;
  }
  return bytes;
}

void TaskSet::encode_ranged_body(ByteSink& sink) const {
  sink.put_varint(intervals_.size());
  std::uint32_t prev_hi = 0;
  bool first = true;
  for (const auto& iv : intervals_) {
    // Delta-code: gap from the previous interval's end, then length.
    const std::uint32_t gap = first ? iv.lo : iv.lo - prev_hi - 1;
    sink.put_varint(gap);
    sink.put_varint(iv.hi - iv.lo);
    prev_hi = iv.hi;
    first = false;
  }
}

Result<TaskSet> TaskSet::decode_ranged_body(ByteSource& source) {
  std::uint64_t n = 0;
  if (auto s = source.get_varint(n); !s.is_ok()) return s;
  TaskSet set;
  set.intervals_.reserve(source.clamped_count(n));
  std::uint64_t cursor = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t gap = 0, len = 0;
    if (auto s = source.get_varint(gap); !s.is_ok()) return s;
    if (auto s = source.get_varint(len); !s.is_ok()) return s;
    if (gap > UINT32_MAX || len > UINT32_MAX) {
      return invalid_argument("ranged task set overflow");
    }
    const std::uint64_t lo = first ? gap : cursor + 1 + gap;
    const std::uint64_t hi = lo + len;
    if (hi > UINT32_MAX) return invalid_argument("ranged task set overflow");
    set.intervals_.push_back(
        {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)});
    cursor = hi;
    first = false;
  }
  return set;
}

// ---------------------------------------------------------------------------
// DenseBitVector

DenseBitVector::DenseBitVector(std::uint32_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

void DenseBitVector::set(std::uint32_t bit) {
  check(bit < size_, "DenseBitVector::set out of range");
  words_[bit >> 6] |= 1ull << (bit & 63);
}

bool DenseBitVector::test(std::uint32_t bit) const {
  check(bit < size_, "DenseBitVector::test out of range");
  return (words_[bit >> 6] >> (bit & 63)) & 1;
}

void DenseBitVector::or_with(const DenseBitVector& other) {
  check(size_ == other.size_, "DenseBitVector::or_with size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

std::uint64_t DenseBitVector::count() const {
  std::uint64_t n = 0;
  for (const auto w : words_) n += static_cast<std::uint64_t>(__builtin_popcountll(w));
  return n;
}

DenseBitVector DenseBitVector::from_task_set(const TaskSet& set,
                                             std::uint32_t size) {
  DenseBitVector bits(size);
  for (const auto& iv : set.intervals()) {
    check(iv.hi < size, "from_task_set task >= size");
    for (std::uint32_t v = iv.lo;; ++v) {
      bits.set(v);
      if (v == iv.hi) break;
    }
  }
  return bits;
}

TaskSet DenseBitVector::to_task_set() const {
  TaskSet set;
  std::uint32_t run_start = 0;
  bool in_run = false;
  for (std::uint32_t v = 0; v < size_; ++v) {
    if (test(v)) {
      if (!in_run) {
        run_start = v;
        in_run = true;
      }
    } else if (in_run) {
      set.insert_range(run_start, v - 1);
      in_run = false;
    }
  }
  if (in_run) set.insert_range(run_start, size_ - 1);
  return set;
}

void DenseBitVector::encode(ByteSink& sink) const {
  const std::uint64_t nbytes = wire_bytes();
  for (std::uint64_t b = 0; b < nbytes; ++b) {
    sink.put_u8(static_cast<std::uint8_t>(words_[b >> 3] >> ((b & 7) * 8)));
  }
}

Result<DenseBitVector> DenseBitVector::decode(ByteSource& source,
                                              std::uint32_t size) {
  DenseBitVector bits(size);
  const std::uint64_t nbytes = bits.wire_bytes();
  std::span<const std::uint8_t> bytes;
  if (auto s = source.get_bytes(nbytes, bytes); !s.is_ok()) return s;
  for (std::uint64_t b = 0; b < nbytes; ++b) {
    bits.words_[b >> 3] |= static_cast<std::uint64_t>(bytes[b]) << ((b & 7) * 8);
  }
  return bits;
}

}  // namespace petastat::stat
