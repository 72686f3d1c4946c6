#include "stat/hier_taskset.hpp"

#include <algorithm>

namespace petastat::stat {

namespace {

constexpr std::size_t kHeaderWords = 2;  // daemon, interval count

/// The lowest index an interval ending at `hi` touches (itself when `hi` is
/// the top of the index space): adjacency counts as touching.
std::uint32_t reach(std::uint32_t hi) { return hi == UINT32_MAX ? hi : hi + 1; }

/// Words of the block whose header starts at `at`.
std::size_t block_words(const std::vector<std::uint32_t>& words,
                        std::size_t at) {
  return kHeaderWords + 2 * std::size_t{words[at + 1]};
}

/// Calls emit(lo, hi) for each interval of the union of two blocks' local
/// sets, in order, coalescing intervals that touch.
template <typename Emit>
void union_intervals(const std::uint32_t* a, const std::uint32_t* b,
                     Emit&& emit) {
  const std::uint32_t* ai = a + kHeaderWords;
  const std::uint32_t* bi = b + kHeaderWords;
  const std::uint32_t* const a_end = ai + 2 * std::size_t{a[1]};
  const std::uint32_t* const b_end = bi + 2 * std::size_t{b[1]};
  bool open = false;
  std::uint32_t lo = 0, hi = 0;
  while (ai != a_end || bi != b_end) {
    const std::uint32_t*& next =
        bi == b_end || (ai != a_end && ai[0] <= bi[0]) ? ai : bi;
    if (open && next[0] <= reach(hi)) {
      hi = std::max(hi, next[1]);
    } else {
      if (open) emit(lo, hi);
      lo = next[0];
      hi = next[1];
      open = true;
    }
    next += 2;
  }
  emit(lo, hi);  // blocks are never empty
}

/// Walks two block vectors in daemon order: copy(src, from, to) for each
/// run of consecutive blocks [from, to) of `src` whose daemons the other
/// side lacks, unite(a_block, b_block) for each daemon both hold.
template <typename Copy, typename Unite>
void walk_blocks(const std::vector<std::uint32_t>& a,
                 const std::vector<std::uint32_t>& b, Copy&& copy,
                 Unite&& unite) {
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const std::size_t i0 = i;
    while (i < a.size() && (j == b.size() || a[i] < b[j])) {
      i += block_words(a, i);
    }
    if (i != i0) copy(a, i0, i);
    const std::size_t j0 = j;
    while (j < b.size() && (i == a.size() || b[j] < a[i])) {
      j += block_words(b, j);
    }
    if (j != j0) copy(b, j0, j);
    if (i < a.size() && j < b.size() && a[i] == b[j]) {
      unite(a.data() + i, b.data() + j);
      i += block_words(a, i);
      j += block_words(b, j);
    }
  }
}

}  // namespace

HierTaskSet HierTaskSet::single(std::uint32_t daemon,
                                std::uint32_t local_index) {
  HierTaskSet s;
  s.words_ = {daemon, 1, local_index, local_index};
  return s;
}

HierTaskSet HierTaskSet::block(std::uint32_t daemon,
                               std::span<const std::uint32_t> bounds) {
  check(!bounds.empty() && bounds.size() % 2 == 0,
        "HierTaskSet::block needs (lo, hi) pairs");
  for (std::size_t k = 0; k < bounds.size(); k += 2) {
    check(bounds[k] <= bounds[k + 1] &&
              (k == 0 || bounds[k] > reach(bounds[k - 1])),
          "HierTaskSet::block intervals out of order");
  }
  HierTaskSet s;
  s.words_.reserve(kHeaderWords + bounds.size());
  s.words_.push_back(daemon);
  s.words_.push_back(static_cast<std::uint32_t>(bounds.size() / 2));
  s.words_.insert(s.words_.end(), bounds.begin(), bounds.end());
  return s;
}

void HierTaskSet::splice(std::size_t at, std::size_t erase,
                         std::initializer_list<std::uint32_t> insert) {
  std::vector<std::uint32_t> out;
  out.reserve(words_.size() - erase + insert.size());
  out.insert(out.end(), words_.begin(),
             words_.begin() + static_cast<std::ptrdiff_t>(at));
  out.insert(out.end(), insert.begin(), insert.end());
  out.insert(out.end(),
             words_.begin() + static_cast<std::ptrdiff_t>(at + erase),
             words_.end());
  words_ = std::move(out);
}

void HierTaskSet::merge_seed(std::uint32_t daemon, std::uint32_t lo,
                             std::uint32_t hi) {
  std::size_t head = 0;
  while (head < words_.size() && words_[head] < daemon) {
    head += block_words(words_, head);
  }
  if (head == words_.size() || words_[head] != daemon) {
    splice(head, 0, {daemon, 1, lo, hi});  // a new daemon: one more block
    return;
  }
  // First interval that touches or lies above [lo, hi], then every interval
  // the seed touches from there.
  const std::size_t n = words_[head + 1];
  const std::uint32_t* const iv = words_.data() + head + kHeaderWords;
  std::size_t first = 0, last = n;
  while (first < last) {
    const std::size_t mid = (first + last) / 2;
    if (reach(iv[2 * mid + 1]) < lo) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  last = first;
  while (last < n && iv[2 * last] <= reach(hi)) ++last;
  const std::size_t at = head + kHeaderWords + 2 * first;
  if (last == first) {
    splice(at, 0, {lo, hi});  // touches nothing: one more interval
    ++words_[head + 1];
    return;
  }
  const std::uint32_t new_lo = std::min(lo, words_[at]);
  const std::uint32_t new_hi = std::max(hi, words_[at + 2 * (last - first) - 1]);
  if (last - first == 1) {
    // Inside or widening exactly one interval: no slot added or emptied.
    words_[at] = new_lo;
    words_[at + 1] = new_hi;
    return;
  }
  // Bridges several intervals: they collapse into one.
  splice(at, 2 * (last - first), {new_lo, new_hi});
  words_[head + 1] -= static_cast<std::uint32_t>(last - first - 1);
}

void HierTaskSet::merge(const HierTaskSet& other) {
  if (other.words_.empty()) return;
  if (words_.empty()) {
    words_ = other.words_;
    return;
  }
  const std::vector<std::uint32_t>& b = other.words_;
  if (b.size() == kHeaderWords + 2) {
    // One block of one interval: a trace's seed label.
    merge_seed(b[0], b[2], b[3]);
    return;
  }
  // Linear merge by daemon, in two walks: size the result, then write it.
  // Runs of blocks only one side holds are copied whole.
  std::size_t size = 0;
  walk_blocks(
      words_, b,
      [&size](const std::vector<std::uint32_t>&, std::size_t from,
              std::size_t to) { size += to - from; },
      [&size](const std::uint32_t* x, const std::uint32_t* y) {
        size += kHeaderWords;
        union_intervals(x, y, [&size](std::uint32_t, std::uint32_t) {
          size += 2;
        });
      });
  std::vector<std::uint32_t> out;
  out.reserve(size);
  walk_blocks(
      words_, b,
      [&out](const std::vector<std::uint32_t>& src, std::size_t from,
             std::size_t to) {
        out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(from),
                   src.begin() + static_cast<std::ptrdiff_t>(to));
      },
      [&out](const std::uint32_t* x, const std::uint32_t* y) {
        const std::size_t head = out.size();
        out.push_back(x[0]);
        out.push_back(0);
        union_intervals(x, y, [&out, head](std::uint32_t lo, std::uint32_t hi) {
          out.push_back(lo);
          out.push_back(hi);
          ++out[head + 1];
        });
      });
  words_ = std::move(out);
}

std::uint64_t HierTaskSet::count() const {
  std::uint64_t total = 0;
  for_each_block([&total](std::uint32_t, std::span<const std::uint32_t> iv) {
    for (std::size_t k = 0; k < iv.size(); k += 2) {
      total += std::uint64_t{iv[k + 1]} - iv[k] + 1;
    }
  });
  return total;
}

std::uint64_t HierTaskSet::wire_bytes() const {
  return 1 + body_wire_bytes();  // version byte + body
}

void HierTaskSet::encode(ByteSink& sink) const {
  put_wire_version(sink);
  encode_body(sink);
}

Result<HierTaskSet> HierTaskSet::decode(ByteSource& source) {
  if (auto s = check_wire_version(source); !s.is_ok()) return s;
  return decode_body(source);
}

// Daemon ids and interval starts are delta-coded against the previous
// block's daemon and the previous interval's end. Starting the previous
// value at UINT32_MAX makes the first delta, `x - prev - 1`, wrap to `x`
// itself — the absolute value the format puts first.

std::uint64_t HierTaskSet::body_wire_bytes() const {
  // Mirrors encode_body, summing varint sizes.
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;
  std::uint32_t prev = UINT32_MAX;
  for_each_block([&](std::uint32_t daemon, std::span<const std::uint32_t> iv) {
    bytes += varint_size(daemon - prev - 1) + varint_size(iv.size() / 2);
    std::uint32_t prev_hi = UINT32_MAX;
    for (std::size_t k = 0; k < iv.size(); k += 2) {
      bytes += varint_size(iv[k] - prev_hi - 1) +
               varint_size(iv[k + 1] - iv[k]);
      prev_hi = iv[k + 1];
    }
    prev = daemon;
    ++blocks;
  });
  return varint_size(blocks) + bytes;
}

void HierTaskSet::encode_body(ByteSink& sink) const {
  std::uint64_t blocks = 0;
  for_each_block([&blocks](std::uint32_t, std::span<const std::uint32_t>) {
    ++blocks;
  });
  sink.put_varint(blocks);
  std::uint32_t prev = UINT32_MAX;
  for_each_block([&](std::uint32_t daemon, std::span<const std::uint32_t> iv) {
    // The daemon delta, then the local set's ranged body: interval count,
    // then per interval the gap from the previous end and the length.
    sink.put_varint(daemon - prev - 1);
    sink.put_varint(iv.size() / 2);
    std::uint32_t prev_hi = UINT32_MAX;
    for (std::size_t k = 0; k < iv.size(); k += 2) {
      sink.put_varint(iv[k] - prev_hi - 1);
      sink.put_varint(iv[k + 1] - iv[k]);
      prev_hi = iv[k + 1];
    }
    prev = daemon;
  });
}

Result<HierTaskSet> HierTaskSet::decode_body(ByteSource& source) {
  std::uint64_t n = 0;
  if (auto s = source.get_varint(n); !s.is_ok()) return s;
  std::vector<std::uint32_t> words;
  std::uint64_t cursor = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = 0;
    if (auto s = source.get_varint(delta); !s.is_ok()) return s;
    if (delta > UINT32_MAX) return invalid_argument("daemon id overflow");
    const std::uint64_t daemon = i == 0 ? delta : cursor + 1 + delta;
    if (daemon > UINT32_MAX) return invalid_argument("daemon id overflow");
    std::uint64_t intervals = 0;
    if (auto s = source.get_varint(intervals); !s.is_ok()) return s;
    // No encoder emits an empty block, and the flat layout cannot hold one.
    if (intervals == 0) return invalid_argument("empty hierarchical block");
    if (intervals > UINT32_MAX) {
      return invalid_argument("hierarchical block interval count overflow");
    }
    words.push_back(static_cast<std::uint32_t>(daemon));
    words.push_back(static_cast<std::uint32_t>(intervals));
    std::uint64_t local = 0;
    for (std::uint64_t k = 0; k < intervals; ++k) {
      std::uint64_t gap = 0, len = 0;
      if (auto s = source.get_varint(gap); !s.is_ok()) return s;
      if (auto s = source.get_varint(len); !s.is_ok()) return s;
      if (gap > UINT32_MAX || len > UINT32_MAX) {
        return invalid_argument("ranged task set overflow");
      }
      const std::uint64_t lo = k == 0 ? gap : local + 1 + gap;
      const std::uint64_t hi = lo + len;
      if (hi > UINT32_MAX) return invalid_argument("ranged task set overflow");
      words.push_back(static_cast<std::uint32_t>(lo));
      words.push_back(static_cast<std::uint32_t>(hi));
      local = hi;
    }
    cursor = daemon;
  }
  HierTaskSet set;
  set.words_.assign(words.begin(), words.end());  // exact size
  return set;
}

// ---------------------------------------------------------------------------
// TaskMap

TaskMap TaskMap::identity(const machine::DaemonLayout& layout) {
  TaskMap map;
  map.base_rank_.resize(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    map.base_rank_[d] = layout.first_task_of(DaemonId(d));
  }
  return map;
}

TaskMap TaskMap::shuffled(const machine::DaemonLayout& layout,
                          std::uint64_t seed) {
  // Permute which rank block each daemon owns. All daemons except possibly
  // the last serve exactly tasks_per_daemon ranks; to keep block sizes
  // aligned under permutation, the (short) last daemon keeps its block.
  TaskMap map = identity(layout);
  Rng rng(seed, /*stream_id=*/0x3a9);
  const std::uint32_t n = layout.num_daemons;
  const std::uint32_t full =
      (layout.num_tasks % layout.tasks_per_daemon == 0) ? n : n - 1;
  for (std::uint32_t i = full; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i));
    std::swap(map.base_rank_[i - 1], map.base_rank_[j]);
  }
  return map;
}

std::uint32_t TaskMap::global_rank(std::uint32_t daemon,
                                   std::uint32_t local_index) const {
  check(daemon < base_rank_.size(), "TaskMap::global_rank unknown daemon");
  return base_rank_[daemon] + local_index;
}

TaskSet TaskMap::remap(const HierTaskSet& hier) const {
  // Daemons own disjoint contiguous rank blocks, so visiting blocks in base
  // rank order emits every interval in rank order: one sort of the blocks,
  // then a linear append that coalesces intervals abutting across daemons.
  struct Block {
    std::uint32_t base;
    std::span<const std::uint32_t> bounds;
  };
  std::vector<Block> order;
  std::size_t intervals = 0;
  hier.for_each_block(
      [&](std::uint32_t daemon, std::span<const std::uint32_t> bounds) {
        check(daemon < base_rank_.size(), "TaskMap::remap unknown daemon");
        order.push_back({base_rank_[daemon], bounds});
        intervals += bounds.size() / 2;
      });
  std::sort(order.begin(), order.end(),
            [](const Block& x, const Block& y) { return x.base < y.base; });
  TaskSet out;
  out.reserve(intervals);
  for (const auto& [base, bounds] : order) {
    for (std::size_t k = 0; k < bounds.size(); k += 2) {
      out.append_range(base + bounds[k], base + bounds[k + 1]);
    }
  }
  return out;
}

}  // namespace petastat::stat
