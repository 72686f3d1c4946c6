#include "stat/path_groups.hpp"

#include <algorithm>
#include <bit>

namespace petastat::stat {

namespace {

constexpr std::uint32_t kEmptySlot = UINT32_MAX;

/// A multilinear hash: frame i is weighted by its own odd multiplier, so
/// the products are independent and only the sum is a dependency chain.
std::uint64_t hash_path(std::span<const FrameId> path) {
  std::uint64_t h = path.size();
  std::uint64_t weight = 0x9e3779b97f4a7c15ULL;
  for (const FrameId frame : path) {
    h += (std::uint64_t{frame.value()} + 1) * weight;
    weight += 0xda942042e4dd58b6ULL;  // even step: weights stay odd
  }
  // SplitMix64 finalizer: the table indexes by the low bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// The first bit at or after `from` that equals `value`, or words * 64.
std::size_t next_bit(const std::uint64_t* bits, std::size_t words,
                     std::size_t from, bool value) {
  std::size_t w = from / 64;
  if (w >= words) return words * 64;
  std::uint64_t word = (value ? bits[w] : ~bits[w]) & (~0ULL << (from % 64));
  while (word == 0) {
    if (++w == words) return words * 64;
    word = value ? bits[w] : ~bits[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
}

}  // namespace

PathGroups::PathGroups(const app::TraceBatch& batch)
    : batch_(&batch), words_((std::size_t{batch.locals()} + 63) / 64) {
  task_of_.assign(batch.locals(), TaskId::invalid());
  std::vector<std::uint32_t> slots(16, kEmptySlot);  // power of two
  const auto slot_of = [&slots](std::uint64_t hash, auto&& taken) {
    std::size_t at = hash & (slots.size() - 1);
    while (slots[at] != kEmptySlot && taken(slots[at])) {
      at = (at + 1) & (slots.size() - 1);
    }
    return at;
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const FrameId> trace_path = batch.path(i);
    const std::uint64_t hash = hash_path(trace_path);
    const std::size_t at = slot_of(hash, [&](std::uint32_t g) {
      return groups_[g].hash != hash ||
             !std::ranges::equal(batch.path(groups_[g].trace), trace_path);
    });
    std::uint32_t g = slots[at];
    if (g == kEmptySlot) {
      g = static_cast<std::uint32_t>(groups_.size());
      slots[at] = g;
      groups_.push_back({hash, static_cast<std::uint32_t>(i), 0, 0});
      bits_.resize(bits_.size() + 2 * words_, 0);
      if (2 * groups_.size() > slots.size()) {
        // Keep the load at most one half: rehash into twice the slots.
        slots.assign(2 * slots.size(), kEmptySlot);
        const auto occupied = [](std::uint32_t) { return true; };
        for (std::uint32_t h = 0; h < groups_.size(); ++h) {
          slots[slot_of(groups_[h].hash, occupied)] = h;
        }
      }
    }
    // The trace's local index into its group's bitmaps.
    const app::TraceBatch::Trace& trace = batch.trace(i);
    Group& group = groups_[g];
    const std::size_t word = trace.local_index / 64;
    const std::uint64_t bit = std::uint64_t{1} << (trace.local_index % 64);
    std::uint64_t* const first = bits_.data() + 2 * std::size_t{g} * words_;
    if (trace.sample == 0) {
      first[word] |= bit;
      ++group.visits_first;
    }
    first[words_ + word] |= bit;
    ++group.visits_all;
    task_of_[trace.local_index] = trace.task;
  }
}

template <typename F>
void PathGroups::for_each_run(std::size_t g, Samples samples, F&& f) const {
  const std::uint64_t* const bits = bitmap(g, samples);
  for (std::size_t lo = next_bit(bits, words_, 0, true); lo < words_ * 64;) {
    const std::size_t end = next_bit(bits, words_, lo, false);
    f(static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(end - 1));
    lo = next_bit(bits, words_, end, true);
  }
}

GlobalLabel PathGroups::global_label(std::size_t g, Samples samples) const {
  std::vector<std::uint32_t> ranks;
  for_each_run(g, samples, [&](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t local = lo; local <= hi; ++local) {
      ranks.push_back(task_of_[local].value());
    }
  });
  // Local order is rank order only when the resolver is monotone.
  if (!std::is_sorted(ranks.begin(), ranks.end())) {
    std::sort(ranks.begin(), ranks.end());
  }
  // Size, then write: one exact-size allocation. Repeats (two locals on one
  // rank) fold into the run they extend.
  const auto extends = [](std::uint32_t hi, std::uint32_t rank) {
    return rank == hi || rank == hi + 1;
  };
  std::size_t runs = 0;
  for (std::size_t k = 0; k < ranks.size(); ++k) {
    if (k == 0 || !extends(ranks[k - 1], ranks[k])) ++runs;
  }
  GlobalLabel label{TaskSet{}, visits(g, samples)};
  label.tasks.reserve(runs);
  for (std::size_t k = 0; k < ranks.size();) {
    std::size_t end = k + 1;
    while (end < ranks.size() && extends(ranks[end - 1], ranks[end])) ++end;
    label.tasks.append_range(ranks[k], ranks[end - 1]);
    k = end;
  }
  return label;
}

HierLabel PathGroups::hier_label(std::size_t g, Samples samples,
                                 std::uint32_t daemon) const {
  std::vector<std::uint32_t> bounds;
  for_each_run(g, samples, [&bounds](std::uint32_t lo, std::uint32_t hi) {
    bounds.push_back(lo);
    bounds.push_back(hi);
  });
  return {HierTaskSet::block(daemon, bounds), visits(g, samples)};
}

}  // namespace petastat::stat
