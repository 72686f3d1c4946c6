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

PathGroups& PathGroups::for_pass(const app::TraceBatch& batch) {
  thread_local PathGroups groups;
  groups.assign(batch);
  return groups;
}

void PathGroups::assign(const app::TraceBatch& batch) {
  batch_ = &batch;
  words_ = (std::size_t{batch.locals()} + 63) / 64;
  groups_.clear();
  bits_.clear();
  task_of_.assign(batch.locals(), TaskId::invalid());
  slots_.assign(16, kEmptySlot);  // power of two
  const auto slot_of = [this](std::uint64_t hash, auto&& taken) {
    std::size_t at = hash & (slots_.size() - 1);
    while (slots_[at] != kEmptySlot && taken(slots_[at])) {
      at = (at + 1) & (slots_.size() - 1);
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
    std::uint32_t g = slots_[at];
    if (g == kEmptySlot) {
      g = static_cast<std::uint32_t>(groups_.size());
      slots_[at] = g;
      groups_.push_back({hash, static_cast<std::uint32_t>(i), 0, 0});
      bits_.resize(bits_.size() + 2 * words_, 0);
      if (2 * groups_.size() > slots_.size()) {
        // Keep the load at most one half: rehash into twice the slots.
        slots_.assign(2 * slots_.size(), kEmptySlot);
        const auto occupied = [](std::uint32_t) { return true; };
        for (std::uint32_t h = 0; h < groups_.size(); ++h) {
          slots_[slot_of(groups_[h].hash, occupied)] = h;
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

  ranks_contiguous_ = true;
  for (std::size_t local = 0; local < task_of_.size(); ++local) {
    if (!task_of_[local].valid() ||
        (local > 0 && task_of_[local].value() !=
                          std::uint64_t{task_of_[local - 1].value()} + 1)) {
      ranks_contiguous_ = false;
      break;
    }
  }

  by_path_all_.resize(groups_.size());
  for (std::uint32_t g = 0; g < groups_.size(); ++g) by_path_all_[g] = g;
  std::ranges::sort(by_path_all_, [this](std::uint32_t a, std::uint32_t b) {
    return std::ranges::lexicographical_compare(path(a), path(b));
  });
  by_path_first_.clear();
  for (const std::uint32_t g : by_path_all_) {
    if (groups_[g].visits_first > 0) by_path_first_.push_back(g);
  }
}

std::uint64_t PathGroups::visits(std::span<const std::uint32_t> groups,
                                 Samples samples) const {
  std::uint64_t total = 0;
  for (const std::uint32_t g : groups) total += visits(g, samples);
  return total;
}

void PathGroups::collect_runs(std::span<const std::uint32_t> groups,
                              Samples samples) {
  const std::uint64_t* bits = bitmap(groups.front(), samples);
  if (groups.size() > 1) {
    union_.assign(bits, bits + words_);
    for (const std::uint32_t g : groups.subspan(1)) {
      const std::uint64_t* const more = bitmap(g, samples);
      for (std::size_t w = 0; w < words_; ++w) union_[w] |= more[w];
    }
    bits = union_.data();
  }
  bounds_.clear();
  for (std::size_t lo = next_bit(bits, words_, 0, true); lo < words_ * 64;) {
    const std::size_t end = next_bit(bits, words_, lo, false);
    bounds_.push_back(static_cast<std::uint32_t>(lo));
    bounds_.push_back(static_cast<std::uint32_t>(end - 1));
    lo = next_bit(bits, words_, end, true);
  }
}

GlobalLabel PathGroups::global_label(std::span<const std::uint32_t> groups,
                                     Samples samples) {
  collect_runs(groups, samples);
  GlobalLabel label{TaskSet{}, visits(groups, samples)};
  if (ranks_contiguous_) {
    // Local order is rank order, one rank apart: each run is one interval.
    const std::uint32_t base = task_of_.front().value();
    label.tasks.reserve(bounds_.size() / 2);
    for (std::size_t k = 0; k < bounds_.size(); k += 2) {
      label.tasks.append_range(base + bounds_[k], base + bounds_[k + 1]);
    }
    return label;
  }
  ranks_.clear();
  for (std::size_t k = 0; k < bounds_.size(); k += 2) {
    for (std::uint32_t local = bounds_[k]; local <= bounds_[k + 1]; ++local) {
      ranks_.push_back(task_of_[local].value());
    }
  }
  // Local order is rank order only when the resolver is monotone.
  if (!std::is_sorted(ranks_.begin(), ranks_.end())) {
    std::sort(ranks_.begin(), ranks_.end());
  }
  // Size, then write: one exact-size allocation. Repeats (two locals on one
  // rank) fold into the run they extend.
  const auto extends = [](std::uint32_t hi, std::uint32_t rank) {
    return rank == hi || rank == hi + 1;
  };
  std::size_t runs = 0;
  for (std::size_t k = 0; k < ranks_.size(); ++k) {
    if (k == 0 || !extends(ranks_[k - 1], ranks_[k])) ++runs;
  }
  label.tasks.reserve(runs);
  for (std::size_t k = 0; k < ranks_.size();) {
    std::size_t end = k + 1;
    while (end < ranks_.size() && extends(ranks_[end - 1], ranks_[end])) ++end;
    label.tasks.append_range(ranks_[k], ranks_[end - 1]);
    k = end;
  }
  return label;
}

HierLabel PathGroups::hier_label(std::span<const std::uint32_t> groups,
                                 Samples samples, std::uint32_t daemon) {
  collect_runs(groups, samples);
  return {HierTaskSet::block(daemon, bounds_), visits(groups, samples)};
}

}  // namespace petastat::stat
