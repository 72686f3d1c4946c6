#include "stat/hier_taskset.hpp"

#include <algorithm>
#include <numeric>

namespace petastat::stat {

namespace {

/// First block whose daemon is not below `daemon`.
std::vector<HierTaskSet::Block>::iterator lower_block(
    std::vector<HierTaskSet::Block>& blocks, std::uint32_t daemon) {
  return std::lower_bound(blocks.begin(), blocks.end(), daemon,
                          [](const HierTaskSet::Block& b, std::uint32_t d) {
                            return b.daemon < d;
                          });
}

}  // namespace

HierTaskSet HierTaskSet::single(std::uint32_t daemon,
                                std::uint32_t local_index) {
  HierTaskSet s;
  s.blocks_.push_back({daemon, TaskSet::single(local_index)});
  return s;
}

void HierTaskSet::insert(std::uint32_t daemon, std::uint32_t local_index) {
  const auto it = lower_block(blocks_, daemon);
  if (it != blocks_.end() && it->daemon == daemon) {
    it->local.insert(local_index);
  } else {
    blocks_.insert(it, {daemon, TaskSet::single(local_index)});
  }
}

void HierTaskSet::merge(const HierTaskSet& other) {
  if (other.blocks_.empty()) return;
  if (blocks_.empty()) {
    blocks_ = other.blocks_;
    return;
  }
  if (other.blocks_.size() == 1) {
    // One block (a trace's seed label): a known daemon unions into its
    // block in place; only a new daemon needs the rebuild below.
    const Block& block = other.blocks_.front();
    const auto it = lower_block(blocks_, block.daemon);
    if (it != blocks_.end() && it->daemon == block.daemon) {
      it->local.union_with(block.local);
      return;
    }
  }
  // Linear merge by daemon into exact-size storage.
  std::vector<Block> result;
  result.reserve(blocks_.size() + other.blocks_.size());
  std::size_t i = 0, j = 0;
  while (i < blocks_.size() || j < other.blocks_.size()) {
    if (j >= other.blocks_.size()) {
      result.push_back(std::move(blocks_[i++]));
    } else if (i >= blocks_.size()) {
      result.push_back(other.blocks_[j++]);
    } else if (blocks_[i].daemon < other.blocks_[j].daemon) {
      result.push_back(std::move(blocks_[i++]));
    } else if (other.blocks_[j].daemon < blocks_[i].daemon) {
      result.push_back(other.blocks_[j++]);
    } else {
      Block merged = std::move(blocks_[i++]);
      merged.local.union_with(other.blocks_[j++].local);
      result.push_back(std::move(merged));
    }
  }
  blocks_ = std::move(result);
}

std::uint64_t HierTaskSet::count() const {
  return std::accumulate(blocks_.begin(), blocks_.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const Block& b) {
                           return acc + b.local.count();
                         });
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

std::uint64_t HierTaskSet::body_wire_bytes() const {
  ByteSink sink;
  encode_body(sink);
  return sink.size();
}

void HierTaskSet::encode_body(ByteSink& sink) const {
  sink.put_varint(blocks_.size());
  std::uint32_t prev = 0;
  bool first = true;
  for (const auto& block : blocks_) {
    sink.put_varint(first ? block.daemon : block.daemon - prev - 1);
    block.local.encode_ranged_body(sink);
    prev = block.daemon;
    first = false;
  }
}

Result<HierTaskSet> HierTaskSet::decode_body(ByteSource& source) {
  std::uint64_t n = 0;
  if (auto s = source.get_varint(n); !s.is_ok()) return s;
  HierTaskSet set;
  set.blocks_.reserve(source.clamped_count(n));
  std::uint64_t cursor = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = 0;
    if (auto s = source.get_varint(delta); !s.is_ok()) return s;
    if (delta > UINT32_MAX) return invalid_argument("daemon id overflow");
    const std::uint64_t daemon = first ? delta : cursor + 1 + delta;
    if (daemon > UINT32_MAX) return invalid_argument("daemon id overflow");
    auto local = TaskSet::decode_ranged_body(source);
    if (!local.is_ok()) return local.status();
    set.blocks_.push_back(
        {static_cast<std::uint32_t>(daemon), std::move(local).value()});
    cursor = daemon;
    first = false;
  }
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
  const auto& blocks = hier.blocks();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // (base, block)
  order.reserve(blocks.size());
  std::size_t intervals = 0;
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    check(blocks[b].daemon < base_rank_.size(), "TaskMap::remap unknown daemon");
    order.emplace_back(base_rank_[blocks[b].daemon], b);
    intervals += blocks[b].local.interval_count();
  }
  std::sort(order.begin(), order.end());
  TaskSet out;
  out.reserve(intervals);
  for (const auto& [base, b] : order) {
    for (const auto& iv : blocks[b].local.intervals()) {
      out.append_range(base + iv.lo, base + iv.hi);
    }
  }
  return out;
}

}  // namespace petastat::stat
