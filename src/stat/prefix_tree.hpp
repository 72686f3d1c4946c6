// Call-graph prefix trees (Sec. II, Fig. 1).
//
// STAT merges stack traces into a prefix tree whose edges are labelled with
// the set of tasks whose trace follows that edge. The 2D trace/space tree
// merges one sample across tasks; the 3D trace/space/time tree accumulates
// all samples. The tree is generic over the label representation:
//
//  * GlobalLabel — global task sets with dense-bit-vector wire accounting
//    (the original implementation whose linear scaling Fig. 5 exposes);
//  * HierLabel   — hierarchical daemon-local task lists with ranged wire
//    format (the Sec. V-B optimization, Fig. 7).
//
// Merges are real structural merges; serialized sizes are the real encoded
// sizes of each representation and feed the network model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "app/callpath.hpp"
#include "common/serializer.hpp"
#include "common/status.hpp"
#include "stat/hier_taskset.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {

/// Context a label needs for wire accounting (the dense format's size is a
/// function of the whole job, which is precisely its pathology).
struct LabelContext {
  std::uint32_t job_size = 0;
};

/// Original representation: a full-job task set; dense wire format.
struct GlobalLabel {
  TaskSet tasks;
  std::uint64_t visits = 0;  // total trace insertions (time dimension)

  static GlobalLabel for_task(std::uint32_t task) {
    return {TaskSet::single(task), 1};
  }

  void merge(const GlobalLabel& other) {
    tasks.union_with(other.tasks);
    visits += other.visits;
  }

  [[nodiscard]] std::uint64_t member_count() const { return tasks.count(); }

  [[nodiscard]] std::uint64_t wire_bytes(const LabelContext& ctx) const {
    // Dense bit vector sized for the whole job plus the visit counter.
    return tasks.dense_wire_bytes(ctx.job_size) + 4;
  }
  void encode(ByteSink& sink, const LabelContext& ctx) const {
    tasks.encode_dense(sink, ctx.job_size);
    sink.put_u32(static_cast<std::uint32_t>(visits));
  }
  static Result<GlobalLabel> decode(ByteSource& source, const LabelContext& ctx) {
    auto tasks = TaskSet::decode_dense(source, ctx.job_size);
    if (!tasks.is_ok()) return tasks.status();
    std::uint32_t visits = 0;
    if (auto s = source.get_u32(visits); !s.is_ok()) return s;
    return GlobalLabel{std::move(tasks).value(), visits};
  }

  friend bool operator==(const GlobalLabel&, const GlobalLabel&) = default;
};

/// Optimized representation: subtree-local daemon task lists; ranged wire.
struct HierLabel {
  HierTaskSet tasks;
  std::uint64_t visits = 0;

  static HierLabel for_local(std::uint32_t daemon, std::uint32_t local_index) {
    return {HierTaskSet::single(daemon, local_index), 1};
  }

  void merge(const HierLabel& other) {
    tasks.merge(other.tasks);
    visits += other.visits;
  }

  [[nodiscard]] std::uint64_t member_count() const { return tasks.count(); }

  // Labels are nested inside the tree's versioned envelope: body form only.
  [[nodiscard]] std::uint64_t wire_bytes(const LabelContext&) const {
    return tasks.body_wire_bytes() + 4;
  }
  void encode(ByteSink& sink, const LabelContext&) const {
    tasks.encode_body(sink);
    sink.put_u32(static_cast<std::uint32_t>(visits));
  }
  static Result<HierLabel> decode(ByteSource& source, const LabelContext&) {
    auto tasks = HierTaskSet::decode_body(source);
    if (!tasks.is_ok()) return tasks.status();
    std::uint32_t visits = 0;
    if (auto s = source.get_u32(visits); !s.is_ok()) return s;
    return HierLabel{std::move(tasks).value(), visits};
  }

  friend bool operator==(const HierLabel&, const HierLabel&) = default;
};

/// Merged call-graph prefix tree with Label-typed edge annotations.
template <typename Label>
class PrefixTree {
 public:
  struct Node {
    FrameId frame;
    Label label{};
    std::vector<Node> children;  // sorted by frame id

    [[nodiscard]] Node* find_child(FrameId f) {
      auto it = std::lower_bound(children.begin(), children.end(), f,
                                 [](const Node& n, FrameId v) {
                                   return n.frame < v;
                                 });
      return (it != children.end() && it->frame == f) ? &*it : nullptr;
    }
    [[nodiscard]] const Node* find_child(FrameId f) const {
      return const_cast<Node*>(this)->find_child(f);
    }
    Node& ensure_child(FrameId f) {
      auto it = std::lower_bound(children.begin(), children.end(), f,
                                 [](const Node& n, FrameId v) {
                                   return n.frame < v;
                                 });
      if (it != children.end() && it->frame == f) return *it;
      return *children.insert(it, Node{f, Label{}, {}});
    }
  };

  PrefixTree() { root_.frame = FrameId::invalid(); }

  /// Inserts one trace: `seed` is merged into every edge along the path.
  void insert(std::span<const FrameId> path, const Label& seed) {
    Node* node = &root_;
    for (const FrameId frame : path) {
      node = &node->ensure_child(frame);
      node->label.merge(seed);
    }
  }

  /// Real structural merge of another tree into this one.
  void merge(const PrefixTree& other) { merge_children(root_, other.root_); }

  [[nodiscard]] const Node& root() const { return root_; }
  [[nodiscard]] Node& root() { return root_; }
  [[nodiscard]] bool empty() const { return root_.children.empty(); }

  [[nodiscard]] std::size_t node_count() const { return count_nodes(root_) - 1; }

  /// Maximum root-to-leaf depth.
  [[nodiscard]] std::size_t depth() const { return depth_of(root_); }

  /// Total wire size: a version byte, then per node the frame name, the
  /// label, and the child count. Nothing is encoded: dense labels and
  /// hierarchical labels (summed varint sizes) are both sized
  /// arithmetically.
  [[nodiscard]] std::uint64_t wire_bytes(const app::FrameTable& frames,
                                         const LabelContext& ctx) const {
    return sizes(frames, ctx).wire;
  }

  struct Sizes {
    std::uint64_t nodes = 0;
    std::uint64_t wire = 0;
  };
  /// node_count() and wire_bytes() in one walk.
  [[nodiscard]] Sizes sizes(const app::FrameTable& frames,
                            const LabelContext& ctx) const {
    Sizes sizes{0, 1};  // the version byte
    add_sizes(root_, frames, ctx, sizes);
    return sizes;
  }

  void encode(ByteSink& sink, const app::FrameTable& frames,
              const LabelContext& ctx) const {
    put_wire_version(sink);
    encode_node(root_, sink, frames, ctx, /*is_root=*/true);
  }
  /// Deepest tree decode() accepts. Real stacks are tens of frames; the
  /// limit only exists so crafted input exhausts the Status budget, not the
  /// call stack.
  static constexpr std::size_t kMaxDecodeDepth = 512;

  static Result<PrefixTree> decode(ByteSource& source, app::FrameTable& frames,
                                   const LabelContext& ctx) {
    if (auto s = check_wire_version(source); !s.is_ok()) return s;
    PrefixTree tree;
    if (auto s = decode_children(tree.root_, source, frames, ctx, 0);
        !s.is_ok()) {
      return s;
    }
    return tree;
  }

  /// Preorder visit: f(path_of_frames, node). Path excludes the virtual root.
  template <typename F>
  void visit(F&& f) const {
    std::vector<FrameId> path;
    visit_node(root_, path, f);
  }

  friend bool operator==(const PrefixTree& a, const PrefixTree& b) {
    return nodes_equal(a.root_, b.root_);
  }

 private:
  static bool nodes_equal(const Node& a, const Node& b) {
    if (a.frame != b.frame || !(a.label == b.label) ||
        a.children.size() != b.children.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.children.size(); ++i) {
      if (!nodes_equal(a.children[i], b.children[i])) return false;
    }
    return true;
  }

  static void merge_children(Node& into, const Node& from) {
    for (const Node& child : from.children) {
      Node& target = into.ensure_child(child.frame);
      target.label.merge(child.label);
      merge_children(target, child);
    }
  }

  static std::size_t count_nodes(const Node& node) {
    std::size_t n = 1;
    for (const auto& c : node.children) n += count_nodes(c);
    return n;
  }

  static std::size_t depth_of(const Node& node) {
    std::size_t d = 0;
    for (const auto& c : node.children) d = std::max(d, 1 + depth_of(c));
    return d;
  }

  static void add_sizes(const Node& node, const app::FrameTable& frames,
                        const LabelContext& ctx, Sizes& sizes) {
    sizes.wire += varint_size(node.children.size());  // child count
    for (const auto& child : node.children) {
      ++sizes.nodes;
      const std::size_t name = frames.name(child.frame).size();
      sizes.wire += varint_size(name) + name;
      sizes.wire += child.label.wire_bytes(ctx);
      add_sizes(child, frames, ctx, sizes);
    }
  }

  static void encode_node(const Node& node, ByteSink& sink,
                          const app::FrameTable& frames, const LabelContext& ctx,
                          bool is_root) {
    if (!is_root) {
      sink.put_string(frames.name(node.frame));
      node.label.encode(sink, ctx);
    }
    sink.put_varint(node.children.size());
    for (const auto& child : node.children) {
      encode_node(child, sink, frames, ctx, false);
    }
  }

  static Status decode_children(Node& node, ByteSource& source,
                                app::FrameTable& frames, const LabelContext& ctx,
                                std::size_t depth) {
    if (depth > kMaxDecodeDepth) {
      return invalid_argument("prefix tree exceeds maximum decode depth");
    }
    std::uint64_t n = 0;
    if (auto s = source.get_varint(n); !s.is_ok()) return s;
    node.children.reserve(source.clamped_count(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name;
      if (auto s = source.get_string(name); !s.is_ok()) return s;
      auto label = Label::decode(source, ctx);
      if (!label.is_ok()) return label.status();
      Node& child = node.ensure_child(frames.intern(name));
      child.label.merge(label.value());
      if (auto s = decode_children(child, source, frames, ctx, depth + 1);
          !s.is_ok()) {
        return s;
      }
    }
    return Status::ok();
  }

  template <typename F>
  static void visit_node(const Node& node, std::vector<FrameId>& path, F& f) {
    for (const auto& child : node.children) {
      path.push_back(child.frame);
      f(std::span<const FrameId>(path), child);
      visit_node(child, path, f);
      path.pop_back();
    }
  }

  Node root_;
};

using GlobalTree = PrefixTree<GlobalLabel>;
using HierTree = PrefixTree<HierLabel>;

/// Remaps a hierarchical tree to a global-rank tree (the front-end render
/// step of the optimized scheme).
[[nodiscard]] GlobalTree remap_tree(const HierTree& tree, const TaskMap& map);

/// Graphviz DOT rendering with Fig. 1-style edge labels.
[[nodiscard]] std::string to_dot(const GlobalTree& tree,
                                 const app::FrameTable& frames,
                                 std::size_t max_label_items = 6);

/// Brendan-Gregg-style folded stacks ("a;b;c <count>"), one line per node
/// where traces end, weighted by task count (use `by_visits` to weight by
/// total trace insertions instead). Pipe into any flamegraph tool.
[[nodiscard]] std::string to_folded(const GlobalTree& tree,
                                    const app::FrameTable& frames,
                                    bool by_visits = false);

}  // namespace petastat::stat
