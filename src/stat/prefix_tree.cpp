#include "stat/prefix_tree.hpp"

namespace petastat::stat {

namespace {

// `into` is fresh: each remapped label moves straight into its new node,
// and children arrive in frame order, so they are appended.
void remap_children(const HierTree::Node& from, GlobalTree::Node& into,
                    const TaskMap& map) {
  into.children.reserve(from.children.size());
  for (const auto& child : from.children) {
    GlobalTree::Node& target = into.children.emplace_back(GlobalTree::Node{
        child.frame,
        GlobalLabel{map.remap(child.label.tasks), child.label.visits},
        {}});
    remap_children(child, target, map);
  }
}

void dot_node(const GlobalTree::Node& node, const app::FrameTable& frames,
              std::size_t max_items, std::string& out, std::uint64_t& next_id,
              std::uint64_t my_id) {
  for (const auto& child : node.children) {
    const std::uint64_t child_id = next_id++;
    out += "  n" + std::to_string(child_id) + " [label=\"" +
           std::string(frames.name(child.frame)) + "\"];\n";
    out += "  n" + std::to_string(my_id) + " -> n" + std::to_string(child_id) +
           " [label=\"" + child.label.tasks.edge_label(max_items) + "\"];\n";
    dot_node(child, frames, max_items, out, next_id, child_id);
  }
}

}  // namespace

GlobalTree remap_tree(const HierTree& tree, const TaskMap& map) {
  GlobalTree out;
  remap_children(tree.root(), out.root(), map);
  return out;
}

std::string to_folded(const GlobalTree& tree, const app::FrameTable& frames,
                      bool by_visits) {
  std::string out;
  tree.visit([&](std::span<const FrameId> path, const GlobalTree::Node& node) {
    // Weight of traces that *end* at this node: members here minus members
    // continuing into any child (by visits: visits here minus child visits).
    std::uint64_t weight;
    if (by_visits) {
      std::uint64_t child_visits = 0;
      for (const auto& child : node.children) child_visits += child.label.visits;
      weight = node.label.visits >= child_visits
                   ? node.label.visits - child_visits
                   : 0;
    } else {
      TaskSet continuing;
      for (const auto& child : node.children) {
        continuing.union_with(child.label.tasks);
      }
      weight = node.label.tasks.difference(continuing).count();
    }
    if (weight == 0) return;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i > 0) out += ';';
      out += frames.name(path[i]);
    }
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  });
  return out;
}

std::string to_dot(const GlobalTree& tree, const app::FrameTable& frames,
                   std::size_t max_label_items) {
  std::string out = "digraph stat_prefix_tree {\n  node [shape=box];\n";
  out += "  n0 [label=\"/\"];\n";
  std::uint64_t next_id = 1;
  dot_node(tree.root(), frames, max_label_items, out, next_id, 0);
  out += "}\n";
  return out;
}

}  // namespace petastat::stat
