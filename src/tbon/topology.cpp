#include "tbon/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "net/network.hpp"

namespace petastat::tbon {

std::string TopologySpec::name() const {
  std::string n = std::to_string(depth) + "-deep";
  if (bgl_rules && depth >= 3) {
    n += "(" + std::to_string(bgl_second_level) + ")";
  }
  if (!level_widths.empty()) {
    n += "[";
    for (std::size_t i = 0; i < level_widths.size(); ++i) {
      n += (i ? "," : "") + std::to_string(level_widths[i]);
    }
    n += "]";
  }
  if (fe_shards != 1) {
    n += " x" + std::to_string(fe_shards) + "shard";
    if (reducer_placement != ReducerPlacement::kCommLike) {
      n += std::string("/") + reducer_placement_name(reducer_placement);
    }
  }
  return n;
}

std::uint64_t comm_process_capacity(const machine::MachineConfig& machine,
                                    std::uint32_t num_daemons) {
  if (machine.comm_procs_on_compute_allocation) {
    // Cluster: comm processes get their own compute allocation, one per
    // core, on whatever nodes the daemons left free.
    if (num_daemons >= machine.compute_nodes) return 0;
    return static_cast<std::uint64_t>(machine.compute_nodes - num_daemons) *
           machine.cores_per_compute_node;
  }
  return static_cast<std::uint64_t>(machine.login_nodes) *
         machine.max_comm_procs_per_login;
}

Result<DerivedLevels> derive_levels(const machine::MachineConfig& machine,
                                    const TopologySpec& spec,
                                    std::uint32_t num_daemons) {
  if (spec.depth == 0) {
    return invalid_argument("topology depth must be at least 1");
  }
  if (spec.fe_shards == 0) {
    return invalid_argument(
        "fe_shards must be at least 1 (1 = unsharded front end)");
  }
  if (num_daemons == 0) return invalid_argument("no daemons");
  // The shard machinery of a sharded front end rides in front of the spec's
  // own levels: the reducer level, topped — once K exceeds the combine
  // fan-in — by the combiner levels of the reducer tree. All of it is comm
  // processes counting against the same placement slots.
  const std::uint32_t reducers =
      spec.fe_shards > 1 ? std::min(spec.fe_shards, num_daemons) : 0;
  std::vector<std::uint32_t> shard_widths;
  if (reducers > 0) {
    const std::uint32_t fanin = std::max(
        2u, std::min(kShardCombineFanIn, machine.max_tool_connections));
    shard_widths.push_back(reducers);
    for (std::uint32_t w = reducers; w > fanin;) {
      w = (w + fanin - 1) / fanin;  // ceil: every reducer keeps a parent
      shard_widths.insert(shard_widths.begin(), w);
    }
  }
  const auto with_shard_levels = [&](std::vector<std::uint32_t> widths)
      -> Result<DerivedLevels> {
    if (reducers != 0 && !widths.empty() && widths.front() < reducers) {
      return invalid_argument(
          "fe_shards (" + std::to_string(reducers) +
          ") exceeds the first comm-process level's width (" +
          std::to_string(widths.front()) + "): reducers would own no shard");
    }
    DerivedLevels levels;
    levels.shard_levels = static_cast<std::uint32_t>(shard_widths.size());
    levels.widths = std::move(shard_widths);
    levels.widths.insert(levels.widths.end(), widths.begin(), widths.end());
    return levels;
  };
  if (!spec.level_widths.empty()) {
    if (spec.level_widths.size() != spec.depth - 1) {
      return invalid_argument("level_widths must have depth-1 entries");
    }
    std::uint64_t total = 0;
    for (const auto w : shard_widths) total += w;
    for (const auto w : spec.level_widths) {
      if (w == 0) return invalid_argument("level_widths entries must be > 0");
      total += w;
    }
    if (total > comm_process_capacity(machine, num_daemons)) {
      return invalid_argument(
          "level_widths request " + std::to_string(total) +
          " comm processes, machine has slots for " +
          std::to_string(comm_process_capacity(machine, num_daemons)));
    }
    return with_shard_levels(spec.level_widths);
  }
  std::vector<std::uint32_t> widths;
  if (spec.depth == 1) return with_shard_levels(std::move(widths));

  const auto nd = static_cast<double>(num_daemons);
  if (spec.bgl_rules) {
    if (spec.depth == 2) {
      // "fanout from the front end equal to the square root of the number of
      // daemons or 28, whichever is less"
      const auto w = static_cast<std::uint32_t>(
          std::min(std::ceil(std::sqrt(nd)), 28.0));
      widths.push_back(std::max(1u, w));
    } else if (spec.depth == 3) {
      widths.push_back(4);  // "fanout from the front end equal to 4"
      widths.push_back(spec.bgl_second_level);
    } else {
      return invalid_argument("BG/L rules defined for depth 2 or 3 only");
    }
  } else {
    // Balanced: fanout = depth-th root of the daemon count at every level.
    const double f =
        std::max(2.0, std::ceil(std::pow(nd, 1.0 / spec.depth)));
    double width = 1;
    for (std::uint32_t level = 1; level < spec.depth; ++level) {
      width = std::min(width * f, nd);
      widths.push_back(static_cast<std::uint32_t>(width));
    }
  }
  // Never more procs at a level than daemons below them.
  for (auto& w : widths) w = std::min(w, num_daemons);
  return with_shard_levels(std::move(widths));
}

namespace {

/// Lazily-built state for ReducerPlacement::kRoute: the machine's switch
/// graph plus the occupancy-weighted load every placed route-proc has
/// charged to the link devices its payloads traverse. Each crossing charges
/// 1/rate — the wire time a unit payload occupies that link — so a hop on a
/// fat aggregated trunk costs a fraction of one on a thin access or
/// oversubscribed uplink, matching how Network::transfer now bills devices.
/// The greedy score of a candidate host is the max weighted load any of
/// those links would reach — minimizing it spreads helpers across leaf
/// switches and steers each one toward the aggregation domain its
/// children's payloads already live in.
struct RoutePlacementState {
  net::SwitchGraph graph;
  std::unordered_map<std::uint64_t, double> link_load;

  explicit RoutePlacementState(const machine::MachineConfig& machine)
      : graph(net::build_switch_graph(machine)) {}

  /// Only candidate-dependent devices count: the trunks a route crosses and
  /// the candidate host's own access link. The far endpoint's access link
  /// (the shared parent's, a fixed daemon's) carries the same load whichever
  /// candidate wins, so scoring it saturates every candidate at that shared
  /// load — degenerating the greedy into lowest-index (pack) fill.
  [[nodiscard]] static bool scores(const net::RouteHop& hop,
                                   std::uint64_t own_access) {
    return hop.device < net::SwitchGraph::kAccessDeviceBase ||
           hop.device == own_access;
  }

  /// Wire time a unit payload occupies this hop, in GB-seconds: the metric
  /// the busiest-link report uses, scaled to dodge denormal territory.
  [[nodiscard]] static double weight(const net::RouteHop& hop) {
    return 1.0e9 / hop.link.bytes_per_sec;
  }

  /// Weighted link load *after* placing the proc here, as a lexicographic
  /// (max, sum) pair over the devices this candidate touches: existing load
  /// plus every route of this proc that crosses the link. The max is the
  /// objective proper; the sum breaks the ties that arise once one shared
  /// trunk (every candidate's route to the same parent crosses it) holds
  /// the global max — without it the greedy cannot tell a fresh login from
  /// a loaded one and degenerates into lowest-index fill. A one-crossing
  /// lookahead would let a candidate that funnels all its children over one
  /// trunk tie with one that adds a single crossing — the whole
  /// contribution must count.
  [[nodiscard]] std::pair<double, double> score(
      const std::vector<net::Route>& routes, std::uint64_t own_access) const {
    std::unordered_map<std::uint64_t, double> contribution;
    for (const auto& route : routes) {
      for (const auto& hop : route) {
        if (scores(hop, own_access)) contribution[hop.device] += weight(hop);
      }
    }
    double worst = 0.0;
    double total = 0.0;
    for (const auto& [device, added] : contribution) {
      const auto it = link_load.find(device);
      const double load = it == link_load.end() ? 0.0 : it->second;
      worst = std::max(worst, load + added);
      total += load + added;
    }
    return {worst, total};
  }

  /// Charging records *every* hop, including the far endpoints' access
  /// links the score skips: a parent's rx load is candidate-invariant while
  /// scoring, but it is real wire time that must repel later procs whose
  /// own access would be that same device.
  void charge(const std::vector<net::Route>& routes) {
    for (const auto& route : routes) {
      for (const auto& hop : route) link_load[hop.device] += weight(hop);
    }
  }

  /// The routes a proc on `host` will load: up to its parent, plus down from
  /// each already-known child (the leaf daemons, when the proc sits on the
  /// last internal level). Children on inner levels are placed later, so
  /// they cannot be priced yet.
  [[nodiscard]] std::vector<net::Route> routes_for(
      NodeId host, NodeId parent_host,
      const std::vector<NodeId>& child_hosts) const {
    std::vector<net::Route> routes;
    routes.reserve(child_hosts.size() + 1);
    routes.push_back(net::route_between(graph, host, parent_host));
    for (const NodeId child : child_hosts) {
      routes.push_back(net::route_between(graph, child, host));
    }
    return routes;
  }

  /// The greedy step both host tiers share: scores each candidate host in
  /// order, charges the routes of the first with the lowest (max, sum)
  /// score and returns it, or nullopt when there is no candidate.
  std::optional<NodeId> place(const std::vector<NodeId>& candidates,
                              NodeId parent_host,
                              const std::vector<NodeId>& child_hosts) {
    std::optional<NodeId> best;
    std::pair<double, double> best_score{
        std::numeric_limits<double>::infinity(), 0.0};
    std::vector<net::Route> best_routes;
    for (const NodeId host : candidates) {
      std::vector<net::Route> routes =
          routes_for(host, parent_host, child_hosts);
      const std::pair<double, double> candidate_score =
          score(routes, net::SwitchGraph::access_device(host));
      if (candidate_score < best_score) {
        best_score = candidate_score;
        best = host;
        best_routes = std::move(routes);
      }
    }
    if (best) charge(best_routes);
    return best;
  }
};

}  // namespace

Result<TbonTopology> build_topology(const machine::MachineConfig& machine,
                                    const machine::DaemonLayout& layout,
                                    const TopologySpec& spec) {
  if (spec.depth < 1 || spec.depth > 4) {
    return invalid_argument("topology depth must be in [1,4]");
  }
  if (layout.num_daemons == 0) return invalid_argument("no daemons");

  auto levels_result = derive_levels(machine, spec, layout.num_daemons);
  if (!levels_result.is_ok()) return levels_result.status();
  const std::vector<std::uint32_t>& widths = levels_result.value().widths;
  const std::uint32_t shard_levels = levels_result.value().shard_levels;

  // Monotone widths: each level must be at least as wide as its parent level
  // (a narrower child level would orphan parents).
  std::uint32_t prev = 1;
  for (const auto w : widths) {
    if (w < prev) {
      return invalid_argument("comm-process level narrower than its parent");
    }
    prev = w;
  }

  // Capacity checks for comm-process hosts.
  std::uint32_t total_comm = 0;
  for (const auto w : widths) total_comm += w;
  if (!machine.comm_procs_on_compute_allocation) {
    const std::uint64_t capacity =
        comm_process_capacity(machine, layout.num_daemons);
    if (total_comm > capacity) {
      return resource_exhausted(
          "comm processes (" + std::to_string(total_comm) +
          ") exceed login-node capacity (" + std::to_string(capacity) + ")");
    }
  }

  TbonTopology topo;
  // Internal levels actually built: the spec's own, plus the synthetic
  // reducer level of a sharded front end.
  topo.depth = static_cast<std::uint32_t>(widths.size()) + 1;
  // Every proc up front: growing the vector would copy each Proc with its
  // children list on every reallocation.
  topo.procs.reserve(1 + std::size_t{total_comm} + layout.num_daemons);

  // Front end.
  TbonTopology::Proc fe;
  fe.host = machine.front_end();
  fe.parent = -1;
  fe.level = 0;
  topo.procs.push_back(fe);

  // Comm-process levels. Shard-machinery levels (combiners + reducers) come
  // first and honor spec.reducer_placement; the spec's own levels always use
  // the machine's comm-process rule. Placement counters:
  //   comm_seq       core-packing / round-robin position of packed procs,
  //   consumed_nodes whole compute nodes taken by kSpread/kRoute shard procs
  //                  (packed procs fill the free nodes around them),
  //   shard_seq      shard procs placed so far (kPack's login fill order).
  std::vector<std::uint32_t> prev_level_indices{0};
  std::uint32_t comm_seq = 0;
  std::set<std::uint32_t> consumed_nodes;
  std::uint32_t shard_seq = 0;
  std::vector<std::uint32_t> login_load(machine.login_nodes, 0);
  std::optional<RoutePlacementState> route_state;
  const auto route_placement = [&]() -> RoutePlacementState& {
    if (!route_state) route_state.emplace(machine);
    return *route_state;
  };
  // The n-th compute node (ascending) past the daemon block that no
  // whole-node proc holds. With no kRoute procs the consumed set is the
  // contiguous run right after the daemons, so this reduces exactly to the
  // historical `num_daemons + spread_nodes + n` arithmetic.
  const auto nth_free_node = [&](std::uint32_t n) -> std::uint32_t {
    for (std::uint32_t node = layout.num_daemons; node < machine.compute_nodes;
         ++node) {
      if (consumed_nodes.count(node) != 0) continue;
      if (n == 0) return node;
      --n;
    }
    return machine.compute_nodes;  // exhausted; caller reports
  };
  std::uint32_t level_no = 1;
  for (const auto width : widths) {
    const bool shard_level = level_no <= shard_levels;
    const ReducerPlacement placement = shard_level
                                           ? spec.reducer_placement
                                           : ReducerPlacement::kCommLike;
    const bool last_internal_level =
        level_no == static_cast<std::uint32_t>(widths.size());
    std::vector<std::uint32_t> this_level;
    this_level.reserve(width);
    for (std::uint32_t i = 0; i < width; ++i) {
      TbonTopology::Proc proc;
      // Parent: spread evenly over the previous level. Resolved before
      // placement so route scoring can price the uplink toward it.
      const auto parent_slot = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(i) * prev_level_indices.size() / width);
      const std::uint32_t parent_index = prev_level_indices[parent_slot];
      const NodeId parent_host = topo.procs[parent_index].host;
      // The leaf daemons that will hang off slot i of the last internal
      // level — the only children whose hosts are known before they are
      // placed, and the bulk of the traffic route placement should steer.
      std::vector<NodeId> child_hosts;
      if (placement == ReducerPlacement::kRoute && last_internal_level) {
        const std::uint64_t daemons = layout.num_daemons;
        for (std::uint64_t d = (i * daemons + width - 1) / width;
             d < daemons && d * width / daemons == i; ++d) {
          child_hosts.push_back(machine::daemon_host(
              machine, DaemonId(static_cast<std::uint32_t>(d))));
        }
      }
      if (machine.comm_procs_on_compute_allocation) {
        // Cluster: separate compute allocation. Packed procs take one core
        // each; spread and route shard procs take a whole node each — route
        // picks its node by link load, so consumed nodes need not be
        // contiguous.
        std::uint32_t node_index;
        if (placement == ReducerPlacement::kSpread) {
          node_index = nth_free_node(0);
        } else if (placement == ReducerPlacement::kRoute) {
          RoutePlacementState& rs = route_placement();
          // One candidate per leaf switch suffices: free nodes behind the
          // same switch share a route shape, and the lowest index wins ties.
          std::vector<bool> switch_seen(rs.graph.num_switches(), false);
          std::vector<NodeId> hosts;  // ascending node index
          for (std::uint32_t node = layout.num_daemons;
               node < machine.compute_nodes; ++node) {
            if (consumed_nodes.count(node) != 0) continue;
            const NodeId host = machine.compute_node(node);
            const std::uint32_t s = rs.graph.switch_of(host);
            if (switch_seen[s]) continue;
            switch_seen[s] = true;
            hosts.push_back(host);
          }
          const auto best = rs.place(hosts, parent_host, child_hosts);
          node_index =
              best ? machine::node_index(*best) : machine.compute_nodes;
        } else {
          node_index = nth_free_node(comm_seq / machine.cores_per_compute_node);
        }
        if (node_index >= machine.compute_nodes) {
          return resource_exhausted("comm-process allocation exceeds cluster");
        }
        proc.host = machine.compute_node(node_index);
        if (placement == ReducerPlacement::kSpread ||
            placement == ReducerPlacement::kRoute) {
          consumed_nodes.insert(node_index);
        } else {
          ++comm_seq;
        }
      } else {
        // Login tier. kPack fills each host's helper slots first; everything
        // else takes the least-loaded login (lowest index on ties), which is
        // exactly the historical round-robin while loads are even — they
        // always are without kPack in the mix — and skips hosts kPack has
        // already filled, so the per-host slot limit holds for every
        // placement mix, not just in aggregate.
        std::optional<std::uint32_t> login;
        if (placement == ReducerPlacement::kPack) {
          login = shard_seq / machine.max_comm_procs_per_login;
        } else if (placement == ReducerPlacement::kRoute) {
          // Least-max-link-load login with a free helper slot. The earlier
          // capacity check guarantees a free slot exists at every step.
          std::vector<NodeId> hosts;
          for (std::uint32_t l = 0; l < machine.login_nodes; ++l) {
            if (login_load[l] < machine.max_comm_procs_per_login) {
              hosts.push_back(machine.login_node(l));
            }
          }
          if (const auto best =
                  route_placement().place(hosts, parent_host, child_hosts)) {
            login = machine::node_index(*best);
          }
          // Finding no candidate is unreachable after the capacity check;
          // it would degrade to least-loaded below.
        }
        if (!login) {
          login = 0;
          for (std::uint32_t l = 1; l < machine.login_nodes; ++l) {
            if (login_load[l] < login_load[*login]) login = l;
          }
        }
        proc.host = machine.login_node(*login);
        ++login_load[*login];
      }
      if (shard_level) ++shard_seq;
      proc.parent = static_cast<std::int32_t>(parent_index);
      proc.level = level_no;
      const auto index = static_cast<std::uint32_t>(topo.procs.size());
      topo.procs.push_back(proc);
      topo.procs[static_cast<std::size_t>(proc.parent)].children.push_back(index);
      this_level.push_back(index);
    }
    if (shard_level) {
      if (level_no == shard_levels) {
        topo.reducers = this_level;  // the shard level proper
      } else {
        topo.combiners.insert(topo.combiners.end(), this_level.begin(),
                              this_level.end());
      }
    }
    prev_level_indices = std::move(this_level);
    ++level_no;
  }

  // Leaves: the daemons, spread evenly over the last internal level.
  topo.leaf_of_daemon.resize(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    TbonTopology::Proc leaf;
    leaf.host = machine::daemon_host(machine, DaemonId(d));
    leaf.daemon = DaemonId(d);
    leaf.level = level_no;
    const auto parent_slot = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(d) * prev_level_indices.size() /
        layout.num_daemons);
    leaf.parent = static_cast<std::int32_t>(prev_level_indices[parent_slot]);
    const auto index = static_cast<std::uint32_t>(topo.procs.size());
    topo.procs.push_back(leaf);
    topo.procs[static_cast<std::size_t>(leaf.parent)].children.push_back(index);
    topo.leaf_of_daemon[d] = index;
  }
  return topo;
}

namespace {

/// Children of `proc_index` that actually hold a connection: a leaf whose
/// daemon died before connecting (or was culled by failure injection) never
/// dials in, so it must not count against the parent's limit.
std::uint32_t live_children(const TbonTopology& topology,
                            std::uint32_t proc_index,
                            const std::vector<bool>& daemon_dead) {
  const TbonTopology::Proc& proc = topology.procs[proc_index];
  if (daemon_dead.empty()) {
    return static_cast<std::uint32_t>(proc.children.size());
  }
  std::uint32_t live = 0;
  for (const std::uint32_t c : topology.procs[proc_index].children) {
    const TbonTopology::Proc& child = topology.procs[c];
    if (child.is_leaf() && daemon_dead[child.daemon.value()]) continue;
    ++live;
  }
  return live;
}

}  // namespace

Status connection_viability(const TbonTopology& topology,
                            std::uint32_t limit) {
  return connection_viability(topology, limit, {});
}

Status connection_viability(const TbonTopology& topology, std::uint32_t limit,
                            const std::vector<bool>& daemon_dead) {
  const std::uint32_t fe_children = live_children(topology, 0, daemon_dead);
  if (fe_children > limit) {
    return resource_exhausted(
        "front end cannot sustain " + std::to_string(fe_children) +
        " tool connections (limit " + std::to_string(limit) + ")");
  }
  for (const std::uint32_t c : topology.combiners) {
    const std::uint32_t children = live_children(topology, c, daemon_dead);
    if (children > limit) {
      return resource_exhausted(
          "combiner cannot sustain " + std::to_string(children) +
          " shard connections (limit " + std::to_string(limit) + ")");
    }
  }
  for (const std::uint32_t r : topology.reducers) {
    const std::uint32_t children = live_children(topology, r, daemon_dead);
    if (children > limit) {
      return resource_exhausted(
          "reducer cannot sustain " + std::to_string(children) +
          " shard connections (limit " + std::to_string(limit) +
          "); raise fe_shards");
    }
  }
  return Status::ok();
}

Status rx_buffer_viability(
    const TbonTopology& topology, std::uint64_t limit_bytes,
    const std::function<std::uint64_t(std::uint32_t daemon)>&
        leaf_bytes_of_daemon) {
  std::vector<std::uint32_t> merge_roots{0};
  merge_roots.insert(merge_roots.end(), topology.reducers.begin(),
                     topology.reducers.end());
  for (const std::uint32_t root : merge_roots) {
    std::uint64_t incoming = 0;
    for (const std::uint32_t child : topology.procs[root].children) {
      const auto& proc = topology.procs[child];
      if (proc.is_leaf()) incoming += leaf_bytes_of_daemon(proc.daemon.value());
    }
    if (incoming > limit_bytes) {
      return resource_exhausted(
          std::string(root == 0 ? "front-end" : "reducer") +
          " receive buffers overflow: " + std::to_string(incoming) +
          " bytes inbound");
    }
  }
  return Status::ok();
}

std::uint32_t shard_spawn_hosts(const TbonTopology& topology) {
  std::vector<NodeId> hosts;
  hosts.reserve(topology.reducers.size() + topology.combiners.size());
  for (const std::uint32_t r : topology.reducers) {
    hosts.push_back(topology.procs[r].host);
  }
  for (const std::uint32_t c : topology.combiners) {
    hosts.push_back(topology.procs[c].host);
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return static_cast<std::uint32_t>(hosts.size());
}

namespace {

std::uint64_t tasks_under(const TbonTopology& topology,
                          const machine::DaemonLayout& layout,
                          std::uint32_t proc_index,
                          const std::vector<bool>& daemon_dead) {
  const TbonTopology::Proc& proc = topology.procs[proc_index];
  if (proc.is_leaf()) {
    if (!daemon_dead.empty() && daemon_dead[proc.daemon.value()]) return 0;
    return layout.tasks_of(proc.daemon);
  }
  std::uint64_t total = 0;
  for (const std::uint32_t c : proc.children) {
    total += tasks_under(topology, layout, c, daemon_dead);
  }
  return total;
}

}  // namespace

std::vector<std::uint64_t> shard_task_counts(
    const TbonTopology& topology, const machine::DaemonLayout& layout,
    const std::vector<bool>& daemon_dead) {
  std::vector<std::uint64_t> counts;
  counts.reserve(topology.reducers.size());
  for (const std::uint32_t r : topology.reducers) {
    counts.push_back(tasks_under(topology, layout, r, daemon_dead));
  }
  return counts;
}

std::uint64_t largest_shard_task_count(const TbonTopology& topology,
                                       const machine::DaemonLayout& layout,
                                       const std::vector<bool>& daemon_dead) {
  std::uint64_t largest = 0;
  for (const std::uint32_t r : topology.reducers) {
    largest = std::max(largest, tasks_under(topology, layout, r, daemon_dead));
  }
  return largest;
}

SimTime connect_time(const TbonTopology& topology,
                     const machine::LaunchCosts& costs) {
  // Parents accept children serially; parents within one level overlap, and
  // levels connect sequentially (a comm process must be up before its
  // children dial in). The per-level cost is the busiest parent's fanout.
  std::vector<std::uint32_t> worst_fanout_at_level;
  for (const auto& proc : topology.procs) {
    if (proc.children.empty()) continue;
    if (worst_fanout_at_level.size() <= proc.level) {
      worst_fanout_at_level.resize(proc.level + 1, 0);
    }
    worst_fanout_at_level[proc.level] =
        std::max(worst_fanout_at_level[proc.level],
                 static_cast<std::uint32_t>(proc.children.size()));
  }
  SimTime total = costs.mrnet_connect_base;
  for (const auto fanout : worst_fanout_at_level) {
    total += fanout * costs.mrnet_connect_per_child;
  }
  return total;
}

SimTime connect_phase_time(const TbonTopology& topology,
                           const machine::LaunchCosts& costs) {
  const std::uint32_t shard_procs = topology.num_shard_procs();
  return machine::serial_shell_spawn_time(
             costs, topology.num_comm_procs() - shard_procs) +
         machine::placed_spawn_time(costs, shard_procs,
                                    shard_spawn_hosts(topology)) +
         connect_time(topology, costs);
}

std::uint64_t surviving_task_count(const machine::DaemonLayout& layout,
                                   const std::vector<bool>& daemon_dead) {
  if (daemon_dead.empty()) return layout.num_tasks;
  std::uint64_t tasks = 0;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    if (!daemon_dead[d]) tasks += layout.tasks_of(DaemonId(d));
  }
  return tasks;
}

SimTime remap_time(const machine::MergeCosts& costs,
                   const TbonTopology& topology,
                   const machine::DaemonLayout& layout,
                   const std::vector<bool>& daemon_dead) {
  return machine::frontend_remap_cost(
      costs, topology.sharded()
                 ? largest_shard_task_count(topology, layout, daemon_dead)
                 : surviving_task_count(layout, daemon_dead));
}

std::uint32_t default_victim(const TbonTopology& topology) {
  if (topology.sharded()) {
    return topology.reducers[topology.reducers.size() / 2];
  }
  std::vector<std::uint32_t> internals;
  for (std::uint32_t i = 1; i < topology.procs.size(); ++i) {
    if (!topology.procs[i].is_leaf()) internals.push_back(i);
  }
  if (!internals.empty()) return internals[internals.size() / 2];
  return topology.leaf_of_daemon[topology.leaf_of_daemon.size() / 2];
}

}  // namespace petastat::tbon
