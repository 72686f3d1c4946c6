// Simulated machine description: node tiers, tool-daemon placement, and the
// job-to-daemon mapping rules for the two platforms in the paper.
//
//  * Atlas: 1,152-node Linux cluster, 8 cores/node (4-way dual-core Opteron),
//    DDR Infiniband. One STAT daemon per compute node traces the 8 MPI tasks
//    on that node; MRNet comm processes run on a separate compute allocation.
//  * BG/L (LLNL): 106,496 compute nodes (dual PPC440). Tools may not run on
//    compute nodes: one daemon per dedicated I/O node (1 per 64 compute
//    nodes, 1,664 total). Comm processes are restricted to 14 login nodes.
//    Co-processor (CO) mode runs 1 MPI task per node, virtual-node (VN) mode
//    runs 2, so a daemon serves 64 or 128 tasks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace petastat::machine {

/// Which tier of the machine a node belongs to.
enum class NodeRole : std::uint8_t {
  kFrontEnd = 0,  // the node running the tool front end
  kLogin = 1,     // login nodes (BG/L: comm-process hosts)
  kIo = 2,        // dedicated I/O nodes (BG/L: daemon hosts)
  kCompute = 3,   // compute nodes
};

[[nodiscard]] constexpr const char* node_role_name(NodeRole r) {
  switch (r) {
    case NodeRole::kFrontEnd: return "frontend";
    case NodeRole::kLogin: return "login";
    case NodeRole::kIo: return "io";
    case NodeRole::kCompute: return "compute";
  }
  return "?";
}

/// NodeId encoding: top 3 bits = role, rest = index within the tier. Avoids
/// materializing 106,496 node objects.
[[nodiscard]] constexpr NodeId make_node(NodeRole role, std::uint32_t index) {
  return NodeId((static_cast<std::uint32_t>(role) << 28) | (index & 0x0fffffffu));
}
[[nodiscard]] constexpr NodeRole node_role(NodeId id) {
  return static_cast<NodeRole>(id.value() >> 28);
}
[[nodiscard]] constexpr std::uint32_t node_index(NodeId id) {
  return id.value() & 0x0fffffffu;
}

/// BG/L execution modes (Sec. III).
enum class BglMode : std::uint8_t {
  kCoprocessor,  // 1 MPI task per compute node, 2nd core offloads comms
  kVirtualNode,  // 1 MPI task per core (2 per node)
};

[[nodiscard]] constexpr const char* bgl_mode_name(BglMode m) {
  return m == BglMode::kCoprocessor ? "CO" : "VN";
}

/// Where tool daemons are placed.
enum class DaemonPlacement : std::uint8_t {
  kPerComputeNode,  // Atlas: daemon shares the node with the app tasks
  kPerIoNode,       // BG/L: daemon on a dedicated I/O node
};

// --- Interconnect description ----------------------------------------------
//
// The network is a graph of switches with hosts hanging off them; net::
// builds a net::SwitchGraph from this description. machine:: only *describes*
// the wiring (shape + per-tier link parameters) so that it stays independent
// of the simulation layer.

/// One physical link class: propagation latency plus serialized bandwidth.
struct LinkSpec {
  SimTime latency = 5 * kMicrosecond;
  double bytes_per_sec = 1.0e9;
};

/// Wiring shape of the machine's interconnect.
enum class InterconnectShape : std::uint8_t {
  /// Every host attaches to one core switch. The default for ad hoc
  /// MachineConfigs: timing reduces to per-host access links, closest to the
  /// old per-role NIC model.
  kCrossbar,
  /// Leaf/aggregation/core fat-tree (Atlas: 2-level over IB; petascale:
  /// oversubscribed 3-level). Compute or I/O hosts pack onto data leaves;
  /// front end + logins pack onto service leaves.
  kFatTree,
  /// BG/L: per-rack I/O tier on the functional GigE tree, per-rack collective
  /// vertices for compute nodes, and a torus passthrough vertex for
  /// rack-to-rack compute traffic.
  kIoTorusTiers,
};

/// Parameters net:: uses to synthesize the switch graph for a machine.
struct InterconnectConfig {
  InterconnectShape shape = InterconnectShape::kCrossbar;

  /// Host access links, one class per tier. The bytes_per_sec values carry
  /// over the old per-role NIC rates, so uncontended point-to-point transfer
  /// rates match the previous model.
  LinkSpec frontend_access;
  LinkSpec login_access;
  LinkSpec io_access;
  LinkSpec compute_access;

  // kFatTree shape:
  std::uint32_t hosts_per_leaf = 32;          // data hosts per leaf switch
  std::uint32_t logins_per_service_leaf = 4;  // logins per service leaf; the
                                              // front end rides service leaf 0
  std::uint32_t leaves_per_agg = 0;  // 0 = 2-level (leaves attach to the core)
  LinkSpec leaf_uplink;              // data leaf -> agg/core trunk
  LinkSpec service_uplink;  // service leaf -> agg/core trunk. The petascale
                            // oversubscription knob: sized below
                            // logins_per_service_leaf * login_access so
                            // colocated reducer streams contend.
  LinkSpec agg_uplink;      // agg -> core trunk (3-level only)

  // kIoTorusTiers shape:
  std::uint32_t io_nodes_per_rack = 16;
  LinkSpec rack_uplink;      // rack I/O switch -> functional GigE core
  LinkSpec collective_link;  // rack collective vertex -> rack I/O switch
  LinkSpec torus_link;       // rack collective vertex -> torus passthrough

  /// Fixed software cost per message, independent of route.
  SimTime per_message_overhead = 25 * kMicrosecond;
};

/// Static description of a platform.
struct MachineConfig {
  std::string name;

  std::uint32_t compute_nodes = 0;
  std::uint32_t cores_per_compute_node = 0;

  DaemonPlacement daemon_placement = DaemonPlacement::kPerComputeNode;
  std::uint32_t compute_nodes_per_io_node = 0;  // 0 when no I/O-node tier
  std::uint32_t io_nodes = 0;

  std::uint32_t login_nodes = 1;
  std::uint32_t cores_per_login_node = 4;
  /// Comm processes per login node before the tier is saturated. On Atlas
  /// comm processes get their own compute allocation instead (one per core).
  std::uint32_t max_comm_procs_per_login = 8;
  bool comm_procs_on_compute_allocation = false;

  /// Whether the target app is one statically linked image (BG/L) or an
  /// executable plus shared libraries (Atlas). Drives symbol-parsing I/O.
  bool static_binary = false;

  /// Whether a daemon contends for CPU with spin-waiting MPI ranks (Atlas;
  /// not on BG/L where the daemon owns the I/O node).
  bool daemon_shares_cpu = false;

  /// Supported remote-shell protocols for ad hoc launching. Atlas compute
  /// nodes support rsh only (no sshd), per Sec. IV-A.
  bool supports_rsh = true;
  bool supports_ssh = false;

  /// Simultaneous tool connections the front-end node (and each reducer of
  /// a sharded front end) survives. Boundary semantics, shared by every
  /// viability check (scenario, predictor, heavyweight baseline): exactly
  /// `max_tool_connections` connections work; one more is rejected — checks
  /// reject at `> max_tool_connections`, never at `>=`. The 1-deep BG/L
  /// merge "fails at 16,384 compute nodes (256 I/O nodes)": its front end
  /// cannot hold 256 daemon connections under full-job bit vectors, so the
  /// BG/L preset survives 255.
  std::uint32_t max_tool_connections = 1024;

  /// Wiring description; net::build_switch_graph turns it into routes and
  /// shared link devices.
  InterconnectConfig interconnect;

  [[nodiscard]] NodeId front_end() const { return make_node(NodeRole::kFrontEnd, 0); }
  [[nodiscard]] NodeId login_node(std::uint32_t i) const {
    return make_node(NodeRole::kLogin, i);
  }
  [[nodiscard]] NodeId io_node(std::uint32_t i) const {
    return make_node(NodeRole::kIo, i);
  }
  [[nodiscard]] NodeId compute_node(std::uint32_t i) const {
    return make_node(NodeRole::kCompute, i);
  }
};

/// A job to run the tool against.
struct JobConfig {
  std::uint32_t num_tasks = 0;
  BglMode mode = BglMode::kCoprocessor;  // ignored on non-BG/L machines
  std::uint32_t threads_per_task = 1;    // Sec. VII extension
};

/// Derived daemon layout for a job on a machine: which node each daemon runs
/// on and how many tasks it serves.
struct DaemonLayout {
  std::uint32_t num_daemons = 0;
  std::uint32_t tasks_per_daemon = 0;  // last daemon may serve fewer
  std::uint32_t num_tasks = 0;

  [[nodiscard]] std::uint32_t tasks_of(DaemonId d) const {
    const std::uint64_t lo = first_task_of(d);
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + tasks_per_daemon, num_tasks);
    return static_cast<std::uint32_t>(hi - lo);
  }
  [[nodiscard]] std::uint32_t first_task_of(DaemonId d) const {
    return d.value() * tasks_per_daemon;
  }
  [[nodiscard]] DaemonId daemon_of_task(TaskId t) const {
    return DaemonId(t.value() / tasks_per_daemon);
  }
};

/// Computes the daemon layout; fails if the job does not fit the machine.
[[nodiscard]] Result<DaemonLayout> layout_daemons(const MachineConfig& machine,
                                                  const JobConfig& job);

/// Node hosting daemon `d` under the machine's placement policy.
[[nodiscard]] NodeId daemon_host(const MachineConfig& machine, DaemonId d);

/// Number of MPI tasks that run per compute node for this machine/mode.
[[nodiscard]] std::uint32_t tasks_per_compute_node(const MachineConfig& machine,
                                                   BglMode mode);

/// Preset: Atlas, the 1,152-node Infiniband cluster (Sec. III).
[[nodiscard]] MachineConfig atlas();

/// Preset: the full LLNL BG/L installation, 104 racks (Sec. III).
[[nodiscard]] MachineConfig bgl();

/// Preset: a hypothetical petascale machine with ~1M cores for the
/// forward-looking projections (Sec. V, "a million cores would require a
/// 1 megabit bit vector per edge label").
[[nodiscard]] MachineConfig petascale();

/// The preset called `name` ("atlas", "bgl" or "petascale"), built alone;
/// any other name is INVALID_ARGUMENT. Serves `--machine` and the service
/// trace's "machine" key.
[[nodiscard]] Result<MachineConfig> preset(std::string_view name);

}  // namespace petastat::machine
