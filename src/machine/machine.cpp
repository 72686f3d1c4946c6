#include "machine/machine.hpp"

#include <utility>

namespace petastat::machine {

std::uint32_t tasks_per_compute_node(const MachineConfig& machine, BglMode mode) {
  if (machine.daemon_placement == DaemonPlacement::kPerIoNode) {
    // BG/L-style: CO mode = 1 task/node, VN mode = 1 task/core.
    return mode == BglMode::kCoprocessor ? 1 : machine.cores_per_compute_node;
  }
  // Cluster-style: fully packed nodes, 1 task per core.
  return machine.cores_per_compute_node;
}

Result<DaemonLayout> layout_daemons(const MachineConfig& machine,
                                    const JobConfig& job) {
  if (job.num_tasks == 0) return invalid_argument("job has zero tasks");
  const std::uint32_t per_node = tasks_per_compute_node(machine, job.mode);

  const std::uint64_t needed_nodes =
      (static_cast<std::uint64_t>(job.num_tasks) + per_node - 1) / per_node;
  if (needed_nodes > machine.compute_nodes) {
    return resource_exhausted(
        "job needs " + std::to_string(needed_nodes) + " compute nodes, " +
        machine.name + " has " + std::to_string(machine.compute_nodes));
  }

  DaemonLayout layout;
  layout.num_tasks = job.num_tasks;
  if (machine.daemon_placement == DaemonPlacement::kPerComputeNode) {
    layout.tasks_per_daemon = per_node;
    layout.num_daemons = static_cast<std::uint32_t>(needed_nodes);
  } else {
    // One daemon per I/O node; each I/O node serves a fixed block of compute
    // nodes (64 on LLNL's BG/L).
    const std::uint32_t block = machine.compute_nodes_per_io_node;
    check(block > 0, "per-I/O-node placement requires compute_nodes_per_io_node");
    layout.tasks_per_daemon = block * per_node;
    layout.num_daemons = static_cast<std::uint32_t>(
        (needed_nodes + block - 1) / block);
    if (layout.num_daemons > machine.io_nodes) {
      return resource_exhausted("job needs more I/O nodes than available");
    }
  }
  return layout;
}

NodeId daemon_host(const MachineConfig& machine, DaemonId d) {
  if (machine.daemon_placement == DaemonPlacement::kPerComputeNode) {
    return machine.compute_node(d.value());
  }
  return machine.io_node(d.value());
}

MachineConfig atlas() {
  MachineConfig m;
  m.name = "atlas";
  m.compute_nodes = 1152;
  m.cores_per_compute_node = 8;  // 4-way dual-core Opteron
  m.daemon_placement = DaemonPlacement::kPerComputeNode;
  m.login_nodes = 2;
  m.cores_per_login_node = 8;
  m.comm_procs_on_compute_allocation = true;  // separate compute allocation
  m.max_comm_procs_per_login = 0;             // not placed on login nodes
  m.static_binary = false;                    // dynamic exe + shared libs
  m.daemon_shares_cpu = true;                 // spin-waiting MPI ranks
  m.supports_rsh = true;
  m.supports_ssh = false;  // Sec. IV-A: Atlas compute nodes have no sshd

  // 2-level fat-tree over DDR Infiniband: 24-port leaf switches for the
  // compute nodes, full-bisection uplinks into one core, and a service leaf
  // holding the front end and both login nodes. Access rates carry over the
  // old per-role NIC rates (compute 1.4 GB/s IB, service 1.1 GB/s).
  m.interconnect.shape = InterconnectShape::kFatTree;
  m.interconnect.frontend_access = {4 * kMicrosecond, 1.1e9};
  m.interconnect.login_access = {4 * kMicrosecond, 1.1e9};
  m.interconnect.compute_access = {2 * kMicrosecond, 1.4e9};
  m.interconnect.io_access = {4 * kMicrosecond, 1.1e9};  // no I/O tier
  m.interconnect.hosts_per_leaf = 24;  // 48 leaves for 1,152 nodes
  m.interconnect.logins_per_service_leaf = 4;
  m.interconnect.leaves_per_agg = 0;  // 2-level: leaves attach to the core
  m.interconnect.leaf_uplink = {kMicrosecond, 24 * 1.4e9};  // full bisection
  m.interconnect.service_uplink = {kMicrosecond, 4.4e9};
  m.interconnect.per_message_overhead = 30 * kMicrosecond;
  return m;
}

MachineConfig bgl() {
  MachineConfig m;
  m.name = "bgl";
  m.compute_nodes = 106'496;  // 104 racks
  m.cores_per_compute_node = 2;  // dual PPC440
  m.daemon_placement = DaemonPlacement::kPerIoNode;
  m.compute_nodes_per_io_node = 64;
  m.io_nodes = 1664;
  m.login_nodes = 14;  // comm processes restricted to these
  m.cores_per_login_node = 2;  // dual Power5
  m.max_comm_procs_per_login = 24;
  m.comm_procs_on_compute_allocation = false;
  m.static_binary = true;
  m.daemon_shares_cpu = false;  // daemons own the I/O node
  m.supports_rsh = false;       // must use the system launcher (CIOD)
  m.supports_ssh = false;
  // The observed 1-deep failure point is 256 daemon connections (Sec. V-A);
  // with the "> limit rejects" boundary semantic that means the front end
  // survives 255.
  m.max_tool_connections = 255;

  // BG/L's tool traffic rides the functional GigE tree: each rack's 16 I/O
  // nodes hang off a rack switch, rack switches uplink into one functional
  // core, and the login nodes share a service leaf on the same core. Compute
  // nodes reach their rack's I/O nodes over the collective network and other
  // racks over the torus passthrough vertex. Access rates carry over the old
  // NIC rates (I/O 95 MB/s, login 110 MB/s, compute collective 340 MB/s);
  // the login->I/O route latency sums to the old 120 us.
  m.interconnect.shape = InterconnectShape::kIoTorusTiers;
  m.interconnect.frontend_access = {30 * kMicrosecond, 110e6};
  m.interconnect.login_access = {30 * kMicrosecond, 110e6};
  m.interconnect.io_access = {6 * kMicrosecond, 95e6};
  m.interconnect.compute_access = {5 * kMicrosecond, 340e6};
  m.interconnect.io_nodes_per_rack = 16;  // 104 racks
  m.interconnect.rack_uplink = {59 * kMicrosecond, 1.0e9};
  m.interconnect.service_uplink = {25 * kMicrosecond, 1.0e9};
  m.interconnect.collective_link = {4 * kMicrosecond, 340e6};
  m.interconnect.torus_link = {2 * kMicrosecond, 175e6};
  m.interconnect.per_message_overhead = 60 * kMicrosecond;
  return m;
}

MachineConfig petascale() {
  MachineConfig m;
  m.name = "petascale";
  m.compute_nodes = 131'072;
  m.cores_per_compute_node = 8;  // 1,048,576 cores total
  m.daemon_placement = DaemonPlacement::kPerIoNode;
  m.compute_nodes_per_io_node = 64;
  m.io_nodes = 2048;
  m.login_nodes = 32;
  m.cores_per_login_node = 8;
  m.max_comm_procs_per_login = 32;
  m.static_binary = true;
  m.daemon_shares_cpu = false;
  m.supports_rsh = false;
  m.supports_ssh = false;

  // Oversubscribed 3-level fat-tree: 64 I/O leaves (32 I/O nodes each, with
  // the 131,072 compute nodes block-attached 2,048 per leaf), 8 service
  // leaves of 4 logins, 4 aggregation switches, one core. The I/O side gets
  // full-bisection uplinks; the service leaves are 2:1 oversubscribed
  // (4 x 1.2 GB/s of access demand into a 2.4 GB/s trunk), so reducers
  // packed behind one service leaf contend on its uplink — the wiring effect
  // route-aware placement exists to dodge.
  m.interconnect.shape = InterconnectShape::kFatTree;
  m.interconnect.frontend_access = {8 * kMicrosecond, 1.2e9};
  m.interconnect.login_access = {8 * kMicrosecond, 1.2e9};
  m.interconnect.io_access = {8 * kMicrosecond, 1.2e9};
  m.interconnect.compute_access = {4 * kMicrosecond, 2.0e9};
  m.interconnect.hosts_per_leaf = 32;         // 64 I/O leaves
  m.interconnect.logins_per_service_leaf = 4; // 8 service leaves
  m.interconnect.leaves_per_agg = 16;         // 4 aggs over the I/O leaves
  m.interconnect.leaf_uplink = {5 * kMicrosecond, 32 * 1.2e9};
  m.interconnect.service_uplink = {5 * kMicrosecond, 2.4e9};  // oversubscribed
  m.interconnect.agg_uplink = {5 * kMicrosecond, 76.8e9};
  m.interconnect.per_message_overhead = 20 * kMicrosecond;
  return m;
}

Result<MachineConfig> preset(std::string_view name) {
  static constexpr std::pair<std::string_view, MachineConfig (*)()> kPresets[] =
      {{"atlas", atlas}, {"bgl", bgl}, {"petascale", petascale}};
  for (const auto& [preset_name, build] : kPresets) {
    if (preset_name == name) return build();
  }
  return invalid_argument("unknown machine '" + std::string(name) +
                          "' (expects atlas|bgl|petascale)");
}

}  // namespace petastat::machine
