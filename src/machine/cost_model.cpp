#include "machine/cost_model.hpp"

#include "common/status.hpp"

namespace petastat::machine {

CostModel default_cost_model(const MachineConfig& m) {
  CostModel c;
  if (m.name == "bgl") {
    // 700 MHz PPC440 I/O-node cores walk stacks ~3x slower than the 2.4 GHz
    // Opterons on Atlas, and the debug interface crosses the collective
    // network to the compute node.
    c.sampling.walk_per_frame = seconds(0.0011);
    c.sampling.walk_per_process = seconds(0.0042);
    c.sampling.symtab_parse_per_mb = seconds(0.24);
    // Comm processes run on 1.6 GHz Power5 login nodes.
    c.merge.merge_per_tree_node = seconds(0.0000026);
    c.merge.per_packet_cpu = seconds(0.0014);
  } else if (m.name == "petascale") {
    // Assume 2x faster cores than Atlas for the forward-looking projection.
    c.sampling.walk_per_frame = seconds(0.00018);
    c.sampling.walk_per_process = seconds(0.0006);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Analytic phase formulas

std::uint32_t tree_levels(std::uint32_t n, std::uint32_t fanout) {
  if (n <= 1) return n;
  check(fanout >= 2, "tree_levels fanout must be >= 2");
  std::uint32_t levels = 0;
  std::uint64_t reach = 1;
  while (reach < n) {
    reach *= fanout;
    ++levels;
  }
  return levels;
}

SimTime serial_shell_spawn_time(const LaunchCosts& costs,
                                std::uint32_t procs) {
  return static_cast<SimTime>(
      static_cast<double>(costs.remote_shell_per_daemon) * procs);
}

SimTime bulk_tree_spawn_time(const LaunchCosts& costs, std::uint32_t daemons) {
  const std::uint32_t levels = tree_levels(daemons, costs.rm_broadcast_fanout);
  return costs.rm_request_overhead + levels * costs.rm_broadcast_per_level;
}

SimTime ciod_process_table_time(const LaunchCosts& costs,
                                std::uint32_t app_procs, bool patched) {
  const auto p = static_cast<double>(app_procs);
  double t = to_seconds(costs.ciod_base) + to_seconds(costs.ciod_per_proc) * p;
  if (!patched) {
    // strcat rescans the destination buffer on every append: Theta(P^2).
    t += costs.ciod_strcat_ns_per_proc_sq * p * p * 1e-9;
  }
  return seconds(t);
}

SimTime ciod_spawn_time(const LaunchCosts& costs, std::uint32_t daemons) {
  return costs.rm_broadcast_per_level *
         tree_levels(daemons, costs.rm_broadcast_fanout);
}

SimTime ciod_app_launch_time(const LaunchCosts& costs,
                             std::uint32_t app_procs) {
  return costs.app_launch_base +
         static_cast<SimTime>(static_cast<double>(costs.app_launch_per_proc) *
                              app_procs);
}

SimTime stack_walk_cost(const SamplingCosts& costs, std::size_t frames) {
  return costs.walk_per_process +
         static_cast<SimTime>(frames) *
             (costs.walk_per_frame + costs.local_merge_per_node);
}

SimTime symtab_parse_cost(const SamplingCosts& costs,
                          std::uint64_t image_bytes) {
  return static_cast<SimTime>(
      static_cast<double>(costs.symtab_parse_per_mb) *
      (static_cast<double>(image_bytes) / (1024.0 * 1024.0)));
}

double expected_contention(const SamplingCosts& costs,
                           bool daemon_shares_cpu) {
  return daemon_shares_cpu ? costs.cpu_contention_mean : 1.0;
}

SimTime packet_codec_cost(const MergeCosts& costs, std::uint64_t bytes) {
  return costs.per_packet_cpu +
         static_cast<SimTime>(static_cast<double>(costs.pack_per_byte) *
                              static_cast<double>(bytes));
}

SimTime filter_merge_cost(const MergeCosts& costs, std::uint64_t tree_nodes,
                          std::uint64_t label_bytes) {
  return tree_nodes * costs.merge_per_tree_node +
         static_cast<SimTime>(
             static_cast<double>(costs.merge_per_label_byte) *
             static_cast<double>(label_bytes));
}

SimTime frontend_remap_cost(const MergeCosts& costs, std::uint64_t tasks) {
  return static_cast<SimTime>(static_cast<double>(costs.remap_per_task) *
                              static_cast<double>(tasks));
}

SimTime placed_spawn_time(const LaunchCosts& costs, std::uint32_t procs,
                          std::uint32_t distinct_hosts) {
  if (procs == 0) return 0;
  check(distinct_hosts >= 1 && distinct_hosts <= procs,
        "placed_spawn_time: hosts must be in [1, procs]");
  return static_cast<SimTime>(
      static_cast<double>(costs.remote_shell_per_daemon) * distinct_hosts +
      static_cast<double>(costs.colocated_spawn_per_proc) *
          (procs - distinct_hosts));
}

SimTime shard_combine_cost(const MergeCosts& costs, std::uint64_t tree_nodes,
                           std::uint64_t payload_bytes) {
  return packet_codec_cost(costs, payload_bytes) +
         filter_merge_cost(costs, tree_nodes, payload_bytes);
}

SimTime expected_detection_latency(SimTime ping_period,
                                   SimTime sweep_round_trip) {
  return ping_period / 2 + sweep_round_trip;
}

SimTime subtree_remerge_cost(const MergeCosts& costs,
                             std::uint32_t orphan_leaves,
                             std::uint32_t adopters,
                             std::uint64_t leaf_tree_nodes,
                             std::uint64_t leaf_payload_bytes) {
  if (orphan_leaves == 0) return 0;
  check(adopters >= 1, "subtree_remerge_cost needs at least one adopter");
  const std::uint64_t busiest = (orphan_leaves + adopters - 1) / adopters;
  // Each orphan leaf re-packs in parallel (one codec), then the busiest
  // adopter folds its share serially.
  return packet_codec_cost(costs, leaf_payload_bytes) +
         busiest *
             shard_combine_cost(costs, leaf_tree_nodes, leaf_payload_bytes);
}

SimTime control_packet_cost(const StreamCosts& costs) {
  return costs.control_packet_cpu;
}

SimTime signature_cost(const StreamCosts& costs, std::uint64_t traces) {
  return static_cast<SimTime>(
      static_cast<double>(costs.signature_per_trace) *
      static_cast<double>(traces));
}

SimTime cached_merge_cost(const MergeCosts& merge, const StreamCosts& stream,
                          std::uint64_t tree_nodes,
                          std::uint64_t label_bytes) {
  // The cache holds a decoded, canonically-ordered tree: a lock-step walk
  // with label unions, no unpack and no decode-side allocation churn.
  return tree_nodes * stream.cached_merge_per_node +
         static_cast<SimTime>(
             static_cast<double>(merge.merge_per_label_byte) *
             static_cast<double>(label_bytes));
}

}  // namespace petastat::machine
