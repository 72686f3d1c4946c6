#include "stat/statbench.hpp"

#include <algorithm>

#include "app/appmodel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stat/filter.hpp"
#include "tbon/reduction.hpp"

namespace petastat::stat {

namespace {

template <typename Label>
StatBenchResult run_with_label(const StatBenchConfig& config,
                               const machine::DaemonLayout& layout,
                               const tbon::TbonTopology& topology,
                               const app::StatBenchApp& app,
                               const machine::CostModel& costs) {
  StatBenchResult result;
  result.virtual_tasks = config.virtual_tasks;
  result.physical_daemons = layout.num_daemons;
  result.virtual_tasks_per_daemon = layout.tasks_per_daemon;

  sim::Simulator sim;
  sim::Executor exec(config.exec_threads);
  net::Network network(sim, net::build_switch_graph(config.machine));

  // Each daemon synthesizes traces for its virtual task block and builds its
  // local trees — exactly the tool-side work, minus the StackWalker. Daemons
  // are independent, so each is one executor job; the slowest-daemon
  // reduction below runs in daemon order either way.
  std::vector<StatPayload<Label>> payloads(layout.num_daemons);
  std::vector<double> generate_s(layout.num_daemons, 0.0);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    exec.run([&, d]() {
      const std::uint32_t first = layout.first_task_of(DaemonId(d));
      app::TraceBatch batch;
      batch.synthesize(app, layout.tasks_of(DaemonId(d)), 0, config.num_samples,
                       [first](std::uint32_t i) { return TaskId(first + i); });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        generate_s[d] += to_seconds(costs.sampling.local_merge_per_node) *
                         static_cast<double>(batch.path(i).size());
      }
      fold_batch(payloads[d], batch, d);
    });
  }
  exec.wait_all();
  double slowest_generate_s = 0.0;
  for (const double g : generate_s) {
    slowest_generate_s = std::max(slowest_generate_s, g);
  }
  result.generate_time = seconds(slowest_generate_s);
  sim.schedule_in(result.generate_time, []() {});
  sim.run();

  const LabelContext ctx{static_cast<std::uint32_t>(config.virtual_tasks)};
  const app::FrameTable& frames = app.frames();
  result.leaf_payload_bytes = payload_wire_bytes(payloads.front(), frames, ctx);

  const SimTime merge_start = sim.now();
  tbon::Reduction<StatPayload<Label>> reduction(
      sim, network, topology,
      make_stat_reduce_ops<Label>(costs.merge, frames, ctx), &exec);
  std::optional<StatPayload<Label>> merged;
  std::uint64_t bytes = 0;
  reduction.start(std::move(payloads),
                  [&](tbon::ReduceResult<StatPayload<Label>> r) {
                    merged = std::move(r.payload);
                    bytes = r.bytes_moved;
                  });
  sim.run();
  check(merged.has_value(), "statbench reduction did not complete");
  result.merge_time = sim.now() - merge_start;
  result.merge_bytes = bytes;

  if constexpr (std::is_same_v<Label, HierLabel>) {
    result.remap_time = tbon::remap_time(costs.merge, topology, layout);
    // Emulated tasks are generated in rank order, so the identity map is
    // the correct remap (the shuffled case is exercised by the scenario).
    const TaskMap map = TaskMap::identity(layout);
    result.tree_3d = remap_tree(merged->tree_3d, map);
  } else {
    result.tree_3d = std::move(merged->tree_3d);
  }
  result.classes = equivalence_classes(result.tree_3d);
  return result;
}

}  // namespace

StatBenchResult run_statbench(const StatBenchConfig& config) {
  StatBenchResult result;
  if (config.virtual_tasks == 0 || config.virtual_tasks > (1ull << 31)) {
    result.status = invalid_argument("virtual_tasks out of range");
    return result;
  }

  // Virtual layout: the physical daemons split the virtual job evenly.
  machine::DaemonLayout layout;
  layout.num_daemons = config.physical_daemons;
  if (layout.num_daemons == 0) {
    // Full machine: every I/O node (or compute node on cluster machines).
    layout.num_daemons =
        config.machine.daemon_placement == machine::DaemonPlacement::kPerIoNode
            ? config.machine.io_nodes
            : config.machine.compute_nodes;
  }
  layout.num_tasks = static_cast<std::uint32_t>(config.virtual_tasks);
  layout.tasks_per_daemon = static_cast<std::uint32_t>(
      (config.virtual_tasks + layout.num_daemons - 1) / layout.num_daemons);
  // Trim daemons that would hold no tasks (tiny virtual jobs).
  layout.num_daemons = static_cast<std::uint32_t>(
      (config.virtual_tasks + layout.tasks_per_daemon - 1) /
      layout.tasks_per_daemon);

  auto topo = tbon::build_topology(config.machine, layout, config.topology);
  if (!topo.is_ok()) {
    result.status = topo.status();
    return result;
  }

  app::StatBenchOptions app_options;
  app_options.num_tasks = layout.num_tasks;
  app_options.num_classes = config.app_classes;
  app_options.seed = config.seed;
  const app::StatBenchApp app(app_options);

  const machine::CostModel costs = machine::default_cost_model(config.machine);

  // The shape mirrors the scenario's merge phase, but over emulated data.
  if (config.repr == TaskSetRepr::kDenseGlobal) {
    return run_with_label<GlobalLabel>(config, layout, topo.value(), app,
                                       costs);
  }
  return run_with_label<HierLabel>(config, layout, topo.value(), app, costs);
}

}  // namespace petastat::stat
