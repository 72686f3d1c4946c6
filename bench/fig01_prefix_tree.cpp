// Figure 1: example 3D trace/space/time call graph prefix tree from STAT.
//
// Reproduces the paper's example: the MPI ring test with the injected hang
// at 1024 tasks. The printed tree must show (a) task 1 alone on the
// do_SendOrStall/__gettimeofday path, (b) task 2 alone in the
// PMPI_Waitall/MPID_Progress_wait chain, and (c) the other 1022 tasks in the
// PMPI_Barrier messager-advance sub-classes (the 577/275/264-style splits).
#include <cstdio>

#include "bench/harness.hpp"
#include "stat/equivalence.hpp"

using namespace petastat;
using namespace petastat::bench;

int main(int argc, char** argv) {
  title("Figure 1", "3D trace/space/time call graph prefix tree, 1024-task ring hang");

  stat::StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.launcher = stat::LauncherKind::kCiodPatched;

  machine::JobConfig job;
  job.num_tasks = 1024;
  stat::StatScenario scenario(machine::bgl(), job, options);
  auto run = scenario.run();
  if (!run.status.is_ok()) {
    std::printf("FAILED: %s\n", run.status.to_string().c_str());
    return 1;
  }
  const auto& frames = scenario.app().frames();

  std::printf("\n3D prefix tree (edge labels: count:[ranks]):\n");
  run.tree_3d.visit([&](std::span<const FrameId> path,
                        const stat::GlobalTree::Node& node) {
    std::string indent(2 * path.size(), ' ');
    std::printf("%s%s  %s\n", indent.c_str(),
                std::string(frames.name(node.frame)).c_str(),
                node.label.tasks.edge_label().c_str());
  });

  std::printf("\nEquivalence classes (largest first):\n");
  for (const auto& cls : run.classes) {
    std::printf("  %s\n", stat::describe(cls, frames).c_str());
  }

  std::printf("\nDOT rendering:\n%s",
              stat::to_dot(run.tree_3d, frames).c_str());

  bool task1_alone = false, task2_alone = false, barrier_crowd = false;
  for (const auto& cls : run.classes) {
    if (cls.size() == 1 && cls.tasks.contains(1)) task1_alone = true;
    if (cls.size() == 1 && cls.tasks.contains(2)) task2_alone = true;
    if (cls.size() > 200) barrier_crowd = true;
  }
  shape_check("task 1 isolated on the do_SendOrStall path", task1_alone);
  shape_check("task 2 isolated in the PMPI_Waitall chain", task2_alone);
  shape_check("barrier tasks split into large progress-depth sub-classes",
              barrier_crowd);
  std::uint64_t total = 0;
  for (const auto& cls : run.classes) total += cls.size();
  shape_check("classes partition all 1024 tasks", total == 1024);
  return bench::finish(argc, argv);
}
