// Section VII: the threading challenge ahead.
//
// Paper projections we verify:
//  * "an application running on 10,000 nodes with 8 threads per node
//    presents many of the same challenges as an application running on
//    80,000 nodes" — thread count multiplies collected data like node count
//    does;
//  * "we expect to see only a constant slowdown per thread in stack trace
//    sampling time" — sampling is daemon-local and parallel across nodes;
//  * "we expect that the MRNet scalable features will only cause a
//    logarithmic slowdown in merging time" — with the hierarchical
//    representation, extra threads fatten leaf payloads but the tree depth
//    does the heavy lifting.
// STAT folds per-thread stacks into the *process* representation: classes
// stay keyed by task rank.
#include "bench/harness.hpp"

using namespace petastat;
using namespace petastat::bench;

namespace {

stat::StatRunResult run_threads(std::uint32_t tasks, std::uint32_t threads) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = machine::BglMode::kCoprocessor;
  job.threads_per_task = threads;

  stat::StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.launcher = stat::LauncherKind::kCiodPatched;
  options.app = threads > 1 ? stat::AppKind::kThreadedRing
                            : stat::AppKind::kRingHang;
  options.use_sbrs = true;  // isolate the threading effect from FS noise

  stat::StatScenario scenario(machine::bgl(), job, options);
  return scenario.run();
}

}  // namespace

int main(int argc, char** argv) {
  title("Section VII", "Threading: threads multiply tool data like nodes do");

  // 10,240 tasks, sweeping threads per task.
  Series sample("sampling");
  Series merge("merge+remap");
  Series payload("leaf-KB", "KB");
  Series classes("classes", "count");
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto result = run_threads(10240, threads);
    if (!result.status.is_ok()) {
      std::printf("  %-10u FAILED: %s\n", threads,
                  result.status.to_string().c_str());
      return 1;
    }
    sample.add(threads, to_seconds(result.phases.sample_time));
    merge.add(threads,
              to_seconds(result.phases.merge_time + result.phases.remap_time));
    payload.add(threads,
                static_cast<double>(result.phases.leaf_payload_bytes) / 1024.0);
    classes.add(threads, static_cast<double>(result.classes.size()));
  }
  print_table("threads", {sample, merge});
  print_table("threads (size)", {payload, classes});

  // The equivalence projection: 10K nodes x 8 threads vs 80K nodes x 1.
  auto many_threads = run_threads(10240, 8);
  auto many_nodes = run_threads(81920, 1);
  const double traces_ratio =
      (10240.0 * 8.0) / (81920.0 * 1.0);
  Series projection_sampling("sampling");
  Series projection_payload("leaf-KB", "KB");
  const auto add_projection = [&](double tasks, const stat::StatRunResult& run) {
    projection_sampling.add(tasks, to_seconds(run.phases.sample_time));
    projection_payload.add(
        tasks, static_cast<double>(run.phases.leaf_payload_bytes) / 1024.0);
  };
  add_projection(10240, many_threads);
  add_projection(81920, many_nodes);
  note("projection: 10,240 tasks x 8 threads vs 81,920 tasks x 1 thread, "
       "each collecting " + std::to_string(81920 * 10) + " traces");
  print_table("tasks", {projection_sampling, projection_payload});

  anchor("per-thread sampling slowdown (8 threads vs 1)", "~constant per thread",
         std::to_string(sample.y.back() / sample.y.front()) +
             "x for 8x threads");
  shape_check("sampling slowdown is roughly linear in threads (parallel "
              "across nodes, serial within a daemon)",
              sample.y.back() / sample.y.front() > 3.0 &&
                  sample.y.back() / sample.y.front() < 10.0);
  shape_check("merge slows far less than sampling (logarithmic network)",
              merge.y.back() / merge.y.front() <
                  0.5 * (sample.y.back() / sample.y.front()));
  shape_check("classes stay process-keyed (no thread explosion in classes)",
              many_threads.classes.size() < 16);
  shape_check("8-thread run collects the same trace volume as the 8x-node run",
              traces_ratio == 1.0);
  return bench::finish(argc, argv);
}
