// STATBench emulation sweep (reference [9] methodology): project the merge
// phase to virtual scales up to 4,194,304 tasks — four times the "millions
// of cores" horizon of the paper's title — using the physical BG/L daemon
// population. This is the experiment the authors used to predict 128K-task
// behaviour before full-system time was available, extended to the
// petascale projections of Sec. V.
#include "bench/harness.hpp"
#include "stat/statbench.hpp"

using namespace petastat;
using namespace petastat::bench;

int main(int argc, char** argv) {
  title("STATBench", "emulated merge at virtual scales (BG/L daemon population)");

  Series dense("dense");
  Series dense_bytes("dense-leaf-KB", "KB");
  Series hier("hier(+remap)");
  Series hier_bytes("hier-leaf-KB", "KB");

  for (const std::uint64_t tasks :
       {65536ull, 262144ull, 1048576ull, 4194304ull}) {
    stat::StatBenchConfig config;
    config.machine = machine::bgl();
    config.virtual_tasks = tasks;
    config.num_samples = 3;

    config.repr = stat::TaskSetRepr::kDenseGlobal;
    const auto d = stat::run_statbench(config);
    config.repr = stat::TaskSetRepr::kHierarchical;
    const auto h = stat::run_statbench(config);
    if (!d.status.is_ok() || !h.status.is_ok()) {
      note(std::to_string(tasks) + " virtual tasks failed: " +
           (d.status.is_ok() ? h.status : d.status).to_string());
      continue;
    }
    const double dt = to_seconds(d.merge_time);
    const double ht = to_seconds(h.merge_time + h.remap_time);
    dense.add(static_cast<double>(tasks), dt);
    hier.add(static_cast<double>(tasks), ht);
    dense_bytes.add(static_cast<double>(tasks),
                    static_cast<double>(d.leaf_payload_bytes) / 1024.0);
    hier_bytes.add(static_cast<double>(tasks),
                   static_cast<double>(h.leaf_payload_bytes) / 1024.0);
  }
  print_table("virtual-tasks", {dense, hier});
  print_table("tasks (leaf KB)", {dense_bytes, hier_bytes});

  const double scale_growth = 4194304.0 / 65536.0;  // 64x
  shape_check("dense merge grows with virtual scale (>= 0.3x scale growth)",
              dense.y.back() / dense.y.front() > 0.3 * scale_growth);
  shape_check("hier merge+remap grows far slower than dense",
              hier.y.back() / hier.y.front() <
                  0.5 * (dense.y.back() / dense.y.front()));
  shape_check("dense leaf payloads scale ~linearly with virtual tasks",
              dense_bytes.y.back() / dense_bytes.y.front() > 0.5 * scale_growth);
  // Hier leaf payloads grow mildly with tasks/daemon (the app's temporal
  // wander fragments the local intervals) but stay ~4 orders of magnitude
  // below dense.
  shape_check("hier leaf payloads stay >1000x below dense at 4M tasks",
              dense_bytes.y.back() / hier_bytes.y.back() > 1000.0);
  note("emulation validates the Sec. V projection: at 4M virtual tasks a "
       "dense edge label is half a megabyte; the hierarchical label tracks "
       "only the subtree");
  return bench::finish(argc, argv);
}
