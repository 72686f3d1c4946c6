// Ablation: TBON depth and fanout at fixed job size.
//
// DESIGN.md calls out two design choices the paper motivates but does not
// sweep exhaustively: tree depth (Figs. 4/5 test only 1/2/3-deep) and the
// comm-process budget on the login-node tier. This ablation sweeps both at
// the full-machine BG/L scale for both task-set representations, showing
// (a) where adding depth stops paying, and (b) that the optimized
// representation makes the tool far less sensitive to topology — the
// paper's Sec. V-C observation that it achieved logarithmic scaling
// "despite limitations on the number of communication processes".
#include "bench/harness.hpp"

using namespace petastat;
using namespace petastat::bench;

namespace {

/// Runs the 212,992-task BG/L job on a `depth`-deep tree and records its
/// merge + remap seconds in `series` at `x` (a failed run records -1 with the
/// status code).
void run_depth(Series& series, double x, std::uint32_t depth,
               stat::TaskSetRepr repr, std::vector<std::uint32_t> widths = {}) {
  stat::StatOptions options;
  if (widths.empty()) {
    options.topology = depth == 1 ? tbon::TopologySpec::flat()
                                  : tbon::TopologySpec::bgl(depth);
  } else {
    options.topology.depth = depth;
    options.topology.level_widths = std::move(widths);
  }
  options.repr = repr;
  options.launcher = stat::LauncherKind::kCiodPatched;
  auto result = run_scenario(machine::bgl(), 212992,
                             machine::BglMode::kVirtualNode, options);
  if (!result.status.is_ok()) {
    series.add(x, -1.0, status_code_name(result.status.code()));
    return;
  }
  series.add(x, to_seconds(result.phases.merge_time + result.phases.remap_time));
}

}  // namespace

int main(int argc, char** argv) {
  title("Ablation", "TBON depth & comm-process budget at 212,992 tasks (BG/L VN)");

  Series dense_depth("dense");
  Series hier_depth("hier");
  for (std::uint32_t depth = 1; depth <= 3; ++depth) {
    run_depth(dense_depth, depth, depth, stat::TaskSetRepr::kDenseGlobal);
    run_depth(hier_depth, depth, depth, stat::TaskSetRepr::kHierarchical);
  }
  print_table("depth", {dense_depth, hier_depth});

  // 2-deep comm-process budget sweep (the login tier holds <= 336).
  Series dense_width("dense");
  Series hier_width("hier");
  for (const std::uint32_t width : {7u, 14u, 28u, 56u, 112u, 224u}) {
    run_depth(dense_width, width, 2, stat::TaskSetRepr::kDenseGlobal, {width});
    run_depth(hier_width, width, 2, stat::TaskSetRepr::kHierarchical, {width});
  }
  print_table("comm procs", {dense_width, hier_width});

  const auto spread = [](const Series& s) {
    const Series ok = s.successes();
    const auto [mn, mx] = std::minmax_element(ok.y.begin(), ok.y.end());
    return *mx / *mn;
  };
  shape_check("1-deep fails at full scale regardless of representation",
              dense_depth.y.front() < 0 && hier_depth.y.front() < 0);
  shape_check("hierarchical repr is much less sensitive to comm-proc budget "
              "than dense (sensitivity ratio > 2)",
              spread(dense_width) > 2.0 * spread(hier_width) ||
                  spread(hier_width) < 1.5);
  // The width sweep is U-shaped: too few comm procs starves parallel filter
  // CPU, too many multiplies per-packet overhead at the front end. The
  // paper's min(sqrt(n), 28) rule sits near the optimum.
  const auto interior_optimum = [](const Series& s) {
    const Series ok = s.successes();
    const double best = *std::min_element(ok.y.begin(), ok.y.end());
    return best < ok.y.front() && best < ok.y.back();
  };
  shape_check("comm-proc budget has an interior optimum (U-shape) for dense",
              interior_optimum(dense_width));
  const Series dense_ok = dense_width.successes();
  shape_check("the paper's fanout rule (28) sits within 25% of the best width "
              "(dense)",
              dense_width.y[2] < 1.25 * *std::min_element(dense_ok.y.begin(),
                                                          dense_ok.y.end()));
  note("dense spread over widths: " + std::to_string(spread(dense_width)) +
       "x; hierarchical spread: " + std::to_string(spread(hier_width)) + "x");
  return bench::finish(argc, argv);
}
