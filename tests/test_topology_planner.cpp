// Unit and agreement tests for the plan:: subsystem — the analytic
// PhasePredictor, the TopologySearch ranking, and `--topology auto`:
//  (a) predictor-vs-simulator ranking agreement on the Fig. 4/5 Atlas/BG/L
//      crossover configurations;
//  (b) `--topology auto` never feasibility-violates placement limits across
//      sampled matrix cells (machine x scale x representation).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "plan/search.hpp"
#include "stat/cli_config.hpp"
#include "stat/scenario.hpp"
#include "tbon/multicast.hpp"

namespace petastat::plan {
namespace {

stat::StatOptions dense_options(stat::LauncherKind launcher) {
  stat::StatOptions options;
  options.repr = stat::TaskSetRepr::kDenseGlobal;
  options.launcher = launcher;
  return options;
}

Result<PhasePredictor> predictor_for(const machine::MachineConfig& machine,
                                     std::uint32_t tasks,
                                     const stat::StatOptions& options,
                                     machine::BglMode mode =
                                         machine::BglMode::kCoprocessor) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = mode;
  return PhasePredictor::create(machine, job, options,
                                machine::default_cost_model(machine));
}

double simulated_startup_plus_merge(const machine::MachineConfig& machine,
                                    std::uint32_t tasks,
                                    stat::StatOptions options,
                                    const tbon::TopologySpec& spec) {
  options.topology = spec;
  machine::JobConfig job;
  job.num_tasks = tasks;
  stat::StatScenario scenario(machine, job, options);
  const stat::StatRunResult result = scenario.run();
  if (!result.status.is_ok()) return -1.0;
  return to_seconds(result.phases.startup_total + result.phases.merge_time +
                    result.phases.remap_time);
}

// --------------------------------------------------------------------------
// Workload profiling

TEST(WorkloadProfile, DensePayloadsDwarfHierarchical) {
  const auto machine = machine::atlas();
  machine::JobConfig job{.num_tasks = 2048};
  const auto layout = machine::layout_daemons(machine, job).value();
  const WorkloadProfile dense = profile_workload(
      machine, job, layout, dense_options(stat::LauncherKind::kLaunchMon));
  stat::StatOptions hier_opts = dense_options(stat::LauncherKind::kLaunchMon);
  hier_opts.repr = stat::TaskSetRepr::kHierarchical;
  const WorkloadProfile hier = profile_workload(machine, job, layout, hier_opts);
  // The paper's core result: full-job bit vectors on every edge dwarf the
  // subtree-local lists.
  EXPECT_GT(dense.leaf_payload_bytes, 4.0 * hier.leaf_payload_bytes);
  EXPECT_GT(dense.leaf_tree_nodes, 0.0);
  EXPECT_EQ(dense.probe_counts.front(), 1u);
}

TEST(WorkloadProfile, PayloadInterpolationIsMonotone) {
  const auto machine = machine::atlas();
  machine::JobConfig job{.num_tasks = 1024};
  const auto layout = machine::layout_daemons(machine, job).value();
  stat::StatOptions options = dense_options(stat::LauncherKind::kLaunchMon);
  options.repr = stat::TaskSetRepr::kHierarchical;
  const WorkloadProfile profile = profile_workload(machine, job, layout, options);
  double prev = 0.0;
  for (double d = 1; d <= layout.num_daemons; d *= 2) {
    const double bytes = profile.payload_bytes_for(d);
    EXPECT_GE(bytes, prev);
    prev = bytes;
  }
  // Hier labels grow with the subtree: the full-job accumulator clearly
  // outweighs one daemon's payload.
  EXPECT_GT(profile.payload_bytes_for(layout.num_daemons),
            profile.leaf_payload_bytes);
}

// --------------------------------------------------------------------------
// Predictor phases and viability

TEST(PhasePredictor, PredictsAllPhasesPositive) {
  auto predictor = predictor_for(machine::atlas(), 1024,
                                 dense_options(stat::LauncherKind::kLaunchMon));
  ASSERT_TRUE(predictor.is_ok());
  const auto prediction =
      predictor.value().predict(tbon::TopologySpec::balanced(2));
  ASSERT_TRUE(prediction.is_ok()) << prediction.status().to_string();
  const PhasePrediction& p = prediction.value();
  EXPECT_TRUE(p.viability.is_ok());
  EXPECT_GT(p.launch, 0u);
  EXPECT_GT(p.connect, 0u);
  EXPECT_GT(p.sampling, 0u);
  EXPECT_GT(p.merge, 0u);
  EXPECT_EQ(p.remap, 0u);  // dense repr has no remap
  EXPECT_GT(p.num_comm_procs, 0u);
  EXPECT_EQ(p.startup, p.launch + p.connect);
}

TEST(PhasePredictor, HierarchicalReprPredictsRemap) {
  stat::StatOptions options = dense_options(stat::LauncherKind::kLaunchMon);
  options.repr = stat::TaskSetRepr::kHierarchical;
  auto predictor = predictor_for(machine::atlas(), 1024, options);
  ASSERT_TRUE(predictor.is_ok());
  const auto prediction = predictor.value().predict(tbon::TopologySpec::flat());
  ASSERT_TRUE(prediction.is_ok());
  EXPECT_GT(prediction.value().remap, 0u);
}

TEST(PhasePredictor, FlatOnBglAtScaleHitsConnectionLimit) {
  // The Sec. V-A failure: 16,384 compute nodes = 256 daemons against the
  // BG/L front end, which survives 255 connections (the observed failure
  // point is 256).
  auto predictor = predictor_for(machine::bgl(), 16384,
                                 dense_options(stat::LauncherKind::kCiodPatched));
  ASSERT_TRUE(predictor.is_ok());
  const auto flat = predictor.value().predict(tbon::TopologySpec::flat());
  ASSERT_TRUE(flat.is_ok());
  EXPECT_EQ(flat.value().viability.code(), StatusCode::kResourceExhausted);
  const auto deep = predictor.value().predict(tbon::TopologySpec::bgl(2));
  ASSERT_TRUE(deep.is_ok());
  EXPECT_TRUE(deep.value().viability.is_ok());
}

TEST(PhasePredictor, ConnectionBoundaryIsExact) {
  // 16,320 BG/L compute nodes = 255 daemons: exactly the 255-connection
  // limit, so the flat tree is predicted viable; one daemon more tips it.
  const auto at = [](std::uint32_t tasks) {
    auto predictor = predictor_for(machine::bgl(), tasks,
                                   dense_options(stat::LauncherKind::kCiodPatched));
    return predictor.value().predict(tbon::TopologySpec::flat())
        .value().viability;
  };
  EXPECT_TRUE(at(255 * 64).is_ok());
  EXPECT_EQ(at(256 * 64).code(), StatusCode::kResourceExhausted);
}

TEST(PhasePredictor, HonorsTheMachineConnectionLimit) {
  // The simulator and the planner must agree on a lowered limit — otherwise
  // auto modes pick specs the run then rejects.
  stat::StatOptions options = dense_options(stat::LauncherKind::kLaunchMon);
  machine::MachineConfig limited = machine::atlas();
  limited.max_tool_connections = 31;  // one under Atlas's 32 daemons
  auto predictor = predictor_for(limited, 256, options);
  ASSERT_TRUE(predictor.is_ok());
  const auto flat = predictor.value().predict(tbon::TopologySpec::flat());
  ASSERT_TRUE(flat.is_ok());
  EXPECT_EQ(flat.value().viability.code(), StatusCode::kResourceExhausted);

  // End to end: --topology auto under the lowered limit completes, on a
  // spec that respects it.
  options.topology_auto = true;
  machine::JobConfig job{.num_tasks = 256};
  stat::StatScenario scenario(limited, job, options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_GE(result.topology.depth + (result.topology.fe_shards > 1 ? 1 : 0),
            2u);
}

TEST(PhasePredictor, ShardedSpecRelievesTheConnectionLimit) {
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.repr = stat::TaskSetRepr::kHierarchical;
  auto predictor = predictor_for(machine::bgl(), 16384, options);
  ASSERT_TRUE(predictor.is_ok());
  const auto sharded =
      predictor.value().predict(tbon::TopologySpec::flat().with_shards(4));
  ASSERT_TRUE(sharded.is_ok()) << sharded.status().to_string();
  EXPECT_TRUE(sharded.value().viability.is_ok())
      << sharded.value().viability.to_string();
  EXPECT_EQ(sharded.value().num_comm_procs, 4u);
  // The distributed remap prices the largest slice, not the whole job.
  const auto deep = predictor.value().predict(tbon::TopologySpec::bgl(2));
  ASSERT_TRUE(deep.is_ok());
  EXPECT_LT(sharded.value().remap, deep.value().remap);
}

TEST(ChooseFeShards, PicksAViableKForTheSecVAConfig) {
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards_auto = true;
  machine::JobConfig job;
  job.num_tasks = 16384;
  auto chosen = resolve(machine::bgl(), job, options,
                        machine::default_cost_model(machine::bgl()));
  ASSERT_TRUE(chosen.is_ok()) << chosen.status().to_string();
  EXPECT_GE(chosen.value().fe_shards, 2u);
  EXPECT_EQ(chosen.value().depth, 1u);  // still the flat spec, sharded
}

// --------------------------------------------------------------------------
// plan::resolve: each branch reproduces the spec StatScenario resolved when
// the scenario and the service scheduler each kept their own copy of the
// decision (values recorded on that tree).

struct PinnedSpec {
  std::string name;
  std::uint32_t fe_shards;
  tbon::ReducerPlacement placement;
  std::vector<std::uint32_t> level_widths;
};

void expect_pinned(const tbon::TopologySpec& spec, const PinnedSpec& pin,
                   const std::string& what) {
  EXPECT_EQ(spec.name(), pin.name) << what;
  EXPECT_EQ(spec.fe_shards, pin.fe_shards) << what;
  EXPECT_EQ(spec.reducer_placement, pin.placement) << what;
  EXPECT_EQ(spec.level_widths, pin.level_widths) << what;
}

TEST(Resolve, EveryBranchReproducesThePinnedSpec) {
  const machine::JobConfig atlas_job{.num_tasks = 512};
  const machine::JobConfig bgl_job{.num_tasks = 16384};
  stat::StatOptions stream;
  stream.stream_samples = 4;
  stream.evolution = app::TraceEvolution::kDrift;

  // The interrupted session every restore case resumes: a flat, unsharded
  // atlas run vacated at round boundary 2.
  stat::StatOptions vacating = stream;
  vacating.vacate_at_round = 2;
  stat::StatScenario first(machine::atlas(), atlas_job, vacating);
  const stat::StatRunResult interrupted = first.run();
  ASSERT_TRUE(interrupted.vacated) << interrupted.status.to_string();
  ASSERT_NE(interrupted.checkpoint, nullptr);

  struct Case {
    std::string what;
    machine::MachineConfig machine;
    machine::JobConfig job;
    stat::StatOptions options;
    bool restore;
    PinnedSpec pin;
  };
  std::vector<Case> cases;
  {
    stat::StatOptions o;
    o.topology = tbon::TopologySpec::balanced(2);
    o.fe_shards = 4;
    o.reducer_placement = tbon::ReducerPlacement::kPack;
    cases.push_back({"cold, pinned, fe_shards 4 + pack", machine::atlas(),
                     atlas_job, o, false,
                     {"2-deep x4shard/pack", 4, tbon::ReducerPlacement::kPack,
                      {}}});
  }
  {
    stat::StatOptions o;
    o.topology_auto = true;
    cases.push_back({"cold, topology_auto", machine::bgl(), bgl_job, o, false,
                     {"2-deep[2]", 1, tbon::ReducerPlacement::kCommLike, {2}}});
  }
  {
    stat::StatOptions o;
    o.fe_shards_auto = true;
    cases.push_back({"cold, fe_shards_auto", machine::bgl(), bgl_job, o, false,
                     {"1-deep x8shard/pack", 8, tbon::ReducerPlacement::kPack,
                      {}}});
  }
  {
    stat::StatOptions o = stream;
    o.fe_shards = 2;
    o.reducer_placement = tbon::ReducerPlacement::kSpread;
    cases.push_back({"restore, pinned, explicit re-shard", machine::atlas(),
                     atlas_job, o, true,
                     {"1-deep x2shard/spread", 2,
                      tbon::ReducerPlacement::kSpread, {}}});
  }
  {
    stat::StatOptions o = stream;
    o.fe_shards_auto = true;
    cases.push_back({"restore, fe_shards_auto", machine::atlas(), atlas_job, o,
                     true,
                     {"1-deep", 1, tbon::ReducerPlacement::kCommLike, {}}});
    machine::MachineConfig eight = machine::atlas();
    eight.max_tool_connections = 8;
    cases.push_back({"restore, fe_shards_auto, 8 connections", eight,
                     atlas_job, o, true,
                     {"1-deep x8shard/pack", 8, tbon::ReducerPlacement::kPack,
                      {}}});
  }

  for (const Case& c : cases) {
    const auto restore = c.restore ? interrupted.checkpoint : nullptr;
    stat::StatScenario scenario(c.machine, c.job, c.options, nullptr, restore);
    ASSERT_TRUE(scenario.config_status().is_ok())
        << c.what << ": " << scenario.config_status().to_string();
    expect_pinned(scenario.resolved_options().topology, c.pin, c.what);

    auto resolved = resolve(c.machine, c.job, c.options,
                            machine::default_cost_model(c.machine),
                            restore.get());
    ASSERT_TRUE(resolved.is_ok())
        << c.what << ": " << resolved.status().to_string();
    expect_pinned(resolved.value(), c.pin, c.what);
  }
}

TEST(TopologySearch, ShardDimensionJoinsTheSpaceUnderAuto) {
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.fe_shards_auto = true;
  auto predictor = predictor_for(machine::bgl(), 16384, options);
  ASSERT_TRUE(predictor.is_ok());
  auto search = search_topologies(predictor.value());
  ASSERT_TRUE(search.is_ok());
  bool saw_sharded = false;
  for (const RankedTopology& ranked : search.value().viable) {
    EXPECT_TRUE(ranked.prediction.viability.is_ok());
    if (ranked.spec.fe_shards > 1) saw_sharded = true;
  }
  EXPECT_TRUE(saw_sharded);
  // Without the auto flag the space stays unsharded (PR-3 behaviour).
  auto pinned = predictor_for(machine::bgl(), 16384,
                              dense_options(stat::LauncherKind::kCiodPatched));
  auto pinned_search = search_topologies(pinned.value());
  ASSERT_TRUE(pinned_search.is_ok());
  for (const RankedTopology& ranked : pinned_search.value().viable) {
    EXPECT_EQ(ranked.spec.fe_shards, 1u);
  }
}

// --------------------------------------------------------------------------
// Stream round pricing: which procs a predicted delta round re-merges

struct StreamPricingCell {
  const char* name;
  machine::MachineConfig machine;
  std::uint32_t tasks;
  tbon::TopologySpec spec;
};

/// Runs `check_cell` on a flat and a 2-deep Atlas tree and a sharded
/// petascale tree, each with the topology the predictor prices.
template <typename CheckCell>
void for_each_stream_pricing_cell(CheckCell check_cell) {
  const StreamPricingCell cells[] = {
      {"atlas_flat", machine::atlas(), 1024, tbon::TopologySpec::flat()},
      {"atlas_2deep", machine::atlas(), 1024, tbon::TopologySpec::balanced(2)},
      {"petascale_k16", machine::petascale(), 131072,
       tbon::TopologySpec::flat().with_shards(16)},
  };
  for (const StreamPricingCell& cell : cells) {
    SCOPED_TRACE(cell.name);
    stat::StatOptions options = dense_options(stat::LauncherKind::kLaunchMon);
    options.repr = stat::TaskSetRepr::kHierarchical;
    auto predictor = predictor_for(cell.machine, cell.tasks, options);
    ASSERT_TRUE(predictor.is_ok()) << predictor.status().to_string();
    auto topo = tbon::build_topology(predictor.value().machine(),
                                     predictor.value().layout(), cell.spec);
    ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
    check_cell(predictor.value(), topo.value(), cell.spec);
  }
}

/// The front end plus every comm process.
std::uint32_t non_leaf_procs(const tbon::TbonTopology& topo) {
  return topo.num_comm_procs() + 1;
}

TEST(StreamPricing, AllChangedRemergesEveryNonLeafProc) {
  for_each_stream_pricing_cell([](const PhasePredictor& predictor,
                                  const tbon::TbonTopology& topo,
                                  const tbon::TopologySpec& spec) {
    const std::uint32_t daemons = predictor.layout().num_daemons;
    const auto all =
        predictor.predict_stream_sample(spec, std::vector<bool>(daemons, true));
    ASSERT_TRUE(all.is_ok()) << all.status().to_string();
    EXPECT_EQ(all.value().changed_daemons, daemons);
    EXPECT_EQ(all.value().remerged_procs, non_leaf_procs(topo));
    EXPECT_EQ(all.value().cached_procs, 0u);

    // The empty mask is the same all-changed round.
    const auto empty = predictor.predict_stream_sample(spec, {});
    ASSERT_TRUE(empty.is_ok());
    EXPECT_EQ(empty.value().merge, all.value().merge);
    EXPECT_EQ(empty.value().delta_bytes, all.value().delta_bytes);

    const auto short_mask = predictor.predict_stream_sample(
        spec, std::vector<bool>(daemons - 1, true));
    EXPECT_EQ(short_mask.status().code(), StatusCode::kInvalidArgument);
  });
}

TEST(StreamPricing, NoneChangedAcksEveryEdge) {
  for_each_stream_pricing_cell([](const PhasePredictor& predictor,
                                  const tbon::TbonTopology& topo,
                                  const tbon::TopologySpec& spec) {
    const std::uint32_t daemons = predictor.layout().num_daemons;
    const auto none = predictor.predict_stream_sample(
        spec, std::vector<bool>(daemons, false));
    ASSERT_TRUE(none.is_ok()) << none.status().to_string();
    EXPECT_EQ(none.value().changed_daemons, 0u);
    EXPECT_EQ(none.value().remerged_procs, 0u);
    EXPECT_EQ(none.value().cached_procs, non_leaf_procs(topo));
    EXPECT_EQ(none.value().delta_bytes,
              tbon::kDeltaAckBytes * (topo.procs.size() - 1));

    const auto all = predictor.predict_stream_sample(spec, {});
    ASSERT_TRUE(all.is_ok());
    EXPECT_LT(none.value().merge, all.value().merge);
  });
}

TEST(StreamPricing, OneChangedDaemonRemergesExactlyItsAncestors) {
  for_each_stream_pricing_cell([](const PhasePredictor& predictor,
                                  const tbon::TbonTopology& topo,
                                  const tbon::TopologySpec& spec) {
    const std::uint32_t daemons = predictor.layout().num_daemons;
    const std::uint32_t changed = daemons / 2;
    std::vector<bool> mask(daemons, false);
    mask[changed] = true;
    const auto one = predictor.predict_stream_sample(spec, mask);
    ASSERT_TRUE(one.is_ok()) << one.status().to_string();

    std::uint32_t ancestors = 0;
    for (std::int32_t walk = topo.procs[topo.leaf_of_daemon[changed]].parent;
         walk >= 0; walk = topo.procs[static_cast<std::uint32_t>(walk)].parent) {
      ++ancestors;
    }
    EXPECT_EQ(ancestors, topo.depth);
    EXPECT_EQ(one.value().changed_daemons, 1u);
    EXPECT_EQ(one.value().remerged_procs, ancestors);
    EXPECT_EQ(one.value().cached_procs, non_leaf_procs(topo) - ancestors);

    const auto none = predictor.predict_stream_sample(
        spec, std::vector<bool>(daemons, false));
    const auto all = predictor.predict_stream_sample(spec, {});
    ASSERT_TRUE(none.is_ok());
    ASSERT_TRUE(all.is_ok());
    EXPECT_GT(one.value().delta_bytes, none.value().delta_bytes);
    EXPECT_LT(one.value().delta_bytes, all.value().delta_bytes);
    EXPECT_LT(one.value().merge, all.value().merge);
  });
}

// --------------------------------------------------------------------------
// Pinned predictions

/// One ranked spec's predicted phases, in nanoseconds of virtual time.
struct PinnedPrediction {
  const char* spec;
  SimTime connect;
  SimTime startup;
  SimTime merge;
  std::uint32_t comm_procs;
};

void expect_pinned(const std::vector<RankedTopology>& ranked,
                   const std::vector<PinnedPrediction>& pinned,
                   SimTime remap) {
  // Launch and sampling do not depend on the spec or the representation.
  constexpr SimTime kLaunch = 184948960000;
  constexpr SimTime kSampling = 9150022826;
  ASSERT_EQ(ranked.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE(std::to_string(i) + ": " + pinned[i].spec);
    const PhasePrediction& p = ranked[i].prediction;
    EXPECT_EQ(ranked[i].spec.name(), pinned[i].spec);
    EXPECT_EQ(p.launch, kLaunch);
    EXPECT_EQ(p.connect, pinned[i].connect);
    EXPECT_EQ(p.startup, pinned[i].startup);
    EXPECT_EQ(p.sampling, kSampling);
    EXPECT_EQ(p.merge, pinned[i].merge);
    EXPECT_EQ(p.remap, remap);
    EXPECT_EQ(p.num_comm_procs, pinned[i].comm_procs);
  }
}

TEST(TopologySearch, PetascaleUrgentSessionRankingIsPinned) {
  // The service benchmark's urgent session (petascale, 65,536 tasks,
  // --topology auto) under two residual machines the scheduler plans it
  // on: the idle one (32 comm slots per login, 1,024 connections) and one
  // with a login slot and 68 connections taken. Every spec name and
  // predicted time is pinned exactly, so a change to the round pricer or
  // the route walk that moves any prediction by a nanosecond fails here.
  // Hierarchical merges are bound by the parents' CPUs; dense ones by the
  // busiest link device, which pins the per-device sums too.
  const std::vector<PinnedPrediction> hier = {
      {"2-deep[4]", 1728000000, 186676960000, 197028513, 4},
      {"2-deep[2]", 1615000000, 186563960000, 386372978, 2},
      {"2-deep[8]", 2530000000, 187478960000, 104600081, 8},
      {"1-deep", 1886000000, 186834960000, 764793801, 0},
      {"3-deep[4,4]", 2717500000, 187666460000, 198775489, 8},
      {"3-deep[4,8]", 3515000000, 188463960000, 104103257, 12},
      {"2-deep[16]", 4422000000, 189370960000, 62848466, 16},
      {"3-deep[8,8]", 4507500000, 189456460000, 106229569, 16},
      {"3-deep(16)", 5398000000, 190346960000, 57894042, 20},
      {"3-deep[8,16]", 6389000000, 191337960000, 59265754, 24},
      {"3-deep(24)", 7345500000, 192294460000, 43728918, 28},
      {"2-deep", 7363500000, 192312460000, 51666678, 28},
      {"2-deep", 8350000000, 193298960000, 50917858, 32},
      {"3-deep[4,32]", 9308000000, 194256960000, 37018233, 36},
      {"3-deep[8,32]", 10296000000, 195244960000, 36900745, 40},
      {"2-deep[64]", 16278000000, 201226960000, 62817954, 64},
      {"3-deep[4,64]", 17200000000, 202148960000, 31047930, 68},
      {"3-deep[8,64]", 18182000000, 203130960000, 27952042, 72},
      {"2-deep[128]", 32170000000, 217118960000, 104508802, 128},
      {"3-deep", 33000500000, 217949460000, 27177670, 132},
      {"3-deep[4,128]", 33020000000, 217968960000, 36997978, 132},
      {"3-deep[8,128]", 33990000000, 218938960000, 27945290, 136},
      {"2-deep[256]", 63972000000, 248920960000, 196835825, 256},
      {"3-deep[4,256]", 64678000000, 249626960000, 57843401, 260},
      {"3-deep[8,256]", 65624000000, 250572960000, 36877114, 264},
      {"2-deep[512]", 127585000000, 312533960000, 385909185, 512},
      {"3-deep[4,512]", 128003000000, 312951960000, 103993497, 516},
      {"3-deep[8,512]", 128901000000, 313849960000, 59206666, 520},
  };
  const std::vector<PinnedPrediction> dense = {
      {"2-deep[4]", 1728000000, 186676960000, 299150147, 4},
      {"2-deep[2]", 1615000000, 186563960000, 588099532, 2},
      {"2-deep[8]", 2530000000, 187478960000, 158098243, 8},
      {"3-deep[4,4]", 2717500000, 187666460000, 301428139, 8},
      {"3-deep[4,8]", 3515000000, 188463960000, 156953447, 12},
      {"2-deep[16]", 4422000000, 189370960000, 94392867, 16},
      {"3-deep[8,8]", 4507500000, 189456460000, 160386235, 16},
      {"3-deep(16)", 5398000000, 190346960000, 96669769, 20},
      {"3-deep[8,16]", 6389000000, 191337960000, 183092774, 24},
      {"3-deep(24)", 7345500000, 192294460000, 154982059, 28},
      {"2-deep", 7363500000, 192312460000, 142119385, 28},
      {"2-deep", 8350000000, 193298960000, 164910584, 32},
      {"3-deep[4,32]", 9308000000, 194256960000, 143289060, 36},
      {"3-deep[8,32]", 10296000000, 195244960000, 143299060, 40},
      {"2-deep[64]", 16278000000, 201226960000, 159244749, 64},
      {"3-deep[4,64]", 17200000000, 202148960000, 110320921, 68},
      {"3-deep[8,64]", 18182000000, 203130960000, 105780537, 72},
      {"2-deep[128]", 32170000000, 217118960000, 232050893, 128},
      {"3-deep", 33000500000, 217949460000, 108836485, 132},
      {"3-deep[4,128]", 33020000000, 217968960000, 128522457, 132},
      {"3-deep[8,128]", 33990000000, 218938960000, 114881305, 136},
      {"2-deep[256]", 63972000000, 248920960000, 377663181, 256},
      {"3-deep[4,256]", 64678000000, 249626960000, 164925529, 260},
      {"3-deep[8,256]", 65624000000, 250572960000, 133082841, 264},
      {"3-deep[4,512]", 128003000000, 312951960000, 237731673, 516},
      {"2-deep[512]", 127585000000, 312533960000, 668887757, 512},
      {"3-deep[8,512]", 128901000000, 313849960000, 169485913, 520},
      {"1-deep", 1886000000, 186834960000, 1167143096, 0},
  };
  for (const bool is_dense : {false, true}) {
    std::vector<std::string_view> args = {
        "--machine", "petascale", "--tasks", "65536", "--topology", "auto",
        "--exec-threads", "3", "--seed", "2008"};
    if (is_dense) args.insert(args.end(), {"--repr", "dense"});
    const auto cli = stat::parse_cli(args);
    ASSERT_TRUE(cli.is_ok()) << cli.status().to_string();
    for (const auto& [slots, connections] :
         {std::pair{32u, 1024u}, std::pair{31u, 956u}}) {
      SCOPED_TRACE(std::string(is_dense ? "dense, " : "hier, ") +
                   std::to_string(slots) + " slots/login, " +
                   std::to_string(connections) + " connections");
      machine::MachineConfig machine = cli.value().machine;
      machine.max_comm_procs_per_login = slots;
      machine.max_tool_connections = connections;
      auto predictor = PhasePredictor::create(
          machine, cli.value().job, cli.value().options,
          machine::default_cost_model(machine));
      ASSERT_TRUE(predictor.is_ok()) << predictor.status().to_string();
      const auto ranked = search_topologies(predictor.value());
      ASSERT_TRUE(ranked.is_ok()) << ranked.status().to_string();
      // 1,024 daemons straight into the front end overflow its receive
      // buffer with dense payloads, and exceed 956 connections either way:
      // "1-deep" is then rejected with its prices unchanged, and no other
      // prediction moves.
      const bool flat_rejected = is_dense || connections < 1024;
      std::vector<PinnedPrediction> viable;
      std::vector<PinnedPrediction> rejected;
      for (const PinnedPrediction& entry : is_dense ? dense : hier) {
        const bool flat = std::string_view(entry.spec) == "1-deep";
        (flat && flat_rejected ? rejected : viable).push_back(entry);
      }
      const SimTime remap = is_dense ? 0 : 203161600;
      expect_pinned(ranked.value().viable, viable, remap);
      expect_pinned(ranked.value().rejected, rejected, remap);
      for (const RankedTopology& entry : ranked.value().rejected) {
        EXPECT_EQ(entry.prediction.viability.code(),
                  StatusCode::kResourceExhausted);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Reducer trees (K > 8) and placement pricing

TEST(PhasePredictor, ReducerTreeRescuesThePetascaleFlatMerge) {
  // The Sec. V-A failure mode, projected forward: 2,048 daemons cannot hang
  // off the petascale front end (1,024-connection ceiling), but K = 64
  // reducers under an 8-wide combiner level keep every merge root within the
  // limit — the reducer tree is what makes K in {16, 32, 64} usable at all.
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.repr = stat::TaskSetRepr::kHierarchical;
  auto predictor = predictor_for(machine::petascale(), 1048576, options,
                                 machine::BglMode::kVirtualNode);
  ASSERT_TRUE(predictor.is_ok()) << predictor.status().to_string();
  const auto flat = predictor.value().predict(tbon::TopologySpec::flat());
  ASSERT_TRUE(flat.is_ok());
  EXPECT_EQ(flat.value().viability.code(), StatusCode::kResourceExhausted);
  const auto tree = predictor.value().predict(
      tbon::TopologySpec::flat().with_shards(64));
  ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
  EXPECT_TRUE(tree.value().viability.is_ok())
      << tree.value().viability.to_string();
  EXPECT_EQ(tree.value().num_comm_procs, 72u);  // 64 reducers + 8 combiners
}

TEST(PhasePredictor, ConnectionLimitTightensTheReducerTreeFanIn) {
  // The machine's connection limit is the run's ceiling everywhere, the
  // combiner fan-in clamp included: under a 4-connection what-if, K = 64
  // must fold through 4-ary combiner levels (FE -> 4 -> 16 -> 64 reducers
  // of 4 daemons each) and come out viable — not get built 8-ary against
  // the preset's limit and then rejected by the very limit that demanded
  // the deeper tree.
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.repr = stat::TaskSetRepr::kHierarchical;
  machine::MachineConfig limited = machine::petascale();
  limited.max_tool_connections = 4;
  auto predictor = predictor_for(limited, 131072, options,
                                 machine::BglMode::kVirtualNode);
  ASSERT_TRUE(predictor.is_ok());
  const tbon::TopologySpec spec = tbon::TopologySpec::flat().with_shards(64);
  const auto prediction = predictor.value().predict(spec);
  ASSERT_TRUE(prediction.is_ok()) << prediction.status().to_string();
  EXPECT_TRUE(prediction.value().viability.is_ok())
      << prediction.value().viability.to_string();
  // 64 reducers + 16 + 4 combiners.
  EXPECT_EQ(prediction.value().num_comm_procs, 84u);

  // The simulator builds the same tree under the same limit: the run
  // completes.
  machine::JobConfig job;
  job.num_tasks = 131072;
  job.mode = machine::BglMode::kVirtualNode;
  stat::StatOptions run_options = options;
  run_options.topology = spec;
  stat::StatScenario scenario(limited, job, run_options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.num_comm_procs, 84u);
}

TEST(PlacementPricing, SpawnLocalityVsNicContentionBothWays) {
  // The placement trade, both directions, predictor against simulator:
  // packing the 72 shard procs onto 3 petascale logins makes the spawn burst
  // cheap (3 remote-shell handshakes instead of 32) but leaves ~24 reducers
  // draining their shards through each login NIC; spreading reverses both.
  const auto machine = machine::petascale();
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  const std::uint32_t tasks = 131072;  // 256 daemons in VN mode
  auto predictor = predictor_for(machine, tasks, options,
                                 machine::BglMode::kVirtualNode);
  ASSERT_TRUE(predictor.is_ok());
  const tbon::TopologySpec base = tbon::TopologySpec::flat().with_shards(64);
  const auto pack = predictor.value()
                        .predict(base.with_placement(
                            tbon::ReducerPlacement::kPack))
                        .value();
  const auto spread = predictor.value()
                          .predict(base.with_placement(
                              tbon::ReducerPlacement::kSpread))
                          .value();
  ASSERT_TRUE(pack.viability.is_ok());
  ASSERT_TRUE(spread.viability.is_ok());
  EXPECT_LT(pack.connect, spread.connect);  // spawn locality
  EXPECT_LT(spread.merge, pack.merge);      // per-host NIC contention

  const auto simulate = [&](tbon::ReducerPlacement placement) {
    stat::StatOptions o = options;
    o.topology = base.with_placement(placement);
    machine::JobConfig job;
    job.num_tasks = tasks;
    job.mode = machine::BglMode::kVirtualNode;
    stat::StatScenario scenario(machine, job, o);
    const stat::StatRunResult result = scenario.run();
    EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
    return result.phases;
  };
  const stat::PhaseBreakdown sim_pack =
      simulate(tbon::ReducerPlacement::kPack);
  const stat::PhaseBreakdown sim_spread =
      simulate(tbon::ReducerPlacement::kSpread);
  EXPECT_LT(sim_pack.connect_time, sim_spread.connect_time);
  EXPECT_LT(sim_spread.merge_time, sim_pack.merge_time);
}

TEST(PlacementPricing, JointRankingPicksAPlacementAndAutoFollows) {
  // The acceptance case: at the petascale preset the search ranks
  // (K, depth, placement) jointly; the winner is a sharded spec whose pack
  // placement strictly beats its spread twin (the spawn burst dominates the
  // NIC term at this payload size), and `--topology auto` adopts exactly the
  // ranked winner.
  stat::StatOptions options = dense_options(stat::LauncherKind::kCiodPatched);
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.fe_shards_auto = true;
  machine::JobConfig job;
  job.num_tasks = 1048576;
  job.mode = machine::BglMode::kVirtualNode;
  auto predictor = predictor_for(machine::petascale(), job.num_tasks, options,
                                 job.mode);
  ASSERT_TRUE(predictor.is_ok());
  auto search = search_topologies(predictor.value());
  ASSERT_TRUE(search.is_ok()) << search.status().to_string();
  const RankedTopology& best = search.value().best();
  // Sharding wins at this scale (the distributed remap alone is worth ~3 s),
  // and pack placement wins the spawn-vs-NIC trade.
  EXPECT_GT(best.spec.fe_shards, 1u);
  EXPECT_EQ(best.spec.reducer_placement, tbon::ReducerPlacement::kPack);
  // The spread twin is viable, ranked, and strictly slower.
  const tbon::TopologySpec twin =
      best.spec.with_placement(tbon::ReducerPlacement::kSpread);
  bool found_twin = false;
  for (const RankedTopology& ranked : search.value().viable) {
    if (ranked.spec.name() == twin.name()) {
      found_twin = true;
      EXPECT_GT(ranked.prediction.startup_plus_merge(),
                best.prediction.startup_plus_merge());
    }
  }
  EXPECT_TRUE(found_twin);

  // End to end: `--topology auto` resolves to the ranked winner.
  options.topology_auto = true;
  stat::StatScenario scenario(machine::petascale(), job, options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.topology.name(), best.spec.name());
}

TEST(PhasePredictor, RshLauncherViabilityMatchesMachine) {
  auto on_bgl = predictor_for(machine::bgl(), 4096,
                              dense_options(stat::LauncherKind::kMrnetRsh));
  ASSERT_TRUE(on_bgl.is_ok());
  EXPECT_EQ(on_bgl.value().predict(tbon::TopologySpec::flat())
                .value().viability.code(),
            StatusCode::kUnavailable);
  // Atlas supports rsh, but past the port-exhaustion threshold it dies too.
  auto at_scale = predictor_for(machine::atlas(), 8192,
                                dense_options(stat::LauncherKind::kMrnetRsh));
  ASSERT_TRUE(at_scale.is_ok());  // 1024 daemons >= 512 threshold
  EXPECT_EQ(at_scale.value().predict(tbon::TopologySpec::flat())
                .value().viability.code(),
            StatusCode::kUnavailable);
}

TEST(PhasePredictor, UnbuildableSpecFailsInsteadOfPredicting) {
  auto predictor = predictor_for(machine::atlas(), 1024,
                                 dense_options(stat::LauncherKind::kLaunchMon));
  ASSERT_TRUE(predictor.is_ok());
  tbon::TopologySpec bad;
  bad.depth = 2;
  bad.level_widths = {0};
  EXPECT_FALSE(predictor.value().predict(bad).is_ok());
}

// --------------------------------------------------------------------------
// (a) Ranking agreement on the Fig. 4/5 crossover configurations

TEST(RankingAgreement, AtlasMergeCrossoverDirection) {
  // Fig. 4: at 4,096 tasks the deep trees clearly beat the flat tree's
  // merge; at 64 tasks the flat tree is competitive. The predictor must
  // order the merge times the same way the simulator does.
  const auto machine = machine::atlas();
  const stat::StatOptions options = dense_options(stat::LauncherKind::kLaunchMon);

  const auto merge_pred = [&](std::uint32_t tasks, std::uint32_t depth) {
    auto predictor = predictor_for(machine, tasks, options);
    const auto p = predictor.value().predict(
        depth == 1 ? tbon::TopologySpec::flat()
                   : tbon::TopologySpec::balanced(depth));
    return to_seconds(p.value().merge);
  };
  const auto merge_sim = [&](std::uint32_t tasks, std::uint32_t depth) {
    stat::StatOptions o = options;
    o.topology = depth == 1 ? tbon::TopologySpec::flat()
                            : tbon::TopologySpec::balanced(depth);
    machine::JobConfig job{.num_tasks = tasks};
    stat::StatScenario scenario(machine, job, o);
    const auto result = scenario.run();
    EXPECT_TRUE(result.status.is_ok());
    return to_seconds(result.phases.merge_time);
  };

  // Large scale: both sides say deep beats flat.
  EXPECT_LT(merge_sim(4096, 2), merge_sim(4096, 1));
  EXPECT_LT(merge_pred(4096, 2), merge_pred(4096, 1));
  EXPECT_LT(merge_sim(4096, 3), merge_sim(4096, 1));
  EXPECT_LT(merge_pred(4096, 3), merge_pred(4096, 1));
  // Small scale: both sides say flat is competitive (within 25%).
  EXPECT_LT(merge_sim(64, 1), 1.25 * merge_sim(64, 2));
  EXPECT_LT(merge_pred(64, 1), 1.25 * merge_pred(64, 2));
}

TEST(RankingAgreement, AutoWithinTenPercentOfBestSimulated) {
  // The acceptance bar, on both machines' crossover configs: the predictor's
  // top pick, *simulated*, lands within 10% of the best simulated candidate
  // in the enumerated space.
  struct Config {
    machine::MachineConfig machine;
    std::uint32_t tasks;
    stat::LauncherKind launcher;
  };
  const std::vector<Config> configs = {
      {machine::atlas(), 64, stat::LauncherKind::kLaunchMon},
      {machine::atlas(), 4096, stat::LauncherKind::kLaunchMon},
      {machine::bgl(), 4096, stat::LauncherKind::kCiodPatched},
      {machine::bgl(), 16384, stat::LauncherKind::kCiodPatched},
  };
  for (const Config& config : configs) {
    const stat::StatOptions options = dense_options(config.launcher);
    auto predictor = predictor_for(config.machine, config.tasks, options);
    ASSERT_TRUE(predictor.is_ok());
    auto search = search_topologies(predictor.value());
    ASSERT_TRUE(search.is_ok()) << config.machine.name << " " << config.tasks;

    double best = -1.0;
    double chosen = -1.0;
    for (const RankedTopology& ranked : search.value().viable) {
      const double sim = simulated_startup_plus_merge(
          config.machine, config.tasks, options, ranked.spec);
      if (sim < 0) continue;
      if (best < 0 || sim < best) best = sim;
      if (chosen < 0) chosen = sim;  // first = predictor's pick
    }
    ASSERT_GT(chosen, 0.0) << config.machine.name << " " << config.tasks;
    EXPECT_LE(chosen, 1.10 * best)
        << config.machine.name << " @ " << config.tasks
        << ": auto pick " << chosen << "s vs best " << best << "s";
  }
}

// --------------------------------------------------------------------------
// (b) `--topology auto` feasibility across sampled matrix cells

TEST(AutoTopology, NeverViolatesPlacementLimitsAcrossMatrixCells) {
  struct Cell {
    machine::MachineConfig machine;
    std::uint32_t tasks;
    machine::BglMode mode;
    stat::TaskSetRepr repr;
    stat::LauncherKind launcher;
  };
  std::vector<Cell> cells;
  for (const std::uint32_t tasks : {256u, 2048u, 4096u}) {
    for (const auto repr :
         {stat::TaskSetRepr::kDenseGlobal, stat::TaskSetRepr::kHierarchical}) {
      cells.push_back({machine::atlas(), tasks, machine::BglMode::kCoprocessor,
                       repr, stat::LauncherKind::kLaunchMon});
    }
  }
  for (const std::uint32_t tasks : {4096u, 16384u}) {
    for (const auto repr :
         {stat::TaskSetRepr::kDenseGlobal, stat::TaskSetRepr::kHierarchical}) {
      cells.push_back({machine::bgl(), tasks, machine::BglMode::kCoprocessor,
                       repr, stat::LauncherKind::kCiodPatched});
    }
  }
  cells.push_back({machine::bgl(), 8192, machine::BglMode::kVirtualNode,
                   stat::TaskSetRepr::kHierarchical,
                   stat::LauncherKind::kCiodPatched});

  for (const Cell& cell : cells) {
    machine::JobConfig job;
    job.num_tasks = cell.tasks;
    job.mode = cell.mode;
    stat::StatOptions options;
    options.repr = cell.repr;
    options.launcher = cell.launcher;
    options.topology_auto = true;
    const auto layout = machine::layout_daemons(cell.machine, job).value();

    auto chosen = resolve(cell.machine, job, options,
                          machine::default_cost_model(cell.machine));
    ASSERT_TRUE(chosen.is_ok())
        << cell.machine.name << " " << cell.tasks << ": "
        << chosen.status().to_string();

    // The chosen spec must build under the machine's placement rules...
    auto topo = tbon::build_topology(cell.machine, layout, chosen.value());
    ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
    // ...respect the connection ceiling (exactly the limit survives)...
    EXPECT_TRUE(tbon::connection_viability(topo.value(),
                                           cell.machine.max_tool_connections)
                    .is_ok());
    // ...and fit the comm-process slots.
    EXPECT_LE(topo.value().num_comm_procs(),
              tbon::comm_process_capacity(cell.machine, layout.num_daemons));
  }
}

TEST(AutoTopology, EndToEndThroughCliAndScenario) {
  const std::vector<std::string_view> args = {
      "--machine", "bgl",  "--tasks", "16384",
      "--repr",    "hier", "--topology", "auto"};
  auto config = stat::parse_cli(args);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_TRUE(config.value().options.topology_auto);

  stat::StatScenario scenario(config.value().machine, config.value().job,
                              config.value().options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  // 256 daemons cannot hang off the 256-connection front end: auto must have
  // resolved to a deep tree.
  EXPECT_GE(result.topology.depth, 2u);
  EXPECT_GT(result.num_comm_procs, 0u);

  // The chosen topology is a detail of *how* the tool ran; the diagnosis
  // must match an explicit-spec run of the same job.
  stat::CliConfig explicit_config = config.value();
  explicit_config.options.topology_auto = false;
  explicit_config.options.topology = tbon::TopologySpec::bgl(2);
  stat::StatScenario explicit_scenario(explicit_config.machine,
                                       explicit_config.job,
                                       explicit_config.options);
  const stat::StatRunResult explicit_result = explicit_scenario.run();
  ASSERT_TRUE(explicit_result.status.is_ok());
  ASSERT_EQ(result.classes.size(), explicit_result.classes.size());
  for (std::size_t i = 0; i < result.classes.size(); ++i) {
    EXPECT_EQ(result.classes[i].size(), explicit_result.classes[i].size());
  }
}

}  // namespace
}  // namespace petastat::plan
