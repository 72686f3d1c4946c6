// Mid-merge failure recovery: the HealthMonitor's ping-sweep detection,
// delivered to its callback, Reduction::recover's subtree
// re-merge, the survivor-aware topology overloads, the scenario-level
// orchestration, and the planner's recovery pricing.
//
// The central contract under test: because the prefix-tree merge is
// canonical, a run that loses a comm process mid-merge and recovers must
// produce results *bit-identical* to a run without the failure.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "machine/cost_model.hpp"
#include "plan/predictor.hpp"
#include "stat/scenario.hpp"
#include "tbon/health.hpp"
#include "tbon/reduction.hpp"
#include "tbon/topology.hpp"

namespace petastat {
namespace {

machine::DaemonLayout layout_of(const machine::MachineConfig& m,
                                std::uint32_t tasks,
                                machine::BglMode mode = machine::BglMode::kCoprocessor) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = mode;
  return machine::layout_daemons(m, job).value();
}

// --------------------------------------------------------------------------
// HealthMonitor: ping-sweep detection latency.

TEST(HealthMonitor, DetectsADeathWithinOnePeriodPlusRoundTrip) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));

  std::vector<tbon::FailureEvent> events;
  const SimTime period = seconds(0.1);
  tbon::HealthMonitor monitor(
      simulator, network, topo,
      [&events](const tbon::FailureEvent& e) { events.push_back(e); }, period);
  monitor.start();

  const std::uint32_t victim = tbon::default_victim(topo);
  const SimTime dead_at = seconds(0.15);
  simulator.schedule_at(dead_at, [&monitor, victim, &simulator]() {
    monitor.mark_dead(victim, simulator.now());
  });
  simulator.schedule_at(seconds(1.0), [&monitor]() { monitor.stop(); });
  simulator.run();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proc, victim);
  EXPECT_EQ(events[0].dead_at, dead_at);
  EXPECT_GT(events[0].detected_at, dead_at);
  // Death at 0.15 s lands mid-interval; the sweep starting at 0.2 s misses
  // the echo, so the latency is under a period plus the sweep's round trip
  // (tiny on this tree).
  EXPECT_LE(events[0].detected_at - dead_at, period + period / 2);
  EXPECT_EQ(monitor.detections(), 1u);
  EXPECT_GE(monitor.sweeps_completed(), 2u);
  // A reported corpse is not re-reported by later sweeps.
  EXPECT_EQ(events.size(), monitor.detections());
}

TEST(HealthMonitor, StopSilencesTheSweep) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 64);
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::flat()).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  tbon::HealthMonitor monitor(simulator, network, topo,
                             [](const tbon::FailureEvent&) {}, seconds(0.05));
  monitor.start();
  simulator.schedule_at(seconds(0.12), [&monitor]() { monitor.stop(); });
  simulator.run();
  const std::uint32_t sweeps = monitor.sweeps_completed();
  EXPECT_GE(sweeps, 1u);
  EXPECT_LE(sweeps, 3u);
  // The queue drained: no sweep survives stop().
  EXPECT_LE(simulator.now(), seconds(0.2));
}

// --------------------------------------------------------------------------
// Reduction recovery with a toy payload.

struct SumPayload {
  std::uint64_t sum = 0;
  std::uint32_t contributions = 0;

  // The leaf's change detector in multi-round runs.
  friend bool operator==(const SumPayload&, const SumPayload&) = default;
};

tbon::ReduceOps<SumPayload> sum_ops() {
  tbon::ReduceOps<SumPayload> ops;
  ops.merge_cpu = [](const SumPayload&) { return SimTime{100}; };
  ops.merge_into = [](SumPayload& acc, SumPayload&& child) {
    acc.sum += child.sum;
    acc.contributions += child.contributions;
  };
  ops.wire_bytes = [](const SumPayload&) { return std::uint64_t{64}; };
  ops.codec_cost = [](std::uint64_t) { return SimTime{50 * kMicrosecond}; };
  return ops;
}

/// The stream costs on top of sum_ops().
tbon::StreamOps<SumPayload> stream_sum_ops() {
  tbon::StreamOps<SumPayload> ops;
  ops.base = sum_ops();
  ops.signature_cpu = [](const SumPayload&) { return SimTime{20}; };
  ops.cached_merge_cpu = [](const SumPayload&) { return SimTime{30}; };
  ops.ack_cpu = SimTime{5 * kMicrosecond};
  return ops;
}

/// Calls of the two per-payload merge pricers.
struct PricingCalls {
  std::uint64_t merge_cpu = 0;         // one per payload arrival
  std::uint64_t cached_merge_cpu = 0;
};

/// `ops` with its merge pricers wrapped in call counters. The counters are
/// bumped on the simulator thread, which prices every arrival.
tbon::StreamOps<SumPayload> counted(tbon::StreamOps<SumPayload> ops,
                                    PricingCalls& calls) {
  ops.base.merge_cpu = [inner = ops.base.merge_cpu,
                        &calls](const SumPayload& child) {
    ++calls.merge_cpu;
    return inner(child);
  };
  ops.cached_merge_cpu = [inner = ops.cached_merge_cpu,
                          &calls](const SumPayload& child) {
    ++calls.cached_merge_cpu;
    return inner(child);
  };
  return ops;
}

std::vector<SumPayload> numbered_leaves(std::uint32_t daemons,
                                        std::uint64_t& expected) {
  std::vector<SumPayload> leaves(daemons);
  expected = 0;
  for (std::uint32_t d = 0; d < daemons; ++d) {
    leaves[d] = {static_cast<std::uint64_t>(d) * d + 1, 1};
    expected += leaves[d].sum;
  }
  return leaves;
}

TEST(ReductionRecovery, KilledInternalProcsSubtreeIsRemergedExactly) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  const std::uint32_t victim = tbon::default_victim(topo);
  ASSERT_FALSE(topo.procs[victim].is_leaf());
  ASSERT_GE(topo.procs[victim].parent, 0);
  std::uint32_t victim_leaves = 0;
  for (const std::uint32_t c : topo.procs[victim].children) {
    if (topo.procs[c].is_leaf()) ++victim_leaves;
  }
  ASSERT_GT(victim_leaves, 0u);

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  tbon::Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());
  reduction.set_retain_payloads(true);

  std::uint64_t expected = 0;
  auto leaves = numbered_leaves(layout.num_daemons, expected);

  // Kill before any payload can reach the victim (leaf packing alone takes
  // 50 us), recover a while later — the orphan shard re-merges through the
  // victim's siblings.
  std::optional<tbon::RecoveryReport> report;
  simulator.schedule_at(SimTime{10},
                        [&reduction, victim]() { reduction.mark_dead(victim); });
  simulator.schedule_at(seconds(0.01), [&reduction, victim, &report]() {
    report = reduction.recover(victim);
  });

  std::optional<tbon::ReduceResult<SumPayload>> result;
  reduction.start(std::move(leaves), [&result](tbon::ReduceResult<SumPayload> r) {
    result = std::move(r);
  });
  simulator.run();

  ASSERT_TRUE(result.has_value()) << "merge stalled";
  EXPECT_EQ(result->payload.sum, expected);
  EXPECT_EQ(result->payload.contributions, layout.num_daemons);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->acted);
  EXPECT_EQ(report->orphan_daemons, victim_leaves);
  EXPECT_EQ(report->lost_daemons, 0u);
  EXPECT_GE(report->adopters, 1u);
}

TEST(ReductionRecovery, DeathAfterForwardingIsAFreeNoop) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 64);
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  tbon::Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());
  reduction.set_retain_payloads(true);

  std::uint64_t expected = 0;
  auto leaves = numbered_leaves(layout.num_daemons, expected);
  std::optional<tbon::ReduceResult<SumPayload>> result;
  reduction.start(std::move(leaves), [&result](tbon::ReduceResult<SumPayload> r) {
    result = std::move(r);
  });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload.sum, expected);

  const std::uint32_t victim = tbon::default_victim(topo);
  reduction.mark_dead(victim);
  const tbon::RecoveryReport report = reduction.recover(victim);
  EXPECT_FALSE(report.acted);
  EXPECT_EQ(report.orphan_daemons, 0u);
}

TEST(ReductionRecovery, WholeShardOfDeadDaemonsStillCompletes) {
  // Reducer 1's entire shard (daemons 8..15) is dead before the merge: its
  // reducer contributes nothing and the front end must not wait for it.
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto topo =
      tbon::build_topology(m, layout,
                           tbon::TopologySpec::flat().with_shards(4)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  tbon::Reduction<SumPayload> reduction(simulator, network, topo, sum_ops());

  std::vector<bool> dead(layout.num_daemons, false);
  for (std::uint32_t d = 8; d < 16; ++d) dead[d] = true;
  reduction.set_dead_daemons(dead);

  std::uint64_t all = 0;
  auto leaves = numbered_leaves(layout.num_daemons, all);
  std::uint64_t expected = 0;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    if (!dead[d]) expected += leaves[d].sum;
  }

  std::optional<tbon::ReduceResult<SumPayload>> result;
  reduction.start(std::move(leaves), [&result](tbon::ReduceResult<SumPayload> r) {
    result = std::move(r);
  });
  simulator.run();
  ASSERT_TRUE(result.has_value()) << "merge stalled on the dead shard";
  EXPECT_EQ(result->payload.sum, expected);
  EXPECT_EQ(result->payload.contributions, 24u);
}

// A kill inside round k >= 1 of a multi-round run, with the victim's subtree
// caches warm: the round the victim dies in re-sends its orphans' payloads
// to adopters, and the re-parenting keeps every later round exact. Every
// daemon carries a distinct value, so a leaf counted twice or missed shows as
// a wrong sum or contribution count.
class MultiRoundKill : public ::testing::TestWithParam<SimTime> {};

TEST_P(MultiRoundKill, EveryRoundSumsEachLeafExactlyOnce) {
  const SimTime kill_offset = GetParam();
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  const std::uint32_t victim = tbon::default_victim(topo);
  std::uint32_t victim_leaves = 0;
  for (const std::uint32_t c : topo.procs[victim].children) {
    if (topo.procs[c].is_leaf()) ++victim_leaves;
  }
  ASSERT_GT(victim_leaves, 0u);

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  PricingCalls calls;
  tbon::StreamingReduction<SumPayload> engine(
      simulator, network, topo, counted(stream_sum_ops(), calls));

  constexpr std::uint32_t kRounds = 5;
  constexpr std::uint32_t kKillRound = 2;
  std::optional<tbon::RecoveryReport> report;
  std::vector<std::uint64_t> value(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) value[d] = d * 1000;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    // One daemon changes per round, so the other leaves acknowledge and
    // most procs answer from their caches.
    if (round > 0) value[(round * 7) % layout.num_daemons] += round;
    std::vector<SumPayload> leaves(layout.num_daemons);
    std::uint64_t expected = 0;
    for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
      leaves[d] = {value[d], 1};
      expected += leaves[d].sum;
    }
    if (round == kKillRound) {
      const SimTime kill_at = simulator.now() + kill_offset;
      simulator.schedule_at(kill_at,
                            [&engine, victim]() { engine.mark_dead(victim); });
      simulator.schedule_at(kill_at + seconds(0.01), [&, victim]() {
        report = engine.recover(victim);
      });
    }
    std::optional<tbon::StreamRoundResult<SumPayload>> result;
    engine.run_round(round, std::move(leaves),
                     [&result](tbon::StreamRoundResult<SumPayload> r) {
                       result = std::move(r);
                     });
    simulator.run();
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(result.has_value()) << "round stalled";
    EXPECT_EQ(result->payload.sum, expected);
    EXPECT_EQ(result->payload.contributions, layout.num_daemons);
    if (round == 1) {
      EXPECT_GT(result->cached_procs, 0u);  // caches warm before the kill
    }
  }
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->acted);
  EXPECT_EQ(report->orphan_daemons, victim_leaves);
  EXPECT_EQ(report->lost_daemons, 0u);
  EXPECT_GE(report->adopters, 1u);
  for (const bool dead : engine.dead_daemons()) EXPECT_FALSE(dead);
  // Every cached child was priced when it arrived, never per round: a
  // re-opened adopter's supplement arrives without being cached.
  EXPECT_GT(calls.cached_merge_cpu, 0u);
  EXPECT_LE(calls.cached_merge_cpu, calls.merge_cpu);
}

// The re-merge price of a cached child is a function of a payload that
// does not change while cached, so the engine prices it once, when it
// caches the payload, and charges that price on every round the child
// acknowledges. The pricer runs once per cached arrival — here, with one
// daemon changing per round, once per dirty proc — and the round timings
// are those of pricing every acknowledging child every round.
TEST(ReductionPricing, CachedChildIsPricedOncePerArrival) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  PricingCalls calls;
  tbon::StreamingReduction<SumPayload> engine(
      simulator, network, topo, counted(stream_sum_ops(), calls));

  constexpr std::uint32_t kRounds = 5;
  std::vector<std::uint64_t> value(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) value[d] = d * 1000;
  std::vector<SimTime> finished;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (round > 0) value[(round * 7) % layout.num_daemons] += round;
    std::vector<SumPayload> leaves(layout.num_daemons);
    std::uint64_t expected = 0;
    for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
      leaves[d] = {value[d], 1};
      expected += leaves[d].sum;
    }
    const PricingCalls before = calls;
    std::optional<tbon::StreamRoundResult<SumPayload>> result;
    engine.run_round(round, std::move(leaves),
                     [&result](tbon::StreamRoundResult<SumPayload> r) {
                       result = std::move(r);
                     });
    simulator.run();
    ASSERT_TRUE(result.has_value()) << "round stalled";
    EXPECT_EQ(result->payload.sum, expected);
    const std::uint64_t arrivals = calls.merge_cpu - before.merge_cpu;
    const std::uint64_t priced =
        calls.cached_merge_cpu - before.cached_merge_cpu;
    EXPECT_EQ(priced, arrivals);
    if (round > 0) {
      EXPECT_EQ(result->changed_daemons, 1u);
      EXPECT_GT(result->cached_procs, 0u);
      EXPECT_EQ(priced, result->remerged_procs);
    }
    finished.push_back(result->finished_at);
  }
  // Round completion times with every acknowledging child priced each
  // round, recorded before pricing moved to the cache fill.
  EXPECT_EQ(finished, (std::vector<SimTime>{775575, 1100190, 1424805,
                                            1749450, 2072065}));
}

// Kill before anything reaches the victim, while its children's arrivals
// are in flight, and after the round completed (recovered between rounds).
INSTANTIATE_TEST_SUITE_P(KillOffsets, MultiRoundKill,
                         ::testing::Values(SimTime{10}, 60 * kMicrosecond,
                                           seconds(1.0)));

// --------------------------------------------------------------------------
// Survivor-aware topology overloads.

TEST(TopologyMasks, ViabilityAndShardSlicesCountSurvivorsOnly) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons x 8 tasks
  std::vector<bool> dead(layout.num_daemons, false);
  for (std::uint32_t d = 8; d < 16; ++d) dead[d] = true;

  const auto flat =
      tbon::build_topology(m, layout, tbon::TopologySpec::flat()).value();
  // 24 survivors dial in; the full tree would need 32.
  EXPECT_TRUE(tbon::connection_viability(flat, 24, dead).is_ok());
  EXPECT_EQ(tbon::connection_viability(flat, 23, dead).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(tbon::connection_viability(flat, 24).code(),
            StatusCode::kResourceExhausted);
  // An empty mask means everyone is alive.
  EXPECT_TRUE(tbon::connection_viability(flat, 32, {}).is_ok());

  const auto sharded =
      tbon::build_topology(m, layout,
                           tbon::TopologySpec::flat().with_shards(4)).value();
  const auto slices = tbon::shard_task_counts(sharded, layout, dead);
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(slices[1], 0u);  // the dead shard
  EXPECT_EQ(std::accumulate(slices.begin(), slices.end(), std::uint64_t{0}),
            192u);  // 24 surviving daemons x 8 tasks
  EXPECT_EQ(tbon::largest_shard_task_count(sharded, layout, dead), 64u);
  // Masked reducers pass viability on their surviving fan-in.
  EXPECT_TRUE(tbon::connection_viability(sharded, 8, dead).is_ok());
}

TEST(TopologyMasks, DefaultVictimPicksAMidMergeProc) {
  const auto m = machine::atlas();
  const auto layout = layout_of(m, 256);  // 32 daemons

  const auto sharded =
      tbon::build_topology(m, layout,
                           tbon::TopologySpec::flat().with_shards(4)).value();
  EXPECT_EQ(tbon::default_victim(sharded), sharded.reducers[2]);

  const auto deep =
      tbon::build_topology(m, layout, tbon::TopologySpec::balanced(2)).value();
  const std::uint32_t victim = tbon::default_victim(deep);
  EXPECT_FALSE(deep.procs[victim].is_leaf());
  EXPECT_GE(deep.procs[victim].parent, 0);

  const auto flat =
      tbon::build_topology(m, layout, tbon::TopologySpec::flat()).value();
  EXPECT_EQ(tbon::default_victim(flat), flat.leaf_of_daemon[16]);
}

// --------------------------------------------------------------------------
// Scenario-level recovery: kill mid-merge, results bit-identical.

void expect_same_product(const stat::StatRunResult& a,
                         const stat::StatRunResult& b) {
  EXPECT_TRUE(a.tree_2d == b.tree_2d);
  EXPECT_TRUE(a.tree_3d == b.tree_3d);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].path, b.classes[i].path);
    EXPECT_TRUE(a.classes[i].tasks == b.classes[i].tasks);
  }
}

TEST(ScenarioRecovery, MidMergeReducerKillIsBitIdenticalToNoFailure) {
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = 16;
  options.repr = stat::TaskSetRepr::kHierarchical;

  stat::StatScenario baseline(machine::atlas(), job, options);
  const stat::StatRunResult no_failure = baseline.run();
  ASSERT_TRUE(no_failure.status.is_ok()) << no_failure.status.to_string();
  EXPECT_EQ(no_failure.phases.killed_procs, 0u);
  EXPECT_EQ(no_failure.phases.health_sweeps, 0u);
  EXPECT_EQ(no_failure.phases.failure_detect_latency, 0u);

  // Kill the middle reducer the moment the merge starts (guaranteed before
  // it forwards anything), detect by ping sweep, recover, finish.
  options.fail_at_seconds = 0.0;
  options.ping_period_seconds = 0.05;
  stat::StatScenario killed(machine::atlas(), job, options);
  const stat::StatRunResult recovered = killed.run();
  ASSERT_TRUE(recovered.status.is_ok()) << recovered.status.to_string();

  const stat::PhaseBreakdown& p = recovered.phases;
  EXPECT_EQ(p.killed_procs, 1u);
  // 32 daemons over 16 shards: the lost reducer orphans exactly 2 daemons.
  EXPECT_EQ(p.orphaned_daemons, 2u);
  EXPECT_EQ(p.lost_daemons, 0u);
  EXPECT_GE(p.health_sweeps, 1u);
  EXPECT_GT(p.failure_detect_latency, 0u);
  EXPECT_LE(p.failure_detect_latency, seconds(2 * 0.05));
  EXPECT_GT(p.recovery_remerge_time, 0u);
  // The recovered merge costs more wall-clock than the clean one.
  EXPECT_GT(p.merge_time, no_failure.phases.merge_time);

  // The product is exactly the no-failure product.
  expect_same_product(no_failure, recovered);
}

TEST(ScenarioRecovery, UnshardedInternalProcKillRecoversToo) {
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.repr = stat::TaskSetRepr::kHierarchical;

  stat::StatScenario baseline(machine::atlas(), job, options);
  const stat::StatRunResult no_failure = baseline.run();
  ASSERT_TRUE(no_failure.status.is_ok());

  options.fail_at_seconds = 0.0;
  options.ping_period_seconds = 0.05;
  stat::StatScenario killed(machine::atlas(), job, options);
  const stat::StatRunResult recovered = killed.run();
  ASSERT_TRUE(recovered.status.is_ok()) << recovered.status.to_string();
  EXPECT_EQ(recovered.phases.killed_procs, 1u);
  EXPECT_GT(recovered.phases.orphaned_daemons, 0u);
  expect_same_product(no_failure, recovered);
}

TEST(ScenarioRecovery, RemapIsPricedOnSurvivingTasksOnly) {
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.daemon_failure_probability = 0.2;

  stat::StatScenario scenario(machine::atlas(), job, options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  ASSERT_FALSE(result.dead_daemons.empty()) << "seed produced no casualties";

  const auto costs = machine::default_cost_model(machine::atlas());
  const std::uint64_t surviving =
      256u - 8u * static_cast<std::uint64_t>(result.dead_daemons.size());
  EXPECT_EQ(result.phases.remap_time,
            machine::frontend_remap_cost(costs.merge, surviving));
  EXPECT_LT(result.phases.remap_time,
            machine::frontend_remap_cost(costs.merge, 256));
}

TEST(ScenarioRecovery, RecoveryFieldsStayZeroWhenUnarmed) {
  machine::JobConfig job;
  job.num_tasks = 64;
  stat::StatOptions options;
  stat::StatScenario scenario(machine::atlas(), job, options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.phases.killed_procs, 0u);
  EXPECT_EQ(result.phases.orphaned_daemons, 0u);
  EXPECT_EQ(result.phases.lost_daemons, 0u);
  EXPECT_EQ(result.phases.health_sweeps, 0u);
  EXPECT_EQ(result.phases.failure_detect_latency, 0u);
  EXPECT_EQ(result.phases.recovery_remerge_time, 0u);
  EXPECT_TRUE(result.dead_daemons.empty());
}

// --------------------------------------------------------------------------
// The acceptance scenario: petascale, 2,048 daemons, K = 64, reducer killed
// mid-merge, serial and 8-thread runs bit-identical to the no-failure run.

TEST(ScenarioRecovery, PetascaleReducerKillAcceptance) {
  machine::JobConfig job;
  job.num_tasks = 131072;  // CO mode -> 2,048 daemons
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = 64;
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.num_samples = 3;  // keep the walltime civil

  const auto run_with = [&](double fail_at, std::uint32_t threads) {
    stat::StatOptions o = options;
    o.fail_at_seconds = fail_at;
    o.ping_period_seconds = 0.1;
    o.exec_threads = threads;
    stat::StatScenario scenario(machine::petascale(), job, o);
    return scenario.run();
  };

  const stat::StatRunResult no_failure = run_with(-1.0, 1);
  ASSERT_TRUE(no_failure.status.is_ok()) << no_failure.status.to_string();
  ASSERT_EQ(no_failure.layout.num_daemons, 2048u);

  const stat::StatRunResult serial = run_with(0.0, 1);
  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  EXPECT_EQ(serial.phases.killed_procs, 1u);
  // 2,048 daemons over 64 shards: the lost reducer orphans exactly 32.
  EXPECT_EQ(serial.phases.orphaned_daemons, 32u);
  EXPECT_EQ(serial.phases.lost_daemons, 0u);
  EXPECT_GT(serial.phases.failure_detect_latency, 0u);
  EXPECT_LE(serial.phases.failure_detect_latency, seconds(2 * 0.1));
  expect_same_product(no_failure, serial);

  const stat::StatRunResult parallel = run_with(0.0, 8);
  ASSERT_TRUE(parallel.status.is_ok()) << parallel.status.to_string();
  expect_same_product(serial, parallel);
  EXPECT_EQ(serial.phases.merge_time, parallel.phases.merge_time);
  EXPECT_EQ(serial.phases.failure_detect_latency,
            parallel.phases.failure_detect_latency);
  EXPECT_EQ(serial.phases.recovery_remerge_time,
            parallel.phases.recovery_remerge_time);
  EXPECT_EQ(serial.phases.merge_bytes, parallel.phases.merge_bytes);
}

// --------------------------------------------------------------------------
// Mid-stream failure recovery: a kill during a --stream run must invalidate
// every ancestor cache the re-parenting touches, so post-kill rounds equal a
// from-scratch merge of the survivors (the --stream-full-remerge twin).

stat::StatOptions streaming_options() {
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.app = stat::AppKind::kImbalance;
  options.evolution = app::TraceEvolution::kDrift;
  options.stream_samples = 6;
  // Fixed cadence pins round boundaries to multiples of 0.1 s in every mode
  // (a round takes ~0.065 s), so a --fail-at lands at the same boundary with
  // and without the delta caches.
  options.stream_interval_seconds = 0.1;
  return options;
}

TEST(ScenarioRecovery, MidStreamInternalKillRecoversWithNoLoss) {
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options = streaming_options();

  stat::StatScenario baseline(machine::atlas(), job, options);
  const stat::StatRunResult no_kill = baseline.run();
  ASSERT_TRUE(no_kill.status.is_ok()) << no_kill.status.to_string();
  ASSERT_EQ(no_kill.stream_samples.size(), 6u);

  // Kill the internal comm proc at the first round boundary past 0.15 s —
  // round 2's start, after rounds 0..1 primed its subtree's caches — detect
  // by ping burst between rounds, recover at the next boundary.
  options.fail_at_seconds = 0.15;
  options.ping_period_seconds = 0.05;
  stat::StatScenario killed_scenario(machine::atlas(), job, options);
  const stat::StatRunResult killed = killed_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
  ASSERT_EQ(killed.stream_samples.size(), 6u);
  EXPECT_EQ(killed.phases.killed_procs, 1u);
  EXPECT_GT(killed.phases.failure_detect_latency, 0u);
  EXPECT_LE(killed.phases.failure_detect_latency, seconds(0.5));
  EXPECT_GT(killed.phases.orphaned_daemons, 0u);
  EXPECT_EQ(killed.phases.lost_daemons, 0u);

  // The kill actually landed mid-stream: the rounds before it ran from the
  // caches exactly like the clean run, and the recovery round shows the
  // re-parented subtree arriving with cold caches (every proc re-merges,
  // nothing answers from cache, the delta traffic spikes past the clean
  // run's band-only rounds).
  EXPECT_EQ(killed.stream_samples[1].merge_bytes,
            no_kill.stream_samples[1].merge_bytes);
  EXPECT_EQ(killed.stream_samples[1].cached_procs,
            no_kill.stream_samples[1].cached_procs);
  bool recovery_round_seen = false;
  for (std::size_t round = 1; round < killed.stream_samples.size(); ++round) {
    const stat::StreamSampleStats& r = killed.stream_samples[round];
    if (r.cached_procs == 0 &&
        r.merge_bytes > 2 * no_kill.stream_samples[round].merge_bytes) {
      recovery_round_seen = true;
    }
  }
  EXPECT_TRUE(recovery_round_seen);
  // After the recovery round the survivors' caches are warm again.
  EXPECT_GT(killed.stream_samples.back().cached_procs, 0u);

  // Post-kill rounds equal a from-scratch survivor merge: the twin run with
  // the caches disabled (and the same kill) produces the identical product —
  // including the in-flight payloads the victim took with it.
  options.stream_full_remerge = true;
  stat::StatScenario remerge_scenario(machine::atlas(), job, options);
  const stat::StatRunResult remerge = remerge_scenario.run();
  ASSERT_TRUE(remerge.status.is_ok()) << remerge.status.to_string();
  EXPECT_EQ(remerge.phases.killed_procs, 1u);
  expect_same_product(killed, remerge);
}

TEST(ScenarioRecovery, MidStreamKillIsIdenticalAtOneAndFourExecThreads) {
  // The reduction classifies its leaves (signature, change test, sizes) in
  // daemon-range chunks on the executor and frees unchanged payloads there;
  // a drift stream with a mid-stream kill must not see the difference: the
  // trees and every per-round statistic match the serial run exactly.
  machine::JobConfig job;
  job.num_tasks = 1024;  // 128 daemons: several chunks per round
  stat::StatOptions options = streaming_options();
  options.fail_at_seconds = 0.15;
  options.ping_period_seconds = 0.05;
  const auto run = [&](std::uint32_t threads) {
    options.exec_threads = threads;
    return stat::StatScenario(machine::atlas(), job, options).run();
  };
  const stat::StatRunResult serial = run(1);
  const stat::StatRunResult parallel = run(4);
  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  ASSERT_TRUE(parallel.status.is_ok()) << parallel.status.to_string();
  EXPECT_EQ(serial.phases.killed_procs, 1u);
  EXPECT_GT(serial.phases.orphaned_daemons, 0u);
  expect_same_product(serial, parallel);
  EXPECT_EQ(serial.phases.merge_time, parallel.phases.merge_time);
  EXPECT_EQ(serial.phases.merge_bytes, parallel.phases.merge_bytes);
  EXPECT_EQ(serial.phases.orphaned_daemons, parallel.phases.orphaned_daemons);
  ASSERT_EQ(serial.stream_samples.size(), 6u);
  ASSERT_EQ(parallel.stream_samples.size(), 6u);
  bool some_round_unchanged_somewhere = false;
  for (std::size_t round = 0; round < serial.stream_samples.size(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const stat::StreamSampleStats& s = serial.stream_samples[round];
    const stat::StreamSampleStats& p = parallel.stream_samples[round];
    EXPECT_EQ(s.sample, p.sample);
    EXPECT_EQ(s.sample_time, p.sample_time);
    EXPECT_EQ(s.merge_time, p.merge_time);
    EXPECT_EQ(s.merge_bytes, p.merge_bytes);
    EXPECT_EQ(s.merge_messages, p.merge_messages);
    EXPECT_EQ(s.changed_daemons, p.changed_daemons);
    EXPECT_EQ(s.remerged_procs, p.remerged_procs);
    EXPECT_EQ(s.cached_procs, p.cached_procs);
    EXPECT_EQ(s.changed, p.changed);
    if (s.changed_daemons < 128) some_round_unchanged_somewhere = true;
  }
  // The delta protocol was exercised: some daemons acknowledged.
  EXPECT_TRUE(some_round_unchanged_somewhere);
}

TEST(ScenarioRecovery, MidStreamInternalKillMatchesTheNeverKilledRun) {
  // The round the victim dies in still carries its subtree's samples: the
  // orphans' payloads are re-sent to adopters in that same round, so a kill
  // that loses no daemon leaves the product bit-identical to the run that
  // never failed.
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options = streaming_options();
  stat::StatScenario baseline(machine::atlas(), job, options);
  const stat::StatRunResult no_kill = baseline.run();
  ASSERT_TRUE(no_kill.status.is_ok()) << no_kill.status.to_string();

  options.fail_at_seconds = 0.15;
  options.ping_period_seconds = 0.05;
  stat::StatScenario killed_scenario(machine::atlas(), job, options);
  const stat::StatRunResult killed = killed_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
  EXPECT_EQ(killed.phases.killed_procs, 1u);
  EXPECT_GT(killed.phases.orphaned_daemons, 0u);
  EXPECT_EQ(killed.phases.lost_daemons, 0u);
  EXPECT_GT(killed.phases.recovery_remerge_time, 0u);
  ASSERT_EQ(killed.stream_samples.size(), no_kill.stream_samples.size());
  expect_same_product(no_kill, killed);
}

TEST(ScenarioRecovery, MidStreamLeafDeathMatchesFullRemergeSurvivors) {
  // Flat tree: the victim is a daemon's own leaf proc, so its later samples
  // are unrecoverable. The stream must keep completing rounds, and the
  // product must still equal the cache-free twin with the identical kill.
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options = streaming_options();
  options.topology = tbon::TopologySpec::flat();
  options.fail_at_seconds = 0.15;
  options.ping_period_seconds = 0.05;

  stat::StatScenario killed_scenario(machine::atlas(), job, options);
  const stat::StatRunResult killed = killed_scenario.run();
  ASSERT_TRUE(killed.status.is_ok()) << killed.status.to_string();
  ASSERT_EQ(killed.stream_samples.size(), 6u);
  EXPECT_EQ(killed.phases.killed_procs, 1u);
  EXPECT_GT(killed.phases.failure_detect_latency, 0u);
  EXPECT_EQ(killed.phases.lost_daemons, 1u);

  options.stream_full_remerge = true;
  stat::StatScenario remerge_scenario(machine::atlas(), job, options);
  const stat::StatRunResult remerge = remerge_scenario.run();
  ASSERT_TRUE(remerge.status.is_ok()) << remerge.status.to_string();
  EXPECT_EQ(remerge.phases.lost_daemons, 1u);
  expect_same_product(killed, remerge);
}

// --------------------------------------------------------------------------
// The OOM-cascade workload end to end.

TEST(ScenarioRecovery, OomCascadeKillsTheVictimsDaemonAndCascades) {
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.app = stat::AppKind::kOomCascade;

  stat::StatScenario scenario(machine::atlas(), job, options);
  const stat::StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  // Exactly the victim rank's daemon is gone (8 tasks with it).
  EXPECT_EQ(result.phases.failed_daemons, 1u);
  ASSERT_EQ(result.dead_daemons.size(), 1u);
  stat::TaskSet covered;
  bool victim_rank_seen = false;
  bool retransmit_seen = false;
  const app::FrameTable& frames = scenario.app().frames();
  for (const auto& cls : result.classes) {
    covered.union_with(cls.tasks);
    if (cls.tasks.contains(128)) victim_rank_seen = true;  // the victim rank
    for (const FrameId f : cls.path) {
      if (frames.name(f) == "BGLML_retransmit") retransmit_seen = true;
    }
  }
  // 256 - the dead daemon's 8 ranks. (A cascading neighbour may sit in two
  // classes — spiral and retransmit — so class sizes can sum past this.)
  EXPECT_EQ(covered.count(), 248u);
  EXPECT_FALSE(victim_rank_seen);
  // The cascade is visible: neighbours flipped into the retransmit path.
  EXPECT_TRUE(retransmit_seen);
}

TEST(ScenarioRecovery, OomCascadePlusMidMergeKillStillMatches) {
  // The full pathology: the victim daemon dies pre-sampling AND a reducer
  // dies mid-merge. Survivor classes still come out bit-identical.
  machine::JobConfig job;
  job.num_tasks = 256;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  options.fe_shards = 4;
  options.repr = stat::TaskSetRepr::kHierarchical;
  options.app = stat::AppKind::kOomCascade;

  stat::StatScenario baseline(machine::atlas(), job, options);
  const stat::StatRunResult clean = baseline.run();
  ASSERT_TRUE(clean.status.is_ok());

  options.fail_at_seconds = 0.0;
  options.ping_period_seconds = 0.05;
  stat::StatScenario killed(machine::atlas(), job, options);
  const stat::StatRunResult recovered = killed.run();
  ASSERT_TRUE(recovered.status.is_ok()) << recovered.status.to_string();
  EXPECT_EQ(recovered.phases.killed_procs, 1u);
  EXPECT_EQ(recovered.dead_daemons, clean.dead_daemons);
  expect_same_product(clean, recovered);
}

// --------------------------------------------------------------------------
// Planner: recovery pricing through the shared cost formulas.

TEST(PlannerRecovery, PredictionScalesWithTheLostSubtreeNotTheJob) {
  machine::JobConfig job;
  job.num_tasks = 1024;  // 128 daemons
  stat::StatOptions options;
  options.repr = stat::TaskSetRepr::kHierarchical;
  auto predictor = plan::PhasePredictor::create(
      machine::atlas(), job, options,
      machine::default_cost_model(machine::atlas()));
  ASSERT_TRUE(predictor.is_ok()) << predictor.status().to_string();

  const SimTime ping = seconds(0.25);
  const auto k16 = predictor.value().predict_recovery(
      tbon::TopologySpec::flat().with_shards(16), ping);
  ASSERT_TRUE(k16.is_ok()) << k16.status().to_string();
  EXPECT_EQ(k16.value().orphan_leaves, 8u);  // 128 daemons / 16 shards
  EXPECT_GT(k16.value().detection, ping / 2);
  EXPECT_LT(k16.value().detection, ping);
  EXPECT_GT(k16.value().remerge, 0u);

  const auto k4 = predictor.value().predict_recovery(
      tbon::TopologySpec::flat().with_shards(4), ping);
  ASSERT_TRUE(k4.is_ok());
  EXPECT_EQ(k4.value().orphan_leaves, 32u);
  // Losing a quarter of the tree costs more to re-merge than a sixteenth.
  EXPECT_GT(k4.value().remerge, k16.value().remerge);
  EXPECT_GT(k4.value().total(), k4.value().detection);
}

TEST(PlannerRecovery, DetectionLatencyTracksThePingPeriod) {
  machine::JobConfig job;
  job.num_tasks = 1024;
  stat::StatOptions options;
  auto predictor = plan::PhasePredictor::create(
      machine::atlas(), job, options,
      machine::default_cost_model(machine::atlas()));
  ASSERT_TRUE(predictor.is_ok());
  const auto spec = tbon::TopologySpec::flat().with_shards(8);
  const auto slow = predictor.value().predict_recovery(spec, seconds(1.0));
  const auto fast = predictor.value().predict_recovery(spec, seconds(0.1));
  ASSERT_TRUE(slow.is_ok());
  ASSERT_TRUE(fast.is_ok());
  EXPECT_GT(slow.value().detection, fast.value().detection);
  // The remerge half is ping-independent.
  EXPECT_EQ(slow.value().remerge, fast.value().remerge);
}

}  // namespace
}  // namespace petastat
