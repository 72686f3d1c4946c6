// Tests for the multi-session service layer: the resource ledger, the
// FIFO/backfill session scheduler, the arrival-trace parser, the service
// report writers, and the re-entrancy guarantees they rest on (re-runnable
// scheduler inputs, the single-shot scenario guard, the shared executor,
// and the planner's profile memoization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "plan/predictor.hpp"
#include "service/ledger.hpp"
#include "service/report.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"
#include "service/trace.hpp"
#include "sim/executor.hpp"
#include "stat/cli_config.hpp"
#include "stat/scenario.hpp"

namespace petastat::service {
namespace {

// Topology-independent fingerprint of a run's analysis output (same idiom as
// the scenario matrix's bit-identity checks).
std::vector<std::string> class_signature(const stat::StatRunResult& result) {
  std::vector<std::string> signature;
  signature.reserve(result.classes.size());
  for (const auto& cls : result.classes) {
    signature.push_back(std::to_string(cls.size()) + ":" +
                        cls.tasks.edge_label(/*max_items=*/64));
  }
  std::sort(signature.begin(), signature.end());
  return signature;
}

/// A small, fast atlas session: 128 tasks -> 16 daemons, flat topology
/// (demand: 0 comm slots, 16 connections, 1 executor thread).
SessionRequest small_session(const std::string& name, double arrival,
                             std::uint32_t priority = 0,
                             std::uint32_t stream_samples = 0) {
  SessionRequest request;
  request.name = name;
  request.arrival_seconds = arrival;
  request.priority = priority;
  request.job = machine::JobConfig{.num_tasks = 128};
  request.options.topology = tbon::TopologySpec::flat();
  request.options.stream_samples = stream_samples;
  return request;
}

const SessionStats& stats_for(const ServiceReport& report,
                              const std::string& name) {
  for (const SessionStats& s : report.sessions) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no session named " << name;
  static SessionStats missing;
  return missing;
}

// --- ResourceLedger --------------------------------------------------------

TEST(ResourceLedger, AcquireReleaseAndFits) {
  ResourceLedger ledger(/*comm*/ 10, /*fe*/ 4, /*exec*/ 2);
  EXPECT_EQ(ledger.comm_slot_capacity(), 10u);
  EXPECT_EQ(ledger.fe_connection_capacity(), 4u);
  EXPECT_EQ(ledger.exec_thread_capacity(), 2u);

  const SessionDemand d{.comm_slots = 6, .fe_connections = 3,
                        .exec_threads = 1};
  EXPECT_TRUE(ledger.fits(d));
  ledger.acquire(d, seconds(1.0));
  EXPECT_EQ(ledger.comm_slots_in_use(), 6u);
  EXPECT_EQ(ledger.fe_connections_in_use(), 3u);
  EXPECT_EQ(ledger.exec_threads_in_use(), 1u);

  // A second copy exceeds the connection dimension only.
  EXPECT_FALSE(ledger.fits(d));
  EXPECT_TRUE(ledger.fits({.comm_slots = 4, .fe_connections = 1,
                           .exec_threads = 1}));

  const SessionDemand free = ledger.free();
  EXPECT_EQ(free.comm_slots, 4u);
  EXPECT_EQ(free.fe_connections, 1u);
  EXPECT_EQ(free.exec_threads, 1u);

  ledger.release(d, seconds(3.0));
  EXPECT_EQ(ledger.comm_slots_in_use(), 0u);
  EXPECT_TRUE(ledger.fits(d));
}

TEST(ResourceLedger, UtilizationIntegratesBusyTime) {
  ResourceLedger ledger(/*comm*/ 8, /*fe*/ 8, /*exec*/ 4);
  const SessionDemand d{.comm_slots = 8, .fe_connections = 4,
                        .exec_threads = 1};
  ledger.acquire(d, seconds(0.0));
  ledger.release(d, seconds(5.0));
  // Busy for 5 of 10 seconds: comm at 8/8, fe at 4/8, exec at 1/4.
  EXPECT_DOUBLE_EQ(ledger.comm_slot_utilization(seconds(10.0)), 0.5);
  EXPECT_DOUBLE_EQ(ledger.fe_connection_utilization(seconds(10.0)), 0.25);
  EXPECT_DOUBLE_EQ(ledger.exec_thread_utilization(seconds(10.0)), 0.125);
  EXPECT_DOUBLE_EQ(ledger.comm_slot_utilization(0), 0.0);
}

TEST(ResourceLedger, FitsWithinIsElementwise) {
  const SessionDemand big{.comm_slots = 4, .fe_connections = 4,
                          .exec_threads = 2};
  EXPECT_TRUE((SessionDemand{.comm_slots = 4, .fe_connections = 4,
                             .exec_threads = 2}
                   .fits_within(big)));
  EXPECT_FALSE((SessionDemand{.comm_slots = 5, .fe_connections = 1,
                              .exec_threads = 1}
                    .fits_within(big)));
  EXPECT_FALSE((SessionDemand{.comm_slots = 1, .fe_connections = 1,
                              .exec_threads = 3}
                    .fits_within(big)));
}

// --- Policy parsing and submission validation ------------------------------

TEST(SchedulerPolicyName, RoundTrips) {
  EXPECT_EQ(parse_scheduler_policy("fifo").value(), SchedulerPolicy::kFifo);
  EXPECT_EQ(parse_scheduler_policy("backfill").value(),
            SchedulerPolicy::kBackfill);
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kFifo), "fifo");
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kBackfill), "backfill");
  auto bad = parse_scheduler_policy("sjf");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionScheduler, SubmitValidatesPriorityAndArrival) {
  ServiceConfig config;
  config.machine = machine::atlas();
  SessionScheduler scheduler(config);

  SessionRequest bad_priority = small_session("p", 0.0);
  bad_priority.priority = kMaxSessionPriority + 1;
  EXPECT_EQ(scheduler.submit(bad_priority).code(),
            StatusCode::kInvalidArgument);

  // Arrivals become SimTime: negative, NaN, infinite and anything past
  // kMaxSimSeconds (2e10 s overflows the cast) are rejected.
  for (const double arrival : {-1.0, std::nan(""), HUGE_VAL, 2e10}) {
    SessionRequest bad_arrival = small_session("a", 0.0);
    bad_arrival.arrival_seconds = arrival;
    EXPECT_EQ(scheduler.submit(bad_arrival).code(),
              StatusCode::kInvalidArgument)
        << arrival;
  }

  EXPECT_TRUE(scheduler.submit(small_session("ok", 0.0)).is_ok());
  EXPECT_TRUE(scheduler.submit(small_session("late", kMaxSimSeconds)).is_ok());
}

TEST(SessionScheduler, SubmitAfterRunIsFailedPrecondition) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.executor_threads = 1;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(small_session("only", 0.0)).is_ok());
  const ServiceReport report = scheduler.run();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(scheduler.submit(small_session("late", 0.0)).code(),
            StatusCode::kFailedPrecondition);
}

// --- FIFO semantics --------------------------------------------------------

TEST(SessionScheduler, FifoRunsInArrivalOrderWithoutOverlap) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.policy = SchedulerPolicy::kFifo;
  config.executor_threads = 1;  // exec dimension serializes everything
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(small_session("first", 0.0)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("second", 0.1)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("third", 0.2)).is_ok());

  const ServiceReport report = scheduler.run();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.backfilled, 0u);

  const SessionStats& first = stats_for(report, "first");
  const SessionStats& second = stats_for(report, "second");
  const SessionStats& third = stats_for(report, "third");
  EXPECT_EQ(first.start, seconds(0.0));
  // Serialized: each successor starts exactly at its predecessor's
  // completion, and queue waits are positive.
  EXPECT_EQ(second.start, first.completion);
  EXPECT_EQ(third.start, second.completion);
  EXPECT_GT(second.queue_wait, 0u);
  EXPECT_GT(report.sessions_per_hour, 0.0);
  EXPECT_GT(report.exec_thread_utilization, 0.99);
}

TEST(SessionScheduler, QueueOrdersByPriorityThenArrivalThenSubmission) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.policy = SchedulerPolicy::kFifo;
  config.executor_threads = 1;
  SessionScheduler scheduler(config);
  // The blocker occupies the single executor thread while the others
  // arrive, so they are ranked *as a queue* when it completes.
  ASSERT_TRUE(
      scheduler.submit(small_session("blocker", 0.0, 0, /*stream=*/4))
          .is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("low", 0.2, 1)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("high-late", 0.4, 9)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("high-early", 0.3, 9)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("high-tie", 0.4, 9)).is_ok());

  const ServiceReport report = scheduler.run();
  EXPECT_EQ(report.completed, 5u);

  const SessionStats& blocker = stats_for(report, "blocker");
  // Precondition for the ranking to be observable: everyone arrived while
  // the blocker was still running.
  ASSERT_GT(blocker.completion, seconds(0.4));
  // Priority beats arrival; equal priority goes by arrival; equal
  // arrival goes by submission order; the low-priority early arrival
  // runs last.
  EXPECT_LT(stats_for(report, "high-early").start,
            stats_for(report, "high-late").start);
  EXPECT_LT(stats_for(report, "high-late").start,
            stats_for(report, "high-tie").start);
  EXPECT_LT(stats_for(report, "high-tie").start,
            stats_for(report, "low").start);
}

// --- Resource exhaustion ---------------------------------------------------

TEST(SessionScheduler, TransientExhaustionQueuesInsteadOfRejecting) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.policy = SchedulerPolicy::kFifo;
  config.executor_threads = 1;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(small_session("holder", 0.0)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("waiter", 0.0)).is_ok());

  const ServiceReport report = scheduler.run();
  // Both fit the idle machine, so neither is rejected: the second waits
  // for the executor thread and then completes.
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.completed, 2u);
  const SessionStats& waiter = stats_for(report, "waiter");
  EXPECT_TRUE(waiter.status.is_ok());
  EXPECT_GT(waiter.queue_wait, 0u);
  EXPECT_EQ(waiter.start, stats_for(report, "holder").completion);
}

TEST(SessionScheduler, NeverFitsIsRejectedAtArrival) {
  ServiceConfig config;
  config.machine = machine::atlas();
  // A flat 16-daemon session needs 16 connections; cap the ledger at 4 so
  // it can never fit, even on an idle machine.
  config.fe_connection_capacity = 4;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(small_session("too-big", 0.0)).is_ok());

  const ServiceReport report = scheduler.run();
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.completed, 0u);
  const SessionStats& s = stats_for(report, "too-big");
  EXPECT_FALSE(s.admitted);
  EXPECT_EQ(s.status.code(), StatusCode::kResourceExhausted);
}

// --- Backfill --------------------------------------------------------------

/// Shared fixture trace: with two executor threads, "long" (streaming, so
/// it runs well past every arrival) holds one thread; "wide" needs both, so
/// it blocks as the queue head; "small" is short enough to finish before
/// "long" does. Backfill may start "small" in the idle thread; FIFO may not.
void submit_backfill_trace(SessionScheduler& scheduler) {
  ASSERT_TRUE(
      scheduler.submit(small_session("long", 0.0, 0, /*stream=*/8)).is_ok());
  SessionRequest wide = small_session("wide", 0.2);
  wide.options.exec_threads = 2;
  ASSERT_TRUE(scheduler.submit(wide).is_ok());
  SessionRequest small = small_session("small", 0.4);
  small.job.num_tasks = 64;
  ASSERT_TRUE(scheduler.submit(small).is_ok());
}

TEST(SessionScheduler, BackfillStartsSmallJobsWithoutDelayingHead) {
  ServiceConfig fifo_config;
  fifo_config.machine = machine::atlas();
  fifo_config.policy = SchedulerPolicy::kFifo;
  fifo_config.executor_threads = 2;
  SessionScheduler fifo(fifo_config);
  submit_backfill_trace(fifo);
  const ServiceReport fifo_report = fifo.run();

  ServiceConfig bf_config = fifo_config;
  bf_config.policy = SchedulerPolicy::kBackfill;
  SessionScheduler backfill(bf_config);
  submit_backfill_trace(backfill);
  const ServiceReport bf_report = backfill.run();

  ASSERT_EQ(fifo_report.completed, 3u);
  ASSERT_EQ(bf_report.completed, 3u);

  // Precondition for the scenario to be interesting: "small" is strictly
  // shorter than the head's shadow (the "long" completion).
  const SessionStats& long_run = stats_for(bf_report, "long");
  const SessionStats& small_run = stats_for(bf_report, "small");
  ASSERT_LT(seconds(0.4) + small_run.result.total_virtual_time,
            long_run.completion);

  // FIFO strands the idle thread behind the blocked head...
  EXPECT_EQ(fifo_report.backfilled, 0u);
  EXPECT_EQ(stats_for(fifo_report, "small").start,
            stats_for(fifo_report, "wide").completion);
  // ...backfill uses it, without moving the head's start by a nanosecond.
  EXPECT_EQ(bf_report.backfilled, 1u);
  EXPECT_TRUE(small_run.backfilled);
  EXPECT_EQ(small_run.start, seconds(0.4));
  EXPECT_EQ(stats_for(bf_report, "wide").start,
            stats_for(fifo_report, "wide").start);
  // Strictly better throughput on the same trace.
  EXPECT_LT(bf_report.makespan, fifo_report.makespan);
  EXPECT_GT(bf_report.sessions_per_hour, fifo_report.sessions_per_hour);
}

// --- Interleaving determinism and residual planning ------------------------

TEST(SessionScheduler, InterleavedSessionsAreBitIdenticalToSoloRuns) {
  SessionRequest a = small_session("a", 0.0);
  a.options.seed = 101;
  SessionRequest b = small_session("b", 0.1);
  b.options.seed = 202;

  ServiceConfig config;
  config.machine = machine::atlas();
  config.executor_threads = 2;  // both sessions genuinely overlap
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(a).is_ok());
  ASSERT_TRUE(scheduler.submit(b).is_ok());
  const ServiceReport report = scheduler.run();
  ASSERT_EQ(report.completed, 2u);
  // Overlap really happened: "b" started before "a" finished.
  EXPECT_LT(stats_for(report, "b").start, stats_for(report, "a").completion);

  stat::StatScenario solo_a(machine::atlas(), a.job, a.options);
  stat::StatScenario solo_b(machine::atlas(), b.job, b.options);
  EXPECT_EQ(class_signature(stats_for(report, "a").result),
            class_signature(solo_a.run()));
  EXPECT_EQ(class_signature(stats_for(report, "b").result),
            class_signature(solo_b.run()));
}

TEST(SessionScheduler, AutoTopologyPlansAgainstResidualCapacity) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.executor_threads = 4;
  // 20 connections total; the pinned flat blocker holds 16 of them.
  config.fe_connection_capacity = 20;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(
      scheduler.submit(small_session("blocker", 0.0, 0, /*stream=*/4))
          .is_ok());
  SessionRequest auto_session = small_session("auto", 0.5);
  auto_session.options.topology_auto = true;
  ASSERT_TRUE(scheduler.submit(auto_session).is_ok());

  const ServiceReport report = scheduler.run();
  ASSERT_EQ(report.completed, 2u);
  const SessionStats& blocker = stats_for(report, "blocker");
  const SessionStats& resolved = stats_for(report, "auto");
  ASSERT_GT(blocker.completion, seconds(0.5));
  // The planner priced the session against the 4 free connections and found
  // a narrower tree instead of waiting for the blocker to release its 16.
  EXPECT_LT(resolved.start, blocker.completion);
  EXPECT_LE(resolved.demand.fe_connections, 4u);
  EXPECT_TRUE(resolved.status.is_ok());
  // Narrower topology, same analysis: classes match the solo run on the
  // idle machine (which is free to pick a different spec).
  stat::StatScenario solo(machine::atlas(), auto_session.job,
                          auto_session.options);
  EXPECT_EQ(class_signature(resolved.result), class_signature(solo.run()));
}

// --- Plan memo -------------------------------------------------------------

/// PhasePredictor::create calls so far: each one looks up both probe
/// profiles (batched and stream), hit or miss.
std::uint64_t predictor_creates() {
  const plan::ProfileCacheCounters c = plan::profile_cache_counters();
  return (c.hits + c.misses) / 2;
}

SessionRequest auto_session(const std::string& name, double arrival,
                            std::uint32_t exec_threads) {
  SessionRequest request = small_session(name, arrival);
  request.options.topology_auto = true;
  request.options.exec_threads = exec_threads;
  return request;
}

TEST(SessionScheduler, PlansOncePerEffectiveMachine) {
  // Every head check, shadow-walk step and candidate scan asks for a queued
  // session's plan; the planner runs once per distinct (session, effective
  // machine) pair. The admitted scenario runs the spec it was handed and
  // never plans again.
  {
    // Three auto sessions need both executor threads, so they queue behind
    // "long" through every pass the later arrivals trigger. The connection
    // capacity is far above atlas's 255-connection ceiling, so each auto
    // session's effective machine never changes: one plan each.
    ServiceConfig config;
    config.machine = machine::atlas();
    config.executor_threads = 2;
    config.fe_connection_capacity = 1'000'000;
    SessionScheduler scheduler(config);
    ASSERT_TRUE(
        scheduler.submit(small_session("long", 0.0, 0, /*stream=*/8)).is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(scheduler
                      .submit(auto_session("auto-" + std::to_string(i),
                                           0.1 * (i + 1), 2))
                      .is_ok());
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          scheduler.submit(small_session("small-" + std::to_string(i),
                                         0.4 + 0.1 * i))
              .is_ok());
    }
    const std::uint64_t before = predictor_creates();
    const ServiceReport report = scheduler.run();
    ASSERT_EQ(report.completed, 7u);
    EXPECT_GT(stats_for(report, "auto-2").queue_wait, 0u);
    EXPECT_EQ(predictor_creates() - before, 3u);
  }
  {
    // "wide" needs both threads while "blocker" holds one thread and 16 of
    // the 20 connections. It is planned on two effective machines — the
    // idle one at arrival (20 connections, which the shadow walk and the
    // final admission ask for again) and the residual one (4 connections)
    // at the blocked head check.
    ServiceConfig config;
    config.machine = machine::atlas();
    config.executor_threads = 2;
    config.fe_connection_capacity = 20;
    SessionScheduler scheduler(config);
    ASSERT_TRUE(
        scheduler.submit(small_session("blocker", 0.0, 0, /*stream=*/4))
            .is_ok());
    ASSERT_TRUE(scheduler.submit(auto_session("wide", 0.5, 2)).is_ok());
    const std::uint64_t before = predictor_creates();
    const ServiceReport report = scheduler.run();
    ASSERT_EQ(report.completed, 2u);
    EXPECT_EQ(stats_for(report, "wide").start,
              stats_for(report, "blocker").completion);
    EXPECT_EQ(predictor_creates() - before, 2u);
  }
}

TEST(SessionScheduler, VacatedAutoSessionReplansItsRestoredLeg) {
  SessionRequest request = auto_session("vacating", 0.0, 1);
  request.job.num_tasks = 512;
  request.options.stream_samples = 4;
  request.options.evolution = app::TraceEvolution::kDrift;
  request.options.vacate_at_round = 2;

  ServiceConfig config;
  config.machine = machine::atlas();
  config.executor_threads = 1;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(request).is_ok());
  const std::uint64_t before = predictor_creates();
  const ServiceReport report = scheduler.run();
  ASSERT_EQ(report.completed, 1u);

  const SessionStats& stats = stats_for(report, "vacating");
  EXPECT_EQ(stats.restarts, 1u);
  // The final leg is the restored one, run to the end of the series.
  EXPECT_TRUE(stats.result.restored);
  EXPECT_FALSE(stats.result.vacated);
  EXPECT_EQ(stats.result.restore_cursor, 2u);
  // Planned afresh after the vacate (the "|r1" key): the first leg's plan,
  // then the restored leg's re-plan; neither leg's scenario plans again. A
  // restored leg served from the pre-vacate memo would plan once.
  EXPECT_EQ(predictor_creates() - before, 2u);

  SessionRequest uninterrupted = request;
  uninterrupted.options.vacate_at_round = -1;
  stat::StatScenario solo(machine::atlas(), uninterrupted.job,
                          uninterrupted.options);
  EXPECT_EQ(class_signature(stats.result), class_signature(solo.run()));
}

TEST(SessionScheduler, DemandIsTheTreeTheSessionRuns) {
  // The connection override clamps the reducer-tree fan-in, so the ledger
  // must price the tree on the machine the run folds it into: 16 reducers
  // under 4 front-end children, not under 2.
  SessionRequest request = small_session("sharded", 0.0);
  request.job.num_tasks = 512;
  request.options.fe_shards = 16;
  request.options.max_frontend_connections = 4;
  ServiceConfig config;
  config.machine = machine::atlas();
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(request).is_ok());
  const ServiceReport report = scheduler.run();
  ASSERT_EQ(report.completed, 1u);

  const SessionStats& stats = stats_for(report, "sharded");
  EXPECT_EQ(stats.demand.comm_slots, stats.result.num_comm_procs);
  machine::MachineConfig run_machine = machine::atlas();
  run_machine.max_tool_connections = 4;
  auto topo = tbon::build_topology(run_machine, stats.result.layout,
                                   stats.result.topology);
  ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
  EXPECT_EQ(stats.demand.fe_connections,
            topo.value().front_end().children.size());
}

// --- Trace parsing ---------------------------------------------------------

TEST(ServiceTrace, ParsesConfigAndSessions) {
  const char* text = R"({
    "machine": "petascale",
    "policy": "fifo",
    "executor_threads": 3,
    "comm_slot_capacity": 512,
    "fe_connection_capacity": 128,
    "sessions": [
      {"name": "big", "arrival": 1.5, "priority": 7,
       "tasks": 65536, "topology": "2deep", "seed": 42},
      {"arrival": 2, "tasks": 4096, "sbrs": true}
    ]
  })";
  auto trace = parse_service_trace(text);
  ASSERT_TRUE(trace.is_ok()) << trace.status().to_string();
  const ServiceConfig& config = trace.value().config;
  EXPECT_EQ(config.machine.name, "petascale");
  EXPECT_EQ(config.policy, SchedulerPolicy::kFifo);
  EXPECT_EQ(config.executor_threads, 3u);
  EXPECT_EQ(config.comm_slot_capacity.value_or(0), 512u);
  EXPECT_EQ(config.fe_connection_capacity.value_or(0), 128u);

  ASSERT_EQ(trace.value().sessions.size(), 2u);
  const SessionRequest& big = trace.value().sessions[0];
  EXPECT_EQ(big.name, "big");
  EXPECT_DOUBLE_EQ(big.arrival_seconds, 1.5);
  EXPECT_EQ(big.priority, 7u);
  EXPECT_EQ(big.job.num_tasks, 65536u);
  EXPECT_EQ(big.options.seed, 42u);
  EXPECT_EQ(big.options.topology.depth, 2u);
  const SessionRequest& second = trace.value().sessions[1];
  EXPECT_EQ(second.name, "session-1");  // default name by index
  EXPECT_TRUE(second.options.use_sbrs);
}

TEST(ServiceTrace, RejectsMalformedInput) {
  const std::string deep_nesting =
      R"({"sessions": )" + std::string(1000000, '[');
  const std::pair<const char*, const char*> cases[] = {
      {"not json at all", "malformed JSON"},
      {R"({"sessions": [{"tasks": 128}], )", "truncated object"},
      {R"({"bogus": 1, "sessions": [{"tasks": 128}]})", "unknown key"},
      {R"({"machine": "cray", "sessions": [{"tasks": 128}]})",
       "unknown machine"},
      {R"({"policy": "sjf", "sessions": [{"tasks": 128}]})",
       "unknown policy"},
      {R"({"executor_threads": 0, "sessions": [{"tasks": 128}]})",
       "executor_threads out of range"},
      {R"({"sessions": []})", "empty sessions"},
      {R"({"machine": "atlas"})", "missing sessions"},
      {R"({"sessions": [{"priority": 101}]})", "priority out of range"},
      {R"({"sessions": [{"arrival": -1}]})", "negative arrival"},
      {R"({"sessions": [{"arrival": 2e10}]})", "arrival past SimTime"},
      {R"({"sessions": [{"arrival": 1e400}]})", "infinite arrival"},
      {R"({"sessions": [{"name": ""}]})", "empty name"},
      {R"({"sessions": [{"machine": "bgl"}]})", "per-session machine"},
      {R"({"sessions": [{"service": "x.json"}]})", "per-session service"},
      {R"({"sessions": [{"sbrs": false}]})", "false boolean flag"},
      {R"({"sessions": [{"no-such-flag": 3}]})", "unknown session flag"},
      {R"({"sessions": [{"tasks": "many"}]})", "non-numeric tasks"},
      {R"({"sessions": [{"arrival": 1-2}]})", "number with a trailing sign"},
      {R"({"sessions": [{"arrival": 1.2.3}]})", "number with two points"},
      {R"({"comm_slot_capacity": 2.5, "sessions": [{"tasks": 128}]})",
       "fractional comm_slot_capacity"},
      {R"({"fe_connection_capacity": 1e10, "sessions": [{"tasks": 128}]})",
       "fe_connection_capacity out of range"},
      {deep_nesting.c_str(), "nesting deeper than the cap"},
  };
  for (const auto& [text, what] : cases) {
    auto trace = parse_service_trace(text);
    ASSERT_FALSE(trace.is_ok()) << what;
    EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(ServiceTrace, MissingFileIsNotFound) {
  auto trace = load_service_trace("/nonexistent/trace.json");
  ASSERT_FALSE(trace.is_ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kNotFound);
}

// A directory is a read error, not an empty (malformed) trace.
TEST(ServiceTrace, DirectoryIsAReadError) {
  auto trace = load_service_trace(::testing::TempDir());
  ASSERT_FALSE(trace.is_ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(trace.status().message().find("read error"), std::string::npos)
      << trace.status().message();
}

// --- CLI flags -------------------------------------------------------------

TEST(ServiceCli, ParsesServiceFlags) {
  const std::vector<std::string_view> args{"--service", "trace.json",
                                           "--service-policy", "fifo"};
  auto config = stat::parse_cli(args);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().service_trace_path, "trace.json");
  EXPECT_EQ(config.value().service_policy, "fifo");
}

TEST(ServiceCli, RejectsBadServiceFlags) {
  const std::vector<std::vector<std::string_view>> cases = {
      {"--service"},                          // missing path
      {"--service", ""},                      // empty path
      {"--service-policy", "sjf"},            // unknown policy
      {"--service", "t.json", "--service-policy"},  // missing value
  };
  for (const auto& args : cases) {
    auto config = stat::parse_cli(args);
    ASSERT_FALSE(config.is_ok());
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  }
}

// --- Report rendering ------------------------------------------------------

TEST(ServiceReportRender, TextAndJsonCoverTheAggregates) {
  ServiceConfig config;
  config.machine = machine::atlas();
  config.executor_threads = 1;
  SessionScheduler scheduler(config);
  ASSERT_TRUE(scheduler.submit(small_session("alpha", 0.0)).is_ok());
  ASSERT_TRUE(scheduler.submit(small_session("beta", 0.1)).is_ok());
  const ServiceReport report = scheduler.run();

  const std::string text = render_service_text(report);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("policy=backfill"), std::string::npos);
  EXPECT_NE(text.find("sessions/hour"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);

  const std::string json = render_service_json(report);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"sessions_per_hour\""), std::string::npos);
  EXPECT_NE(json.find("\"comm_slot_utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
}

// --- Re-entrancy underpinnings ---------------------------------------------

TEST(ScenarioReentrancy, RunIsSingleShot) {
  machine::JobConfig job{.num_tasks = 128};
  stat::StatOptions options;
  stat::StatScenario scenario(machine::atlas(), job, options);
  EXPECT_TRUE(scenario.run().status.is_ok());
  EXPECT_EQ(scenario.run().status.code(), StatusCode::kFailedPrecondition);
}

TEST(ScenarioReentrancy, BorrowedExecutorMatchesOwned) {
  machine::JobConfig job{.num_tasks = 128};
  stat::StatOptions options;
  options.exec_threads = 2;
  stat::StatScenario owned(machine::atlas(), job, options);
  const auto owned_result = owned.run();
  ASSERT_TRUE(owned_result.status.is_ok());

  sim::Executor shared(2);
  stat::StatScenario first(machine::atlas(), job, options, &shared);
  stat::StatScenario second(machine::atlas(), job, options, &shared);
  const auto first_result = first.run();
  const auto second_result = second.run();
  ASSERT_TRUE(first_result.status.is_ok());
  EXPECT_EQ(class_signature(first_result), class_signature(owned_result));
  EXPECT_EQ(class_signature(second_result), class_signature(owned_result));
  EXPECT_EQ(first_result.total_virtual_time, owned_result.total_virtual_time);
}

TEST(ProfileCache, MissThenHitAndIdenticalProfiles) {
  plan::reset_profile_cache();
  const machine::MachineConfig machine = machine::atlas();
  const machine::JobConfig job{.num_tasks = 256};
  stat::StatOptions options;
  auto layout = machine::layout_daemons(machine, job);
  ASSERT_TRUE(layout.is_ok());

  const plan::WorkloadProfile first =
      plan::profile_workload(machine, job, layout.value(), options);
  auto counters = plan::profile_cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 0u);

  const plan::WorkloadProfile second =
      plan::profile_workload(machine, job, layout.value(), options);
  counters = plan::profile_cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(first.traces_per_daemon, second.traces_per_daemon);
  EXPECT_EQ(first.leaf_payload_bytes, second.leaf_payload_bytes);
  EXPECT_EQ(first.probe_counts, second.probe_counts);
  EXPECT_EQ(first.merged_payload_bytes, second.merged_payload_bytes);

  // A different job size is a different key.
  const machine::JobConfig other_job{.num_tasks = 512};
  auto other_layout = machine::layout_daemons(machine, other_job);
  ASSERT_TRUE(other_layout.is_ok());
  (void)plan::profile_workload(machine, other_job, other_layout.value(),
                               options);
  counters = plan::profile_cache_counters();
  EXPECT_EQ(counters.misses, 2u);
  plan::reset_profile_cache();
}

}  // namespace
}  // namespace petastat::service
