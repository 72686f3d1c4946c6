#include "service/scheduler.hpp"

#include <algorithm>

#include "machine/cost_model.hpp"
#include "plan/search.hpp"
#include "stat/checkpoint.hpp"

namespace petastat::service {

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo: return "fifo";
    case SchedulerPolicy::kBackfill: return "backfill";
  }
  return "?";
}

Result<SchedulerPolicy> parse_scheduler_policy(std::string_view text) {
  if (text == "fifo") return SchedulerPolicy::kFifo;
  if (text == "backfill") return SchedulerPolicy::kBackfill;
  return invalid_argument("unknown scheduler policy '" + std::string(text) +
                          "' (expected fifo|backfill)");
}

namespace {

std::uint64_t default_comm_capacity(const machine::MachineConfig& machine) {
  // The tool-resource tier the ledger arbitrates. On login-tier machines
  // this is login_nodes * max_comm_procs_per_login; on clusters whose comm
  // processes ride the compute allocation the ceiling is the whole fabric
  // (each session's own allocation hosts its comm procs), so the ledger
  // bounds arbitrate connections and executor threads instead.
  return tbon::comm_process_capacity(machine, /*num_daemons=*/0);
}

}  // namespace

SessionScheduler::SessionScheduler(ServiceConfig config)
    : config_(std::move(config)),
      ledger_(config_.comm_slot_capacity.value_or(
                  default_comm_capacity(config_.machine)),
              config_.fe_connection_capacity.value_or(
                  config_.machine.max_tool_connections),
              std::max(1u, config_.executor_threads)),
      exec_(std::max(1u, config_.executor_threads)) {}

Status SessionScheduler::submit(SessionRequest request) {
  if (ran_) {
    return failed_precondition(
        "SessionScheduler::run() already happened; build a new scheduler");
  }
  if (request.priority > kMaxSessionPriority) {
    return invalid_argument(
        "session priority " + std::to_string(request.priority) +
        " out of range (0.." + std::to_string(kMaxSessionPriority) + ")");
  }
  if (!fits_sim_time(request.arrival_seconds)) {
    return invalid_argument(
        "session arrival must be a number of seconds in 0..1.8e10");
  }
  Session session;
  session.index = static_cast<std::uint32_t>(sessions_.size());
  if (request.name.empty()) {
    request.name = "session-" + std::to_string(session.index);
  }
  session.pinned =
      !request.options.topology_auto && !request.options.fe_shards_auto;
  session.stats.name = request.name;
  session.stats.priority = request.priority;
  session.stats.arrival = seconds(request.arrival_seconds);
  session.request = std::move(request);
  sessions_.push_back(std::move(session));
  return Status::ok();
}

SessionScheduler::Plan& SessionScheduler::resolve(Session& session,
                                                  const ResourceLedger& view) {
  // A pinned session's spec never depends on contention: it is priced
  // against the preset machine and gated by the ledger alone. An auto
  // session plans against the residual — an "effective machine" whose
  // login-slot and connection ceilings are the view's free capacity.
  machine::MachineConfig effective = config_.machine;
  if (!session.pinned) {
    if (!effective.comm_procs_on_compute_allocation &&
        effective.login_nodes > 0) {
      effective.max_comm_procs_per_login = static_cast<std::uint32_t>(
          view.free().comm_slots / effective.login_nodes);
    }
    effective.max_tool_connections = std::min<std::uint32_t>(
        effective.max_tool_connections, view.free().fe_connections);
  }
  std::string key =
      session.pinned
          ? "pinned"
          : "auto|" + std::to_string(effective.max_comm_procs_per_login) +
                "|" + std::to_string(effective.max_tool_connections);
  if (session.checkpoint != nullptr) {
    // A restored leg is a different run (it resumes mid-series, possibly
    // re-planned), so it must never reuse a pre-vacate plan or result.
    key += "|r" + std::to_string(session.restarts);
  }
  // The request, the checkpoint leg and the effective machine determine the
  // resolution, so each key is planned once however often it is asked for.
  auto [it, inserted] = session.plans.try_emplace(std::move(key));
  if (inserted) {
    it->second.resolution = build_resolution(session, std::move(effective));
  }
  return it->second;
}

SessionScheduler::Resolution SessionScheduler::build_resolution(
    const Session& session, machine::MachineConfig effective) const {
  Resolution res;
  res.machine = std::move(effective);
  const machine::JobConfig& job = session.request.job;
  const stat::StatOptions& options = session.request.options;

  auto layout = machine::layout_daemons(res.machine, job);
  if (!layout.is_ok()) {
    res.status = layout.status();
    return res;
  }

  auto spec = plan::resolve(res.machine, job, options,
                            machine::default_cost_model(res.machine),
                            session.checkpoint.get());
  if (!spec.is_ok()) {
    res.status = spec.status();
    return res;
  }
  auto topo = tbon::build_topology(res.machine, layout.value(), spec.value());
  if (!topo.is_ok()) {
    res.status = topo.status();
    return res;
  }
  res.spec = std::move(spec).value();
  res.demand.comm_slots = topo.value().num_comm_procs();
  res.demand.fe_connections =
      static_cast<std::uint32_t>(topo.value().front_end().children.size());
  res.demand.exec_threads = std::max(1u, options.exec_threads);
  return res;
}

const stat::StatRunResult& SessionScheduler::evaluate(const Session& session,
                                                      Plan& plan) {
  // The inner run is deterministic and self-contained, so evaluating a
  // session (for a backfill duration, say) *is* running it — the result is
  // reused verbatim at admission, never recomputed.
  if (!plan.result) {
    stat::StatScenario scenario(plan.resolution.machine, session.request.job,
                                session.request.options, &exec_,
                                session.checkpoint, plan.resolution.spec);
    plan.result = scenario.run();
  }
  return *plan.result;
}

void SessionScheduler::arrive(std::uint32_t index) {
  Session& session = sessions_[index];
  // Feasibility gate: a session whose demand can never fit the idle machine
  // fails now (RESOURCE_EXHAUSTED or the planner's verdict) instead of
  // deadlocking the queue; one that merely has to wait is queued.
  const ResourceLedger idle(ledger_.comm_slot_capacity(),
                            ledger_.fe_connection_capacity(),
                            ledger_.exec_thread_capacity());
  const Resolution& at_idle = resolve(session, idle).resolution;
  Status verdict = at_idle.status;
  if (verdict.is_ok() && !idle.fits(at_idle.demand)) {
    verdict = resource_exhausted(
        "session '" + session.request.name +
        "' demands more than the machine has: " +
        std::to_string(at_idle.demand.comm_slots) + " comm slots / " +
        std::to_string(at_idle.demand.fe_connections) + " connections / " +
        std::to_string(at_idle.demand.exec_threads) + " executor threads");
  }
  if (!verdict.is_ok()) {
    session.state = State::kDone;
    session.stats.status = std::move(verdict);
    return;
  }
  session.state = State::kQueued;
  schedule_pass();
}

void SessionScheduler::admit(Session& session, Plan& plan, bool backfilled) {
  const Resolution& resolution = plan.resolution;
  const SimTime now = sim_.now();
  ledger_.acquire(resolution.demand, now);
  session.state = State::kRunning;
  session.stats.admitted = true;
  session.stats.backfilled = backfilled;
  session.stats.demand = resolution.demand;
  session.stats.topology = resolution.spec.name();
  session.stats.start = now;
  session.stats.queue_wait = now - session.stats.arrival;

  evaluate(session, plan);
  session.stats.result = std::move(*plan.result);
  session.stats.status = session.stats.result.status;
  // A running session is never resolved again, and a vacated one comes back
  // under a new "|r" key: no memoized plan can be asked for after this.
  session.plans.clear();

  const std::uint32_t index = session.index;
  sim_.schedule_at(now + session.stats.result.total_virtual_time,
                   [this, index]() { complete(index); });
}

void SessionScheduler::complete(std::uint32_t index) {
  Session& session = sessions_[index];
  const SimTime now = sim_.now();
  ledger_.release(session.stats.demand, now);
  if (session.stats.result.vacated &&
      session.stats.result.checkpoint != nullptr) {
    // Simulated front-end loss: the session vacated at a round boundary
    // holding its checkpoint. It re-enters the queue and is re-admitted
    // through the ledger like any arrival, resuming mid-series (possibly
    // re-planned onto a different shard count under the then-current
    // residual).
    session.checkpoint = session.stats.result.checkpoint;
    ++session.restarts;
    session.stats.restarts = session.restarts;
    session.request.options.vacate_at_round = -1;  // resume runs to the end
    session.state = State::kQueued;
    schedule_pass();
    return;
  }
  session.state = State::kDone;
  session.stats.completion = now;
  session.stats.turnaround = now - session.stats.arrival;
  schedule_pass();
}

std::vector<std::uint32_t> SessionScheduler::queue_order() const {
  std::vector<std::uint32_t> queue;
  for (const Session& s : sessions_) {
    if (s.state == State::kQueued) queue.push_back(s.index);
  }
  std::sort(queue.begin(), queue.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Session& sa = sessions_[a];
              const Session& sb = sessions_[b];
              if (sa.request.priority != sb.request.priority) {
                return sa.request.priority > sb.request.priority;
              }
              if (sa.stats.arrival != sb.stats.arrival) {
                return sa.stats.arrival < sb.stats.arrival;
              }
              return sa.index < sb.index;
            });
  return queue;
}

SessionScheduler::Reservation SessionScheduler::compute_reservation(
    Session& head) {
  // EASY backfill's shadow: walk a copy of the ledger through the running
  // sessions' completions (earliest first) until the head fits. For an auto
  // head the spec is re-resolved under each hypothetical residual — more
  // freed login slots may mean a *different* (cheaper) plan fits sooner.
  std::vector<std::pair<SimTime, const SessionStats*>> running;
  for (const Session& s : sessions_) {
    if (s.state != State::kRunning) continue;
    running.emplace_back(s.stats.start + s.stats.result.total_virtual_time,
                         &s.stats);
  }
  std::sort(running.begin(), running.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  Reservation r;
  ResourceLedger copy = ledger_;
  for (const auto& [completes_at, stats] : running) {
    copy.release(stats->demand, completes_at);
    const Resolution& res = resolve(head, copy).resolution;
    if (!res.status.is_ok() || !copy.fits(res.demand)) continue;
    r.found = true;
    r.shadow = completes_at;
    const SessionDemand free = copy.free();
    r.extra.comm_slots = free.comm_slots - res.demand.comm_slots;
    r.extra.fe_connections = free.fe_connections - res.demand.fe_connections;
    r.extra.exec_threads = free.exec_threads - res.demand.exec_threads;
    return r;
  }
  return r;  // head cannot start within the running set's horizon
}

void SessionScheduler::schedule_pass() {
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<std::uint32_t> queue = queue_order();
    if (queue.empty()) return;

    Session& head = sessions_[queue.front()];
    Plan& head_plan = resolve(head, ledger_);
    const Resolution& head_res = head_plan.resolution;
    if (head_res.status.is_ok() && ledger_.fits(head_res.demand)) {
      admit(head, head_plan, /*backfilled=*/false);
      changed = true;
      continue;
    }
    // Head blocked: transient by construction (the arrival gate rejected
    // never-fits sessions), so it waits for completions. FIFO stops here.
    if (config_.policy == SchedulerPolicy::kFifo) return;

    const Reservation reservation = compute_reservation(head);
    if (!reservation.found) return;

    for (std::size_t qi = 1; qi < queue.size(); ++qi) {
      Session& candidate = sessions_[queue[qi]];
      Plan& plan = resolve(candidate, ledger_);
      const Resolution& res = plan.resolution;
      if (!res.status.is_ok() || !ledger_.fits(res.demand)) continue;
      // Never delay the head: the candidate must either be gone by the
      // shadow (its deterministic duration is exact, not an estimate) or
      // fit inside the capacity the head leaves free at the shadow.
      const stat::StatRunResult& result = evaluate(candidate, plan);
      const bool done_by_shadow =
          sim_.now() + result.total_virtual_time <= reservation.shadow;
      if (!done_by_shadow && !res.demand.fits_within(reservation.extra)) {
        continue;
      }
      admit(candidate, plan, /*backfilled=*/true);
      changed = true;
      break;  // the reservation moved; recompute before the next candidate
    }
  }
}

ServiceReport SessionScheduler::run() {
  check(!ran_, "SessionScheduler::run() is single-shot");
  ran_ = true;

  for (const Session& session : sessions_) {
    const std::uint32_t index = session.index;
    sim_.schedule_at(session.stats.arrival, [this, index]() { arrive(index); });
  }
  sim_.run();

  ServiceReport report;
  report.policy = config_.policy;
  report.machine = config_.machine.name;
  report.comm_slot_capacity = ledger_.comm_slot_capacity();
  report.fe_connection_capacity = ledger_.fe_connection_capacity();
  report.exec_thread_capacity = ledger_.exec_thread_capacity();

  double wait_sum = 0.0;
  double turnaround_sum = 0.0;
  std::uint32_t admitted = 0;
  for (Session& session : sessions_) {
    check(session.state == State::kDone,
          "service drained with a session still pending");
    const SessionStats& stats = session.stats;
    if (stats.admitted) {
      ++admitted;
      if (stats.status.is_ok()) {
        ++report.completed;
      } else {
        ++report.failed;
      }
      if (stats.backfilled) ++report.backfilled;
      report.makespan = std::max(report.makespan, stats.completion);
      wait_sum += to_seconds(stats.queue_wait);
      turnaround_sum += to_seconds(stats.turnaround);
      report.max_queue_wait_seconds =
          std::max(report.max_queue_wait_seconds, to_seconds(stats.queue_wait));
    } else {
      ++report.rejected;
    }
    report.sessions.push_back(std::move(session.stats));
  }
  if (admitted > 0) {
    report.mean_queue_wait_seconds = wait_sum / admitted;
    report.mean_turnaround_seconds = turnaround_sum / admitted;
  }
  const double makespan_s = to_seconds(report.makespan);
  if (makespan_s > 0.0) {
    report.sessions_per_hour = report.completed * 3600.0 / makespan_s;
  }
  report.comm_slot_utilization = ledger_.comm_slot_utilization(report.makespan);
  report.fe_connection_utilization =
      ledger_.fe_connection_utilization(report.makespan);
  report.exec_thread_utilization =
      ledger_.exec_thread_utilization(report.makespan);
  return report;
}

}  // namespace petastat::service
