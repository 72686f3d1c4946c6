#include "tbon/health.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"
#include "tbon/multicast.hpp"

namespace petastat::tbon {

HealthMonitor::HealthMonitor(sim::Simulator& simulator, net::Network& network,
                             const TbonTopology& topology,
                             OnFailure on_failure, SimTime period)
    : sim_(simulator),
      net_(network),
      topo_(topology),
      on_failure_(std::move(on_failure)),
      period_(period),
      dead_at_(topology.procs.size(), kSimTimeNever),
      reported_(topology.procs.size(), false) {
  check(period_ > 0, "HealthMonitor period must be positive");
  check(static_cast<bool>(on_failure_), "HealthMonitor needs a callback");
}

void HealthMonitor::start() {
  stopped_ = false;
  pending_ = sim_.schedule_in(period_, [this]() { sweep(); });
}

void HealthMonitor::stop() {
  if (stopped_) return;
  stopped_ = true;
  sim_.cancel(pending_);
}

void HealthMonitor::mark_dead(std::uint32_t proc_index, SimTime at) {
  check(proc_index < dead_at_.size(), "HealthMonitor::mark_dead bad proc");
  dead_at_[proc_index] = std::min(dead_at_[proc_index], at);
}

void HealthMonitor::sweep() {
  if (stopped_) return;
  const SimTime started = sim_.now();
  // The ping rides the real control plane: the fan-out is priced by the
  // multicast, the echo gather is modelled symmetric to it. A proc dead
  // before `started` produces no echo, so the front end notices exactly when
  // the gather would have completed.
  multicast(sim_, net_, topo_, kPingBytes, [this, started](SimTime reached) {
    if (stopped_) return;
    const SimTime detect_at = reached + (reached - started);
    sim_.schedule_at(detect_at, [this, started, detect_at]() {
      if (stopped_) return;
      ++sweeps_;
      for (std::uint32_t p = 0; p < dead_at_.size(); ++p) {
        if (dead_at_[p] <= started && !reported_[p]) {
          reported_[p] = true;
          ++detections_;
          on_failure_(FailureEvent{p, dead_at_[p], detect_at});
        }
      }
      if (sweeps_ >= kMaxSweeps) {
        stopped_ = true;
        return;
      }
      pending_ = sim_.schedule_at(std::max(detect_at, started + period_),
                                  [this]() { sweep(); });
    });
  });
}

}  // namespace petastat::tbon
