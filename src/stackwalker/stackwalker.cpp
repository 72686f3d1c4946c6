#include "stackwalker/stackwalker.hpp"

#include <algorithm>

namespace petastat::stackwalker {

StackWalker::StackWalker(sim::Simulator& simulator,
                         const machine::MachineConfig& machine,
                         const machine::SamplingCosts& costs,
                         fs::FileAccess& files, const app::AppModel& app,
                         machine::DaemonLayout layout, std::uint64_t seed)
    : sim_(simulator),
      machine_(machine),
      costs_(costs),
      files_(files),
      app_(app),
      layout_(layout),
      rng_(seed, /*stream_id=*/0x5a) {}

SimTime StackWalker::walk_cost(std::size_t frames) const {
  return machine::stack_walk_cost(costs_, frames);
}

void StackWalker::sample_daemon(DaemonId daemon, std::uint32_t num_samples,
                                const TraceSink& sink, SampleCallback done) {
  sample_daemon_from(daemon, 0, num_samples, sink, std::move(done));
}

void StackWalker::sample_daemon_from(DaemonId daemon,
                                     std::uint32_t first_sample,
                                     std::uint32_t num_samples,
                                     const TraceSink& sink,
                                     SampleCallback done) {
  check(daemon.value() < layout_.num_daemons, "sample_daemon out of range");
  const NodeId host = machine::daemon_host(machine_, daemon);
  const SimTime start = sim_.now();

  SampleReport report;
  report.daemon = daemon;
  report.started_at = start;

  // --- Phase 1: symbol acquisition (first sampling pass only) -------------
  SimTime io_done = start;
  SimTime parse_cpu = 0;
  for (const auto& image : app_.binaries().images) {
    const DaemonKey key{daemon, image.path};
    if (parsed_.contains(key)) continue;
    parsed_.insert(key);
    // All images are opened as the loader would; reads race with every other
    // daemon's reads on the shared server.
    io_done = std::max(io_done, files_.open_and_read(host, image.path, image.bytes));
    parse_cpu += machine::symtab_parse_cost(costs_, image.bytes);
  }
  report.symbol_io_time = io_done - start;

  // --- Phase 2: walks ------------------------------------------------------
  // Contention: on fully packed Atlas nodes the daemon time-slices against
  // spin-waiting MPI ranks; the factor is long-tailed (a rank holding a
  // kernel lock or refusing to yield stretches the walk).
  double contention = 1.0;
  if (machine_.daemon_shares_cpu) {
    contention = costs_.cpu_contention_mean *
                 rng_.lognormal_factor(costs_.cpu_contention_sigma);
  } else {
    // Dedicated I/O node: milder variation from the collective-network path
    // into the compute nodes and from file-server load.
    contention = rng_.lognormal_factor(costs_.cpu_contention_sigma * 0.6);
  }

  const std::uint32_t first = layout_.first_task_of(daemon);
  const std::uint32_t count = layout_.tasks_of(daemon);

  // The synthesis job: the daemon's trace batch plus its walk-cost tally.
  // Pure per-daemon work (app reads + sink into this daemon's payload), so
  // it may run on a worker while other daemons' events proceed.
  struct Synthesis {
    double walk_s = 0.0;
    std::uint32_t traces = 0;
  };
  auto synthesis = std::make_shared<Synthesis>();
  auto job = [this, synthesis, sink, daemon, first, count, first_sample,
              num_samples]() {
    app::TraceBatch batch;
    batch.synthesize(app_, count, first_sample, num_samples,
                     [this, daemon, first](std::uint32_t t) {
                       return resolver_ ? resolver_(daemon, t)
                                        : TaskId(first + t);
                     });
    // Walks are priced per trace, in walk order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      synthesis->walk_s += to_seconds(walk_cost(batch.path(i).size()));
    }
    synthesis->traces = static_cast<std::uint32_t>(batch.size());
    sink(batch);
  };
  sim::Executor::TaskRef pending =
      executor_ ? executor_->run(std::move(job)) : (job(), nullptr);

  // At the modelled end of symbol I/O the traces must exist; from there the
  // modelled parse + walk durations fix the completion timestamp.
  const auto parse_time =
      static_cast<SimTime>(static_cast<double>(parse_cpu) * contention);
  sim_.schedule_at(
      io_done, [this, report, contention, parse_time, io_done, synthesis,
                pending = std::move(pending), done = std::move(done)]() mutable {
        if (executor_) executor_->wait(pending);
        report.symbol_parse_time = parse_time;
        report.walk_time = seconds(synthesis->walk_s * contention);
        report.traces = synthesis->traces;
        report.finished_at = io_done + parse_time + report.walk_time;
        sim_.schedule_at(report.finished_at,
                         [report, done = std::move(done)]() { done(report); });
      });
}

void StackWalker::reset() { parsed_.clear(); }

}  // namespace petastat::stackwalker
