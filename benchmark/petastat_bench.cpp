// petastat_bench: one repeat of one host-time benchmark workload per process.
//
// petastat reproduces the *virtual* times of the modelled tool exactly. This
// program measures the *host* time and memory that simulating them costs, next
// to the virtual time they model. It links the petastat library and has three
// modes, each printing one JSON object on the last line of stdout:
//
//   petastat_bench run   <workload> [--seed N]
//   petastat_bench trace <workload> [--seed N] [--out PATH]
//   petastat_bench calib
//
// `run` sets the workload up (up to kSetups times, each from a cold planner
// cache), runs the last set-up once, checks its outputs, and prints set-up
// and run seconds, trace and session counts, the modelled virtual seconds,
// the sessions that failed a check, and an FNV-1a digest of the outputs.
//
// `trace` runs the workload untraced for reference, then replays its data
// path from outside through the layers' public functions: app synthesis,
// prefix-tree folds, the TBON reduction over its own simulator and network,
// remap, classes, the checkpoint codec and the planner, with a steady-clock
// timer around every call. Replays alternate with further untraced runs. A
// replay must reproduce the reference run's tree_3d and classes exactly.
// Spans go to a Chrome trace-event file; the per-layer totals go to stdout.
//
// `calib` times a fixed integer-hash loop so a results file shows host drift.
//
// benchmark/run.py owns warm-up, repeats, ordering, statistics and the
// expected-digest gate; this program only measures and checks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "machine/cost_model.hpp"
#include "net/network.hpp"
#include "plan/predictor.hpp"
#include "plan/search.hpp"
#include "service/scheduler.hpp"
#include "service/trace.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"
#include "stat/checkpoint.hpp"
#include "stat/equivalence.hpp"
#include "stat/filter.hpp"
#include "stat/report.hpp"
#include "stat/scenario.hpp"
#include "tbon/multicast.hpp"
#include "tbon/reduction.hpp"
#include "tbon/streaming.hpp"
#include "tbon/topology.hpp"

using namespace petastat;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

/// Set-ups per `run` process: up to kSetups while they take less than
/// kSetupBudgetSeconds in total (one, for the planner-bound stream). Every
/// repeat is a fresh process, so a run's median set-up spans many of them;
/// sub-millisecond set-ups need the count to out-vote page-fault noise.
constexpr std::size_t kSetups = 15;
constexpr double kSetupBudgetSeconds = 0.25;
/// Daemons per synthesis/fold batch in the traced replay. Batches are the
/// unit of timing (never single traces) and of parallel work.
constexpr std::uint32_t kDaemonsPerBatch = 64;
/// Traced replays per `trace` process; the median one is reported.
constexpr int kReplays = 3;
constexpr std::uint64_t kDefaultSeed = 2008;
constexpr std::uint32_t kCalibIterations = 120'000'000;

// --- JSON output ----------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, const std::string& value) {
    return raw(key, "\"" + stat::json_escape(value) + "\"");
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + std::string(key) + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + stat::json_escape(items[i]) + "\"";
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", items[i]);
    out += buf;
  }
  return out + "]";
}

// --- Output digest ----------------------------------------------------------

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

void hash_classes(Fnv1a& hash,
                  const std::vector<stat::EquivalenceClass>& classes) {
  hash.u64(classes.size());
  for (const stat::EquivalenceClass& cls : classes) {
    hash.u64(cls.size());
    hash.u64(cls.tasks.intervals().size());
    for (const auto& interval : cls.tasks.intervals()) {
      hash.u64(interval.lo);
      hash.u64(interval.hi);
    }
  }
}

std::vector<std::uint8_t> encode_tree(const stat::GlobalTree& tree,
                                      const app::FrameTable& frames,
                                      std::uint32_t num_tasks) {
  ByteSink sink;
  tree.encode(sink, frames, stat::LabelContext{num_tasks});
  return sink.take();
}

/// Digest of one session's outputs: the encoded 3D tree, the classes, and
/// every virtual phase time.
std::string session_digest(const stat::StatRunResult& result,
                           const app::FrameTable& frames) {
  Fnv1a hash;
  const std::vector<std::uint8_t> tree =
      encode_tree(result.tree_3d, frames, result.layout.num_tasks);
  hash.bytes(tree.data(), tree.size());
  hash_classes(hash, result.classes);
  const stat::PhaseBreakdown& p = result.phases;
  for (const SimTime t :
       {result.total_virtual_time, p.launch.total(), p.connect_time,
        p.startup_total, p.sbrs_grace, p.sbrs_relocation, p.sample_time,
        p.merge_time, p.remap_time}) {
    hash.u64(static_cast<std::uint64_t>(t));
  }
  for (const stat::StreamSampleStats& round : result.stream_samples) {
    hash.u64(static_cast<std::uint64_t>(round.sample_time));
    hash.u64(static_cast<std::uint64_t>(round.merge_time));
  }
  return hash.hex();
}

// --- Workloads --------------------------------------------------------------

/// One StatScenario's inputs.
struct Session {
  machine::MachineConfig machine;
  machine::JobConfig job;
  stat::StatOptions options;
};

Session bgl208k(std::uint64_t seed, stat::TaskSetRepr repr) {
  Session s;
  s.machine = machine::bgl();
  s.job.num_tasks = 212'992;
  s.job.mode = machine::BglMode::kVirtualNode;
  s.options.topology = tbon::TopologySpec::bgl(2);
  s.options.repr = repr;
  // The CLI's default launcher on BG/L-style machines.
  s.options.launcher = stat::LauncherKind::kCiodPatched;
  s.options.num_samples = 10;
  s.options.shuffle_task_map = true;
  s.options.exec_threads = 1;
  s.options.seed = seed;
  return s;
}

Session petascale_stream(std::uint64_t seed) {
  Session s;
  s.machine = machine::petascale();
  s.job.num_tasks = 131'072;
  s.options.app = stat::AppKind::kImbalance;
  s.options.evolution = app::TraceEvolution::kDrift;
  s.options.drift_period = 1024;
  s.options.stream_samples = 24;
  s.options.topology_auto = true;
  s.options.fe_shards_auto = true;
  s.options.checkpoint_period = 8;
  s.options.launcher = stat::LauncherKind::kCiodPatched;
  s.options.exec_threads = 4;
  s.options.seed = seed;
  return s;
}

/// The single-session workloads; nullopt for the service (and unknown names).
std::optional<Session> single_session(std::string_view name,
                                      std::uint64_t seed) {
  if (name == "bgl208k_hier") {
    return bgl208k(seed, stat::TaskSetRepr::kHierarchical);
  }
  if (name == "bgl208k_dense") {
    return bgl208k(seed, stat::TaskSetRepr::kDenseGlobal);
  }
  if (name == "petascale_stream") return petascale_stream(seed);
  return std::nullopt;
}

constexpr std::string_view kServiceWorkload = "service_backfill";
constexpr std::uint32_t kServiceThreads = 4;
constexpr std::uint32_t kUrgentSessions = 8;
constexpr std::uint32_t kSmallSessions = 24;
/// Urgent sessions arrive faster than one finishes (~210 virtual seconds
/// each), so a blocked urgent head is almost always queued; each holds 3 of
/// the 4 executor threads, and the small sessions backfill the fourth.
constexpr double kUrgentSpacingSeconds = 150.0;

/// A seeded arrival trace for `--service`: urgent 65,536-task auto-topology
/// sessions and a crowd of 4,096-task two-round streaming sessions whose
/// inter-round interval (and so their duration) varies. The arrival grid is
/// fixed and the seed picks each session's own seed: a different seed gives
/// different traces and virtual durations, but the same shape of schedule,
/// so host time compares across seeds.
std::string service_trace_json(std::uint64_t seed) {
  Rng rng(seed, /*stream_id=*/0x5e55);
  // Session seeds stay below 2^53: the trace's numbers are JSON doubles.
  const auto session_seed = [&rng]() {
    return static_cast<unsigned long long>(rng.next_below(1'000'000'000));
  };
  const double window = kUrgentSessions * kUrgentSpacingSeconds;
  std::string sessions;
  char buf[320];
  for (std::uint32_t i = 0; i < kUrgentSessions; ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"name\": \"urgent-%u\", \"arrival\": %.3f, "
                  "\"priority\": 5, \"tasks\": 65536, \"topology\": \"auto\", "
                  "\"exec-threads\": 3, \"seed\": %llu}",
                  sessions.empty() ? "" : ",", i, i * kUrgentSpacingSeconds,
                  session_seed());
    sessions += buf;
  }
  for (std::uint32_t j = 0; j < kSmallSessions; ++j) {
    const double arrival = (j + 0.5) * window / kSmallSessions;
    const double interval = 20.0 * ((j * 7) % kSmallSessions) / kSmallSessions;
    std::snprintf(buf, sizeof buf,
                  ",\n    {\"name\": \"small-%u\", \"arrival\": %.3f, "
                  "\"priority\": 0, \"tasks\": 4096, \"stream\": \"2:%.3f\", "
                  "\"seed\": %llu}",
                  j, arrival, interval, session_seed());
    sessions += buf;
  }
  return "{\"machine\": \"petascale\", \"policy\": \"backfill\", "
         "\"executor_threads\": " +
         std::to_string(kServiceThreads) + ", \"sessions\": [" + sessions +
         "\n]}\n";
}

// --- Correctness checks -----------------------------------------------------

stat::TaskMap task_map_of(const machine::DaemonLayout& layout,
                          const stat::StatOptions& options) {
  return options.shuffle_task_map
             ? stat::TaskMap::shuffled(layout, options.seed)
             : stat::TaskMap::identity(layout);
}

/// Empty when every live task is in some class and no dead task is in any;
/// otherwise the reason. (A task whose trace changed across samples may end
/// at two nodes of the 3D tree, so classes may overlap.)
std::string class_coverage_error(const stat::StatRunResult& result,
                                 const stat::StatOptions& options) {
  const machine::DaemonLayout& layout = result.layout;
  const stat::TaskMap map = task_map_of(layout, options);
  std::vector<bool> dead(layout.num_daemons, false);
  for (const std::uint32_t d : result.dead_daemons) dead[d] = true;
  stat::TaskSet live;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    if (dead[d]) continue;
    for (std::uint32_t local = 0; local < layout.tasks_of(DaemonId(d));
         ++local) {
      live.insert(map.global_rank(d, local));
    }
  }
  stat::TaskSet seen;
  for (const stat::EquivalenceClass& cls : result.classes) {
    seen.union_with(cls.tasks);
  }
  if (!live.difference(seen).empty()) {
    return std::to_string(live.difference(seen).count()) +
           " live tasks are in no class";
  }
  if (!seen.difference(live).empty()) {
    return std::to_string(seen.difference(live).count()) +
           " tasks in classes are not live";
  }
  return {};
}

std::uint64_t live_tasks(const stat::StatRunResult& result) {
  std::uint64_t n = result.layout.num_tasks;
  for (const std::uint32_t d : result.dead_daemons) {
    n -= result.layout.tasks_of(DaemonId(d));
  }
  return n;
}

/// Traces a session gathers: live tasks x threads x samples (or rounds).
std::uint64_t session_traces(const stat::StatRunResult& result,
                             const machine::JobConfig& job,
                             const stat::StatOptions& options) {
  const std::uint64_t samples = options.stream_samples > 0
                                    ? options.stream_samples
                                    : options.num_samples;
  return live_tasks(result) * std::max(1u, job.threads_per_task) * samples;
}

/// Checks one finished session; appends a reason per failed check.
void check_session(const std::string& name, const stat::StatRunResult& result,
                   const stat::StatOptions& options,
                   std::vector<std::string>& failures) {
  if (!result.status.is_ok()) {
    failures.push_back(name + ": " + result.status.to_string());
    return;
  }
  if (const std::string error = class_coverage_error(result, options);
      !error.empty()) {
    failures.push_back(name + ": " + error);
  }
}

// --- run mode ---------------------------------------------------------------

struct RunOutcome {
  std::vector<double> setups;
  double run_s = 0.0;
  std::uint64_t traces = 0;
  double virtual_s = 0.0;
  std::uint32_t sessions = 0;
  std::vector<std::string> failures;  // one entry per failed check
  std::uint32_t failed_sessions = 0;
  std::string digest;
};

/// Times `build` after `discard` as often as kSetups and kSetupBudgetSeconds
/// allow, each time from a cold planner cache; the last build is the one
/// that runs.
template <typename Discard, typename Build>
std::vector<double> repeat_setup(const Discard& discard, const Build& build) {
  std::vector<double> setups;
  double spent = 0.0;
  while (setups.empty() ||
         (setups.size() < kSetups && spent < kSetupBudgetSeconds)) {
    discard();
    plan::reset_profile_cache();
    const Clock::time_point t0 = Clock::now();
    build();
    setups.push_back(seconds_since(t0));
    spent += setups.back();
  }
  return setups;
}

RunOutcome run_single(const Session& session) {
  RunOutcome out;
  std::optional<stat::StatScenario> scenario;
  out.setups = repeat_setup(
      [&]() { scenario.reset(); },
      [&]() {
        scenario.emplace(session.machine, session.job, session.options);
      });
  const Clock::time_point t0 = Clock::now();
  const stat::StatRunResult result = scenario->run();
  out.run_s = seconds_since(t0);

  out.sessions = 1;
  out.traces = session_traces(result, session.job, session.options);
  out.virtual_s = to_seconds(result.total_virtual_time);
  check_session("session", result, session.options, out.failures);
  out.failed_sessions = out.failures.empty() ? 0 : 1;
  out.digest = session_digest(result, scenario->app().frames());
  return out;
}

struct ServiceSetup {
  service::ServiceTrace trace;
  std::unique_ptr<service::SessionScheduler> scheduler;
};

/// Generates the trace, parses it back, and submits every session.
ServiceSetup setup_service(std::uint64_t seed) {
  ServiceSetup setup;
  auto parsed = service::parse_service_trace(service_trace_json(seed));
  check(parsed.is_ok(), "generated service trace does not parse");
  setup.trace = std::move(parsed).value();
  setup.scheduler =
      std::make_unique<service::SessionScheduler>(setup.trace.config);
  for (const service::SessionRequest& request : setup.trace.sessions) {
    check(setup.scheduler->submit(request).is_ok(), "service submit failed");
  }
  return setup;
}

/// Digest of a service run: per session its status, resolved spec,
/// start/completion on the service clock, and classes.
std::string service_digest(const service::ServiceReport& report) {
  Fnv1a hash;
  for (const service::SessionStats& s : report.sessions) {
    hash.text(s.name);
    hash.u64(static_cast<std::uint64_t>(s.status.code()));
    hash.text(s.topology);
    hash.u64(static_cast<std::uint64_t>(s.start));
    hash.u64(static_cast<std::uint64_t>(s.completion));
    hash_classes(hash, s.result.classes);
  }
  return hash.hex();
}

/// Checks every session of a service run; returns the failed-session count.
std::uint32_t check_service(
    const service::ServiceReport& report,
    const std::vector<service::SessionRequest>& requests,
    std::vector<std::string>& failures) {
  std::uint32_t failed = 0;
  for (std::size_t i = 0; i < report.sessions.size(); ++i) {
    const service::SessionStats& s = report.sessions[i];
    const std::size_t before = failures.size();
    if (!s.admitted) {
      failures.push_back(s.name + ": not admitted: " + s.status.to_string());
    } else {
      check_session(s.name, s.result, requests[i].options, failures);
    }
    if (failures.size() != before) ++failed;
  }
  return failed;
}

RunOutcome run_service(std::uint64_t seed) {
  RunOutcome out;
  ServiceSetup setup;
  out.setups = repeat_setup([&]() { setup = ServiceSetup{}; },
                            [&]() { setup = setup_service(seed); });
  const Clock::time_point t0 = Clock::now();
  const service::ServiceReport report = setup.scheduler->run();
  out.run_s = seconds_since(t0);

  out.sessions = static_cast<std::uint32_t>(report.sessions.size());
  out.virtual_s = to_seconds(report.makespan);
  for (std::size_t i = 0; i < report.sessions.size(); ++i) {
    const service::SessionStats& s = report.sessions[i];
    if (!s.admitted) continue;
    out.traces += session_traces(s.result, setup.trace.sessions[i].job,
                                 setup.trace.sessions[i].options);
  }
  out.failed_sessions =
      check_service(report, setup.trace.sessions, out.failures);
  out.digest = service_digest(report);
  return out;
}

int run_mode(std::string_view workload, std::uint64_t seed) {
  const RunOutcome out = workload == kServiceWorkload
                             ? run_service(seed)
                             : run_single(*single_session(workload, seed));
  JsonObject json;
  json.str("mode", "run")
      .str("workload", std::string(workload))
      .count("seed", seed)
      .raw("setup_samples_s", json_numbers(out.setups))
      .num("run_s", out.run_s)
      .count("traces", out.traces)
      .num("virtual_s", out.virtual_s)
      .count("sessions", out.sessions)
      .count("failed", out.failed_sessions)
      .raw("failures", json_strings(out.failures))
      .str("digest", out.digest);
  std::printf("%s\n", json.text().c_str());
  return 0;
}

// --- Tracing ----------------------------------------------------------------

int this_thread_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next++;
  return tid;
}

/// Spans at layer boundaries, kept in memory and written as Chrome
/// trace-event JSON at the end. Ids are taken when a span opens so children
/// (which close first) can name their parent.
class Tracer {
 public:
  long open() { return ++last_id_; }

  void record(long id, long parent, std::string_view name,
              std::string_view layer, Clock::time_point begin,
              Clock::time_point end, std::uint64_t count) {
    const int tid = this_thread_tid();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::string(name), std::string(layer), tid,
                          1e6 * seconds_between(epoch_, begin),
                          1e6 * seconds_between(begin, end), id, parent,
                          count});
  }

  [[nodiscard]] std::string chrome_json(const std::string& process) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out =
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"" +
        stat::json_escape(process) + "\"}}";
    char buf[256];
    for (const Span& span : spans_) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %ld, \"parent\": %ld, "
                    "\"count\": %llu}}",
                    stat::json_escape(span.name).c_str(), span.layer.c_str(),
                    span.tid,
                    span.begin_us, span.dur_us, span.id, span.parent,
                    static_cast<unsigned long long>(span.count));
      out += buf;
    }
    return out + "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    int tid;
    double begin_us;
    double dur_us;
    long id;
    long parent;
    std::uint64_t count;
  };
  Clock::time_point epoch_ = Clock::now();
  std::atomic<long> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A span on the replaying thread; finish() (or the destructor) records it
/// and returns its duration.
class Scope {
 public:
  Scope(Tracer& tracer, long parent, std::string_view name,
        std::string_view layer)
      : tracer_(tracer),
        id_(tracer.open()),
        parent_(parent),
        name_(name),
        layer_(layer),
        begin_(Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { finish(); }

  [[nodiscard]] long id() const { return id_; }
  void set_count(std::uint64_t count) { count_ = count; }

  double finish() {
    if (open_) {
      const Clock::time_point end = Clock::now();
      seconds_ = seconds_between(begin_, end);
      tracer_.record(id_, parent_, name_, layer_, begin_, end, count_);
      open_ = false;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  long id_;
  long parent_;
  std::string_view name_;
  std::string_view layer_;
  Clock::time_point begin_;
  std::uint64_t count_ = 0;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Per-layer totals of a traced replay (summed over a workload's sessions).
/// Times are self time: a region's wall time minus the callback time its
/// children were charged. Everything but the probes lies on the run path
/// and counts toward trace.coverage.
struct Layers {
  // Run path.
  double app_synth_s = 0.0;
  double stat_fold_s = 0.0;
  double stat_merge_s = 0.0;
  double stat_wire_s = 0.0;
  double stat_remap_s = 0.0;
  double stat_classes_s = 0.0;
  double checkpoint_capture_s = 0.0;  // encodes of the run's own captures
  double tbon_self_s = 0.0;
  // Probes outside the run path.
  double checkpoint_probe_encode_s = 0.0;
  double checkpoint_decode_s = 0.0;
  double net_graph_s = 0.0;
  double plan_profile_s = 0.0;
  double plan_search_s = 0.0;
  // Counts.
  std::uint64_t traces = 0;
  std::uint64_t frames = 0;
  std::uint64_t merge_calls = 0;
  std::uint64_t leaf_payload_bytes = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t classes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cached_procs = 0;     // rounds >= 1
  std::uint64_t remerged_procs = 0;   // rounds >= 1
  std::uint64_t changed_daemons = 0;  // over the counted rounds
  std::uint64_t counted_rounds = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t links_used = 0;
  double run_path_wall_s = 0.0;

  [[nodiscard]] double run_path_self_s() const {
    return app_synth_s + stat_fold_s + stat_merge_s + stat_wire_s +
           stat_remap_s + stat_classes_s + checkpoint_capture_s + tbon_self_s;
  }
};

/// What a replay must reproduce, and what it checks against.
struct Products {
  std::vector<std::uint8_t> tree_3d_wire;
  std::vector<stat::EquivalenceClass> classes;
  std::uint64_t last_capture_bytes = 0;  // the run's last checkpoint, if any
};

bool same_classes(const std::vector<stat::EquivalenceClass>& a,
                  const std::vector<stat::EquivalenceClass>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tasks == b[i].tasks) || a[i].path.size() != b[i].path.size()) {
      return false;
    }
  }
  return true;
}

/// Replays one session's data path through the layers' public functions.
/// Synthesis and folds run in batches of kDaemonsPerBatch daemons, `threads`
/// batches at a time on a sim::Executor, like the scenario's sampling; the
/// TBON reduction runs serially on the replaying thread so every callback is
/// charged where it ran. No daemon dies in these workloads, so daemon 0
/// supplies the leaf payload size, as the first live daemon does in a run.
class Replay {
 public:
  Replay(Tracer& tracer, Layers& layers, std::uint32_t threads)
      : tracer_(tracer), layers_(layers), exec_(threads), threads_(threads) {}

  /// `spec` is the topology the reference run resolved.
  Products run(const Session& session, const tbon::TopologySpec& spec,
               long parent) {
    {
      Scope setup(tracer_, parent, "replay.setup", "setup");
      session_ = &session;
      spec_ = spec;
      layout_ = machine::layout_daemons(session.machine, session.job).value();
      costs_ = machine::default_cost_model(session.machine);
      app_ =
          stat::make_app_model(session.machine, session.job, session.options);
      Scope graph(tracer_, setup.id(), "net.build_switch_graph", "net");
      graph_ = net::build_switch_graph(session.machine);
      layers_.net_graph_s += graph.finish();
    }

    Scope path(tracer_, parent, "replay.run_path", "replay");
    {
      // The run builds the process-table map before sampling; the remap
      // consumes it.
      Scope map(tracer_, path.id(), "stat.task_map", "stat");
      task_map_ = task_map_of(layout_, session.options);
      layers_.stat_remap_s += map.finish();
    }
    const bool dense = session.options.repr == stat::TaskSetRepr::kDenseGlobal;
    Products products;
    if (session.options.stream_samples > 0) {
      products = dense ? stream<stat::GlobalLabel>(path.id())
                       : stream<stat::HierLabel>(path.id());
    } else {
      products = dense ? batched<stat::GlobalLabel>(path.id())
                       : batched<stat::HierLabel>(path.id());
    }
    layers_.run_path_wall_s += path.finish();
    return products;
  }

 private:
  struct Trace {
    TaskId task;
    std::uint32_t local = 0;
    std::uint32_t sample = 0;
    app::CallPath path;
  };

  /// Callback time charged inside the TBON region that is open.
  struct Callbacks {
    double merge_s = 0.0;
    double wire_s = 0.0;
    std::uint64_t merges = 0;
    long region = 0;  // span id merge_into spans nest under
  };

  /// Synthesizes samples [first, first + count) of every daemon with
  /// AppModel::stack and hands each trace to fold(daemon, trace), one
  /// daemon's batch at a time, as the scenario's sampler does. A wave of
  /// `threads` jobs of kDaemonsPerBatch daemons runs on the executor; each
  /// job times synthesis and folds per daemon batch, and the wave's wall
  /// time is split between app and stat.fold in proportion to those times
  /// (exactly their sum when serial).
  template <typename Fold>
  void gather(std::uint32_t first, std::uint32_t count, long parent,
              const Fold& fold) {
    struct Job {
      double synth_s = 0.0;
      double fold_s = 0.0;
      std::uint64_t traces = 0;
      std::uint64_t frames = 0;
    };
    const std::uint32_t daemons = layout_.num_daemons;
    const std::uint32_t wave = kDaemonsPerBatch * threads_;
    const std::uint32_t threads_per_task =
        std::max(1u, session_->job.threads_per_task);
    for (std::uint32_t w0 = 0; w0 < daemons; w0 += wave) {
      const std::uint32_t w1 = std::min(daemons, w0 + wave);
      Scope region(tracer_, parent, "sample.gather", "app,stat");
      std::vector<Job> jobs((w1 - w0 + kDaemonsPerBatch - 1) /
                            kDaemonsPerBatch);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::uint32_t b0 = w0 + static_cast<std::uint32_t>(j) *
                                          kDaemonsPerBatch;
        const std::uint32_t b1 = std::min(w1, b0 + kDaemonsPerBatch);
        exec_.run([&, b0, b1, job = &jobs[j], region_id = region.id()]() {
          const Clock::time_point begin = Clock::now();
          std::vector<Trace> batch;
          for (std::uint32_t d = b0; d < b1; ++d) {
            const std::uint32_t locals = layout_.tasks_of(DaemonId(d));
            batch.reserve(std::size_t{locals} * count * threads_per_task);
            const Clock::time_point t0 = Clock::now();
            for (std::uint32_t s = first; s < first + count; ++s) {
              for (std::uint32_t t = 0; t < locals; ++t) {
                const TaskId task(task_map_.global_rank(d, t));
                for (std::uint32_t th = 0; th < threads_per_task; ++th) {
                  app::CallPath path = app_->stack(task, th, s);
                  job->frames += path.size();
                  batch.push_back(Trace{task, t, s, std::move(path)});
                }
              }
            }
            const Clock::time_point t1 = Clock::now();
            for (const Trace& trace : batch) fold(d, trace);
            job->traces += batch.size();
            batch.clear();
            const Clock::time_point t2 = Clock::now();
            job->synth_s += seconds_between(t0, t1);
            job->fold_s += seconds_between(t1, t2);
          }
          tracer_.record(tracer_.open(), region_id, "sample batch", "app,stat",
                         begin, Clock::now(), job->traces);
        });
      }
      exec_.wait_all();
      const double wall = region.finish();
      Job total;
      for (const Job& job : jobs) {
        total.synth_s += job.synth_s;
        total.fold_s += job.fold_s;
        total.traces += job.traces;
        total.frames += job.frames;
      }
      const double measured = total.synth_s + total.fold_s;
      const double app_share = measured > 0.0 ? total.synth_s / measured : 0.0;
      layers_.app_synth_s += wall * app_share;
      layers_.stat_fold_s += wall * (1.0 - app_share);
      layers_.traces += total.traces;
      layers_.frames += total.frames;
    }
  }

  /// Adds `seconds` of the wrapped callback's time to `into`.
  template <typename Result, typename... Args>
  static std::function<Result(Args...)> timed(
      std::function<Result(Args...)> inner, double& into) {
    return [&into, inner = std::move(inner)](Args... args) {
      const Clock::time_point t0 = Clock::now();
      Result result = inner(std::forward<Args>(args)...);
      into += seconds_since(t0);
      return result;
    };
  }

  /// Wraps a ReduceOps: the merge in a span per call, the payload sizing
  /// (wire bytes, and the cost callbacks that size payloads) in a timer.
  template <typename Payload>
  tbon::ReduceOps<Payload> timed(tbon::ReduceOps<Payload> ops,
                                 Callbacks& calls) {
    ops.merge_into = [this, &calls, inner = std::move(ops.merge_into)](
                         Payload& acc, Payload&& child) {
      const Clock::time_point t0 = Clock::now();
      inner(acc, std::move(child));
      const Clock::time_point t1 = Clock::now();
      calls.merge_s += seconds_between(t0, t1);
      ++calls.merges;
      tracer_.record(tracer_.open(), calls.region, "stat.merge_into", "stat",
                     t0, t1, 1);
    };
    ops.wire_bytes = timed(std::move(ops.wire_bytes), calls.wire_s);
    ops.merge_cpu = timed(std::move(ops.merge_cpu), calls.wire_s);
    ops.codec_cost = timed(std::move(ops.codec_cost), calls.wire_s);
    return ops;
  }

  /// Closes a TBON region: its wall time minus the callbacks' is tbon self.
  void close_tbon_region(Scope& region, Callbacks& calls) {
    const double wall = region.finish();
    layers_.stat_merge_s += calls.merge_s;
    layers_.stat_wire_s += calls.wire_s;
    layers_.merge_calls += calls.merges;
    layers_.tbon_self_s += wall - calls.merge_s - calls.wire_s;
    calls = Callbacks{};
  }

  template <typename Label>
  Products batched(long parent) {
    const stat::StatOptions& options = session_->options;
    const stat::LabelContext ctx{layout_.num_tasks};
    const app::FrameTable& frames = app_->frames();
    std::vector<stat::StatPayload<Label>> payloads(layout_.num_daemons);
    gather(0, options.num_samples, parent,
           [&payloads](std::uint32_t d, const Trace& trace) {
             stat::insert_trace(payloads[d], trace.path, d, trace.local,
                                trace.task, trace.sample);
           });

    Callbacks calls;
    sim::Simulator sim;
    net::Network network(sim, graph_);
    std::optional<tbon::TbonTopology> topology;
    std::optional<stat::StatPayload<Label>> merged;
    std::uint64_t leaf_bytes = 0;
    {
      Scope region(tracer_, parent, "tbon.reduce", "tbon");
      calls.region = region.id();
      topology =
          tbon::build_topology(session_->machine, layout_, spec_).value();
      {
        // The run's receive-buffer viability check sizes every leaf payload
        // arriving at a merge root.
        const Clock::time_point t0 = Clock::now();
        leaf_bytes = stat::payload_wire_bytes(payloads[0], frames, ctx);
        std::vector<std::uint32_t> roots{0};
        roots.insert(roots.end(), topology->reducers.begin(),
                     topology->reducers.end());
        for (const std::uint32_t root : roots) {
          for (const std::uint32_t child : topology->procs[root].children) {
            const tbon::TbonTopology::Proc& proc = topology->procs[child];
            if (proc.is_leaf()) {
              (void)stat::payload_wire_bytes(payloads[proc.daemon.value()],
                                             frames, ctx);
            }
          }
        }
        calls.wire_s += seconds_since(t0);
      }
      tbon::multicast(sim, network, *topology, /*bytes=*/96, [](SimTime) {});
      layers_.sim_events += sim.run();

      tbon::Reduction<stat::StatPayload<Label>> reduction(
          sim, network, *topology,
          timed(stat::make_stat_reduce_ops<Label>(costs_.merge, frames, ctx),
                calls));
      reduction.start(std::move(payloads),
                      [&](tbon::ReduceResult<stat::StatPayload<Label>> r) {
                        layers_.messages += r.messages;
                        layers_.bytes += r.bytes_moved;
                        merged = std::move(r.payload);
                      });
      layers_.sim_events += sim.run();
      layers_.links_used += network.link_stats().size();
      close_tbon_region(region, calls);
    }
    check(merged.has_value(), "replayed reduction did not complete");
    layers_.leaf_payload_bytes += leaf_bytes;
    layers_.changed_daemons += layout_.num_daemons;
    ++layers_.counted_rounds;
    return finish<Label>(std::move(merged->tree_2d), std::move(merged->tree_3d),
                         options.num_samples, leaf_bytes, *topology, nullptr,
                         parent);
  }

  template <typename Label>
  Products stream(long parent) {
    using Snapshot = stat::StreamSnapshot<Label>;
    const stat::StatOptions& options = session_->options;
    const stat::LabelContext ctx{layout_.num_tasks};
    const app::FrameTable& frames = app_->frames();

    // `calls` outlives the reduction whose callbacks charge it.
    Callbacks calls;
    sim::Simulator sim;
    net::Network network(sim, graph_);
    std::optional<tbon::TbonTopology> topology;
    std::optional<tbon::StreamingReduction<Snapshot>> streaming;
    {
      Scope region(tracer_, parent, "tbon.arm", "tbon");
      calls.region = region.id();
      topology =
          tbon::build_topology(session_->machine, layout_, spec_).value();
      tbon::StreamOps<Snapshot> ops =
          stat::make_stream_ops<Label>(costs_.merge, costs_.stream, frames,
                                       ctx);
      ops.base = timed(std::move(ops.base), calls);
      ops.signature_cpu = timed(std::move(ops.signature_cpu), calls.wire_s);
      ops.cached_merge_cpu =
          timed(std::move(ops.cached_merge_cpu), calls.wire_s);
      streaming.emplace(sim, network, *topology, std::move(ops));
      tbon::SampleRequest request;
      request.count = options.stream_samples;
      request.interval = seconds(options.stream_interval_seconds);
      tbon::broadcast(sim, network, *topology, costs_.stream, request, {},
                      [](tbon::BroadcastReport) {});
      layers_.sim_events += sim.run();
      close_tbon_region(region, calls);
    }

    stat::PrefixTree<Label> acc_2d;
    stat::PrefixTree<Label> acc_3d;
    std::uint64_t leaf_bytes = 0;
    std::uint64_t last_capture_bytes = 0;
    const std::uint32_t rounds = options.stream_samples;
    for (std::uint32_t s = 0; s < rounds; ++s) {
      Scope round(tracer_, parent, "round", "replay");
      round.set_count(s);
      std::vector<Snapshot> snapshots(layout_.num_daemons);
      gather(s, 1, round.id(), [&snapshots](std::uint32_t d,
                                            const Trace& trace) {
        Label seed;
        if constexpr (std::is_same_v<Label, stat::GlobalLabel>) {
          seed = stat::GlobalLabel::for_task(trace.task.value());
        } else {
          seed = stat::HierLabel::for_local(d, trace.local);
        }
        snapshots[d].tree.insert(trace.path, seed);
      });

      std::optional<tbon::StreamRoundResult<Snapshot>> merged;
      {
        Scope region(tracer_, round.id(), "tbon.round", "tbon");
        calls.region = region.id();
        if (s == 0) {
          const Clock::time_point t0 = Clock::now();
          leaf_bytes = stat::snapshot_wire_bytes(snapshots[0], frames, ctx);
          calls.wire_s += seconds_since(t0);
        }
        streaming->run_round(s, std::move(snapshots),
                             [&merged](tbon::StreamRoundResult<Snapshot> r) {
                               merged = std::move(r);
                             });
        layers_.sim_events += sim.run();
        close_tbon_region(region, calls);
      }
      check(merged.has_value(), "replayed stream round did not complete");
      layers_.messages += merged->messages;
      layers_.bytes += merged->bytes_moved;
      if (s > 0) {
        layers_.changed_daemons += merged->changed_daemons;
        ++layers_.counted_rounds;
        layers_.cached_procs += merged->cached_procs;
        layers_.remerged_procs += merged->remerged_procs;
      }
      {
        Scope fold(tracer_, round.id(), "stat.accumulate", "stat");
        if (s == 0) {
          acc_2d = merged->payload.tree;
          acc_3d = std::move(merged->payload.tree);
        } else {
          acc_3d.merge(merged->payload.tree);
        }
        layers_.stat_merge_s += fold.finish();
        ++layers_.merge_calls;
      }
      const std::uint32_t boundary = s + 1;
      if (options.checkpoint_period > 0 && boundary < rounds &&
          boundary % options.checkpoint_period == 0) {
        Scope capture_span(tracer_, round.id(), "checkpoint.capture",
                           "checkpoint");
        const std::vector<stat::EquivalenceClass> classes =
            classes_at(acc_3d, capture_span.id());
        Scope encode(tracer_, capture_span.id(), "checkpoint.encode",
                     "checkpoint");
        last_capture_bytes =
            checkpoint(acc_2d, acc_3d, classes, boundary, leaf_bytes,
                       *topology, &*streaming)
                .size();
        layers_.checkpoint_capture_s += encode.finish();
      }
    }
    if (rounds == 1) {
      layers_.changed_daemons += layout_.num_daemons;
      ++layers_.counted_rounds;
    }
    layers_.leaf_payload_bytes += leaf_bytes;
    layers_.links_used += network.link_stats().size();
    Products products =
        finish<Label>(std::move(acc_2d), std::move(acc_3d), rounds, leaf_bytes,
                      *topology, &*streaming, parent);
    products.last_capture_bytes = last_capture_bytes;
    return products;
  }

  std::vector<stat::EquivalenceClass> classes_of(const stat::GlobalTree& tree,
                                                 long parent) {
    Scope span(tracer_, parent, "stat.equivalence_classes", "stat");
    std::vector<stat::EquivalenceClass> classes =
        stat::equivalence_classes(tree);
    layers_.stat_classes_s += span.finish();
    return classes;
  }

  /// Rank-order classes of an accumulator mid-series, as a checkpoint
  /// capture extracts them: remap first for hierarchical labels.
  template <typename Label>
  std::vector<stat::EquivalenceClass> classes_at(
      const stat::PrefixTree<Label>& acc, long parent) {
    if constexpr (std::is_same_v<Label, stat::HierLabel>) {
      Scope remap(tracer_, parent, "stat.remap", "stat");
      const stat::GlobalTree global = stat::remap_tree(acc, task_map_);
      layers_.stat_remap_s += remap.finish();
      return classes_of(global, parent);
    } else {
      return classes_of(acc, parent);
    }
  }

  /// Encodes a SessionCheckpoint of the accumulators at `boundary`, field
  /// for field as the scenario captures one.
  template <typename Label>
  std::vector<std::uint8_t> checkpoint(
      const stat::PrefixTree<Label>& acc_2d,
      const stat::PrefixTree<Label>& acc_3d,
      const std::vector<stat::EquivalenceClass>& classes,
      std::uint32_t boundary, std::uint64_t leaf_bytes,
      const tbon::TbonTopology& topology,
      const tbon::StreamingReduction<stat::StreamSnapshot<Label>>* streaming) {
    const stat::StatOptions& options = session_->options;
    const stat::LabelContext ctx{layout_.num_tasks};
    const app::FrameTable& frames = app_->frames();
    stat::StatOptions resolved = options;
    resolved.topology = spec_;
    stat::SessionCheckpoint cp;
    cp.machine_name = session_->machine.name;
    cp.num_tasks = layout_.num_tasks;
    cp.num_daemons = layout_.num_daemons;
    cp.identity_hash =
        stat::session_identity_hash(session_->machine, session_->job, resolved);
    cp.spec = spec_;
    cp.cursor = boundary;
    cp.total_rounds = std::max(options.stream_samples, boundary);
    cp.interval_seconds = options.stream_interval_seconds;
    cp.repr = options.repr;
    cp.seed = options.seed;
    std::vector<bool> dead(layout_.num_daemons, false);
    if (streaming != nullptr) {
      dead = streaming->dead_daemons();
      cp.daemon_cache_valid = streaming->daemon_cache_valid();
      cp.proc_cache_complete = streaming->proc_cache_complete();
    } else {
      // A batched merge keeps no delta caches.
      cp.daemon_cache_valid.assign(layout_.num_daemons, false);
      cp.proc_cache_complete.assign(topology.procs.size(), false);
    }
    cp.leaf_payload_bytes = leaf_bytes;
    const double per_task =
        static_cast<double>(leaf_bytes) / layout_.tasks_per_daemon;
    if (topology.sharded()) {
      for (const std::uint64_t tasks :
           tbon::shard_task_counts(topology, layout_, dead)) {
        cp.shard_payload_bytes.push_back(
            static_cast<std::uint64_t>(per_task * static_cast<double>(tasks)));
      }
    } else {
      cp.shard_payload_bytes.push_back(static_cast<std::uint64_t>(
          per_task * static_cast<double>(layout_.num_tasks)));
    }
    ByteSink sink_2d;
    acc_2d.encode(sink_2d, frames, ctx);
    cp.tree_2d_wire = sink_2d.take();
    ByteSink sink_3d;
    acc_3d.encode(sink_3d, frames, ctx);
    cp.tree_3d_wire = sink_3d.take();
    for (const stat::EquivalenceClass& cls : classes) {
      stat::SessionCheckpoint::ClassEntry entry;
      for (const FrameId frame : cls.path) {
        entry.frames.emplace_back(frames.name(frame));
      }
      entry.tasks = cls.tasks;
      cp.classes.push_back(std::move(entry));
    }
    return cp.encoded();
  }

  /// Front-end finalization (the remap, for hierarchical labels), classes,
  /// and — outside the run path — a checkpoint of the final products
  /// encoded and decoded back.
  template <typename Label>
  Products finish(
      stat::PrefixTree<Label> tree_2d, stat::PrefixTree<Label> tree_3d,
      std::uint32_t samples, std::uint64_t leaf_bytes,
      const tbon::TbonTopology& topology,
      const tbon::StreamingReduction<stat::StreamSnapshot<Label>>* streaming,
      long parent) {
    std::optional<stat::GlobalTree> global_3d;
    {
      Scope remap(tracer_, parent, "stat.remap", "stat");
      if constexpr (std::is_same_v<Label, stat::HierLabel>) {
        // The two trees remap independently, overlapped as the run does.
        const sim::Executor::TaskRef remap_2d =
            exec_.run([&]() { (void)stat::remap_tree(tree_2d, task_map_); });
        global_3d = stat::remap_tree(tree_3d, task_map_);
        exec_.wait(remap_2d);
      } else {
        global_3d = std::move(tree_3d);  // dense labels already hold ranks
      }
      layers_.stat_remap_s += remap.finish();
    }
    Products products;
    products.classes = classes_of(*global_3d, parent);
    layers_.classes += products.classes.size();
    layers_.tree_nodes += global_3d->node_count();
    products.tree_3d_wire =
        encode_tree(*global_3d, app_->frames(), layout_.num_tasks);

    const stat::PrefixTree<Label>* pre_remap_3d = &tree_3d;
    if constexpr (std::is_same_v<Label, stat::GlobalLabel>) {
      pre_remap_3d = &*global_3d;
    }
    Scope probe(tracer_, parent, "checkpoint.probe", "checkpoint");
    std::vector<std::uint8_t> bytes;
    {
      Scope encode(tracer_, probe.id(), "checkpoint.encode", "checkpoint");
      bytes = checkpoint(tree_2d, *pre_remap_3d, products.classes, samples,
                         leaf_bytes, topology, streaming);
      layers_.checkpoint_probe_encode_s += encode.finish();
    }
    {
      Scope decode(tracer_, probe.id(), "checkpoint.decode", "checkpoint");
      ByteSource source(bytes);
      const bool decoded = stat::SessionCheckpoint::decode(source).is_ok();
      layers_.checkpoint_decode_s += decode.finish();
      check(decoded, "checkpoint probe does not decode");
    }
    layers_.checkpoint_bytes += bytes.size();
    return products;
  }

  Tracer& tracer_;
  Layers& layers_;
  sim::Executor exec_;
  std::uint32_t threads_;
  const Session* session_ = nullptr;
  tbon::TopologySpec spec_;
  machine::DaemonLayout layout_;
  machine::CostModel costs_;
  std::unique_ptr<app::AppModel> app_;
  net::SwitchGraph graph_;
  stat::TaskMap task_map_;
};

/// Prices the workload's planning session cold: the profile probe
/// (PhasePredictor::create) and the spec search, after a cache reset.
void plan_probe(const Session& session, Layers& layers, Tracer& tracer,
                long parent) {
  plan::reset_profile_cache();
  Scope probe(tracer, parent, "plan.probe", "plan");
  const machine::CostModel costs = machine::default_cost_model(session.machine);
  Scope profile(tracer, probe.id(), "plan.profile", "plan");
  auto predictor = plan::PhasePredictor::create(session.machine, session.job,
                                                session.options, costs);
  layers.plan_profile_s += profile.finish();
  check(predictor.is_ok(), "planner probe: job does not fit");
  Scope search(tracer, probe.id(), "plan.search", "plan");
  (void)plan::search_topologies(predictor.value());
  layers.plan_search_s += search.finish();
}

// --- trace mode -------------------------------------------------------------

struct Reference {
  stat::StatRunResult result;
  std::vector<std::uint8_t> tree_3d_wire;
  std::string digest;
  tbon::TopologySpec spec;
  double run_s = 0.0;
};

Reference reference_run(const Session& session) {
  Reference ref;
  stat::StatScenario scenario(session.machine, session.job, session.options);
  const Clock::time_point t0 = Clock::now();
  ref.result = scenario.run();
  ref.run_s = seconds_since(t0);
  ref.spec = scenario.resolved_options().topology;
  ref.tree_3d_wire = encode_tree(ref.result.tree_3d, scenario.app().frames(),
                                 ref.result.layout.num_tasks);
  ref.digest = session_digest(ref.result, scenario.app().frames());
  return ref;
}

void compare_products(const std::string& name, const Products& replay,
                      const std::vector<std::uint8_t>& tree_3d_wire,
                      const std::vector<stat::EquivalenceClass>& classes,
                      std::vector<std::string>& failures) {
  if (replay.tree_3d_wire != tree_3d_wire) {
    failures.push_back(name + ": replayed tree_3d differs from the run's");
  }
  if (!same_classes(replay.classes, classes)) {
    failures.push_back(name + ": replayed classes differ from the run's");
  }
}

void emit_layers(JsonObject& json, const Layers& l) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  JsonObject m;
  m.num("app.synth_s", l.app_synth_s)
      .count("app.traces", l.traces)
      .num("app.frames_per_trace",
           ratio(static_cast<double>(l.frames), static_cast<double>(l.traces)))
      .num("stat.fold_s", l.stat_fold_s)
      .num("stat.fold_ns_per_trace",
           1e9 * ratio(l.stat_fold_s, static_cast<double>(l.traces)))
      .num("stat.merge_s", l.stat_merge_s)
      .count("stat.merge_calls", l.merge_calls)
      .num("stat.wire_bytes_s", l.stat_wire_s)
      .count("stat.leaf_payload_bytes", l.leaf_payload_bytes)
      .count("stat.tree_nodes", l.tree_nodes)
      .num("stat.remap_s", l.stat_remap_s)
      .num("stat.classes_s", l.stat_classes_s)
      .count("stat.classes", l.classes)
      .num("checkpoint.encode_s",
           l.checkpoint_capture_s + l.checkpoint_probe_encode_s)
      .num("checkpoint.decode_s", l.checkpoint_decode_s)
      .count("checkpoint.bytes", l.checkpoint_bytes)
      .num("tbon.self_s", l.tbon_self_s)
      .count("tbon.messages", l.messages)
      .count("tbon.bytes", l.bytes)
      .num("tbon.cache_hit_ratio",
           ratio(static_cast<double>(l.cached_procs),
                 static_cast<double>(l.cached_procs + l.remerged_procs)))
      .num("tbon.changed_daemons_per_round",
           ratio(static_cast<double>(l.changed_daemons),
                 static_cast<double>(l.counted_rounds)))
      .count("sim.events", l.sim_events)
      .num("sim.events_per_s",
           ratio(static_cast<double>(l.sim_events), l.tbon_self_s))
      .num("net.graph_build_s", l.net_graph_s)
      .count("net.links_used", l.links_used)
      .num("plan.profile_s", l.plan_profile_s)
      .num("plan.search_s", l.plan_search_s);
  json.raw("layers", m.text())
      .num("run_path_self_s", l.run_path_self_s())
      .num("run_path_wall_s", l.run_path_wall_s);
}

double cache_hit_ratio(const plan::ProfileCacheCounters& before,
                       const plan::ProfileCacheCounters& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

/// One traced replay: its spans and its per-layer totals.
struct Traced {
  Tracer tracer;
  Layers layers;
};

/// Alternates untraced runs with kReplays traced replays, so coverage
/// compares the two at the same moment of a drifting host, and keeps the
/// replay whose run-path self time is the median: one noisy-neighbour burst
/// cannot move every layer of the report at once. `untraced_s` arrives
/// holding the first untraced run's seconds; `untraced()` times another.
template <typename Untraced, typename ReplayOnce>
std::unique_ptr<Traced> alternate_replays(std::vector<double>& untraced_s,
                                          const Untraced& untraced,
                                          const ReplayOnce& replay_once) {
  std::vector<std::unique_ptr<Traced>> replays;
  for (int i = 0; i < kReplays; ++i) {
    if (i > 0) untraced_s.push_back(untraced());
    replays.push_back(std::make_unique<Traced>());
    replay_once(replays.back()->tracer, replays.back()->layers);
  }
  std::sort(replays.begin(), replays.end(),
            [](const std::unique_ptr<Traced>& a,
               const std::unique_ptr<Traced>& b) {
              return a->layers.run_path_self_s() < b->layers.run_path_self_s();
            });
  return std::move(replays[replays.size() / 2]);
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int trace_single(std::string_view workload, std::uint64_t seed,
                 const std::string& out_path) {
  const Session session = *single_session(workload, seed);
  std::vector<std::string> failures;
  JsonObject json;
  json.str("mode", "trace").str("workload", std::string(workload)).count(
      "seed", seed);

  // The untraced reference run; a parallel workload also runs serially,
  // as the thread-determinism cross-check.
  plan::reset_profile_cache();
  const plan::ProfileCacheCounters before = plan::profile_cache_counters();
  const Reference ref = reference_run(session);
  const double hit_ratio =
      cache_hit_ratio(before, plan::profile_cache_counters());
  check_session("reference", ref.result, session.options, failures);
  if (session.options.exec_threads > 1) {
    Session serial = session;
    serial.options.exec_threads = 1;
    const Reference cross = reference_run(serial);
    if (cross.digest != ref.digest) {
      failures.push_back("digest at 1 thread differs from " +
                         std::to_string(session.options.exec_threads));
    }
    json.num("sim.exec_speedup_4t", cross.run_s / ref.run_s);
  }

  std::vector<double> untraced_s{ref.run_s};
  const auto untraced = [&]() {
    plan::reset_profile_cache();  // as cold as a fresh process
    const Reference again = reference_run(session);
    if (again.digest != ref.digest) {
      failures.push_back("untraced reruns disagree: " + again.digest);
    }
    return again.run_s;
  };
  const std::unique_ptr<Traced> traced = alternate_replays(
      untraced_s, untraced, [&](Tracer& tracer, Layers& layers) {
        const long root = tracer.open();
        const Clock::time_point begin = Clock::now();
        plan_probe(session, layers, tracer, root);
        Replay replay(tracer, layers,
                      std::max(1u, session.options.exec_threads));
        const Products products = replay.run(session, ref.spec, root);
        tracer.record(root, 0, std::string(workload), "replay", begin,
                      Clock::now(), 0);
        compare_products("replay", products, ref.tree_3d_wire,
                         ref.result.classes, failures);
        if (products.last_capture_bytes !=
            ref.result.phases.checkpoint_bytes) {
          failures.push_back(
              "replayed checkpoint is " +
              std::to_string(products.last_capture_bytes) +
              " bytes, the run's " +
              std::to_string(ref.result.phases.checkpoint_bytes));
        }
      });
  if (!out_path.empty() &&
      !write_file(out_path,
                  traced->tracer.chrome_json(std::string(workload)))) {
    failures.push_back("cannot write " + out_path);
  }

  emit_layers(json, traced->layers);
  json.num("plan.profile_cache_hit_ratio", hit_ratio)
      .count("service.sessions", 1)
      .count("service.backfilled", 0)
      .num("service.mean_queue_wait_s", 0.0)
      .raw("untraced_run_s", json_numbers(untraced_s))
      .str("digest", ref.digest)
      .count("failed", failures.empty() ? 0 : 1)
      .raw("failures", json_strings(failures));
  std::printf("%s\n", json.text().c_str());
  return 0;
}

int trace_service(std::uint64_t seed, const std::string& out_path) {
  std::vector<std::string> failures;
  JsonObject json;
  json.str("mode", "trace")
      .str("workload", std::string(kServiceWorkload))
      .count("seed", seed);

  plan::reset_profile_cache();
  ServiceSetup setup = setup_service(seed);
  const plan::ProfileCacheCounters before = plan::profile_cache_counters();
  const Clock::time_point t0 = Clock::now();
  const service::ServiceReport report = setup.scheduler->run();
  const double scheduler_s = seconds_since(t0);
  const double hit_ratio =
      cache_hit_ratio(before, plan::profile_cache_counters());
  const std::uint32_t failed =
      check_service(report, setup.trace.sessions, failures);

  // Solo reruns at each session's resolved spec, on a pool as wide as the
  // service's: what the sessions cost without the scheduler around them.
  double solo_s = 0.0;
  std::vector<Session> solos;
  {
    sim::Executor pool(kServiceThreads);
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
      const service::SessionStats& stats = report.sessions[i];
      if (!stats.admitted || !stats.status.is_ok()) continue;
      Session solo{setup.trace.config.machine, setup.trace.sessions[i].job,
                   setup.trace.sessions[i].options};
      solo.options.topology = stats.result.topology;
      solo.options.topology_auto = false;
      solo.options.fe_shards_auto = false;
      solo.options.fe_shards = 1;
      solo.options.reducer_placement = tbon::ReducerPlacement::kCommLike;
      stat::StatScenario scenario(solo.machine, solo.job, solo.options, &pool);
      const Clock::time_point s0 = Clock::now();
      const stat::StatRunResult result = scenario.run();
      solo_s += seconds_since(s0);
      if (!same_classes(result.classes, stats.result.classes)) {
        failures.push_back(stats.name + ": solo rerun classes differ");
      }
      solos.push_back(std::move(solo));
    }
  }

  // App models intern their frames in construction order, so a fresh model
  // names each session's frame ids for the comparison.
  std::vector<std::vector<std::uint8_t>> session_trees;
  for (std::size_t i = 0, solo = 0; i < report.sessions.size(); ++i) {
    const service::SessionStats& stats = report.sessions[i];
    if (!stats.admitted || !stats.status.is_ok()) continue;
    const Session& s = solos[solo++];
    session_trees.push_back(encode_tree(
        stats.result.tree_3d,
        stat::make_app_model(s.machine, s.job, s.options)->frames(),
        stats.result.layout.num_tasks));
  }

  std::vector<double> untraced_s{scheduler_s};
  const std::string digest = service_digest(report);
  const auto untraced = [&]() {
    plan::reset_profile_cache();  // as cold as a fresh process
    ServiceSetup again = setup_service(seed);
    const Clock::time_point begin = Clock::now();
    const service::ServiceReport rerun = again.scheduler->run();
    const double seconds = seconds_since(begin);
    if (service_digest(rerun) != digest) {
      failures.push_back("untraced service reruns disagree");
    }
    return seconds;
  };
  const std::unique_ptr<Traced> traced = alternate_replays(
      untraced_s, untraced, [&](Tracer& tracer, Layers& layers) {
        const long root = tracer.open();
        const Clock::time_point begin = Clock::now();
        // The planner probe prices the first urgent (auto-topology) session.
        const service::SessionRequest& first = setup.trace.sessions.front();
        plan_probe(
            Session{setup.trace.config.machine, first.job, first.options},
            layers, tracer, root);
        Replay replay(tracer, layers, kServiceThreads);
        std::size_t solo = 0;
        for (const service::SessionStats& stats : report.sessions) {
          if (!stats.admitted || !stats.status.is_ok()) continue;
          Scope span(tracer, root, stats.name, "service");
          const Products products =
              replay.run(solos[solo], solos[solo].options.topology, span.id());
          compare_products(stats.name, products, session_trees[solo],
                           stats.result.classes, failures);
          ++solo;
        }
        tracer.record(root, 0, std::string(kServiceWorkload), "replay", begin,
                      Clock::now(), 0);
      });
  if (!out_path.empty() &&
      !write_file(out_path,
                  traced->tracer.chrome_json(std::string(kServiceWorkload)))) {
    failures.push_back("cannot write " + out_path);
  }

  emit_layers(json, traced->layers);
  json.num("plan.profile_cache_hit_ratio", hit_ratio)
      .count("service.sessions", report.sessions.size())
      .count("service.backfilled", report.backfilled)
      .num("service.mean_queue_wait_s", report.mean_queue_wait_seconds)
      .raw("untraced_run_s", json_numbers(untraced_s))
      .num("solo_s", solo_s)
      .str("digest", digest)
      .count("failed", std::max<std::size_t>(failed, failures.empty() ? 0 : 1))
      .raw("failures", json_strings(failures));
  std::printf("%s\n", json.text().c_str());
  return 0;
}

// --- calib mode -------------------------------------------------------------

int calib_mode() {
  // A fixed dependent chain of integer hashing: no memory traffic, so it
  // tracks the core's speed alone.
  const Clock::time_point t0 = Clock::now();
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = 0; i < kCalibIterations; ++i) {
    h ^= i;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  const double elapsed = seconds_since(t0);
  JsonObject json;
  json.str("mode", "calib")
      .num("calib_s", elapsed)
      .str("sink", std::to_string(h % 1000))
      .str("build_type", PETASTAT_BENCH_BUILD_TYPE)
      .str("compiler", PETASTAT_BENCH_COMPILER)
      .count("hardware_threads", std::thread::hardware_concurrency());
  std::printf("%s\n", json.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: petastat_bench run <workload> [--seed N]\n"
               "       petastat_bench trace <workload> [--seed N] "
               "[--out PATH]\n"
               "       petastat_bench calib\n"
               "workloads: bgl208k_hier bgl208k_dense petascale_stream "
               "service_backfill\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  this_thread_tid();  // the main thread is tid 0 in traces
  if (argc < 2) return usage();
  const std::string_view mode = argv[1];
  if (mode == "calib") return calib_mode();
  if (argc < 3) return usage();
  const std::string_view workload = argv[2];
  std::uint64_t seed = kDefaultSeed;
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return usage();
    }
  }
  const bool known = workload == kServiceWorkload ||
                     single_session(workload, seed).has_value();
  if (!known) return usage();
  if (mode == "run") return run_mode(workload, seed);
  if (mode == "trace") {
    return workload == kServiceWorkload
               ? trace_service(seed, out_path)
               : trace_single(workload, seed, out_path);
  }
  return usage();
}
