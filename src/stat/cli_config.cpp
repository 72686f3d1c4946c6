#include "stat/cli_config.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

namespace petastat::stat {

namespace {

// Each read_* function stores the value it read in `field`, or returns
// INVALID_ARGUMENT and parse_cli drops the half-built config.

/// One flag occurrence: the flag as typed and its value ("" for a switch).
struct Arg {
  std::string_view flag;
  std::string_view text;
};

/// INVALID_ARGUMENT naming the flag, what it takes and the rejected text.
Status rejected(Arg arg, std::string_view expected) {
  return invalid_argument(std::string(arg.flag) + " expects " +
                          std::string(expected) + ", got '" +
                          std::string(arg.text) + "'");
}

/// One name a choice flag accepts and the value it stands for.
template <typename T>
using Choice = std::pair<std::string_view, T>;

/// Reads one of `choices` by exact name; the error lists every name.
template <typename T, std::size_t N, typename Field>
Status read_choice(Arg arg, const Choice<T> (&choices)[N], Field& field) {
  for (const auto& [name, value] : choices) {
    if (name == arg.text) {
      field = Field(value);
      return Status::ok();
    }
  }
  std::string names;
  for (const auto& choice : choices) names.append("|").append(choice.first);
  return rejected(arg, std::string_view(names).substr(1));
}

/// Reads a decimal integer in [lo, hi].
template <typename Field>
Status read_count(Arg arg, std::uint64_t lo, std::uint64_t hi, Field& field) {
  std::uint64_t value = 0;
  const char* end = arg.text.data() + arg.text.size();
  const auto [ptr, ec] = std::from_chars(arg.text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return rejected(arg, "an integer in " + std::to_string(lo) + ".." +
                             std::to_string(hi));
  }
  field = static_cast<Field>(value);
  return Status::ok();
}

/// Reads `N[:suffix]`: N in 1..10000 into `count`, and the text after the
/// first colon into `suffix` (untouched without a colon). A colon needs a
/// suffix.
template <typename Field>
Status read_count_and_suffix(Arg arg, std::string_view form, Field& count,
                             std::string& suffix) {
  const std::size_t colon = arg.text.find(':');
  if (colon != std::string_view::npos) {
    if (colon + 1 == arg.text.size()) return rejected(arg, form);
    suffix = std::string(arg.text.substr(colon + 1));
  }
  return read_count({arg.flag, arg.text.substr(0, colon)}, 1, 10000, count);
}

/// Reads a real number in [lo, hi] with std::stod; NaN fails both bounds.
Status read_real(Arg arg, double lo, double hi, std::string_view expected,
                 double& field) {
  try {
    const double value = std::stod(std::string(arg.text));
    if (value >= lo && value <= hi) {
      field = value;
      return Status::ok();
    }
  } catch (const std::exception&) {
  }
  return rejected(arg, expected);
}

/// Seconds that fit a SimTime (fits_sim_time).
Status read_seconds(Arg arg, double& field) {
  return read_real(arg, 0.0, kMaxSimSeconds, "seconds in 0..1.8e10", field);
}

Status read_path(Arg arg, std::string& field) {
  if (arg.text.empty()) return rejected(arg, "a file path");
  field = std::string(arg.text);
  return Status::ok();
}

/// The config under construction, plus what the rules applied after the
/// last flag need to know.
struct Parsing : CliConfig {
  bool launcher_named = false;
  bool app_named = false;
};

struct FlagSpec {
  std::string_view name;
  bool takes_value;
  Status (*apply)(Parsing&, Arg);
};

using machine::BglMode;
constexpr Choice<BglMode> kModes[] = {{"co", BglMode::kCoprocessor},
                                      {"vn", BglMode::kVirtualNode}};
using tbon::ReducerPlacement;
constexpr Choice<ReducerPlacement> kPlacements[] = {
    {"comm", ReducerPlacement::kCommLike}, {"pack", ReducerPlacement::kPack},
    {"spread", ReducerPlacement::kSpread}, {"route", ReducerPlacement::kRoute}};
constexpr Choice<TaskSetRepr> kReprs[] = {
    {"dense", TaskSetRepr::kDenseGlobal}, {"hier", TaskSetRepr::kHierarchical}};
constexpr Choice<LauncherKind> kLaunchers[] = {
    {"rsh", LauncherKind::kMrnetRsh},
    {"ssh", LauncherKind::kMrnetSsh},
    {"launchmon", LauncherKind::kLaunchMon},
    {"ciod", LauncherKind::kCiodPatched},
    {"ciod-unpatched", LauncherKind::kCiodUnpatched}};
using app::TraceEvolution;
constexpr Choice<TraceEvolution> kEvolutions[] = {
    {"jitter", TraceEvolution::kJitter}, {"drift", TraceEvolution::kDrift}};
constexpr Choice<SharedFsKind> kFileSystems[] = {
    {"nfs", SharedFsKind::kNfs}, {"lustre", SharedFsKind::kLustre}};
constexpr Choice<AppKind> kApps[] = {
    {"ring", AppKind::kRingHang},       {"threaded", AppKind::kThreadedRing},
    {"statbench", AppKind::kStatBench}, {"iostall", AppKind::kIoStall},
    {"imbalance", AppKind::kImbalance}, {"oomcascade", AppKind::kOomCascade}};
constexpr Choice<OutputFormat> kFormats[] = {{"text", OutputFormat::kText},
                                             {"csv", OutputFormat::kCsv},
                                             {"json", OutputFormat::kJson}};
constexpr Choice<std::string_view> kServicePolicies[] = {
    {"fifo", "fifo"}, {"backfill", "backfill"}};

// Every flag parse_cli accepts; cli_usage() documents each one.
constexpr FlagSpec kFlags[] = {
    {"--machine", true, [](Parsing& p, Arg a) -> Status {
       auto preset = machine::preset(a.text);
       if (!preset.is_ok()) {
         return invalid_argument(std::string(a.flag) + ": " +
                                 preset.status().message());
       }
       p.machine = std::move(preset).value();
       return Status::ok();
     }},
    {"--tasks", true,
     [](Parsing& p, Arg a) { return read_count(a, 1, 1ull << 31, p.job.num_tasks); }},
    {"--mode", true,
     [](Parsing& p, Arg a) { return read_choice(a, kModes, p.job.mode); }},
    {"--threads", true,
     [](Parsing& p, Arg a) { return read_count(a, 1, 256, p.job.threads_per_task); }},
    {"--topology", true, [](Parsing& p, Arg a) {
       static const Choice<std::optional<tbon::TopologySpec>> kTopologies[] = {
           {"flat", tbon::TopologySpec::flat()},
           {"2deep", tbon::TopologySpec::balanced(2)},
           {"3deep", tbon::TopologySpec::balanced(3)},
           {"bgl2deep", tbon::TopologySpec::bgl(2)},
           {"bgl3deep", tbon::TopologySpec::bgl(3)},
           {"auto", std::nullopt}};  // no spec: search for one
       std::optional<tbon::TopologySpec> spec;
       Status status = read_choice(a, kTopologies, spec);
       p.options.topology_auto = !spec;
       if (spec) p.options.topology = std::move(*spec);
       return status;
     }},
    {"--fe-shards", true, [](Parsing& p, Arg a) {
       p.options.fe_shards_auto = a.text == "auto";
       if (p.options.fe_shards_auto) return Status::ok();
       return read_count(a, 1, 64, p.options.fe_shards);
     }},
    {"--reducer-placement", true, [](Parsing& p, Arg a) {
       return read_choice(a, kPlacements, p.options.reducer_placement);
     }},
    {"--repr", true,
     [](Parsing& p, Arg a) { return read_choice(a, kReprs, p.options.repr); }},
    {"--launcher", true, [](Parsing& p, Arg a) {
       p.launcher_named = true;
       return read_choice(a, kLaunchers, p.options.launcher);
     }},
    {"--samples", true,
     [](Parsing& p, Arg a) { return read_count(a, 1, 1000, p.options.num_samples); }},
    {"--stream", true, [](Parsing& p, Arg a) {
       std::string interval;
       Status status = read_count_and_suffix(
           a, "N[:interval]", p.options.stream_samples, interval);
       if (!status.is_ok() || interval.empty()) return status;
       return read_seconds({a.flag, interval}, p.options.stream_interval_seconds);
     }},
    {"--stream-full-remerge", false,
     [](Parsing& p, Arg) { p.options.stream_full_remerge = true; return Status::ok(); }},
    {"--evolve", true, [](Parsing& p, Arg a) {
       return read_choice(a, kEvolutions, p.options.evolution);
     }},
    {"--fs", true, [](Parsing& p, Arg a) {
       return read_choice(a, kFileSystems, p.options.shared_fs);
     }},
    {"--sbrs", false,
     [](Parsing& p, Arg) { p.options.use_sbrs = true; return Status::ok(); }},
    {"--slim-binaries", false,
     [](Parsing& p, Arg) { p.options.slim_binaries = true; return Status::ok(); }},
    {"--app", true, [](Parsing& p, Arg a) {
       p.app_named = true;
       return read_choice(a, kApps, p.options.app);
     }},
    {"--fail-fraction", true, [](Parsing& p, Arg a) {
       return read_real(a, 0.0, 1.0, "a fraction in [0,1]",
                        p.options.daemon_failure_probability);
     }},
    {"--fail-at", true,
     [](Parsing& p, Arg a) { return read_seconds(a, p.options.fail_at_seconds); }},
    {"--ping-period", true, [](Parsing& p, Arg a) {
       // denorm_min is the least double above 0: the period is > 0.
       return read_real(a, std::numeric_limits<double>::denorm_min(),
                        kMaxSimSeconds, "seconds in (0,1.8e10]",
                        p.options.ping_period_seconds);
     }},
    {"--seed", true,
     [](Parsing& p, Arg a) { return read_count(a, 0, UINT64_MAX, p.options.seed); }},
    {"--exec-threads", true,
     [](Parsing& p, Arg a) { return read_count(a, 1, 256, p.options.exec_threads); }},
    {"--format", true,
     [](Parsing& p, Arg a) { return read_choice(a, kFormats, p.format); }},
    {"--print-tree", false,
     [](Parsing& p, Arg) { p.print_tree = true; return Status::ok(); }},
    {"--dot", true,
     [](Parsing& p, Arg a) { p.dot_path = a.text; return Status::ok(); }},
    {"--checkpoint-period", true, [](Parsing& p, Arg a) {
       return read_count_and_suffix(a, "N[:PATH]", p.options.checkpoint_period,
                                    p.checkpoint_path);
     }},
    {"--vacate-at", true, [](Parsing& p, Arg a) {
       return read_count_and_suffix(a, "R[:PATH]", p.options.vacate_at_round,
                                    p.checkpoint_path);
     }},
    {"--restore", true,
     [](Parsing& p, Arg a) { return read_path(a, p.restore_path); }},
    {"--service", true,
     [](Parsing& p, Arg a) { return read_path(a, p.service_trace_path); }},
    {"--service-policy", true, [](Parsing& p, Arg a) {
       return read_choice(a, kServicePolicies, p.service_policy);
     }},
};

}  // namespace

std::string cli_usage() {
  return
      "petastat — run the simulated Stack Trace Analysis Tool\n"
      "\n"
      "usage: petastat [flags]\n"
      "  --machine atlas|bgl|petascale   target platform (default atlas)\n"
      "  --tasks N                       MPI tasks (default 1024)\n"
      "  --mode co|vn                    BG/L execution mode (default co)\n"
      "  --threads N                     threads per task (default 1)\n"
      "  --topology flat|2deep|3deep|bgl2deep|bgl3deep|auto\n"
      "                                  auto searches the feasible spec space\n"
      "                                  for minimal predicted startup+merge\n"
      "  --fe-shards N|auto              shard the front-end merge across N\n"
      "                                  reducer processes (default 1 =\n"
      "                                  unsharded; N > 8 builds a reducer\n"
      "                                  tree); auto picks the predicted-\n"
      "                                  fastest K in {1,2,4,8,16,32,64}\n"
      "  --reducer-placement comm|pack|spread|route\n"
      "                                  host policy for reducers/combiners\n"
      "                                  (default comm = the machine's comm-\n"
      "                                  process rule; route greedily\n"
      "                                  minimizes max link load over the\n"
      "                                  switch graph; auto modes rank pack\n"
      "                                  vs spread vs route themselves)\n"
      "  --repr dense|hier               edge-label representation\n"
      "  --launcher rsh|ssh|launchmon|ciod|ciod-unpatched\n"
      "  --samples N                     traces per task (default 10)\n"
      "  --stream N[:interval]           streaming mode: N per-sample\n"
      "                                  incremental merge rounds, spaced\n"
      "                                  `interval` seconds apart (default\n"
      "                                  off; replaces --samples)\n"
      "  --stream-full-remerge           disable the streaming delta caches:\n"
      "                                  every round re-merges from scratch\n"
      "                                  (the bit-identity baseline)\n"
      "  --evolve jitter|drift           how traces evolve across samples\n"
      "                                  (default jitter; drift pins noise\n"
      "                                  and moves only scripted events)\n"
      "  --fs nfs|lustre                 shared file system\n"
      "  --sbrs                          relocate binaries to RAM disks\n"
      "  --slim-binaries                 post-OS-update library layout\n"
      "  --app ring|threaded|statbench|iostall|imbalance|oomcascade\n"
      "                                  target application model (oomcascade\n"
      "                                  also kills the victim rank's daemon)\n"
      "  --fail-fraction F               daemon failure probability\n"
      "  --fail-at S                     kill one merge proc S seconds into\n"
      "                                  the merge; the health monitor detects\n"
      "                                  it and re-merges the lost subtree\n"
      "  --ping-period S                 health-monitor ping-sweep period\n"
      "                                  (default 0.25; must be > 0)\n"
      "  --seed N                        run seed (default 2008)\n"
      "  --exec-threads N                execution-engine worker threads\n"
      "                                  (default 1 = serial; results are\n"
      "                                  bit-identical at any thread count)\n"
      "  --format text|csv|json          report format (default text)\n"
      "  --print-tree                    include the 3D tree in the report\n"
      "  --dot PATH                      write the 3D tree as Graphviz DOT\n"
      "  --checkpoint-period N[:PATH]    streaming runs only: capture a\n"
      "                                  resumable SessionCheckpoint every N\n"
      "                                  round boundaries; with :PATH the last\n"
      "                                  one is written to PATH\n"
      "  --vacate-at R[:PATH]            streaming runs only: checkpoint at\n"
      "                                  round boundary R, then vacate (a\n"
      "                                  simulated front-end loss); with :PATH\n"
      "                                  the checkpoint is written to PATH\n"
      "  --restore PATH                  resume a vacated run from the\n"
      "                                  SessionCheckpoint at PATH (same\n"
      "                                  machine/job/seed; auto modes may\n"
      "                                  re-shard against measured payloads)\n"
      "  --service PATH                  multi-session service mode: replay\n"
      "                                  the JSON arrival trace at PATH\n"
      "                                  through the session scheduler (other\n"
      "                                  scenario flags are ignored; --format\n"
      "                                  text|json selects the report)\n"
      "  --service-policy fifo|backfill  override the trace's scheduling\n"
      "                                  policy\n";
}

Result<CliConfig> parse_cli(std::span<const std::string_view> args) {
  Parsing parsing;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view flag = args[i];
    const FlagSpec* spec = std::ranges::find(kFlags, flag, &FlagSpec::name);
    if (spec == std::end(kFlags)) {
      return invalid_argument("unknown flag '" + std::string(flag) + "'");
    }
    if (spec->takes_value && ++i == args.size()) {
      return invalid_argument(std::string(flag) + " requires a value");
    }
    const std::string_view value = spec->takes_value ? args[i] : "";
    if (Status s = spec->apply(parsing, {flag, value}); !s.is_ok()) return s;
  }

  // More than one thread per task implies the threaded app, unless an app
  // was named.
  if (!parsing.app_named && parsing.job.threads_per_task > 1) {
    parsing.options.app = AppKind::kThreadedRing;
  }
  // Machine-appropriate launcher default: BG/L-style machines must use the
  // system launcher.
  if (!parsing.launcher_named && parsing.machine.daemon_placement ==
                                     machine::DaemonPlacement::kPerIoNode) {
    parsing.options.launcher = LauncherKind::kCiodPatched;
  }
  // Validate the job fits before the caller builds a scenario.
  if (auto layout = machine::layout_daemons(parsing.machine, parsing.job);
      !layout.is_ok()) {
    return layout.status();
  }
  return CliConfig(std::move(parsing));
}

}  // namespace petastat::stat
