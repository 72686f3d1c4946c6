#include "stat/cli_config.hpp"

#include <charconv>

namespace petastat::stat {

namespace {

Status bad(std::string message) { return invalid_argument(std::move(message)); }

Result<std::uint64_t> parse_number(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return bad(std::string(flag) + " expects a number, got '" +
               std::string(text) + "'");
  }
  return value;
}

Result<double> parse_fraction(std::string_view flag, std::string_view text) {
  // from_chars(double) is not universally available; parse by hand.
  try {
    const double v = std::stod(std::string(text));
    if (!(v >= 0.0 && v <= 1.0)) {  // NaN fails both comparisons
      return bad(std::string(flag) + " must be in [0,1]");
    }
    return v;
  } catch (const std::exception&) {
    return bad(std::string(flag) + " expects a fraction, got '" +
               std::string(text) + "'");
  }
}

Result<double> parse_seconds(std::string_view flag, std::string_view text) {
  try {
    const double v = std::stod(std::string(text));
    if (!fits_sim_time(v)) {
      return bad(std::string(flag) + " must be a number of seconds in 0..1.8e10");
    }
    return v;
  } catch (const std::exception&) {
    return bad(std::string(flag) + " expects seconds, got '" +
               std::string(text) + "'");
  }
}

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
  CliConfig config;
  bool launcher_explicit = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view flag = args[i];
    const auto next = [&]() -> Result<std::string_view> {
      if (i + 1 >= args.size()) {
        return bad(std::string(flag) + " requires a value");
      }
      return args[++i];
    };

    if (flag == "--machine") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "atlas") {
        config.machine = machine::atlas();
      } else if (value.value() == "bgl") {
        config.machine = machine::bgl();
      } else if (value.value() == "petascale") {
        config.machine = machine::petascale();
      } else {
        return bad("unknown machine '" + std::string(value.value()) + "'");
      }
    } else if (flag == "--tasks") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto n = parse_number(flag, value.value());
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > (1ull << 31)) {
        return bad("--tasks out of range");
      }
      config.job.num_tasks = static_cast<std::uint32_t>(n.value());
    } else if (flag == "--mode") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "co") {
        config.job.mode = machine::BglMode::kCoprocessor;
      } else if (value.value() == "vn") {
        config.job.mode = machine::BglMode::kVirtualNode;
      } else {
        return bad("--mode expects co|vn");
      }
    } else if (flag == "--threads") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto n = parse_number(flag, value.value());
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > 256) return bad("--threads out of range");
      config.job.threads_per_task = static_cast<std::uint32_t>(n.value());
      if (n.value() > 1) config.options.app = AppKind::kThreadedRing;
    } else if (flag == "--topology") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      config.options.topology_auto = false;
      if (value.value() == "auto") {
        config.options.topology_auto = true;
      } else if (value.value() == "flat") {
        config.options.topology = tbon::TopologySpec::flat();
      } else if (value.value() == "2deep") {
        config.options.topology = tbon::TopologySpec::balanced(2);
      } else if (value.value() == "3deep") {
        config.options.topology = tbon::TopologySpec::balanced(3);
      } else if (value.value() == "bgl2deep") {
        config.options.topology = tbon::TopologySpec::bgl(2);
      } else if (value.value() == "bgl3deep") {
        config.options.topology = tbon::TopologySpec::bgl(3);
      } else {
        return bad("unknown topology '" + std::string(value.value()) + "'");
      }
    } else if (flag == "--fe-shards") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      config.options.fe_shards_auto = false;
      if (value.value() == "auto") {
        config.options.fe_shards_auto = true;
      } else {
        auto n = parse_number(flag, value.value());
        if (!n.is_ok()) return n.status();
        if (n.value() == 0) {
          return bad("--fe-shards 0 is invalid: use 1 for an unsharded "
                     "front end");
        }
        if (n.value() > 64) return bad("--fe-shards out of range");
        config.options.fe_shards = static_cast<std::uint32_t>(n.value());
      }
    } else if (flag == "--reducer-placement") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "comm") {
        config.options.reducer_placement = tbon::ReducerPlacement::kCommLike;
      } else if (value.value() == "pack") {
        config.options.reducer_placement = tbon::ReducerPlacement::kPack;
      } else if (value.value() == "spread") {
        config.options.reducer_placement = tbon::ReducerPlacement::kSpread;
      } else if (value.value() == "route") {
        config.options.reducer_placement = tbon::ReducerPlacement::kRoute;
      } else {
        return bad("--reducer-placement expects comm|pack|spread|route");
      }
    } else if (flag == "--repr") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "dense") {
        config.options.repr = TaskSetRepr::kDenseGlobal;
      } else if (value.value() == "hier") {
        config.options.repr = TaskSetRepr::kHierarchical;
      } else {
        return bad("--repr expects dense|hier");
      }
    } else if (flag == "--launcher") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      launcher_explicit = true;
      if (value.value() == "rsh") {
        config.options.launcher = LauncherKind::kMrnetRsh;
      } else if (value.value() == "ssh") {
        config.options.launcher = LauncherKind::kMrnetSsh;
      } else if (value.value() == "launchmon") {
        config.options.launcher = LauncherKind::kLaunchMon;
      } else if (value.value() == "ciod") {
        config.options.launcher = LauncherKind::kCiodPatched;
      } else if (value.value() == "ciod-unpatched") {
        config.options.launcher = LauncherKind::kCiodUnpatched;
      } else {
        return bad("unknown launcher '" + std::string(value.value()) + "'");
      }
    } else if (flag == "--samples") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto n = parse_number(flag, value.value());
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > 1000) return bad("--samples out of range");
      config.options.num_samples = static_cast<std::uint32_t>(n.value());
    } else if (flag == "--stream") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      std::string_view count_text = value.value();
      std::string_view interval_text;
      if (const auto colon = count_text.find(':');
          colon != std::string_view::npos) {
        interval_text = count_text.substr(colon + 1);
        count_text = count_text.substr(0, colon);
        if (interval_text.empty()) {
          return bad("--stream N:interval has an empty interval");
        }
      }
      auto n = parse_number(flag, count_text);
      if (!n.is_ok()) return n.status();
      if (n.value() == 0) {
        return bad("--stream 0 is invalid: omit the flag for the classic "
                   "batched pipeline");
      }
      if (n.value() > 10000) return bad("--stream out of range");
      config.options.stream_samples = static_cast<std::uint32_t>(n.value());
      if (!interval_text.empty()) {
        auto s = parse_seconds(flag, interval_text);
        if (!s.is_ok()) return s.status();
        config.options.stream_interval_seconds = s.value();
      }
    } else if (flag == "--stream-full-remerge") {
      config.options.stream_full_remerge = true;
    } else if (flag == "--evolve") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "jitter") {
        config.options.evolution = app::TraceEvolution::kJitter;
      } else if (value.value() == "drift") {
        config.options.evolution = app::TraceEvolution::kDrift;
      } else {
        return bad("--evolve expects jitter|drift");
      }
    } else if (flag == "--fs") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "nfs") {
        config.options.shared_fs = SharedFsKind::kNfs;
      } else if (value.value() == "lustre") {
        config.options.shared_fs = SharedFsKind::kLustre;
      } else {
        return bad("--fs expects nfs|lustre");
      }
    } else if (flag == "--sbrs") {
      config.options.use_sbrs = true;
    } else if (flag == "--slim-binaries") {
      config.options.slim_binaries = true;
    } else if (flag == "--app") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "ring") {
        config.options.app = AppKind::kRingHang;
      } else if (value.value() == "threaded") {
        config.options.app = AppKind::kThreadedRing;
      } else if (value.value() == "statbench") {
        config.options.app = AppKind::kStatBench;
      } else if (value.value() == "iostall") {
        config.options.app = AppKind::kIoStall;
      } else if (value.value() == "imbalance") {
        config.options.app = AppKind::kImbalance;
      } else if (value.value() == "oomcascade") {
        config.options.app = AppKind::kOomCascade;
      } else {
        return bad("unknown app '" + std::string(value.value()) + "'");
      }
    } else if (flag == "--fail-fraction") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto f = parse_fraction(flag, value.value());
      if (!f.is_ok()) return f.status();
      config.options.daemon_failure_probability = f.value();
    } else if (flag == "--fail-at") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto s = parse_seconds(flag, value.value());
      if (!s.is_ok()) return s.status();
      config.options.fail_at_seconds = s.value();
    } else if (flag == "--ping-period") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto s = parse_seconds(flag, value.value());
      if (!s.is_ok()) return s.status();
      if (s.value() <= 0.0) return bad("--ping-period must be > 0");
      config.options.ping_period_seconds = s.value();
    } else if (flag == "--seed") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto n = parse_number(flag, value.value());
      if (!n.is_ok()) return n.status();
      config.options.seed = n.value();
    } else if (flag == "--exec-threads") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      auto n = parse_number(flag, value.value());
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > 256) {
        return bad("--exec-threads out of range");
      }
      config.options.exec_threads = static_cast<std::uint32_t>(n.value());
    } else if (flag == "--format") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() == "text") {
        config.format = OutputFormat::kText;
      } else if (value.value() == "csv") {
        config.format = OutputFormat::kCsv;
      } else if (value.value() == "json") {
        config.format = OutputFormat::kJson;
      } else {
        return bad("--format expects text|csv|json");
      }
    } else if (flag == "--print-tree") {
      config.print_tree = true;
    } else if (flag == "--dot") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      config.dot_path = std::string(value.value());
    } else if (flag == "--checkpoint-period") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      std::string_view count_text = value.value();
      std::string_view path_text;
      if (const auto colon = count_text.find(':');
          colon != std::string_view::npos) {
        path_text = count_text.substr(colon + 1);
        count_text = count_text.substr(0, colon);
        if (path_text.empty()) {
          return bad("--checkpoint-period N:PATH has an empty path");
        }
      }
      auto n = parse_number(flag, count_text);
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > 10000) {
        return bad("--checkpoint-period out of range");
      }
      config.options.checkpoint_period = static_cast<std::uint32_t>(n.value());
      if (!path_text.empty()) config.checkpoint_path = std::string(path_text);
    } else if (flag == "--vacate-at") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      std::string_view round_text = value.value();
      std::string_view path_text;
      if (const auto colon = round_text.find(':');
          colon != std::string_view::npos) {
        path_text = round_text.substr(colon + 1);
        round_text = round_text.substr(0, colon);
        if (path_text.empty()) {
          return bad("--vacate-at R:PATH has an empty path");
        }
      }
      auto n = parse_number(flag, round_text);
      if (!n.is_ok()) return n.status();
      if (n.value() == 0 || n.value() > 10000) {
        return bad("--vacate-at out of range (interior round boundaries "
                   "start at 1)");
      }
      config.options.vacate_at_round = static_cast<std::int32_t>(n.value());
      if (!path_text.empty()) config.checkpoint_path = std::string(path_text);
    } else if (flag == "--restore") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value().empty()) {
        return bad("--restore expects a checkpoint file path");
      }
      config.restore_path = std::string(value.value());
    } else if (flag == "--service") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value().empty()) {
        return bad("--service expects a trace file path");
      }
      config.service_trace_path = std::string(value.value());
    } else if (flag == "--service-policy") {
      auto value = next();
      if (!value.is_ok()) return value.status();
      if (value.value() != "fifo" && value.value() != "backfill") {
        return bad("--service-policy expects fifo|backfill");
      }
      config.service_policy = std::string(value.value());
    } else {
      return bad("unknown flag '" + std::string(flag) + "'");
    }
  }

  // Machine-appropriate launcher default: BG/L-style machines must use the
  // system launcher.
  if (!launcher_explicit &&
      config.machine.daemon_placement == machine::DaemonPlacement::kPerIoNode) {
    config.options.launcher = LauncherKind::kCiodPatched;
  }
  // Validate the job fits before the caller builds a scenario.
  if (auto layout = machine::layout_daemons(config.machine, config.job);
      !layout.is_ok()) {
    return layout.status();
  }
  return config;
}

}  // namespace petastat::stat
