#include "plan/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <unordered_map>

#include "app/appmodel.hpp"
#include "fs/filesystem.hpp"
#include "stat/filter.hpp"
#include "stat/hier_taskset.hpp"
#include "stat/prefix_tree.hpp"
#include "tbon/health.hpp"
#include "tbon/multicast.hpp"

namespace petastat::plan {

namespace {

/// Piecewise-linear interpolation over (probe_counts, values), extrapolated
/// beyond the last probe point with the final segment's slope (clamped to be
/// non-decreasing — payloads never shrink as a subtree grows).
double interpolate(const std::vector<std::uint32_t>& xs,
                   const std::vector<double>& ys, double x) {
  check(!xs.empty() && xs.size() == ys.size(), "malformed workload profile");
  if (x <= xs.front()) return ys.front();
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (x <= xs[i]) {
      const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + t * (ys[i] - ys[i - 1]);
    }
  }
  if (xs.size() == 1) return ys.back();
  const std::size_t n = xs.size();
  const double slope = std::max(
      0.0, (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2]));
  return ys.back() + slope * (x - xs.back());
}

/// Serialization seconds per (tree level, link device) of one priced round,
/// in one flat open-addressed table: charging a tree edge's hops allocates
/// nothing. Each device's seconds are summed in the order they are charged
/// (edge order), so every level's worst device is bit-for-bit what a
/// per-level map of sums gives — the maximum depends neither on iteration
/// order nor on where a key lands in the table. One table serves every
/// round a thread prices: reset() clears only the slots the last round
/// touched and grows the storage only when a round needs more room.
class LevelDeviceSeconds {
 public:
  /// Empties the table for a round over `depth` levels with room for
  /// `max_pairs` distinct (level, device) pairs at half load.
  void reset(std::uint32_t depth, std::size_t max_pairs) {
    check(depth < (1u << kLevelBits), "topology deeper than the level key");
    depth_ = depth;
    capacity_ = 16;
    while (capacity_ < 2 * max_pairs) capacity_ *= 2;
    if (capacity_ > keys_.size()) {
      keys_.assign(capacity_, kEmpty);
      seconds_.assign(capacity_, 0.0);
    } else {
      for (const std::size_t i : touched_) {
        keys_[i] = kEmpty;
        seconds_[i] = 0.0;
      }
    }
    touched_.clear();
  }

  void add(std::uint32_t level, std::uint64_t device, double s) {
    const std::uint64_t key = (device << kLevelBits) | level;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = ((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    while (keys_[i] != key && keys_[i] != kEmpty) i = (i + 1) & mask;
    if (keys_[i] == kEmpty) {
      check(2 * (touched_.size() + 1) <= capacity_,
            "more (level, device) pairs than the table was sized for");
      keys_[i] = key;
      touched_.push_back(i);
    }
    seconds_[i] += s;
  }

  /// The most-loaded device's seconds on each level (0 for a level no
  /// transfer crossed).
  [[nodiscard]] std::vector<double> worst_per_level() const {
    std::vector<double> worst(depth_, 0.0);
    for (const std::size_t i : touched_) {
      double& w = worst[keys_[i] & ((1u << kLevelBits) - 1)];
      w = std::max(w, seconds_[i]);
    }
    return worst;
  }

 private:
  static constexpr unsigned kLevelBits = 8;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::uint32_t depth_ = 0;
  std::size_t capacity_ = 0;  // this round's sizing, at most keys_.size()
  std::vector<std::uint64_t> keys_;
  std::vector<double> seconds_;
  std::vector<std::size_t> touched_;  // occupied slots, in insertion order
};

}  // namespace

double WorkloadProfile::payload_bytes_for(double daemons) const {
  return interpolate(probe_counts, merged_payload_bytes, daemons);
}

double WorkloadProfile::tree_nodes_for(double daemons) const {
  return interpolate(probe_counts, merged_tree_nodes, daemons);
}

namespace {

/// Synthesizes the first 1, 2, 4, 8 daemons' leaves (capped at the job
/// size) exactly as the scenario's sampling sinks would — enough to see
/// whether payloads grow with the subtree (hier) or saturate (dense).
template <typename Leaf>
void probe_leaves(const app::AppModel& app, const machine::DaemonLayout& layout,
                  const stat::TaskMap& task_map, std::uint32_t num_samples,
                  WorkloadProfile& profile) {
  const stat::LabelContext ctx{layout.num_tasks};
  const app::FrameTable& frames = app.frames();

  std::vector<std::uint32_t> ks;
  for (std::uint32_t k = 1; k <= layout.num_daemons && k <= 8; k *= 2) {
    ks.push_back(k);
  }
  if (ks.back() < layout.num_daemons && ks.back() < 8) {
    ks.push_back(layout.num_daemons);  // tiny jobs: probe everything
  }

  double frames_sum = 0.0;
  std::uint64_t traces = 0;
  double leaf_bytes_sum = 0.0;
  double leaf_nodes_sum = 0.0;
  Leaf merged;
  std::uint32_t merged_daemons = 0;
  app::TraceBatch batch;
  for (const std::uint32_t k : ks) {
    for (std::uint32_t d = merged_daemons; d < k; ++d) {
      batch.clear();
      batch.synthesize(app, layout.tasks_of(DaemonId(d)), 0, num_samples,
                       [&task_map, d](std::uint32_t t) {
                         return TaskId(task_map.global_rank(d, t));
                       });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        frames_sum += static_cast<double>(batch.path(i).size());
      }
      traces += batch.size();
      Leaf leaf;
      stat::fold_batch(leaf, batch, d);
      // A probe leaf carries no wire size: this is the fresh walk.
      leaf_bytes_sum +=
          static_cast<double>(stat::carried_wire_bytes(leaf, frames, ctx));
      leaf_nodes_sum += static_cast<double>(leaf.node_count());
      merged.merge(leaf);
    }
    merged_daemons = k;
    profile.probe_counts.push_back(k);
    profile.merged_payload_bytes.push_back(
        static_cast<double>(stat::carried_wire_bytes(merged, frames, ctx)));
    profile.merged_tree_nodes.push_back(
        static_cast<double>(merged.node_count()));
  }

  profile.avg_frames_per_trace =
      traces > 0 ? frames_sum / static_cast<double>(traces) : 0.0;
  profile.traces_per_daemon = traces / merged_daemons;
  profile.leaf_payload_bytes = leaf_bytes_sum / merged_daemons;
  profile.leaf_tree_nodes = leaf_nodes_sum / merged_daemons;
}

template <typename Label>
void probe_with_label(const app::AppModel& app,
                      const machine::DaemonLayout& layout,
                      const stat::TaskMap& task_map,
                      std::uint32_t num_samples, ProbeLeaf leaf,
                      WorkloadProfile& profile) {
  if (leaf == ProbeLeaf::kStreamSnapshot) {
    probe_leaves<stat::StreamSnapshot<Label>>(app, layout, task_map, 1,
                                              profile);
  } else {
    probe_leaves<stat::StatPayload<Label>>(app, layout, task_map, num_samples,
                                           profile);
  }
}

// --- Probe memoization -----------------------------------------------------
// One process-wide cache for both probe leaf types, keyed on every input
// that determines the synthesized traces. Deliberately global (see the
// profile_workload contract in the header): the probes are pure functions
// of the key, so caching them never couples co-resident sessions.

struct ProfileCache {
  std::mutex mu;
  std::unordered_map<std::string, WorkloadProfile> entries;
  ProfileCacheCounters counters;
};

ProfileCache& profile_cache() {
  static ProfileCache cache;
  return cache;
}

/// Everything the synthesized probe traces depend on: the leaf type, the app
/// model's inputs (kind, seed, evolution, binary layout, machine shape via
/// bgl_frames and the daemon layout), the task map, and the sampling window.
/// Login-tier capacity fields are deliberately absent — the service
/// scheduler prices sessions against contended "effective machines" that
/// differ only in those, and the probes are identical across them.
std::string profile_cache_key(ProbeLeaf leaf,
                              const machine::MachineConfig& machine,
                              const machine::JobConfig& job,
                              const stat::StatOptions& options) {
  std::string key(leaf == ProbeLeaf::kStreamSnapshot ? "stream" : "batched");
  key += '|';
  key += machine.name;
  const auto add = [&key](std::uint64_t v) {
    key += '|';
    key += std::to_string(v);
  };
  add(machine.compute_nodes);
  add(machine.cores_per_compute_node);
  add(static_cast<std::uint64_t>(machine.daemon_placement));
  add(machine.compute_nodes_per_io_node);
  add(machine.io_nodes);
  add(machine.static_binary ? 1 : 0);
  add(job.num_tasks);
  add(static_cast<std::uint64_t>(job.mode));
  add(job.threads_per_task);
  add(static_cast<std::uint64_t>(options.app));
  add(options.seed);
  add(options.num_samples);
  add(static_cast<std::uint64_t>(options.repr));
  add(options.shuffle_task_map ? 1 : 0);
  add(options.statbench_classes);
  add(options.slim_binaries ? 1 : 0);
  add(static_cast<std::uint64_t>(options.evolution));
  add(options.drift_period);
  return key;
}

}  // namespace

WorkloadProfile profile_workload(const machine::MachineConfig& machine,
                                 const machine::JobConfig& job,
                                 const machine::DaemonLayout& layout,
                                 const stat::StatOptions& options,
                                 ProbeLeaf leaf) {
  const std::string key = profile_cache_key(leaf, machine, job, options);
  ProfileCache& cache = profile_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      ++cache.counters.hits;
      return it->second;
    }
  }
  // Synthesize outside the lock: probes are deterministic, so a racing miss
  // on the same key just computes the same value twice.
  WorkloadProfile profile;
  const auto app = stat::make_app_model(machine, job, options);
  const stat::TaskMap task_map =
      options.shuffle_task_map ? stat::TaskMap::shuffled(layout, options.seed)
                               : stat::TaskMap::identity(layout);
  if (options.repr == stat::TaskSetRepr::kDenseGlobal) {
    probe_with_label<stat::GlobalLabel>(*app, layout, task_map,
                                        options.num_samples, leaf, profile);
  } else {
    probe_with_label<stat::HierLabel>(*app, layout, task_map,
                                      options.num_samples, leaf, profile);
  }
  for (const auto& image : app->binaries().images) {
    profile.symbol_image_bytes += image.bytes;
    if (image.path.rfind("/nfs", 0) == 0) {
      profile.shared_fs_image_bytes += image.bytes;
    }
  }
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.counters.misses;
  cache.entries.emplace(key, profile);
  return profile;
}

ProfileCacheCounters profile_cache_counters() {
  ProfileCache& cache = profile_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.counters;
}

void reset_profile_cache() {
  ProfileCache& cache = profile_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.counters = ProfileCacheCounters{};
}

// ---------------------------------------------------------------------------
// PhasePredictor

PhasePredictor::PhasePredictor(machine::MachineConfig machine,
                               machine::JobConfig job,
                               stat::StatOptions options,
                               machine::CostModel costs,
                               machine::DaemonLayout layout)
    : machine_(std::move(machine)),
      job_(job),
      options_(std::move(options)),
      costs_(costs),
      layout_(layout),
      graph_(net::build_switch_graph(machine_)),
      profile_(profile_workload(machine_, job_, layout_, options_)),
      stream_profile_(profile_workload(machine_, job_, layout_, options_,
                                       ProbeLeaf::kStreamSnapshot)) {
  // Fold the per-run connection override into the config (mirrors
  // StatScenario): the reducer-tree fan-in clamp in tbon::derive_levels and
  // every viability check must see the same limit, or the planner would
  // price trees the run then builds differently.
  if (options_.max_frontend_connections) {
    machine_.max_tool_connections = *options_.max_frontend_connections;
  }
}

Result<PhasePredictor> PhasePredictor::create(machine::MachineConfig machine,
                                              machine::JobConfig job,
                                              stat::StatOptions options,
                                              machine::CostModel costs) {
  auto layout = machine::layout_daemons(machine, job);
  if (!layout.is_ok()) return layout.status();
  return PhasePredictor(std::move(machine), job, std::move(options), costs,
                        layout.value());
}

SimTime PhasePredictor::predict_sampling() const {
  const machine::SamplingCosts& costs = costs_.sampling;
  const double contention =
      machine::expected_contention(costs, machine_.daemon_shares_cpu);

  const double walk_s =
      static_cast<double>(profile_.traces_per_daemon) *
      to_seconds(machine::stack_walk_cost(
          costs,
          static_cast<std::size_t>(
              std::llround(profile_.avg_frames_per_trace)))) *
      contention;
  const double parse_s =
      to_seconds(
          machine::symtab_parse_cost(costs, profile_.symbol_image_bytes)) *
      contention;

  // Coarse shared-FS model: every daemon pulls the shared images through the
  // server's aggregate bandwidth (mostly page-cache hits — all daemons read
  // the same binaries), taken from the same NfsParams the scenario mounts.
  // Lustre runs reuse the NFS aggregate as a stand-in; sampling is
  // topology-independent either way, so it never affects the ranking.
  const fs::NfsParams nfs = stat::shared_nfs_params(machine_);
  const double aggregate_bytes_per_sec =
      nfs.server_threads * nfs.cached_bytes_per_sec;
  const double io_s = static_cast<double>(profile_.shared_fs_image_bytes) *
                      layout_.num_daemons / aggregate_bytes_per_sec;

  return seconds(io_s + parse_s + walk_s);
}

Result<PhasePrediction> PhasePredictor::predict(
    const tbon::TopologySpec& spec) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();

  PhasePrediction p;
  p.num_comm_procs = topo.num_comm_procs();

  // --- Startup -------------------------------------------------------------
  // The run's own launch and connect formulas, noise-free: a doomed launcher
  // is priced at the time the run takes to surface its failure.
  const rm::LaunchReport launch =
      rm::launch(options_.launcher, machine_, costs_.launch,
                 rm::launch_request(machine_, layout_), std::nullopt);
  p.viability = launch.status;
  p.launch = launch.total();
  p.connect = tbon::connect_phase_time(topo, costs_.launch);
  p.startup = p.launch + p.connect;

  // --- Sampling ------------------------------------------------------------
  p.sampling = predict_sampling();

  // --- Merge ---------------------------------------------------------------
  // Connection-limit and receive-buffer viability (the Sec. V-A failures the
  // paper observed): the exact checks — and the exact limits, per-run
  // override included — the simulator runs, so the two can never disagree.
  if (p.viability.is_ok()) {
    p.viability = tbon::connection_viability(
        topo, options_.max_frontend_connections.value_or(
                  machine_.max_tool_connections));
  }
  if (p.viability.is_ok()) {
    const auto leaf_bytes =
        static_cast<std::uint64_t>(profile_.leaf_payload_bytes);
    p.viability = tbon::rx_buffer_viability(
        topo, costs_.merge.frontend_rx_buffer_bytes,
        [leaf_bytes](std::uint32_t) { return leaf_bytes; });
  }

  // The classic merge is the engine's all-changed round with no stream
  // charges (StreamOps built from a plain ReduceOps).
  p.merge = price_round(topo, std::vector<bool>(layout_.num_daemons, true),
                        /*stream=*/false, nullptr)
                .merge;

  if (options_.repr == stat::TaskSetRepr::kHierarchical) {
    p.remap = tbon::remap_time(costs_.merge, topo, layout_);
  }
  return p;
}

StreamSamplePrediction PhasePredictor::price_round(
    const tbon::TbonTopology& topo, const std::vector<bool>& daemon_changed,
    bool stream,
    std::unordered_map<std::uint64_t, LinkBytesPrediction>* links) const {
  const WorkloadProfile& profile = stream ? stream_profile_ : profile_;
  const std::uint64_t header_bytes = stream ? tbon::kDeltaHeaderBytes : 0;
  StreamSamplePrediction p;

  // Subtree coverage and dirtiness, bottom-up (children index after
  // parents). A proc is dirty — it re-merges and forwards its subtree
  // payload — exactly when some daemon under it changed.
  const std::size_t n = topo.procs.size();
  std::vector<double> daemons_under(n, 0.0);
  std::vector<bool> dirty(n, false);
  for (std::uint32_t d = 0; d < layout_.num_daemons; ++d) {
    if (!daemon_changed[d]) continue;
    dirty[topo.leaf_of_daemon[d]] = true;
    ++p.changed_daemons;
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto& proc = topo.procs[i];
    if (proc.is_leaf()) {
      daemons_under[i] = 1.0;
      continue;
    }
    for (const std::uint32_t c : proc.children) {
      daemons_under[i] += daemons_under[c];
      if (dirty[c]) dirty[i] = true;
    }
    if (dirty[i]) {
      ++p.remerged_procs;
    } else {
      ++p.cached_procs;
    }
  }

  const auto bytes_of = [&](std::size_t i) {
    return topo.procs[i].is_leaf() ? profile.leaf_payload_bytes
                                   : profile.payload_bytes_for(daemons_under[i]);
  };
  const auto nodes_of = [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        topo.procs[i].is_leaf() ? profile.leaf_tree_nodes
                                : profile.tree_nodes_for(daemons_under[i]));
  };

  // Level-by-level critical path of the round: within one level, each
  // parent's single core unpacks/merges its children serially, and every
  // link device a child's route crosses drains its serialization serially
  // (the Network's congestion mechanism — host access links subsume per-NIC
  // queueing, shared trunks add the wiring contention: two children behind
  // one oversubscribed uplink queue on it even when their parents differ).
  // Levels complete bottom-up.
  struct LevelCost {
    double worst_cpu_s = 0.0;
    double worst_latency_s = 0.0;
  };
  std::vector<LevelCost> levels(topo.depth);
  // A proc's access link is charged on at most two levels (as a child and
  // as a parent), and a trunk on at most every level.
  thread_local LevelDeviceSeconds device_s;
  device_s.reset(topo.depth, 2 * n + graph_.edges().size() * topo.depth);
  net::Route route;  // reused for every edge
  const double msg_overhead_s = to_seconds(graph_.per_message_overhead());
  const double ack_codec_s =
      to_seconds(machine::control_packet_cost(costs_.stream));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& parent = topo.procs[i];
    if (parent.children.empty()) continue;
    LevelCost& level = levels[parent.level];
    double cpu_s = 0.0;
    for (const std::uint32_t c : parent.children) {
      const auto payload_wire = static_cast<std::uint64_t>(bytes_of(c));
      const std::uint64_t wire =
          dirty[c] ? header_bytes + payload_wire : tbon::kDeltaAckBytes;
      if (dirty[c]) {
        cpu_s += to_seconds(machine::packet_codec_cost(costs_.merge, wire));
        cpu_s += to_seconds(machine::filter_merge_cost(
            costs_.merge, nodes_of(c), payload_wire));
      } else if (dirty[i]) {
        // A dirty parent handles the cheap acks while still waiting on its
        // changed children's payloads — off the critical path — and folds
        // the cached copies once all children are accounted for.
        cpu_s += to_seconds(machine::cached_merge_cost(
            costs_.merge, costs_.stream, nodes_of(c), payload_wire));
      } else {
        cpu_s += ack_codec_s;
      }
      p.delta_bytes += wire;
      net::route_between(graph_, topo.procs[c].host, parent.host, route);
      const double ser_s =
          static_cast<double>(wire) / net::bottleneck_rate(route);
      for (const net::RouteHop& hop : route) {
        device_s.add(parent.level, hop.device, ser_s);
        if (links != nullptr) {
          LinkBytesPrediction& entry = (*links)[hop.device];
          entry.device = hop.device;
          entry.bytes += static_cast<double>(wire);
          ++entry.messages;
        }
      }
      level.worst_latency_s =
          std::max(level.worst_latency_s,
                   to_seconds(net::route_latency(route)) + msg_overhead_s);
    }
    // A dirty proc packs its re-merged payload (the front end adds no
    // header); a clean one forwards an ack, and a clean front end answers
    // from its cache for free.
    if (dirty[i]) {
      const std::uint64_t header = parent.parent >= 0 ? header_bytes : 0;
      cpu_s += to_seconds(machine::packet_codec_cost(
          costs_.merge, header + static_cast<std::uint64_t>(bytes_of(i))));
    } else if (parent.parent >= 0) {
      cpu_s += ack_codec_s;
    }
    level.worst_cpu_s = std::max(level.worst_cpu_s, cpu_s);
  }

  // A stream's leaves hash their snapshots first; then the slowest leaf is
  // a changed one (its pack dwarfs an ack's) whenever any changed. Leaves
  // pack in parallel, then each level gates the next, its network side
  // bounded by the single most-contended link device.
  double merge_s = stream ? to_seconds(machine::signature_cost(
                                costs_.stream, static_cast<std::uint64_t>(
                                                   profile.leaf_tree_nodes)))
                          : 0.0;
  merge_s += p.changed_daemons > 0
                 ? to_seconds(machine::packet_codec_cost(
                       costs_.merge,
                       header_bytes + static_cast<std::uint64_t>(
                                          profile.leaf_payload_bytes)))
                 : ack_codec_s;
  const std::vector<double> worst_link_s = device_s.worst_per_level();
  for (std::size_t l = levels.size(); l-- > 0;) {
    const LevelCost& level = levels[l];
    merge_s += level.worst_latency_s +
               std::max(level.worst_cpu_s, worst_link_s[l]);
  }
  p.merge = seconds(merge_s);
  return p;
}

Result<std::vector<LinkBytesPrediction>>
PhasePredictor::predict_merge_link_bytes(const tbon::TopologySpec& spec) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec);
  if (!topo_result.is_ok()) return topo_result.status();

  // One upward transfer per tree edge — exactly the classic merge round's
  // traffic — charged to every device along the child->parent route, the
  // same walk Network::transfer reserves.
  std::unordered_map<std::uint64_t, LinkBytesPrediction> priced;
  (void)price_round(topo_result.value(),
                    std::vector<bool>(layout_.num_daemons, true),
                    /*stream=*/false, &priced);

  std::vector<LinkBytesPrediction> out;
  out.reserve(priced.size());
  for (auto& [device, entry] : priced) {
    entry.link = graph_.device_name(device);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const LinkBytesPrediction& a, const LinkBytesPrediction& b) {
              return a.device < b.device;
            });
  return out;
}

Result<RecoveryPrediction> PhasePredictor::predict_recovery(
    const tbon::TopologySpec& spec, SimTime ping_period) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();
  const std::uint32_t victim = tbon::default_victim(topo);

  RecoveryPrediction r;

  // One ping round trip: fan-out level by level (worst route latency plus the
  // busiest parent's serialized ping sends), echo gather symmetric.
  const double msg_overhead_s = to_seconds(graph_.per_message_overhead());
  std::vector<double> level_s(topo.depth, 0.0);
  net::Route route;  // reused for every edge
  for (const auto& parent : topo.procs) {
    if (parent.children.empty()) continue;
    double worst_link_s = 0.0;
    double nic_s = 0.0;
    for (const std::uint32_t c : parent.children) {
      net::route_between(graph_, parent.host, topo.procs[c].host, route);
      worst_link_s =
          std::max(worst_link_s,
                   to_seconds(net::route_latency(route)) + msg_overhead_s);
      nic_s += static_cast<double>(tbon::HealthMonitor::kPingBytes) /
               net::bottleneck_rate(route);
    }
    level_s[parent.level] = std::max(level_s[parent.level], worst_link_s + nic_s);
  }
  double round_trip_s = 0.0;
  for (const double s : level_s) round_trip_s += 2.0 * s;
  r.detection = machine::expected_detection_latency(ping_period,
                                                    seconds(round_trip_s));

  // The lost subtree: alive leaves under the victim re-send into the
  // victim's surviving non-leaf siblings (or straight into the parent).
  std::uint32_t orphans = 0;
  for (const std::uint32_t leaf : topo.leaf_of_daemon) {
    std::int32_t walk = static_cast<std::int32_t>(leaf);
    while (walk >= 0 && static_cast<std::uint32_t>(walk) != victim) {
      walk = topo.procs[static_cast<std::uint32_t>(walk)].parent;
    }
    if (walk >= 0 && static_cast<std::uint32_t>(walk) == victim) ++orphans;
  }
  if (topo.procs[victim].is_leaf()) orphans = 0;  // the leaf itself is lost
  std::uint32_t adopters = 0;
  if (topo.procs[victim].parent >= 0) {
    const auto& parent =
        topo.procs[static_cast<std::uint32_t>(topo.procs[victim].parent)];
    for (const std::uint32_t sibling : parent.children) {
      if (sibling != victim && !topo.procs[sibling].is_leaf()) ++adopters;
    }
  }
  if (adopters == 0) adopters = 1;  // the parent absorbs the orphans itself
  r.orphan_leaves = orphans;
  r.adopters = adopters;

  const auto leaf_bytes =
      static_cast<std::uint64_t>(profile_.leaf_payload_bytes);
  r.remerge = machine::subtree_remerge_cost(
      costs_.merge, orphans, adopters,
      static_cast<std::uint64_t>(profile_.leaf_tree_nodes), leaf_bytes);
  if (orphans > 0) {
    // The busiest adopter's NIC also drains its share of the re-sent
    // payloads (the CPU formula covers codec+merge only).
    const std::uint64_t busiest = (orphans + adopters - 1) / adopters;
    const double nic_s =
        static_cast<double>(busiest) * static_cast<double>(leaf_bytes) /
        net::transfer_rate(graph_, topo.procs[topo.leaf_of_daemon[0]].host,
                           topo.front_end().host);
    r.remerge += seconds(nic_s);
  }
  return r;
}

Result<StreamSamplePrediction> PhasePredictor::predict_stream_sample(
    const tbon::TopologySpec& spec,
    const std::vector<bool>& daemon_changed) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec);
  if (!topo_result.is_ok()) return topo_result.status();
  std::vector<bool> changed = daemon_changed;
  if (changed.empty()) changed.assign(layout_.num_daemons, true);
  if (changed.size() != layout_.num_daemons) {
    return invalid_argument(
        "changed mask covers " + std::to_string(changed.size()) +
        " daemons, job has " + std::to_string(layout_.num_daemons));
  }
  return price_round(topo_result.value(), changed, /*stream=*/true, nullptr);
}

}  // namespace petastat::plan
