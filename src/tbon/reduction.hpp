// Upstream reduction over a TbonTopology: the one merge engine behind both
// the classic batched merge phase and the --stream per-sample rounds.
//
// The reduction is the heart of STAT's merge phase: every leaf (daemon)
// packs its payload and sends it to its parent; each comm process merges
// child payloads *as they arrive* (MRNet filters are streaming) and forwards
// one merged payload upward; the front end's merged payload completes the
// round. Network transfers and per-proc CPU serialization are modelled with
// real contention: a comm process with 28 children unpacks/merges them one
// after another on its core, and its NIC drains them one after another.
//
// Rounds. run_round() merges one round of per-daemon payloads; a streaming
// run calls it once per sample, and start() is the classic merge — round 0
// of a one-round run. Each leaf compares its payload with the baseline it
// sent last round: an unchanged daemon acknowledges with a bare DeltaHeader
// (kDeltaAckBytes), a changed one sends its packed payload. Every internal
// proc caches the last payload of each child; a proc with a changed child is
// *dirty* — it merges the changed arrivals (codec + merge per arrival) plus
// its cached copies of the acknowledging children (StreamOps::
// cached_merge_cpu, no codec; priced once, when the payload is cached) and
// forwards the re-merged payload, while a proc whose children all
// acknowledged forwards an ack itself. Round 0 has no baseline, so every
// leaf is changed and every proc re-merges; that is the whole classic
// merge. The stream-only costs — the header bytes on each payload message
// and the per-round signature charge — come from the StreamOps, so an
// engine built from a plain ReduceOps moves and charges exactly the classic
// bytes and CPU. Baselines and child caches are kept only when a later
// round (run_round) or an armed kill (set_retain_payloads) will read them;
// start() without retention moves each payload straight through the tree.
//
// Because the prefix-tree merge is canonical (order-independent and
// associative), the round-k front-end payload is bit-identical to a
// from-scratch merge of the round-k leaf payloads — set_full_remerge(true)
// drives every round through the full path for exactly that comparison.
//
// Execution engine: the modelled CPU cost of a merge is a function of the
// incoming payload alone, so all virtual timestamps are fixed on the
// simulator thread at arrival — the *real* structural merge only has to be
// finished by the time the proc forwards its accumulator. With a parallel
// sim::Executor, each proc's merges run on a persistent per-proc strand
// (serialized in arrival order, exactly as the proc's single modelled core
// would) while independent sibling subtrees merge concurrently; the forward
// event wait()s on the strand before reading the accumulator. Timestamps,
// merge order, and therefore results are bit-identical to a serial run.
//
// Failure model: mark_dead(proc) takes effect at once — the proc drops every
// later arrival and never forwards, while its ancestors keep waiting on it.
// recover(proc), normally called from a HealthMonitor's detection callback,
// re-homes the orphaned leaves under the corpse round-robin
// onto the nearest alive ancestor's surviving non-leaf children (the
// ancestor itself when it has none) and re-sends their retained payloads
// there *in the current round*; an adopter that already forwarded is
// re-opened and forwards a supplement. Daemons under a dead leaf are lost.
// The re-homing is persistent and invalidates every cache it touches —
// adopted leaves resend full payloads and every proc whose contributing-
// child composition changed re-merges — so later rounds stay bit-identical
// to a from-scratch merge of the surviving daemons. All recovery timestamps
// are fixed on the simulator thread, so the determinism contract holds at
// any thread count.
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"
#include "tbon/multicast.hpp"
#include "tbon/topology.hpp"

namespace petastat::tbon {

template <typename Payload>
struct ReduceOps {
  /// Modelled CPU cost of merging `child` into an accumulator. Streaming
  /// filters charge per arrival, so the cost may depend only on the child —
  /// this is what lets the real merge run off the simulator thread.
  std::function<SimTime(const Payload& child)> merge_cpu;
  /// The real merge (acc starts default-constructed at every internal proc).
  std::function<void(Payload& acc, Payload&& child)> merge_into;
  /// Real serialized size of a payload.
  std::function<std::uint64_t(const Payload&)> wire_bytes;
  /// CPU to pack or unpack `bytes` of payload.
  std::function<SimTime(std::uint64_t bytes)> codec_cost;
  /// Optional: stores in a finished payload the sizes the hooks above read
  /// of it, so they read them instead of walking the payload again. Called
  /// on each changed leaf's payload as it is classified (on any executor
  /// thread) and on each proc's accumulator as it is packed.
  std::function<void(Payload&)> carry_sizes;
};

/// ReduceOps plus the streaming-only cost hooks. Built from a plain
/// ReduceOps it charges none of them: no signature CPU and no header bytes.
template <typename Payload>
struct StreamOps {
  StreamOps() = default;
  StreamOps(ReduceOps<Payload> ops)  // NOLINT(google-explicit-constructor)
      : base(std::move(ops)), header_bytes(0) {}

  ReduceOps<Payload> base;
  /// Daemon CPU to fold a snapshot into its class-signature hash — paid
  /// every round whether or not anything changed.
  std::function<SimTime(const Payload&)> signature_cpu;
  /// Proc CPU to re-merge one *cached* child payload (no unpack codec).
  /// Called once per cached arrival; the price is stored with the payload
  /// and charged on every later round the child acknowledges.
  std::function<SimTime(const Payload&)> cached_merge_cpu;
  /// CPU to encode or decode one bare-DeltaHeader ack. A control packet, not
  /// a payload: machine::control_packet_cost, an order of magnitude below
  /// the merge codec's per-packet charge — acks must not cost a clean
  /// subtree what payloads cost a changed one.
  SimTime ack_cpu = 0;
  /// Header bytes leading every upward payload message (the DeltaHeader).
  std::uint64_t header_bytes = kDeltaHeaderBytes;
};

/// What one round produced.
template <typename Payload>
struct StreamRoundResult {
  /// The front end's merged payload for this round (served from its cache
  /// when `changed` is false).
  Payload payload{};
  /// False when every subtree acknowledged and no payload moved to the FE.
  bool changed = true;
  SimTime finished_at = 0;
  /// Network traffic between the round's start and its completion.
  std::uint64_t bytes_moved = 0;
  std::uint64_t messages = 0;
  std::uint32_t changed_daemons = 0;
  std::uint32_t remerged_procs = 0;  // dirty non-leaf procs (incl. the FE)
  std::uint32_t cached_procs = 0;    // clean non-leaf procs (incl. the FE)
};

template <typename Payload>
using ReduceResult = StreamRoundResult<Payload>;

/// What recover() did for one dead proc.
struct RecoveryReport {
  /// False when there was nothing to do: the proc had already forwarded in a
  /// one-round merge (death after contribution is harmless) or it was the
  /// front end.
  bool acted = false;
  /// Daemons re-homed onto adopters (their retained payloads re-sent when
  /// the corpse died mid-round).
  std::uint32_t orphan_daemons = 0;
  /// Surviving procs the orphans were folded into.
  std::uint32_t adopters = 0;
  /// Daemons under the corpse whose data could not be recovered (their leaf
  /// proc died too, or retention was off).
  std::uint32_t lost_daemons = 0;
};

/// Runs reduction rounds over a topology. Leaf payloads are indexed by
/// daemon id; `done` fires at the front end's completion time. `executor`
/// may be null (serial); a parallel executor must outlive every round.
template <typename Payload>
class Reduction {
 public:
  Reduction(sim::Simulator& simulator, net::Network& network,
            const TbonTopology& topology, StreamOps<Payload> ops,
            sim::Executor* executor = nullptr)
      : sim_(simulator),
        net_(network),
        topo_(topology),
        ops_(std::move(ops)),
        executor_(executor) {
    const std::size_t n = topo_.procs.size();
    parent_of_.resize(n);
    children_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      parent_of_[i] = topo_.procs[i].parent;
      children_of_[i] = topo_.procs[i].children;
    }
    dead_.assign(n, false);
    recovered_.assign(n, false);
    last_contrib_.resize(n);
    caches_.resize(n);
    const std::size_t daemons = topo_.leaf_of_daemon.size();
    dead_daemons_.assign(daemons, false);
    last_payload_.resize(daemons);
    force_full_daemon_.assign(daemons, false);
  }

  Reduction(const Reduction&) = delete;
  Reduction& operator=(const Reduction&) = delete;
  /// A proc that died mid-round never waits out the merges queued on its
  /// strand; drain them before the ops they call go away.
  ~Reduction() {
    if (executor_ == nullptr) return;
    for (const ProcCache& cache : caches_) executor_->wait(cache.last_merge);
  }

  /// Daemons flagged here never send and are excluded from every pending
  /// count: a proc whose whole subtree is dead forwards nothing and its
  /// parent does not wait for it. Call before the first round. At least one
  /// daemon must stay alive.
  void set_dead_daemons(std::vector<bool> dead) {
    check(dead.empty() || dead.size() == topo_.leaf_of_daemon.size(),
          "Reduction dead-daemon mask size != daemon count");
    if (!dead.empty()) dead_daemons_ = std::move(dead);
  }

  /// Keep every leaf payload of a one-round merge so recover() can re-send
  /// orphaned shards. Costs one copy of each payload — enable only when
  /// failure injection is armed. Multi-round runs always retain.
  void set_retain_payloads(bool retain) { retain_ = retain; }

  /// Disable every cache: all daemons send full payloads, all procs
  /// re-merge, every round — the from-scratch baseline through the same
  /// code path, for bit-identity checks and the incremental-vs-full bench.
  void set_full_remerge(bool full) { full_remerge_ = full; }

  /// Injected dead daemons plus those lost to a failure (their leaf proc
  /// died), which count as dead from the moment the loss is recovered.
  [[nodiscard]] const std::vector<bool>& dead_daemons() const {
    return dead_daemons_;
  }

  /// Per daemon: the leaf holds a baseline payload for the delta protocol.
  /// Recorded into a SessionCheckpoint at round boundaries; a restored run
  /// starts cold (first resumed round is a full merge) so the bits document
  /// warmth, they are not replayed.
  [[nodiscard]] std::vector<bool> daemon_cache_valid() const {
    std::vector<bool> valid(last_payload_.size(), false);
    for (std::size_t d = 0; d < last_payload_.size(); ++d) {
      valid[d] = last_payload_[d] != nullptr;
    }
    return valid;
  }

  /// Per proc: every child that contributed last round has a cached payload
  /// (a clean round can be answered from cache). Leaves report false — they
  /// hold no child caches.
  [[nodiscard]] std::vector<bool> proc_cache_complete() const {
    std::vector<bool> complete(caches_.size(), false);
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      if (topo_.procs[i].is_leaf() || last_contrib_[i].empty()) continue;
      bool all = true;
      for (const std::uint32_t child : last_contrib_[i]) {
        if (caches_[i].by_child.count(child) == 0) {
          all = false;
          break;
        }
      }
      complete[i] = all;
    }
    return complete;
  }

  /// The classic merge: one round with no caches kept beyond it.
  void start(std::vector<Payload> leaf_payloads,
             std::function<void(ReduceResult<Payload>)> done) {
    one_round_ = true;
    run_round(0, std::move(leaf_payloads), std::move(done));
  }

  /// Runs one round over the per-daemon payloads (`cursor` names the
  /// sample). Rounds are strictly sequential — do not call again before
  /// `done`.
  void run_round(std::uint32_t /*cursor*/, std::vector<Payload> leaf_payloads,
                 std::function<void(StreamRoundResult<Payload>)> done) {
    check(leaf_payloads.size() == topo_.leaf_of_daemon.size(),
          "Reduction: payload count != daemon count");
    check(round_ == nullptr || round_->completed,
          "Reduction::run_round while a round is in flight");

    auto round = std::make_shared<Round>();
    round_ = round;
    round->done = std::move(done);
    round->bytes_at_start = net_.total_bytes_moved();
    round->messages_at_start = net_.total_messages();
    round->procs.resize(topo_.procs.size());
    for (std::uint32_t d = 0; d < topo_.leaf_of_daemon.size(); ++d) {
      if (!dead_daemons_[d]) {
        round->procs[topo_.leaf_of_daemon[d]].contributes = true;
      }
    }
    mark_contributing(*round, 0);
    check(round->procs[0].contributes,
          "Reduction: round with no reachable daemon");

    const bool threaded = executor_ != nullptr && executor_->parallel();
    for (std::size_t i = 0; i < topo_.procs.size(); ++i) {
      RoundProc& rp = round->procs[i];
      rp.cpu_free_at = sim_.now();
      rp.parent = parent_of_[i];
      if (!rp.contributes || topo_.procs[i].is_leaf()) continue;
      std::vector<std::uint32_t> contrib;
      for (const std::uint32_t child : children_of_[i]) {
        if (round->procs[child].contributes) contrib.push_back(child);
      }
      rp.pending = contrib.size();
      // A changed contributing-child composition (death, adoption) makes the
      // cached accumulator meaningless: force a full re-merge this round.
      if (full_remerge_ || contrib != last_contrib_[i]) rp.dirty = true;
      last_contrib_[i] = std::move(contrib);
      if (threaded && caches_[i].strand == nullptr) {
        caches_[i].strand = std::make_unique<sim::Executor::Strand>(*executor_);
      }
    }

    // Leaves hash their payloads and send deltas, in daemon order. Leaf
    // packing happens on the daemon's core in parallel across daemons. The
    // per-daemon work is classified off the simulator thread first; only
    // the scheduling runs here.
    const std::vector<LeafClass> leaves = classify_leaves(*round, leaf_payloads);
    bool any_unchanged = false;
    for (std::uint32_t d = 0; d < leaves.size(); ++d) {
      const LeafClass& leaf_class = leaves[d];
      if (!leaf_class.sends) continue;
      const std::uint32_t leaf = topo_.leaf_of_daemon[d];
      if (!leaf_class.changed) {
        any_unchanged = true;
        sim_.schedule_at(sim_.now() + leaf_class.sig + ops_.ack_cpu,
                         [this, round, leaf]() {
                           forward(round, leaf, nullptr, kDeltaAckBytes);
                         });
        continue;
      }
      force_full_daemon_[d] = false;
      ++round->changed_daemons;
      const std::uint64_t wire = leaf_class.wire;
      const SimTime packed_at =
          sim_.now() + leaf_class.sig + ops_.base.codec_cost(wire);
      auto owned = std::make_shared<Payload>(std::move(leaf_payloads[d]));
      if (retain_ || !one_round_) last_payload_[d] = owned;
      sim_.schedule_at(packed_at, [this, round, leaf, wire, owned]() {
        forward(round, leaf, outgoing(owned), wire);
      });
    }
    // What is left are the unchanged payloads, which their baselines stand
    // in for. With workers, one job frees them while this thread runs the
    // round; nothing waits on it, since nothing else reads them.
    if (any_unchanged && executor_ != nullptr && executor_->parallel()) {
      auto unchanged =
          std::make_shared<std::vector<Payload>>(std::move(leaf_payloads));
      (void)executor_->run([unchanged]() mutable { unchanged.reset(); });
    }
  }

  /// Marks a proc dead at the current virtual time: it drops every arrival
  /// from now on and never forwards. Detection is the health monitor's
  /// business; re-routing is recover()'s, called from its callback.
  void mark_dead(std::uint32_t proc_index) { dead_[proc_index] = true; }

  /// Re-homes the subtree orphaned by a dead proc (see the failure model
  /// above). When the corpse had not yet forwarded in the round in flight,
  /// the orphans' retained payloads are re-sent to the adopters now. No-op
  /// after the corpse forwarded in a one-round merge. Idempotent per proc.
  RecoveryReport recover(std::uint32_t proc_index) {
    RecoveryReport report;
    check(dead_[proc_index], "Reduction::recover on a live proc");
    if (recovered_[proc_index]) return report;
    const bool in_flight = round_ != nullptr && !round_->completed;
    const bool mid_round =
        in_flight && !round_->procs[proc_index].forwarded;
    if (!mid_round && one_round_) return report;
    if (parent_of_[proc_index] < 0) return report;  // FE: no recovery
    recovered_[proc_index] = true;

    // Nearest alive ancestor adopts; branch_child is its (dead) child on the
    // path down to the corpse, which will never deliver.
    std::uint32_t branch_child = proc_index;
    auto ancestor = static_cast<std::uint32_t>(parent_of_[proc_index]);
    while (dead_[ancestor] && parent_of_[ancestor] >= 0) {
      branch_child = ancestor;
      ancestor = static_cast<std::uint32_t>(parent_of_[ancestor]);
    }
    if (dead_[ancestor]) return report;  // dead all the way up
    report.acted = true;

    // Sort the corpse's daemons into recoverable orphans and lost ones.
    std::vector<std::uint32_t> orphans;
    for (std::uint32_t d = 0; d < topo_.leaf_of_daemon.size(); ++d) {
      if (dead_daemons_[d]) continue;
      const std::uint32_t leaf = topo_.leaf_of_daemon[d];
      if (!under(leaf, proc_index)) continue;
      if (dead_[leaf] || last_payload_[d] == nullptr) {
        dead_daemons_[d] = true;  // unreachable for every later round
        ++report.lost_daemons;
      } else {
        orphans.push_back(d);
      }
    }

    std::vector<std::uint32_t> adopters;
    if (!orphans.empty()) {
      for (const std::uint32_t child : children_of_[ancestor]) {
        if (child == branch_child) continue;
        if (topo_.procs[child].is_leaf()) continue;
        if (dead_[child]) continue;
        adopters.push_back(child);
      }
      if (adopters.empty()) adopters.push_back(ancestor);
      report.adopters = static_cast<std::uint32_t>(adopters.size());
      report.orphan_daemons = static_cast<std::uint32_t>(orphans.size());
    }
    if (mid_round) resend_orphans(ancestor, branch_child, orphans, adopters);

    // The re-homing outlives the round: the dead branch is detached (the
    // ancestor's composition check forces it dirty next round) and its
    // cached payload dropped; orphan leaves re-parent round-robin in daemon
    // order and resend full payloads, since the adopter's cache of them
    // holds at most this round's re-sent copy.
    detach_child(ancestor, branch_child);
    caches_[ancestor].by_child.erase(branch_child);
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      const std::uint32_t d = orphans[i];
      const std::uint32_t leaf = topo_.leaf_of_daemon[d];
      const std::uint32_t target = adopters[i % adopters.size()];
      detach_child(static_cast<std::uint32_t>(parent_of_[leaf]), leaf);
      parent_of_[leaf] = static_cast<std::int32_t>(target);
      children_of_[target].push_back(leaf);
      force_full_daemon_[d] = true;
    }
    return report;
  }

 private:
  /// A child's last payload and its re-merge price: the payload never
  /// changes while cached, so neither does its price.
  struct CachedChild {
    std::shared_ptr<const Payload> payload;
    SimTime merge_cpu = 0;
  };
  struct ProcCache {
    std::unordered_map<std::uint32_t, CachedChild> by_child;
    std::unique_ptr<sim::Executor::Strand> strand;  // parallel mode only
    sim::Executor::TaskRef last_merge;  // the strand's newest task
  };
  struct RoundProc {
    Payload acc{};
    std::size_t pending = 0;
    SimTime cpu_free_at = 0;
    std::int32_t parent = -1;  // this round's (recovery re-parents later ones)
    bool contributes = false;  // subtree holds at least one alive daemon
    bool dirty = false;
    bool forwarded = false;  // sent its (first) payload or ack up
    // Bumped when recovery re-opens the proc for orphan arrivals: forward
    // events capture the epoch they were scheduled under and abort when it
    // moved, so a chain in flight across a re-open cannot forward a stale
    // (or already-drained) accumulator a second time.
    std::uint32_t epoch = 0;
    // Children that acknowledged and are not yet folded into what the proc
    // forwarded.
    std::vector<std::uint32_t> acked;
  };
  struct Round {
    bool completed = false;
    std::vector<RoundProc> procs;
    std::uint64_t bytes_at_start = 0;
    std::uint64_t messages_at_start = 0;
    std::uint32_t changed_daemons = 0;
    std::uint32_t remerged_procs = 0;
    std::uint32_t cached_procs = 0;
    std::function<void(StreamRoundResult<Payload>)> done;
  };

  /// What a leaf does this round, decided before anything is scheduled.
  struct LeafClass {
    bool sends = false;  // alive, under a contributing leaf proc
    bool changed = false;
    SimTime sig = 0;         // the signature charge
    std::uint64_t wire = 0;  // a changed payload's message bytes
  };

  /// Classifies every daemon's leaf: its signature charge, the change test
  /// against its baseline, and a changed payload's carried sizes and wire
  /// bytes. The daemons are independent, so with a parallel executor the
  /// work runs in daemon-range chunks on the workers (the simulator thread
  /// takes the first); a chunk writes only its own daemons' entries and
  /// payloads, and nothing here schedules.
  [[nodiscard]] std::vector<LeafClass> classify_leaves(
      const Round& round, std::vector<Payload>& payloads) const {
    std::vector<LeafClass> leaves(payloads.size());
    const auto classify = [&](std::size_t begin, std::size_t end) {
      for (std::size_t d = begin; d < end; ++d) {
        if (dead_daemons_[d] ||
            !round.procs[topo_.leaf_of_daemon[d]].contributes) {
          continue;
        }
        LeafClass& leaf = leaves[d];
        Payload& payload = payloads[d];
        leaf.sends = true;
        leaf.sig = ops_.signature_cpu ? ops_.signature_cpu(payload) : 0;
        leaf.changed = changed(static_cast<std::uint32_t>(d), payload);
        if (!leaf.changed) continue;
        if (ops_.base.carry_sizes) ops_.base.carry_sizes(payload);
        leaf.wire = ops_.header_bytes + ops_.base.wire_bytes(payload);
      }
    };
    const std::size_t n = payloads.size();
    if (executor_ == nullptr || !executor_->parallel()) {
      classify(0, n);
      return leaves;
    }
    const std::size_t chunks =
        std::min<std::size_t>(n, executor_->thread_count());
    std::vector<sim::Executor::TaskRef> tasks;
    tasks.reserve(chunks);
    for (std::size_t c = 1; c < chunks; ++c) {
      tasks.push_back(executor_->run([&classify, c, chunks, n]() {
        classify(c * n / chunks, (c + 1) * n / chunks);
      }));
    }
    classify(0, n / chunks);
    for (const sim::Executor::TaskRef& task : tasks) executor_->wait(task);
    return leaves;
  }

  /// What a message carries of a retained payload. Multi-round receivers
  /// only read what they are sent, so the payload itself travels; the
  /// one-round receiver moves its arrivals into the merge, so a payload
  /// retained for recovery travels as a copy.
  [[nodiscard]] std::shared_ptr<Payload> outgoing(
      const std::shared_ptr<Payload>& payload) const {
    return one_round_ && retain_ ? std::make_shared<Payload>(*payload)
                                 : payload;
  }

  /// Whether daemon `d` must send `payload` in full this round.
  [[nodiscard]] bool changed(std::uint32_t d, const Payload& payload) const {
    if (full_remerge_ || force_full_daemon_[d] || last_payload_[d] == nullptr) {
      return true;
    }
    if constexpr (std::equality_comparable<Payload>) {
      return !(payload == *last_payload_[d]);
    } else {
      return true;
    }
  }

  /// The in-round half of recover(): the ancestor stops waiting on the dead
  /// branch, adopters re-open, and the orphan leaves re-pack their retained
  /// payloads and send them to the adopters round-robin in daemon order —
  /// deterministic at any thread count.
  void resend_orphans(std::uint32_t ancestor, std::uint32_t branch_child,
                      const std::vector<std::uint32_t>& orphans,
                      const std::vector<std::uint32_t>& adopters) {
    const std::shared_ptr<Round> round = round_;
    RoundProc& gs = round->procs[ancestor];
    const RoundProc& bs = round->procs[branch_child];
    const bool waiting = bs.contributes && !bs.forwarded;
    if (waiting) {
      check(gs.pending > 0, "Reduction::recover ancestor not waiting");
      --gs.pending;
      gs.dirty = true;  // its cached view still holds the dead branch
    }

    // Open the adopters up for the re-sent arrivals. An adopter that already
    // forwarded (or never counted) will produce a supplement payload the
    // ancestor is not yet waiting for.
    std::vector<std::size_t> extra(adopters.size(), 0);
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      ++extra[i % adopters.size()];
    }
    for (std::size_t a = 0; a < adopters.size(); ++a) {
      if (extra[a] == 0) continue;
      RoundProc& as = round->procs[adopters[a]];
      if (adopters[a] != ancestor && (as.forwarded || !as.contributes)) {
        ++gs.pending;
      }
      as.contributes = true;
      as.pending += extra[a];
      ++as.epoch;  // invalidate any forward chain scheduled before re-open
    }

    for (std::size_t i = 0; i < orphans.size(); ++i) {
      const std::uint32_t leaf = topo_.leaf_of_daemon[orphans[i]];
      const std::uint32_t target = adopters[i % adopters.size()];
      const std::shared_ptr<Payload> kept = last_payload_[orphans[i]];
      const std::uint64_t wire =
          ops_.header_bytes + ops_.base.wire_bytes(*kept);
      const SimTime packed_at = sim_.now() + ops_.base.codec_cost(wire);
      sim_.schedule_at(packed_at, [this, round, leaf, target, wire, kept]() {
        if (dead_[leaf]) return;
        send_to(round, leaf, target, outgoing(kept), wire, false);
      });
    }

    // All the corpse held may already be accounted for (or lost): the
    // ancestor might be complete right now.
    if (waiting && gs.pending == 0) finish(round, ancestor);
  }

  /// Computes RoundProc::contributes for the subtree rooted at proc_index
  /// (leaves are pre-marked from the daemon mask). A dead proc still counts
  /// until recovery detaches it: its ancestors cannot know it died.
  bool mark_contributing(Round& round, std::uint32_t proc_index) {
    bool contributes = round.procs[proc_index].contributes;
    for (const std::uint32_t child : children_of_[proc_index]) {
      if (mark_contributing(round, child)) contributes = true;
    }
    round.procs[proc_index].contributes = contributes;
    return contributes;
  }

  void detach_child(std::uint32_t parent, std::uint32_t child) {
    auto& kids = children_of_[parent];
    kids.erase(std::remove(kids.begin(), kids.end(), child), kids.end());
  }

  [[nodiscard]] bool under(std::uint32_t proc_index,
                           std::uint32_t ancestor) const {
    std::int32_t walk = static_cast<std::int32_t>(proc_index);
    while (walk >= 0) {
      if (static_cast<std::uint32_t>(walk) == ancestor) return true;
      walk = parent_of_[static_cast<std::uint32_t>(walk)];
    }
    return false;
  }

  /// Sends a proc's message up to this round's parent: its payload, or an
  /// ack when `payload` is null.
  void forward(const std::shared_ptr<Round>& round, std::uint32_t from,
               std::shared_ptr<Payload> payload, std::uint64_t wire) {
    if (dead_[from]) return;  // died between scheduling and the send event
    RoundProc& rp = round->procs[from];
    const bool supplement = rp.forwarded;
    rp.forwarded = true;
    if (payload == nullptr) rp.acked.clear();  // the parent's cache covers them
    send_to(round, from, static_cast<std::uint32_t>(rp.parent),
            std::move(payload), wire, supplement);
  }

  void send_to(const std::shared_ptr<Round>& round, std::uint32_t from,
               std::uint32_t target, std::shared_ptr<Payload> payload,
               std::uint64_t wire, bool supplement) {
    net_.transfer_async(
        topo_.procs[from].host, topo_.procs[target].host, wire,
        [this, round, target, from, wire, supplement,
         payload = std::move(payload)]() mutable {
          receive(round, target, from, std::move(payload), wire, supplement);
        });
  }

  /// One arrival: a payload, or an ack when `payload` is null.
  /// `supplement` marks a second payload from a child that already
  /// delivered this round (a re-opened adopter). It merges like any arrival
  /// but leaves the child's cache alone — the cache must keep describing
  /// what the child sent first, and recovery forces the child to resend in
  /// full next round.
  void receive(const std::shared_ptr<Round>& round, std::uint32_t proc_index,
               std::uint32_t from, std::shared_ptr<Payload> payload,
               std::uint64_t wire, bool supplement) {
    if (dead_[proc_index]) return;  // arrivals at a corpse vanish
    RoundProc& rp = round->procs[proc_index];
    check(rp.pending > 0, "Reduction::receive with no pending children");
    // The proc's single core unpacks and merges arrivals serially; all
    // timestamps are fixed here, before any real merge work runs.
    const SimTime cpu =
        payload == nullptr
            ? ops_.ack_cpu
            : ops_.base.codec_cost(wire) + ops_.base.merge_cpu(*payload);
    rp.cpu_free_at = std::max(sim_.now(), rp.cpu_free_at) + cpu;
    --rp.pending;
    if (payload == nullptr) {
      rp.acked.push_back(from);
    } else if (one_round_) {
      rp.dirty = true;
      merge_in(round, proc_index, [payload]() { return std::move(*payload); });
    } else {
      rp.dirty = true;
      std::shared_ptr<const Payload> kept = std::move(payload);
      if (!supplement) {
        const SimTime price =
            ops_.cached_merge_cpu ? ops_.cached_merge_cpu(*kept) : 0;
        caches_[proc_index].by_child[from] = {kept, price};
      }
      merge_in(round, proc_index, [kept]() { return Payload(*kept); });
    }
    if (rp.pending == 0) finish(round, proc_index);
  }

  /// Folds one child payload into the proc's accumulator: on its strand in
  /// parallel mode (arrival order), inline otherwise. `take` yields the
  /// payload to merge — on the worker, so a cached copy is made there too.
  template <typename Take>
  void merge_in(const std::shared_ptr<Round>& round, std::uint32_t proc_index,
                Take take) {
    ProcCache& cache = caches_[proc_index];
    if (cache.strand) {
      cache.last_merge = cache.strand->run(
          [this, round, proc_index, take = std::move(take)]() {
            ops_.base.merge_into(round->procs[proc_index].acc, take());
          });
    } else {
      ops_.base.merge_into(round->procs[proc_index].acc, take());
    }
  }

  /// All children accounted for. A dirty proc folds its cached copies of the
  /// acknowledged children (fixed child order), then packs and forwards the
  /// re-merged payload; a clean proc forwards an ack. The front end
  /// completes the round instead of forwarding. Every forward event
  /// re-checks pending *and* the epoch — recovery may re-open the proc for
  /// orphan arrivals in between, after which the drain back to zero pending
  /// runs finish() again and the earlier chain must die.
  void finish(const std::shared_ptr<Round>& round, std::uint32_t proc_index) {
    RoundProc& rp = round->procs[proc_index];
    const std::uint32_t epoch = rp.epoch;
    const auto live = [this, round, proc_index, epoch]() {
      const RoundProc& p = round->procs[proc_index];
      return !dead_[proc_index] && p.pending == 0 && p.epoch == epoch;
    };
    if (!rp.dirty) {
      ++round->cached_procs;
      if (rp.parent < 0) {
        complete(round, nullptr);
        return;
      }
      sim_.schedule_at(std::max(sim_.now(), rp.cpu_free_at) + ops_.ack_cpu,
                       [this, round, proc_index, live]() {
                         if (!live()) return;
                         forward(round, proc_index, nullptr, kDeltaAckBytes);
                       });
      return;
    }

    ++round->remerged_procs;
    for (const std::uint32_t child : last_contrib_[proc_index]) {
      if (std::find(rp.acked.begin(), rp.acked.end(), child) ==
          rp.acked.end()) {
        continue;  // this child's payload already merged on arrival
      }
      const CachedChild& cached = caches_[proc_index].by_child.at(child);
      rp.cpu_free_at =
          std::max(sim_.now(), rp.cpu_free_at) + cached.merge_cpu;
      merge_in(round, proc_index,
               [kept = cached.payload]() { return Payload(*kept); });
    }
    rp.acked.clear();
    // When the core frees up: collect the real accumulator (waiting out any
    // in-flight merge), pack it, then send it up — or complete the round at
    // the front end, which adds no header to its own pack.
    const auto pack = [this, round, proc_index, live]() {
      if (!live()) return;
      RoundProc& finished = round->procs[proc_index];
      if (executor_) executor_->wait(caches_[proc_index].last_merge);
      if (ops_.base.carry_sizes) ops_.base.carry_sizes(finished.acc);
      const std::uint64_t wire = ops_.base.wire_bytes(finished.acc) +
                                 (finished.parent < 0 ? 0 : ops_.header_bytes);
      const auto send = [this, round, proc_index, wire, live]() {
        if (!live()) return;
        RoundProc& ready = round->procs[proc_index];
        auto out = std::make_shared<Payload>(std::move(ready.acc));
        ready.acc = Payload{};
        if (ready.parent >= 0) {
          forward(round, proc_index, std::move(out), wire);
          return;
        }
        ready.forwarded = true;
        complete(round, std::move(out));
      };
      sim_.schedule_at(sim_.now() + ops_.base.codec_cost(wire), send);
    };
    sim_.schedule_at(std::max(sim_.now(), rp.cpu_free_at), pack);
  }

  /// Completes the round at the front end with its merged payload (null: a
  /// clean round, answered from the cached accumulator).
  void complete(const std::shared_ptr<Round>& round,
                std::shared_ptr<Payload> merged) {
    round->completed = true;
    StreamRoundResult<Payload> result;
    result.changed = merged != nullptr;
    if (merged != nullptr && one_round_) {
      result.payload = std::move(*merged);
    } else {
      if (merged != nullptr) {
        last_out_ = std::make_shared<const Payload>(std::move(*merged));
      }
      check(last_out_ != nullptr,
            "Reduction: clean round before any merged round");
      result.payload = Payload(*last_out_);
    }
    result.finished_at = sim_.now();
    result.bytes_moved = net_.total_bytes_moved() - round->bytes_at_start;
    result.messages = net_.total_messages() - round->messages_at_start;
    result.changed_daemons = round->changed_daemons;
    result.remerged_procs = round->remerged_procs;
    result.cached_procs = round->cached_procs;
    if (round->done) round->done(std::move(result));
  }

  sim::Simulator& sim_;
  net::Network& net_;
  const TbonTopology& topo_;
  StreamOps<Payload> ops_;
  sim::Executor* executor_;
  bool full_remerge_ = false;
  bool retain_ = false;
  bool one_round_ = false;  // start(): nothing outlives the round

  // Effective tree structure (recovery re-parents orphan leaves here).
  std::vector<std::int32_t> parent_of_;
  std::vector<std::vector<std::uint32_t>> children_of_;
  std::vector<bool> dead_;
  std::vector<bool> recovered_;
  std::vector<bool> dead_daemons_;  // injected dead + lost-to-failure

  // State surviving across rounds.
  std::vector<ProcCache> caches_;
  std::vector<std::vector<std::uint32_t>> last_contrib_;
  // By daemon; shared with messages and caches, so never mutated.
  std::vector<std::shared_ptr<Payload>> last_payload_;
  std::vector<bool> force_full_daemon_;
  std::shared_ptr<const Payload> last_out_;  // FE accumulator cache

  std::shared_ptr<Round> round_;
};

/// The streaming name for the same engine (rounds via run_round).
template <typename Payload>
using StreamingReduction = Reduction<Payload>;

}  // namespace petastat::tbon
