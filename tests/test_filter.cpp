// Tests for the STAT filter's ReduceOps: merge semantics through the TBON
// plumbing, CPU accounting, and payload sizing; and for the grouped daemon
// fold against the per-trace reference.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "app/appmodel.hpp"
#include "app/trace_batch.hpp"
#include "stat/filter.hpp"
#include "stat/scenario.hpp"

namespace petastat::stat {
namespace {

struct FilterFixture : ::testing::Test {
  app::FrameTable frames;
  machine::MergeCosts costs;
  LabelContext ctx{1024};

  StatPayload<GlobalLabel> payload_for(std::uint32_t task) {
    StatPayload<GlobalLabel> payload;
    const auto path = frames.make_path({"_start", "main", "work"});
    payload.tree_2d.insert(path, GlobalLabel::for_task(task));
    payload.tree_3d.insert(path, GlobalLabel::for_task(task));
    return payload;
  }
};

TEST_F(FilterFixture, MergeIntoCombinesBothTrees) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> acc;
  SimTime cpu = 0;
  auto merge = [&](StatPayload<GlobalLabel>&& child) {
    cpu += ops.merge_cpu(child);
    ops.merge_into(acc, std::move(child));
  };
  merge(payload_for(1));
  merge(payload_for(2));
  EXPECT_EQ(acc.tree_2d.node_count(), 3u);
  EXPECT_EQ(acc.tree_3d.node_count(), 3u);
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->label.tasks.count(), 2u);
  EXPECT_GT(cpu, 0u);
}

TEST_F(FilterFixture, CpuCostScalesWithChildSize) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> small = payload_for(1);

  StatPayload<GlobalLabel> big;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto path = frames.make_path(
        {"_start", "main", "f" + std::to_string(i), "g" + std::to_string(i)});
    big.tree_3d.insert(path, GlobalLabel::for_task(i));
    big.tree_2d.insert(path, GlobalLabel::for_task(i));
  }

  const SimTime cpu_small = ops.merge_cpu(small);
  const SimTime cpu_big = ops.merge_cpu(big);
  EXPECT_GT(cpu_big, cpu_small * 5);
}

TEST_F(FilterFixture, CodecCostHasPerPacketFloor) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  EXPECT_GE(ops.codec_cost(0), costs.per_packet_cpu);
  EXPECT_GT(ops.codec_cost(1 << 20), ops.codec_cost(0));
}

TEST_F(FilterFixture, WireBytesReflectRepresentationAndJobSize) {
  auto payload = payload_for(1);
  const std::uint64_t at_1k = payload_wire_bytes(payload, frames, LabelContext{1024});
  const std::uint64_t at_208k =
      payload_wire_bytes(payload, frames, LabelContext{212992});
  // Dense labels: 3 edges x 2 trees x (job/8) bytes dominate.
  EXPECT_GT(at_208k, at_1k * 100);

  StatPayload<HierLabel> hier;
  const auto path = frames.make_path({"_start", "main", "work"});
  hier.tree_2d.insert(path, HierLabel::for_local(0, 1));
  hier.tree_3d.insert(path, HierLabel::for_local(0, 1));
  EXPECT_EQ(payload_wire_bytes(hier, frames, LabelContext{1024}),
            payload_wire_bytes(hier, frames, LabelContext{212992}));
}

TEST_F(FilterFixture, EmptyPayloadMergesAreHarmless) {
  auto ops = make_stat_reduce_ops<GlobalLabel>(costs, frames, ctx);
  StatPayload<GlobalLabel> acc = payload_for(3);
  ops.merge_into(acc, StatPayload<GlobalLabel>{});  // dead daemon
  EXPECT_EQ(acc.tree_3d.node_count(), 3u);
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  EXPECT_TRUE(start->label.tasks.contains(3));
}

TEST_F(FilterFixture, HierOpsConcatenateDaemonBlocks) {
  auto ops = make_stat_reduce_ops<HierLabel>(costs, frames, ctx);
  const auto path = frames.make_path({"_start", "main"});
  StatPayload<HierLabel> a, b, acc;
  a.tree_3d.insert(path, HierLabel::for_local(0, 5));
  b.tree_3d.insert(path, HierLabel::for_local(7, 2));
  ops.merge_into(acc, std::move(a));
  ops.merge_into(acc, std::move(b));
  const auto* start = acc.tree_3d.root().find_child(frames.intern("_start"));
  ASSERT_NE(start, nullptr);
  std::size_t blocks = 0;
  start->label.tasks.for_each_block(
      [&blocks](std::uint32_t, std::span<const std::uint32_t>) { ++blocks; });
  EXPECT_EQ(blocks, 2u);
  EXPECT_EQ(start->label.tasks.count(), 2u);
}

// --- The grouped fold (fold_batch) against per-trace insert_trace ----------

/// 4 daemons: three of 100 tasks (two bitmap words each) and a short one.
machine::DaemonLayout fold_layout() {
  return {.num_daemons = 4, .tasks_per_daemon = 100, .num_tasks = 390};
}

struct FoldModel {
  const char* name;
  std::function<std::unique_ptr<app::AppModel>(std::uint32_t tasks)> make;
};

std::vector<FoldModel> fold_models() {
  return {
      {"ring",
       [](std::uint32_t n) {
         app::RingHangOptions o;
         o.num_tasks = n;
         return std::make_unique<app::RingHangApp>(o);
       }},
      {"threaded_ring_x4",  // repeats a task within a sample
       [](std::uint32_t n) {
         app::ThreadedRingOptions o;
         o.ring.num_tasks = n;
         o.threads_per_task = 4;
         return std::make_unique<app::ThreadedRingApp>(o);
       }},
      {"io_stall",
       [](std::uint32_t n) {
         app::IoStallOptions o;
         o.num_tasks = n;
         o.aggregator_stride = 16;
         return std::make_unique<app::IoStallApp>(o);
       }},
      {"imbalance",
       [](std::uint32_t n) {
         app::ImbalanceOptions o;
         o.num_tasks = n;
         o.straggler_stride = 8;
         return std::make_unique<app::ImbalanceApp>(o);
       }},
      {"oom_cascade",
       [](std::uint32_t n) {
         app::OomCascadeOptions o;
         o.num_tasks = n;
         o.kill_sample = 3;
         return std::make_unique<app::OomCascadeApp>(o);
       }},
      {"statbench_300_classes",  // enough groups to rehash and probe
       [](std::uint32_t n) {
         app::StatBenchOptions o;
         o.num_tasks = n;
         o.num_classes = 300;
         return std::make_unique<app::StatBenchApp>(o);
       }},
  };
}

/// Daemon-local index -> global rank, as the walker's resolver.
using Resolver = std::function<TaskId(std::uint32_t daemon, std::uint32_t)>;

std::vector<std::pair<const char*, Resolver>> fold_resolvers(
    const machine::DaemonLayout& layout) {
  auto identity = std::make_shared<TaskMap>(TaskMap::identity(layout));
  auto shuffled = std::make_shared<TaskMap>(TaskMap::shuffled(layout, 11));
  return {
      {"identity",
       [identity](std::uint32_t d, std::uint32_t t) {
         return TaskId(identity->global_rank(d, t));
       }},
      {"shuffled",
       [shuffled](std::uint32_t d, std::uint32_t t) {
         return TaskId(shuffled->global_rank(d, t));
       }},
      {"reversed",  // not monotone in the local index
       [layout](std::uint32_t d, std::uint32_t t) {
         return TaskId(layout.first_task_of(DaemonId(d)) +
                       layout.tasks_of(DaemonId(d)) - 1 - t);
       }},
  };
}

/// The reference: one insert_trace per trace, walked in the same order
/// straight from the value form of AppModel::stack.
template <typename Leaf>
Leaf fold_per_trace(const app::AppModel& app, const Resolver& resolve,
                    std::uint32_t daemon, std::uint32_t locals,
                    std::uint32_t first_sample, std::uint32_t num_samples) {
  Leaf leaf;
  for (std::uint32_t s = first_sample; s < first_sample + num_samples; ++s) {
    for (std::uint32_t t = 0; t < locals; ++t) {
      const TaskId task = resolve(daemon, t);
      for (std::uint32_t th = 0; th < app.threads_per_task(); ++th) {
        insert_trace(leaf, app.stack(task, th, s), daemon, t, task, s);
      }
    }
  }
  return leaf;
}

template <typename Leaf>
Leaf fold_grouped(const app::AppModel& app, const Resolver& resolve,
                  std::uint32_t daemon, std::uint32_t locals,
                  std::uint32_t first_sample, std::uint32_t num_samples) {
  app::TraceBatch batch;
  batch.synthesize(app, locals, first_sample, num_samples,
                   [&](std::uint32_t t) { return resolve(daemon, t); });
  Leaf leaf;
  fold_batch(leaf, batch, daemon);
  return leaf;
}

template <typename Label>
void expect_grouped_fold_matches(const app::AppModel& app,
                                 const machine::DaemonLayout& layout,
                                 const Resolver& resolve) {
  const LabelContext ctx{layout.num_tasks};
  const app::FrameTable& frames = app.frames();
  StatPayload<Label> all_reference, all_grouped;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    SCOPED_TRACE("daemon " + std::to_string(d));
    const std::uint32_t locals = layout.tasks_of(DaemonId(d));
    // Classic: 10 samples into the 2D and 3D trees.
    const auto reference = fold_per_trace<StatPayload<Label>>(
        app, resolve, d, locals, 0, 10);
    const auto grouped =
        fold_grouped<StatPayload<Label>>(app, resolve, d, locals, 0, 10);
    EXPECT_TRUE(grouped.tree_2d == reference.tree_2d);
    EXPECT_TRUE(grouped.tree_3d == reference.tree_3d);
    EXPECT_EQ(payload_wire_bytes(grouped, frames, ctx),
              payload_wire_bytes(reference, frames, ctx));
    all_reference.merge(reference);
    all_grouped.merge(grouped);
    // Streaming: one sample per snapshot, sample 0 and a later one.
    for (const std::uint32_t sample : {0u, 7u}) {
      SCOPED_TRACE("snapshot of sample " + std::to_string(sample));
      const auto snap_reference = fold_per_trace<StreamSnapshot<Label>>(
          app, resolve, d, locals, sample, 1);
      const auto snap_grouped = fold_grouped<StreamSnapshot<Label>>(
          app, resolve, d, locals, sample, 1);
      EXPECT_TRUE(snap_grouped == snap_reference);
      EXPECT_EQ(snapshot_wire_bytes(snap_grouped, frames, ctx),
                snapshot_wire_bytes(snap_reference, frames, ctx));
    }
  }
  EXPECT_TRUE(all_grouped.tree_2d == all_reference.tree_2d);
  EXPECT_TRUE(all_grouped.tree_3d == all_reference.tree_3d);
}

TEST(GroupedFold, MatchesPerTraceInsertForEveryModelLabelAndResolver) {
  const machine::DaemonLayout layout = fold_layout();
  for (const FoldModel& model : fold_models()) {
    const auto app = model.make(layout.num_tasks);
    for (const auto& [resolver_name, resolve] : fold_resolvers(layout)) {
      SCOPED_TRACE(std::string(model.name) + " / " + resolver_name);
      expect_grouped_fold_matches<GlobalLabel>(*app, layout, resolve);
      expect_grouped_fold_matches<HierLabel>(*app, layout, resolve);
    }
  }
}

TEST(GroupedFold, GroupsEveryDistinctPathOnceInFirstAppearanceOrder) {
  // 1,000 distinct one-frame paths, each walked by locals g and g + 1000 in
  // sample 0 and by local g again in sample 1: the table rehashes many
  // times and probes past occupied slots.
  app::TraceBatch batch;
  for (std::uint32_t sample = 0; sample < 2; ++sample) {
    for (std::uint32_t local = 0; local < 2000; ++local) {
      if (sample == 1 && local >= 1000) break;
      const FrameId frame(local % 1000);
      batch.append(TaskId(local), local, sample, std::span(&frame, 1));
    }
  }
  PathGroups groups(batch);
  ASSERT_EQ(groups.size(), 1000u);
  for (std::uint32_t g = 0; g < 1000; ++g) {
    ASSERT_EQ(groups.path(g).size(), 1u);
    EXPECT_EQ(groups.path(g)[0], FrameId(g));
    EXPECT_EQ(groups.visits(g, PathGroups::Samples::kFirst), 2u);
    EXPECT_EQ(groups.visits(g, PathGroups::Samples::kAll), 3u);
    const HierLabel label =
        groups.hier_label(std::span(&g, 1), PathGroups::Samples::kAll, 5);
    const std::vector<std::uint32_t> bounds{g, g, g + 1000, g + 1000};
    EXPECT_EQ(label.tasks, HierTaskSet::block(5, bounds));
  }
}

// --- The trie build, case by case: hand-built passes -----------------------

/// A pass over hand-picked paths: trace (local, sample, path); the task is
/// `task_of(local)`.
struct HandPass {
  app::FrameTable frames;
  app::TraceBatch batch;
  std::function<TaskId(std::uint32_t local)> task_of = [](std::uint32_t t) {
    return TaskId(t);
  };

  void add(std::uint32_t local, std::uint32_t sample,
           std::initializer_list<std::string_view> names) {
    const app::CallPath path = frames.make_path(names);
    batch.append(task_of(local), local, sample, path);
  }
};

/// The per-trace reference for a hand-built batch, in batch order.
template <typename Leaf>
void fold_reference(Leaf& leaf, const app::TraceBatch& batch,
                    std::uint32_t daemon) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const app::TraceBatch::Trace& trace = batch.trace(i);
    const std::span<const FrameId> path = batch.path(i);
    insert_trace(leaf, app::CallPath(path.begin(), path.end()), daemon,
                 trace.local_index, trace.task, trace.sample);
  }
}

std::uint64_t fresh_nodes(const StatPayload<GlobalLabel>& p) {
  return p.tree_2d.node_count() + p.tree_3d.node_count();
}
std::uint64_t fresh_nodes(const StatPayload<HierLabel>& p) {
  return p.tree_2d.node_count() + p.tree_3d.node_count();
}
template <typename Label>
std::uint64_t fresh_nodes(const StreamSnapshot<Label>& s) {
  return s.tree.node_count();
}
template <typename Label>
bool same_trees(const StatPayload<Label>& a, const StatPayload<Label>& b) {
  return a.tree_2d == b.tree_2d && a.tree_3d == b.tree_3d;
}
template <typename Label>
bool same_trees(const StreamSnapshot<Label>& a, const StreamSnapshot<Label>& b) {
  return a == b;
}
template <typename Label>
std::uint64_t fresh_wire(const StatPayload<Label>& p,
                         const app::FrameTable& frames,
                         const LabelContext& ctx) {
  return payload_wire_bytes(p, frames, ctx);
}
template <typename Label>
std::uint64_t fresh_wire(const StreamSnapshot<Label>& s,
                         const app::FrameTable& frames,
                         const LabelContext& ctx) {
  return snapshot_wire_bytes(s, frames, ctx);
}

/// Folds `passes` one after another into one leaf of each type, grouped
/// and per trace, and checks trees, wire bytes and the carried node count.
template <typename Leaf>
void expect_passes_fold_like_reference(
    const std::vector<const HandPass*>& passes, std::uint32_t daemon,
    const LabelContext& ctx) {
  Leaf grouped, reference;
  for (const HandPass* pass : passes) {
    fold_batch(grouped, pass->batch, daemon);
    fold_reference(reference, pass->batch, daemon);
    EXPECT_TRUE(same_trees(grouped, reference));
    EXPECT_EQ(grouped.sizes.nodes, fresh_nodes(grouped));
    EXPECT_EQ(grouped.sizes.wire, CarriedSizes::kUnknown);
  }
  const app::FrameTable& frames = passes.back()->frames;  // every name
  EXPECT_EQ(fresh_wire(grouped, frames, ctx), fresh_wire(reference, frames, ctx));
}

template <typename Label>
void expect_pass_folds_like_reference(const HandPass& pass,
                                      std::uint32_t daemon = 3) {
  const LabelContext ctx{1024};
  expect_passes_fold_like_reference<StatPayload<Label>>({&pass}, daemon, ctx);
  expect_passes_fold_like_reference<StreamSnapshot<Label>>({&pass}, daemon,
                                                           ctx);
}

TEST(GroupedFold, PathThatIsAStrictPrefixOfAnother) {
  // "a b" ends where "a b c" and "a b d" continue, and "a" ends above them:
  // the shorter paths sort first and label the shared nodes without
  // adding children of their own.
  HandPass pass;
  pass.add(0, 0, {"a", "b", "c"});
  pass.add(1, 0, {"a", "b"});
  pass.add(2, 0, {"a"});
  pass.add(3, 0, {"a", "b", "d"});
  pass.add(1, 1, {"a", "b", "c"});
  pass.add(2, 1, {"a", "b"});
  expect_pass_folds_like_reference<GlobalLabel>(pass);
  expect_pass_folds_like_reference<HierLabel>(pass);

  StatPayload<HierLabel> payload;
  fold_batch(payload, pass.batch, 3);
  const auto& a = payload.tree_3d.root().children.at(0);
  ASSERT_EQ(a.children.size(), 1u);  // b
  EXPECT_EQ(a.label.visits, 6u);
  EXPECT_EQ(a.children[0].label.visits, 5u);
  EXPECT_EQ(a.children[0].children.size(), 2u);  // c, d
  EXPECT_EQ(a.children[0].children.capacity(), 2u);  // reserved exactly
}

TEST(GroupedFold, GroupAbsentFromSampleZero) {
  // "a x" is walked only in sample 1: the 3D tree holds it, the 2D tree
  // must not even hold the node.
  HandPass pass;
  pass.add(0, 0, {"a", "b"});
  pass.add(1, 0, {"a", "b"});
  pass.add(0, 1, {"a", "x"});
  pass.add(1, 1, {"a", "b"});
  expect_pass_folds_like_reference<GlobalLabel>(pass);
  expect_pass_folds_like_reference<HierLabel>(pass);

  StatPayload<GlobalLabel> payload;
  fold_batch(payload, pass.batch, 0);
  EXPECT_EQ(payload.tree_2d.node_count(), 2u);  // a, b
  EXPECT_EQ(payload.tree_3d.node_count(), 3u);  // a, b, x
}

TEST(GroupedFold, TwoPassesFoldIntoOneNonEmptyPayload) {
  // The second pass lands on existing nodes (merged labels), adds a child
  // under an existing node out of frame order, and starts a new branch.
  HandPass first;
  first.add(0, 0, {"main", "work", "mpi_wait"});
  first.add(1, 0, {"main", "work", "compute"});
  HandPass second;
  second.frames = first.frames;  // same ids for the shared names
  second.add(2, 1, {"main", "work", "compute"});
  second.add(3, 1, {"main", "work", "barrier"});
  second.add(0, 1, {"main", "io"});
  second.add(1, 1, {"_start"});
  const LabelContext ctx{1024};
  expect_passes_fold_like_reference<StatPayload<GlobalLabel>>(
      {&first, &second}, 5, ctx);
  expect_passes_fold_like_reference<StatPayload<HierLabel>>({&first, &second},
                                                            5, ctx);
  expect_passes_fold_like_reference<StreamSnapshot<HierLabel>>(
      {&first, &second}, 5, ctx);
  expect_passes_fold_like_reference<StreamSnapshot<GlobalLabel>>(
      {&first, &second}, 5, ctx);
}

TEST(GroupedFold, DenseLabelsWithANonMonotoneResolver) {
  // Locals 0..5 resolve to ranks 105, 104, ..., 100 (descending), and
  // locals 6, 7 to 40 and 300: one run of locals spans rank order both
  // ways, so the label must be sorted before it is built.
  HandPass pass;
  pass.task_of = [](std::uint32_t t) {
    return t < 6 ? TaskId(105 - t) : TaskId(t == 6 ? 40 : 300);
  };
  for (std::uint32_t local = 0; local < 8; ++local) {
    pass.add(local, 0, {"main", local % 2 == 0 ? "even" : "odd"});
  }
  expect_pass_folds_like_reference<GlobalLabel>(pass);

  StreamSnapshot<GlobalLabel> snapshot;
  fold_batch(snapshot, pass.batch, 0);
  const auto& main = snapshot.tree.root().children.at(0);
  const std::vector<TaskSet::Interval> expected{{40, 40}, {100, 105},
                                                {300, 300}};
  EXPECT_EQ(main.label.tasks.intervals(), expected);
  EXPECT_EQ(main.label.tasks.intervals().capacity(), 3u);  // exact size
  EXPECT_EQ(main.label.visits, 8u);
}

TEST(GroupedFold, CarriedSizesEqualFreshWalks) {
  HandPass pass;
  pass.add(0, 0, {"main", "work", "mpi_wait"});
  pass.add(1, 0, {"main", "work", "compute"});
  pass.add(1, 1, {"main", "io"});
  const LabelContext ctx{4096};
  app::FrameTable& frames = pass.frames;

  // fold_batch carries the node count; carry_sizes adds the wire bytes.
  StatPayload<HierLabel> payload;
  fold_batch(payload, pass.batch, 2);
  EXPECT_EQ(payload.sizes.nodes, fresh_nodes(payload));
  payload.carry_sizes(frames, ctx);
  EXPECT_EQ(payload.sizes.nodes, fresh_nodes(payload));
  EXPECT_EQ(payload.sizes.wire, payload_wire_bytes(payload, frames, ctx));
  EXPECT_EQ(carried_wire_bytes(payload, frames, ctx),
            payload_wire_bytes(payload, frames, ctx));

  // Every change through the payload clears them; node_count() and the
  // pricers then walk again.
  StatPayload<HierLabel> other;
  fold_batch(other, pass.batch, 7);
  other.carry_sizes(frames, ctx);
  payload.merge(other);
  EXPECT_EQ(payload.sizes.nodes, CarriedSizes::kUnknown);
  EXPECT_EQ(payload.sizes.wire, CarriedSizes::kUnknown);
  EXPECT_EQ(payload.node_count(), fresh_nodes(payload));
  payload.carry_sizes(frames, ctx);
  EXPECT_EQ(payload.sizes.wire, payload_wire_bytes(payload, frames, ctx));
  insert_trace(payload, frames.make_path({"main", "new"}), 9, 0, TaskId(0), 0);
  EXPECT_EQ(payload.sizes.nodes, CarriedSizes::kUnknown);
  EXPECT_EQ(payload.node_count(), fresh_nodes(payload));
  EXPECT_EQ(carried_wire_bytes(payload, frames, ctx),
            payload_wire_bytes(payload, frames, ctx));

  // The same for a snapshot, whose operator== ignores what it carries.
  StreamSnapshot<GlobalLabel> sized, unsized;
  fold_batch(sized, pass.batch, 2);
  fold_reference(unsized, pass.batch, 2);
  sized.carry_sizes(frames, ctx);
  EXPECT_EQ(sized.sizes.nodes, fresh_nodes(sized));
  EXPECT_EQ(sized.sizes.wire, snapshot_wire_bytes(sized, frames, ctx));
  EXPECT_EQ(unsized.sizes.wire, CarriedSizes::kUnknown);
  EXPECT_TRUE(sized == unsized);
  sized.merge(unsized);
  EXPECT_EQ(sized.sizes.wire, CarriedSizes::kUnknown);
  EXPECT_EQ(sized.node_count(), fresh_nodes(sized));

  // The engine's pricers agree with fresh walks whether or not a payload
  // carries its sizes.
  const machine::MergeCosts costs;
  const machine::StreamCosts stream;
  const auto ops = make_stream_ops<GlobalLabel>(costs, stream, frames, ctx);
  StreamSnapshot<GlobalLabel> carried = unsized;
  ops.base.carry_sizes(carried);
  EXPECT_EQ(ops.base.wire_bytes(carried), ops.base.wire_bytes(unsized));
  EXPECT_EQ(ops.base.merge_cpu(carried), ops.base.merge_cpu(unsized));
  EXPECT_EQ(ops.cached_merge_cpu(carried), ops.cached_merge_cpu(unsized));
  EXPECT_EQ(ops.signature_cpu(carried), ops.signature_cpu(unsized));
}

TEST(GroupedFold, WorkerSideFoldMatchesSerialScenario) {
  // The scenario's sampling sink folds on executor workers: 4 threads must
  // reproduce the serial run bit for bit (the TSan job runs this too).
  for (const TaskSetRepr repr :
       {TaskSetRepr::kDenseGlobal, TaskSetRepr::kHierarchical}) {
    const auto run = [repr](std::uint32_t threads) {
      StatOptions options;
      options.topology = tbon::TopologySpec::bgl(2);
      options.repr = repr;
      options.launcher = LauncherKind::kCiodPatched;
      options.app = AppKind::kThreadedRing;
      options.exec_threads = threads;
      machine::JobConfig job{.num_tasks = 4096,
                             .mode = machine::BglMode::kVirtualNode,
                             .threads_per_task = 4};
      return StatScenario(machine::bgl(), job, options).run();
    };
    const StatRunResult serial = run(1);
    const StatRunResult parallel = run(4);
    ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
    ASSERT_TRUE(parallel.status.is_ok()) << parallel.status.to_string();
    EXPECT_GT(serial.tree_3d.node_count(), 10u);  // ring and worker paths
    EXPECT_TRUE(serial.tree_2d == parallel.tree_2d);
    EXPECT_TRUE(serial.tree_3d == parallel.tree_3d);
    EXPECT_EQ(serial.phases.sample_time, parallel.phases.sample_time);
    EXPECT_EQ(serial.phases.merge_time, parallel.phases.merge_time);
    EXPECT_EQ(serial.phases.merge_bytes, parallel.phases.merge_bytes);
    EXPECT_EQ(serial.phases.leaf_payload_bytes,
              parallel.phases.leaf_payload_bytes);
  }
}

}  // namespace
}  // namespace petastat::stat
