// Unit tests for the application models: frame interning, the ring-hang
// ground truth, the threaded variant, and the STATBench-style generator.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "app/appmodel.hpp"

namespace petastat::app {
namespace {

TEST(FrameTable, InternIsIdempotent) {
  FrameTable frames;
  const FrameId a = frames.intern("main");
  const FrameId b = frames.intern("main");
  const FrameId c = frames.intern("PMPI_Barrier");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames.name(a), "main");
}

TEST(FrameTable, RenderJoinsWithAngleBracket) {
  FrameTable frames;
  const CallPath path = frames.make_path({"_start", "main", "foo"});
  EXPECT_EQ(frames.render(path), "_start<main<foo");
}

TEST(FrameTable, UnknownIdThrows) {
  FrameTable frames;
  EXPECT_THROW((void)frames.name(FrameId(3)), std::logic_error);
  EXPECT_THROW((void)frames.name(FrameId::invalid()), std::logic_error);
}

struct RingFixture : ::testing::Test {
  RingHangApp make(std::uint32_t tasks, bool bgl = true,
                   std::uint64_t seed = 1) {
    RingHangOptions options;
    options.num_tasks = tasks;
    options.bgl_frames = bgl;
    options.seed = seed;
    return RingHangApp(options);
  }
};

TEST_F(RingFixture, TaskOneHangsBeforeSend) {
  auto app = make(1024);
  const auto path = app.stack(TaskId(1), 0, 0);
  EXPECT_EQ(app.frames().render(path),
            "_start_blrts<main<do_SendOrStall<__gettimeofday");
}

TEST_F(RingFixture, TaskTwoBlocksInWaitall) {
  auto app = make(1024);
  const auto rendered = app.frames().render(app.stack(TaskId(2), 0, 0));
  EXPECT_NE(rendered.find("PMPI_Waitall"), std::string::npos);
  EXPECT_NE(rendered.find("MPID_Progress_wait"), std::string::npos);
}

TEST_F(RingFixture, OtherTasksReachTheBarrier) {
  auto app = make(1024);
  for (const std::uint32_t t : {0u, 3u, 500u, 1023u}) {
    const auto rendered = app.frames().render(app.stack(TaskId(t), 0, 2));
    EXPECT_NE(rendered.find("PMPI_Barrier"), std::string::npos) << t;
    EXPECT_NE(rendered.find("BGLML_pollfcn"), std::string::npos) << t;
  }
}

TEST_F(RingFixture, DeterministicInTaskThreadSample) {
  auto app = make(512);
  auto app2 = make(512);
  for (std::uint32_t t = 0; t < 512; t += 37) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(app.stack(TaskId(t), 0, s), app2.stack(TaskId(t), 0, s));
    }
  }
}

TEST_F(RingFixture, SamplesVaryOverTime) {
  auto app = make(1024);
  // The progress-engine depth varies across samples for at least some tasks.
  int varied = 0;
  for (std::uint32_t t = 3; t < 103; ++t) {
    if (app.stack(TaskId(t), 0, 0) != app.stack(TaskId(t), 0, 1)) ++varied;
  }
  EXPECT_GT(varied, 10);
}

TEST_F(RingFixture, FrameNamesFollowPlatform) {
  auto bgl_app = make(16, /*bgl=*/true);
  auto linux_app = make(16, /*bgl=*/false);
  EXPECT_EQ(bgl_app.frames().render(bgl_app.stack(TaskId(0), 0, 0)).substr(0, 12),
            "_start_blrts");
  EXPECT_EQ(linux_app.frames().render(linux_app.stack(TaskId(0), 0, 0))
                .substr(0, 7),
            "_start<");
}

TEST_F(RingFixture, RejectsTinyJobs) {
  RingHangOptions options;
  options.num_tasks = 2;
  EXPECT_THROW(RingHangApp{options}, std::logic_error);
}

TEST(ThreadedRing, ThreadZeroIsTheMpiThread) {
  ThreadedRingOptions options;
  options.ring.num_tasks = 64;
  options.threads_per_task = 4;
  ThreadedRingApp app(options);
  EXPECT_EQ(app.threads_per_task(), 4u);
  const auto rendered = app.frames().render(app.stack(TaskId(1), 0, 0));
  EXPECT_NE(rendered.find("do_SendOrStall"), std::string::npos);
}

TEST(ThreadedRing, WorkerThreadsRunComputeKernels) {
  ThreadedRingOptions options;
  options.ring.num_tasks = 64;
  options.threads_per_task = 4;
  ThreadedRingApp app(options);
  for (std::uint32_t th = 1; th < 4; ++th) {
    const auto rendered = app.frames().render(app.stack(TaskId(5), th, 0));
    EXPECT_NE(rendered.find("compute_kernel"), std::string::npos);
    EXPECT_EQ(rendered.find("PMPI"), std::string::npos);
  }
}

TEST(ThreadedRing, SharesOneFrameTable) {
  ThreadedRingOptions options;
  options.ring.num_tasks = 64;
  options.threads_per_task = 2;
  ThreadedRingApp app(options);
  const auto mpi = app.stack(TaskId(3), 0, 0);
  const auto worker = app.stack(TaskId(3), 1, 0);
  // Both paths must render through the same table without throwing.
  EXPECT_FALSE(app.frames().render(mpi).empty());
  EXPECT_FALSE(app.frames().render(worker).empty());
}

TEST(StatBench, ClassCountRespected) {
  StatBenchOptions options;
  options.num_tasks = 2048;
  options.num_classes = 24;
  StatBenchApp app(options);
  std::map<std::uint32_t, std::uint32_t> histogram;
  for (std::uint32_t t = 0; t < 2048; ++t) ++histogram[app.class_of(TaskId(t))];
  EXPECT_LE(histogram.size(), 24u);
  EXPECT_GE(histogram.size(), 20u);  // nearly all classes populated
  // Skewed: the largest class dominates the smallest.
  std::uint32_t largest = 0, smallest = UINT32_MAX;
  for (const auto& [cls, n] : histogram) {
    largest = std::max(largest, n);
    smallest = std::min(smallest, n);
  }
  EXPECT_GT(largest, smallest * 4);
}

TEST(StatBench, StacksMostlyFollowTheClassPath) {
  StatBenchOptions options;
  options.num_tasks = 256;
  options.num_classes = 8;
  StatBenchApp app(options);
  int wandered = 0;
  for (std::uint32_t t = 0; t < 256; ++t) {
    const auto base = app.stack(TaskId(t), 0, 0);
    const auto later = app.stack(TaskId(t), 0, 5);
    if (base != later) ++wandered;
  }
  // ~5% wander per sample pair (both draws can differ).
  EXPECT_LT(wandered, 50);
}

TEST(StatBench, PathsShareRootPrefix) {
  StatBenchOptions options;
  options.num_tasks = 128;
  options.num_classes = 10;
  StatBenchApp app(options);
  for (std::uint32_t t = 0; t < 128; t += 11) {
    const auto path = app.stack(TaskId(t), 0, 0);
    ASSERT_GE(path.size(), 3u);
    EXPECT_EQ(app.frames().name(path[0]), "_start");
    EXPECT_EQ(app.frames().name(path[1]), "main");
  }
}

TEST(Binaries, DynamicLayoutMatchesPaper) {
  const auto full = ring_binaries_dynamic("/nfs/home/user", /*slim=*/false);
  const auto slim = ring_binaries_dynamic("/nfs/home/user", /*slim=*/true);
  // The two main binaries of Fig. 10: 10 KB exe + 4 MB MPI lib.
  EXPECT_EQ(full.images[0].bytes, 10u * 1024);
  EXPECT_EQ(full.images[1].bytes, 4u * 1024 * 1024);
  // Slim keeps only those two on the shared FS.
  std::uint64_t slim_shared = 0, full_shared = 0;
  for (const auto& image : slim.images) {
    if (image.path.starts_with("/nfs")) slim_shared += image.bytes;
  }
  for (const auto& image : full.images) {
    if (image.path.starts_with("/nfs")) full_shared += image.bytes;
  }
  EXPECT_EQ(slim_shared, 10u * 1024 + 4u * 1024 * 1024);
  EXPECT_GT(full_shared, slim_shared * 3);  // the ~4x OS-update effect
}

TEST(Evolution, JitterStaysTheDefaultAndWigglesTraces) {
  // The historical behaviour the batched pipeline depends on: fresh noise
  // per sample, so some barrier task's trace differs between samples.
  EXPECT_EQ(RingHangOptions{}.evolution, TraceEvolution::kJitter);
  EXPECT_EQ(ImbalanceOptions{}.evolution, TraceEvolution::kJitter);
  EXPECT_EQ(IoStallOptions{}.evolution, TraceEvolution::kJitter);
  EXPECT_EQ(OomCascadeOptions{}.evolution, TraceEvolution::kJitter);

  RingHangOptions options;
  options.num_tasks = 64;
  const RingHangApp ring(options);
  bool any_changed = false;
  for (std::uint32_t t = 3; t < 64 && !any_changed; ++t) {
    any_changed = ring.stack(TaskId(t), 0, 0) != ring.stack(TaskId(t), 0, 1);
  }
  EXPECT_TRUE(any_changed);
}

TEST(Evolution, DriftFreezesEveryTraceWithoutAScriptedEvent) {
  // kDrift pins the noise streams: with no hang onset, no straggler step,
  // nothing changes between consecutive samples — the streaming mode's
  // "unchanged subtrees really are unchanged" guarantee.
  ImbalanceOptions options;
  options.num_tasks = 256;
  options.evolution = TraceEvolution::kDrift;
  const ImbalanceApp app(options);
  for (std::uint32_t t = 0; t < 256; ++t) {
    for (std::uint32_t s = 1; s < 6; ++s) {
      if (app.drifts_at(TaskId(t), s)) continue;
      EXPECT_EQ(app.stack(TaskId(t), 0, s), app.stack(TaskId(t), 0, s - 1))
          << "task " << t << " sample " << s;
    }
  }
}

TEST(Evolution, DriftMovesExactlyTheScriptedBandEachSample) {
  // 256 tasks in blocks of 32 over period 8: block b holds phase b, so at
  // sample s exactly the stragglers of the phase (period - s mod period)
  // band move — one contiguous block per sample.
  ImbalanceOptions options;
  options.num_tasks = 256;
  options.straggler_stride = 32;
  options.drift_block = 32;
  options.drift_period = 8;
  options.evolution = TraceEvolution::kDrift;
  const ImbalanceApp app(options);

  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(app.drift_phase(TaskId(b * 32)), b);
    EXPECT_EQ(app.drift_phase(TaskId(b * 32 + 31)), b);
  }

  for (std::uint32_t s = 1; s < 10; ++s) {
    std::vector<std::uint32_t> moved;
    for (std::uint32_t t = 0; t < 256; ++t) {
      const bool drifted =
          app.stack(TaskId(t), 0, s) != app.stack(TaskId(t), 0, s - 1);
      EXPECT_EQ(drifted, app.drifts_at(TaskId(t), s))
          << "task " << t << " sample " << s;
      if (drifted) moved.push_back(t);
    }
    // Exactly one straggler (stride 32 in a 32-task block) moves per
    // sample, and nothing moves at sample 0 by definition.
    ASSERT_EQ(moved.size(), 1u) << "sample " << s;
    EXPECT_EQ(app.drift_phase(TaskId(moved[0])),
              (8 - s % 8) % 8);
  }
}

TEST(Evolution, HangOnsetFlipsTheRingSignatureAtTheScriptedSample) {
  RingHangOptions options;
  options.num_tasks = 64;
  options.evolution = TraceEvolution::kDrift;
  options.hang_onset_sample = 3;
  const RingHangApp ring(options);

  // Before the onset tasks 1 and 2 sit in the barrier; at the onset they
  // flip to the hang signature and stay there — one change, at sample 3.
  for (const std::uint32_t task : {1u, 2u}) {
    const auto before = ring.stack(TaskId(task), 0, 0);
    const auto after = ring.stack(TaskId(task), 0, 3);
    EXPECT_NE(before, after);
    EXPECT_EQ(ring.stack(TaskId(task), 0, 2), before);
    EXPECT_EQ(ring.stack(TaskId(task), 0, 5), after);
  }
  // Bystanders never change under drift.
  EXPECT_EQ(ring.stack(TaskId(7), 0, 0), ring.stack(TaskId(7), 0, 5));
}

TEST(Evolution, OomCascadeFrontAdvancesUnderDrift) {
  OomCascadeOptions options;
  options.num_tasks = 128;
  options.victim_task = TaskId(64);
  options.kill_sample = 2;
  options.neighbour_radius = 4;
  options.evolution = TraceEvolution::kDrift;
  const OomCascadeApp app(options);

  // A neighbour keeps its healthy trace until its distance-dependent onset,
  // then flips to the inherited-traffic signature.
  const TaskId neighbour(66);  // distance 2 -> onset = kill + (2+1)/2 = 3
  ASSERT_TRUE(app.is_neighbour(neighbour));
  const std::uint32_t onset = app.cascade_onset(neighbour);
  EXPECT_EQ(onset, 3u);
  EXPECT_EQ(app.stack(neighbour, 0, onset - 1),
            app.stack(neighbour, 0, 0));
  EXPECT_NE(app.stack(neighbour, 0, onset), app.stack(neighbour, 0, 0));
  // The victim's allocation spiral deepens every sample up to the kill.
  EXPECT_NE(app.stack(TaskId(64), 0, 0), app.stack(TaskId(64), 0, 1));
}

TEST(StackInto, ReusedBufferWithStaleFramesEqualsStack) {
  // Every model writes its whole path into the buffer, whatever it held:
  // a daemon reuses one buffer for every trace of its pass.
  std::vector<std::unique_ptr<AppModel>> models;
  RingHangOptions ring;
  ring.num_tasks = 256;
  models.push_back(std::make_unique<RingHangApp>(ring));
  ThreadedRingOptions threaded;
  threaded.ring = ring;
  threaded.threads_per_task = 4;
  models.push_back(std::make_unique<ThreadedRingApp>(threaded));
  IoStallOptions io;
  io.num_tasks = 256;
  io.aggregator_stride = 16;
  models.push_back(std::make_unique<IoStallApp>(io));
  ImbalanceOptions imbalance;
  imbalance.num_tasks = 256;
  imbalance.straggler_stride = 8;
  models.push_back(std::make_unique<ImbalanceApp>(imbalance));
  OomCascadeOptions oom;
  oom.num_tasks = 256;
  models.push_back(std::make_unique<OomCascadeApp>(oom));
  StatBenchOptions bench;
  bench.num_tasks = 256;
  models.push_back(std::make_unique<StatBenchApp>(bench));
  for (const auto& model : models) {
    // Stale contents longer than any path, so a model that appended or
    // overwrote only a prefix would leave frames behind.
    CallPath buffer(64, FrameId(12345));
    for (std::uint32_t s = 0; s < 6; ++s) {
      for (std::uint32_t t = 0; t < model->num_tasks(); ++t) {
        for (std::uint32_t th = 0; th < model->threads_per_task(); ++th) {
          model->stack_into(TaskId(t), th, s, buffer);
          ASSERT_EQ(buffer, model->stack(TaskId(t), th, s))
              << "task " << t << " thread " << th << " sample " << s;
        }
      }
    }
  }
}

TEST(Binaries, StaticLayoutIsOneImage) {
  const auto spec = ring_binaries_static("/nfs/home/user");
  ASSERT_EQ(spec.images.size(), 1u);
  EXPECT_EQ(spec.images[0].bytes, 8u * 1024 * 1024);
  EXPECT_EQ(spec.total_bytes(), 8u * 1024 * 1024);
}

}  // namespace
}  // namespace petastat::app
