// SessionCheckpoint hardening: round-trip fidelity, adversarial decode
// (every prefix truncation, every single-byte corruption, version skew,
// pathological headers — the test_decode_corrupt contract extended to the
// checkpoint envelope), and the restore-constructor rejection matrix (cursor
// beyond the series, a spec the machine cannot build, stale identity hash).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "app/appmodel.hpp"
#include "common/serializer.hpp"
#include "machine/machine.hpp"
#include "stat/checkpoint.hpp"
#include "stat/prefix_tree.hpp"
#include "stat/scenario.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {
namespace {

using Bytes = std::vector<std::uint8_t>;

machine::JobConfig small_job() { return machine::JobConfig{.num_tasks = 512}; }

StatOptions streaming_options() {
  StatOptions options;
  options.stream_samples = 4;
  options.evolution = app::TraceEvolution::kDrift;
  return options;
}

/// Runs the canonical interrupted session: atlas, 4 streaming rounds,
/// vacated (simulated front-end loss) at round boundary 2.
std::shared_ptr<const SessionCheckpoint> organic_checkpoint(
    TaskSetRepr repr = TaskSetRepr::kHierarchical) {
  StatOptions options = streaming_options();
  options.repr = repr;
  options.vacate_at_round = 2;
  StatScenario scenario(machine::atlas(), small_job(), options);
  const StatRunResult result = scenario.run();
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_TRUE(result.vacated);
  EXPECT_NE(result.checkpoint, nullptr);
  return result.checkpoint;
}

/// A small hand-built checkpoint (dense repr) whose every field is exercised
/// by the round-trip comparison.
SessionCheckpoint hand_built() {
  SessionCheckpoint cp;
  cp.machine_name = "atlas";
  cp.num_tasks = 16;
  cp.num_daemons = 2;
  cp.identity_hash = 0x1234abcd5678ef00ull;
  cp.spec = tbon::TopologySpec::balanced(2);
  cp.spec.fe_shards = 4;
  cp.cursor = 1;
  cp.total_rounds = 4;
  cp.interval_seconds = 0.5;
  cp.repr = TaskSetRepr::kDenseGlobal;
  cp.seed = 2008;
  cp.dead_daemons = {1};
  cp.daemon_cache_valid = {true, false};
  cp.proc_cache_complete = {false, true, false};
  cp.leaf_payload_bytes = 4096;
  cp.shard_payload_bytes = {1024, 3072};

  app::FrameTable frames;
  const LabelContext ctx{16};
  GlobalTree tree;
  tree.insert(frames.make_path({"_start", "main", "MPI_Barrier"}),
              GlobalLabel::for_task(3));
  tree.insert(frames.make_path({"_start", "main", "compute"}),
              GlobalLabel::for_task(4));
  ByteSink sink;
  tree.encode(sink, frames, ctx);
  cp.tree_2d_wire = sink.take();
  ByteSink sink3;
  tree.encode(sink3, frames, ctx);
  cp.tree_3d_wire = sink3.take();

  SessionCheckpoint::ClassEntry entry;
  entry.frames = {"_start", "main", "MPI_Barrier"};
  entry.tasks.insert(3);
  cp.classes.push_back(std::move(entry));
  return cp;
}

// --- Round trip -------------------------------------------------------------

TEST(SessionCheckpointRoundTrip, HandBuiltSurvivesEncodeDecode) {
  const SessionCheckpoint cp = hand_built();
  const Bytes encoded = cp.encoded();
  ByteSource source(encoded);
  auto decoded = SessionCheckpoint::decode(source);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(decoded.value(), cp);
  // Deterministic: re-encoding the decoded copy reproduces the bytes.
  EXPECT_EQ(decoded.value().encoded(), encoded);
}

TEST(SessionCheckpointRoundTrip, OrganicCheckpointSurvivesBothReprs) {
  for (const TaskSetRepr repr :
       {TaskSetRepr::kHierarchical, TaskSetRepr::kDenseGlobal}) {
    const auto cp = organic_checkpoint(repr);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->cursor, 2u);
    EXPECT_EQ(cp->total_rounds, 4u);
    EXPECT_GT(cp->leaf_payload_bytes, 0u);
    EXPECT_FALSE(cp->tree_2d_wire.empty());
    EXPECT_FALSE(cp->tree_3d_wire.empty());
    EXPECT_FALSE(cp->classes.empty());
    const Bytes encoded = cp->encoded();
    ByteSource source(encoded);
    auto decoded = SessionCheckpoint::decode(source);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), *cp);
  }
}

TEST(SessionCheckpointRoundTrip, TreeBlobsDecodeAgainstAFreshTable) {
  const auto cp = organic_checkpoint();
  app::FrameTable fresh;
  const LabelContext ctx{cp->num_tasks};
  auto tree_2d = decode_tree_blob<HierLabel>(cp->tree_2d_wire, fresh, ctx);
  ASSERT_TRUE(tree_2d.is_ok()) << tree_2d.status().to_string();
  auto tree_3d = decode_tree_blob<HierLabel>(cp->tree_3d_wire, fresh, ctx);
  ASSERT_TRUE(tree_3d.is_ok()) << tree_3d.status().to_string();
  EXPECT_FALSE(tree_3d.value().empty());
}

TEST(SessionCheckpointRoundTrip, TrailingBytesInTreeBlobRejected) {
  const auto cp = organic_checkpoint();
  Bytes padded = cp->tree_3d_wire;
  padded.push_back(0x00);
  app::FrameTable fresh;
  auto decoded =
      decode_tree_blob<HierLabel>(padded, fresh, LabelContext{cp->num_tasks});
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// --- Adversarial decode -----------------------------------------------------

/// Decoding any prefix of `encoded` must return (not crash), and the full
/// buffer must decode OK.
void expect_clean_on_all_prefixes(const Bytes& encoded) {
  for (std::size_t len = 0; len <= encoded.size(); ++len) {
    ByteSource source(std::span(encoded.data(), len));
    (void)SessionCheckpoint::decode(source);  // must not crash
  }
  ByteSource full(encoded);
  EXPECT_TRUE(SessionCheckpoint::decode(full).is_ok());
}

/// Flipping every byte (one at a time) must never crash the decoder.
void expect_clean_on_byte_flips(const Bytes& encoded) {
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes corrupt = encoded;
    corrupt[i] ^= 0xff;
    ByteSource source(corrupt);
    (void)SessionCheckpoint::decode(source);  // must not crash
  }
}

TEST(CorruptSessionCheckpoint, HandBuiltTruncationsAndFlipsNeverCrash) {
  const Bytes encoded = hand_built().encoded();
  expect_clean_on_all_prefixes(encoded);
  expect_clean_on_byte_flips(encoded);
}

TEST(CorruptSessionCheckpoint, OrganicTruncationsNeverCrash) {
  // The organic envelope is larger (real trees, real classes); truncation
  // at *every* offset must still fail cleanly. Every prefix is a strict
  // subset of the fields, so none may decode OK.
  const Bytes encoded = organic_checkpoint()->encoded();
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    ByteSource source(std::span(encoded.data(), len));
    EXPECT_FALSE(SessionCheckpoint::decode(source).is_ok());
  }
  ByteSource full(encoded);
  EXPECT_TRUE(SessionCheckpoint::decode(full).is_ok());
}

TEST(CorruptSessionCheckpoint, VersionSkewIsFailedPrecondition) {
  Bytes encoded = hand_built().encoded();
  encoded[0] = kWireFormatVersion + 1;
  ByteSource source(encoded);
  auto decoded = SessionCheckpoint::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("version skew"),
            std::string::npos);
}

TEST(CorruptSessionCheckpoint, EmptyBufferIsTruncationNotSkew) {
  ByteSource source(std::span<const std::uint8_t>{});
  auto decoded = SessionCheckpoint::decode(source);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorruptSessionCheckpoint, HugeCountHeadersFailCleanly) {
  // A valid envelope up to a count field, then a 2^60 claim with no payload:
  // must fail via Status without reserving petabytes.
  ByteSink sink;
  sink.put_u8(kWireFormatVersion);
  sink.put_string("atlas");
  sink.put_u32(16);  // num_tasks
  sink.put_u32(2);   // num_daemons
  sink.put_u64(0);   // identity hash
  sink.put_u32(1);   // spec.depth
  sink.put_varint(1ull << 60);  // level_widths count: absurd
  ByteSource source(sink.bytes());
  EXPECT_FALSE(SessionCheckpoint::decode(source).is_ok());
}

TEST(CorruptSessionCheckpoint, NestedTreeBlobIsStructurallyValidated) {
  // Corrupting the *interior* of a nested tree blob must be caught by the
  // envelope decode (scratch-table validation), not deferred to restore.
  SessionCheckpoint cp = hand_built();
  ASSERT_GT(cp.tree_3d_wire.size(), 4u);
  cp.tree_3d_wire.resize(cp.tree_3d_wire.size() / 2);  // truncated blob
  const Bytes encoded = cp.encoded();
  ByteSource source(encoded);
  EXPECT_FALSE(SessionCheckpoint::decode(source).is_ok());
}

// --- Restore-constructor rejection matrix -----------------------------------

Status restore_status(std::shared_ptr<const SessionCheckpoint> cp,
                      const machine::MachineConfig& machine,
                      const machine::JobConfig& job,
                      const StatOptions& options) {
  StatScenario scenario(machine, job, options, nullptr, std::move(cp));
  return scenario.config_status();
}

TEST(RestoreRejection, ValidCheckpointIsAccepted) {
  const auto cp = organic_checkpoint();
  const Status status =
      restore_status(cp, machine::atlas(), small_job(), streaming_options());
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

TEST(RestoreRejection, CursorBeyondSeries) {
  const auto base = organic_checkpoint();
  for (const std::uint32_t bad_cursor : {0u, base->total_rounds,
                                         base->total_rounds + 7}) {
    auto cp = std::make_shared<SessionCheckpoint>(*base);
    cp->cursor = bad_cursor;
    const Status status =
        restore_status(cp, machine::atlas(), small_job(), streaming_options());
    ASSERT_FALSE(status.is_ok()) << "cursor " << bad_cursor;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("cursor beyond series"),
              std::string::npos);
  }
}

TEST(RestoreRejection, SpecTheMachineCannotBuild) {
  const auto base = organic_checkpoint();
  auto cp = std::make_shared<SessionCheckpoint>(*base);
  cp->spec.depth = 9;  // build_topology: depth must be in [1,4]
  const Status status =
      restore_status(cp, machine::atlas(), small_job(), streaming_options());
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(RestoreRejection, JobShapeMismatch) {
  const auto cp = organic_checkpoint();
  machine::JobConfig other = small_job();
  other.num_tasks = 256;
  const Status status =
      restore_status(cp, machine::atlas(), other, streaming_options());
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("job shape"), std::string::npos);
}

TEST(RestoreRejection, StaleIdentityHash) {
  const auto cp = organic_checkpoint();
  StatOptions other = streaming_options();
  other.seed = 9999;  // different trace world
  const Status status =
      restore_status(cp, machine::atlas(), small_job(), other);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("stale session hash"), std::string::npos);
}

TEST(RestoreRejection, VacateMustBePastTheRestoreCursor) {
  const auto cp = organic_checkpoint();  // cursor 2
  StatOptions options = streaming_options();
  options.vacate_at_round = 2;  // not past the cursor
  const Status status =
      restore_status(cp, machine::atlas(), small_job(), options);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --- Durability knob validation (no checkpoint involved) --------------------

TEST(CheckpointOptions, RequireAStreamingRun) {
  StatOptions options;  // classic batched pipeline
  options.checkpoint_period = 2;
  StatScenario scenario(machine::atlas(), small_job(), options);
  ASSERT_FALSE(scenario.config_status().is_ok());
  EXPECT_EQ(scenario.config_status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointOptions, VacateMustBeAnInteriorBoundary) {
  for (const std::int32_t bad : {0, 4, 5}) {
    StatOptions options = streaming_options();  // 4 rounds
    options.vacate_at_round = bad;
    StatScenario scenario(machine::atlas(), small_job(), options);
    ASSERT_FALSE(scenario.config_status().is_ok()) << "vacate_at " << bad;
    EXPECT_EQ(scenario.config_status().code(), StatusCode::kInvalidArgument);
  }
}

// --- Restore correctness (the small smoke case; the full kill-at-every-
// boundary matrix lives in test_scenario_matrix) ------------------------------

TEST(RestoreSmoke, ResumedRunMatchesUninterruptedRun) {
  const StatOptions options = streaming_options();
  StatScenario baseline(machine::atlas(), small_job(), options);
  const StatRunResult uninterrupted = baseline.run();
  ASSERT_TRUE(uninterrupted.status.is_ok());

  const auto cp = organic_checkpoint();
  StatScenario resumed_scenario(machine::atlas(), small_job(), options, nullptr,
                               cp);
  const StatRunResult resumed = resumed_scenario.run();
  ASSERT_TRUE(resumed.status.is_ok()) << resumed.status.to_string();
  EXPECT_TRUE(resumed.restored);
  EXPECT_EQ(resumed.restore_cursor, 2u);

  EXPECT_TRUE(resumed.tree_2d == uninterrupted.tree_2d);
  EXPECT_TRUE(resumed.tree_3d == uninterrupted.tree_3d);
  ASSERT_EQ(resumed.classes.size(), uninterrupted.classes.size());
  for (std::size_t i = 0; i < resumed.classes.size(); ++i) {
    EXPECT_EQ(resumed.classes[i].path, uninterrupted.classes[i].path);
    EXPECT_TRUE(resumed.classes[i].tasks == uninterrupted.classes[i].tasks);
  }
}

}  // namespace
}  // namespace petastat::stat
