// File-system service models (Sec. VI).
//
// The paper's third lesson: per-daemon symbol-table parsing looks like an
// independent local operation but serializes on the shared file server. We
// model three backends:
//
//  * NfsFileSystem — one server with k service threads and a FIFO queue.
//    First read of a file runs at disk rate; repeat reads of the same file
//    hit the server page cache (every daemon reads the *same* binaries).
//    Service times inflate with the outstanding request count (the
//    "thrashing" regime) and carry log-normal background-load noise (the
//    >20% run-to-run variation of Fig. 9).
//  * LustreFileSystem — a metadata server plus an OSS pool; data moves fast
//    but every open and every 1 MB transfer pays an RPC, which is why it
//    offers "little improvement over NFS" at the scales of Fig. 10.
//  * RamDiskFileSystem — node-local memory; the SBRS relocation target.
//
// MountTable resolves a path to its backend (the mtab check SBRS performs),
// and FileAccess adds client-side page caching plus the open() interposition
// hook that SBRS uses to redirect reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace petastat::fs {

/// Abstract file-service backend. Implementations compute when a whole-file
/// read issued "now" by `client` completes.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  [[nodiscard]] virtual std::string_view kind() const = 0;

  /// True when the backend is globally shared (SBRS relocates only these).
  [[nodiscard]] virtual bool is_shared() const = 0;

  /// Schedules a read of `bytes` of `path`; returns the completion time.
  virtual SimTime read(NodeId client, const std::string& path,
                       std::uint64_t bytes) = 0;

  /// Forget server-side cache/queue state (between benchmark repetitions).
  virtual void reset() = 0;
};

struct NfsParams {
  /// Service lanes; aggregate throughput = server_threads x per-stream rate.
  unsigned server_threads = 4;
  /// Per-stream rates: what one client's read achieves when served.
  double disk_bytes_per_sec = 90.0e6;      // first read of a file (disk)
  double cached_bytes_per_sec = 100.0e6;   // server page-cache hit (GigE-bound)
  SimTime per_request = 1500 * kMicrosecond;  // RPC + attribute checks
  /// Service inflation per outstanding request: thrash under fan-in.
  double degradation_alpha = 0.0006;
  /// Outstanding-request count beyond which the thrash factor saturates.
  std::uint64_t degradation_cap = 512;
  /// Log-space sigma of external server load (other users of the shared FS),
  /// applied per request.
  double background_sigma = 0.22;
  /// Log-space sigma of the *per-run* server mood: the shared server's load
  /// differs run to run, which is the paper's explanation for the >2x
  /// variation between "essentially-identical" runs (Fig. 9).
  double run_load_sigma = 0.18;
};

class NfsFileSystem final : public FileSystem {
 public:
  NfsFileSystem(sim::Simulator& simulator, NfsParams params, std::uint64_t seed);

  [[nodiscard]] std::string_view kind() const override { return "nfs"; }
  [[nodiscard]] bool is_shared() const override { return true; }
  SimTime read(NodeId client, const std::string& path,
               std::uint64_t bytes) override;
  void reset() override;

  [[nodiscard]] const sim::ServerStats& server_stats() const {
    return server_.stats();
  }

 private:
  sim::Simulator& sim_;
  NfsParams params_;
  sim::FifoServer server_;
  std::unordered_set<std::string> warm_files_;
  Rng rng_;
  double run_load_factor_ = 1.0;
};

struct LustreParams {
  unsigned mds_threads = 4;
  SimTime mds_per_open = 2200 * kMicrosecond;
  unsigned oss_count = 4;
  double oss_bytes_per_sec = 300.0e6;
  std::uint64_t rpc_chunk_bytes = 1u << 20;
  SimTime per_rpc = 5500 * kMicrosecond;
  double background_sigma = 0.15;
};

class LustreFileSystem final : public FileSystem {
 public:
  LustreFileSystem(sim::Simulator& simulator, LustreParams params,
                   std::uint64_t seed);

  [[nodiscard]] std::string_view kind() const override { return "lustre"; }
  [[nodiscard]] bool is_shared() const override { return true; }
  SimTime read(NodeId client, const std::string& path,
               std::uint64_t bytes) override;
  void reset() override;

 private:
  sim::Simulator& sim_;
  LustreParams params_;
  sim::FifoServer mds_;
  std::vector<sim::SerialDevice> oss_;  // one lane per OSS
  Rng rng_;
  std::uint64_t next_stripe_ = 0;
};

struct RamDiskParams {
  double bytes_per_sec = 2.0e9;
  SimTime per_open = 20 * kMicrosecond;
};

class RamDiskFileSystem final : public FileSystem {
 public:
  RamDiskFileSystem(sim::Simulator& simulator, RamDiskParams params)
      : sim_(simulator), params_(params) {}

  [[nodiscard]] std::string_view kind() const override { return "ramdisk"; }
  [[nodiscard]] bool is_shared() const override { return false; }
  SimTime read(NodeId, const std::string&, std::uint64_t bytes) override {
    const auto xfer = static_cast<SimTime>(
        static_cast<double>(bytes) / params_.bytes_per_sec * 1e9);
    return sim_.now() + params_.per_open + xfer;
  }
  void reset() override {}

 private:
  sim::Simulator& sim_;
  RamDiskParams params_;
};

/// Longest-prefix-match mount table (the simulated /etc/mtab).
class MountTable {
 public:
  /// Mounts `fs` at `prefix` (e.g. "/home", "/p/lustre", "/ramdisk").
  void mount(std::string prefix, FileSystem* filesystem);

  /// Longest mounted prefix covering `path`; nullptr when unmounted.
  [[nodiscard]] FileSystem* resolve(std::string_view path) const;

  /// The SBRS mtab check: is this path on a globally shared file system?
  [[nodiscard]] bool on_shared_filesystem(std::string_view path) const;

 private:
  std::vector<std::pair<std::string, FileSystem*>> mounts_;  // longest first
};

/// Client-side file access layer: per-node page cache plus per-node open()
/// redirection (the SBRS interposition point).
class FileAccess {
 public:
  FileAccess(sim::Simulator& simulator, MountTable& mounts)
      : sim_(simulator), mounts_(mounts) {}

  /// Installs an interposed redirect on `node`: any open of a path starting
  /// with `from_prefix` is served from `to_prefix` + suffix instead.
  void install_redirect(NodeId node, std::string from_prefix,
                        std::string to_prefix);

  /// Full-file read honoring redirects and the node's page cache; returns
  /// the completion time (== now for a warm cache hit).
  SimTime open_and_read(NodeId client, const std::string& path,
                        std::uint64_t bytes);

  /// Marks a file resident on a node without a read (SBRS writes relocated
  /// binaries straight into the RAM disk).
  void populate_local(NodeId node, const std::string& path);

  [[nodiscard]] const MountTable& mounts() const { return mounts_; }
  [[nodiscard]] std::string redirected_path(NodeId node,
                                            const std::string& path) const;

  void reset();

 private:
  struct NodeKey {
    NodeId node;
    std::string path;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      return std::hash<NodeId>{}(k.node) ^ (std::hash<std::string>{}(k.path) * 31);
    }
  };

  sim::Simulator& sim_;
  MountTable& mounts_;
  std::unordered_map<NodeId, std::vector<std::pair<std::string, std::string>>>
      redirects_;
  std::unordered_set<NodeKey, NodeKeyHash> page_cache_;
};

}  // namespace petastat::fs
