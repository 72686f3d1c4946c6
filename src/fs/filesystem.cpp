#include "fs/filesystem.hpp"

#include <algorithm>

namespace petastat::fs {

// ---------------------------------------------------------------------------
// NFS

NfsFileSystem::NfsFileSystem(sim::Simulator& simulator, NfsParams params,
                             std::uint64_t seed)
    : sim_(simulator),
      params_(params),
      server_(simulator, params.server_threads),
      rng_(seed, /*stream_id=*/0xF5) {
  run_load_factor_ = rng_.lognormal_factor(params_.run_load_sigma);
}

SimTime NfsFileSystem::read(NodeId, const std::string& path,
                            std::uint64_t bytes) {
  const bool warm = warm_files_.contains(path);
  const double rate =
      warm ? params_.cached_bytes_per_sec : params_.disk_bytes_per_sec;
  warm_files_.insert(path);

  double service_s = to_seconds(params_.per_request) +
                     static_cast<double>(bytes) / rate;
  // Thrash: the more requests in flight, the slower each one gets served
  // (lock contention, cache eviction, nfsd scheduling), saturating.
  service_s *= 1.0 + params_.degradation_alpha *
                         static_cast<double>(std::min(
                             server_.outstanding(), params_.degradation_cap));
  // Background load from other users of the shared server, plus this run's
  // overall server mood.
  service_s *=
      run_load_factor_ * rng_.lognormal_factor(params_.background_sigma);

  return server_.submit(seconds(service_s), sim::EventCallback{});
}

void NfsFileSystem::reset() {
  server_.reset();
  warm_files_.clear();
}

// ---------------------------------------------------------------------------
// Lustre

LustreFileSystem::LustreFileSystem(sim::Simulator& simulator,
                                   LustreParams params, std::uint64_t seed)
    : sim_(simulator),
      params_(params),
      mds_(simulator, params.mds_threads),
      rng_(seed, /*stream_id=*/0x1057) {
  oss_.reserve(params_.oss_count);
  for (unsigned i = 0; i < params_.oss_count; ++i) {
    // One service lane per OSS at the full per-OSS rate; pool throughput is
    // oss_count x oss_bytes_per_sec.
    oss_.emplace_back(simulator);
  }
}

SimTime LustreFileSystem::read(NodeId, const std::string&,
                               std::uint64_t bytes) {
  // Metadata: one MDS open.
  const double noise = rng_.lognormal_factor(params_.background_sigma);
  const auto open_done =
      mds_.submit(static_cast<SimTime>(
                      static_cast<double>(params_.mds_per_open) * noise),
                  sim::EventCallback{});

  // Data: the file is striped; each RPC-sized chunk pays per-RPC overhead
  // plus transfer on one OSS. Chunks of one read go round-robin, and a
  // chunk's service can only start once the open has completed (waiting for
  // the MDS does not consume OSS capacity).
  const std::uint64_t chunks =
      std::max<std::uint64_t>(1, (bytes + params_.rpc_chunk_bytes - 1) /
                                     params_.rpc_chunk_bytes);
  SimTime done = open_done;
  std::uint64_t remaining = bytes;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::uint64_t chunk = std::min(remaining, params_.rpc_chunk_bytes);
    remaining -= chunk;
    auto& lane = oss_[next_stripe_++ % oss_.size()];
    const double xfer_s = to_seconds(params_.per_rpc) +
                          static_cast<double>(chunk) / params_.oss_bytes_per_sec;
    done = std::max(done, lane.reserve(open_done, seconds(xfer_s * noise)));
  }
  return done;
}

void LustreFileSystem::reset() {
  mds_.reset();
  for (auto& lane : oss_) lane.reset();
  next_stripe_ = 0;
}

// ---------------------------------------------------------------------------
// MountTable

void MountTable::mount(std::string prefix, FileSystem* filesystem) {
  check(filesystem != nullptr, "MountTable::mount null filesystem");
  mounts_.emplace_back(std::move(prefix), filesystem);
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
}

FileSystem* MountTable::resolve(std::string_view path) const {
  for (const auto& [prefix, filesystem] : mounts_) {
    if (path.starts_with(prefix)) return filesystem;
  }
  return nullptr;
}

bool MountTable::on_shared_filesystem(std::string_view path) const {
  const FileSystem* filesystem = resolve(path);
  return filesystem != nullptr && filesystem->is_shared();
}

// ---------------------------------------------------------------------------
// FileAccess

void FileAccess::install_redirect(NodeId node, std::string from_prefix,
                                  std::string to_prefix) {
  redirects_[node].emplace_back(std::move(from_prefix), std::move(to_prefix));
}

std::string FileAccess::redirected_path(NodeId node,
                                        const std::string& path) const {
  const auto it = redirects_.find(node);
  if (it == redirects_.end()) return path;
  for (const auto& [from, to] : it->second) {
    if (path.starts_with(from)) return to + path.substr(from.size());
  }
  return path;
}

SimTime FileAccess::open_and_read(NodeId client, const std::string& path,
                                  std::uint64_t bytes) {
  const std::string actual = redirected_path(client, path);
  const NodeKey key{client, actual};
  if (page_cache_.contains(key)) return sim_.now();

  FileSystem* filesystem = mounts_.resolve(actual);
  check(filesystem != nullptr, "open_and_read on unmounted path");
  const SimTime done = filesystem->read(client, actual, bytes);
  page_cache_.insert(key);
  return done;
}

void FileAccess::populate_local(NodeId node, const std::string& path) {
  page_cache_.insert(NodeKey{node, path});
}

void FileAccess::reset() {
  redirects_.clear();
  page_cache_.clear();
}

}  // namespace petastat::fs
