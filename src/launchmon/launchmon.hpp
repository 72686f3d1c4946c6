// LaunchMON-style tool infrastructure (Sec. IV-B).
//
// LaunchMON decouples daemon launching from the tool: the front end issues
// one request and the resource manager bulk-launches daemons (priced by
// rm::launch with LauncherKind::kLaunchMon). It also gives
// back-end daemons a collective communication fabric; STAT's SBRS uses the
// fabric's broadcast to push relocated binaries to every daemon over the
// interconnect (Sec. VI-B: "through the Infiniband switch in the case of
// Atlas").
#pragma once

#include <functional>
#include <memory>

#include "common/types.hpp"
#include "machine/machine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace petastat::launchmon {

/// Collective fabric over the daemon hosts. Master is daemon 0.
class BackEndFabric {
 public:
  BackEndFabric(sim::Simulator& simulator, const machine::MachineConfig& machine,
                net::Network& network, machine::DaemonLayout layout);

  [[nodiscard]] NodeId master_host() const;

  /// Binomial-tree broadcast of `bytes` from the master daemon to all
  /// daemons, with real per-hop network transfers (NIC contention included).
  /// `done` fires when the last daemon holds the payload.
  void broadcast_from_master(std::uint64_t bytes, std::function<void()> done);

  /// Binomial-tree reduction of fixed-size contributions to the master.
  void reduce_to_master(std::uint64_t bytes_per_daemon,
                        std::function<void()> done);

 private:
  struct BcastState;
  void bcast_send_from(const std::shared_ptr<BcastState>& state,
                       std::uint32_t daemon, std::uint64_t first_step);

  sim::Simulator& sim_;
  machine::MachineConfig machine_;
  net::Network& net_;
  machine::DaemonLayout layout_;
};

}  // namespace petastat::launchmon
