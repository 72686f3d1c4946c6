// Downward control plane of the TBON (the --stream arming broadcast).
//
// The front end arms a streaming run by broadcasting one SampleRequest
// envelope down the tree: each proc receives the packet, pays the shared
// control-packet CPU (machine::control_packet_cost), and forwards a copy to
// each child over its NIC through net::Network — so control-plane latency is
// priced by exactly the formulas plan::PhasePredictor consults. Compare the
// legacy multicast() below, which moves opaque bytes with no CPU model; it
// survives as a wrapper over the same fan-out for callers that only need a
// synchronization barrier.
//
// Upward, every per-sample delta message leads with a DeltaHeader: an
// unchanged subtree acknowledges with the bare header (kDeltaAckBytes), a
// changed one appends its packed payload. Both envelopes are versioned
// through the standard wire format: skew decodes to FAILED_PRECONDITION,
// truncation to INVALID_ARGUMENT.
#pragma once

#include <cstdint>
#include <functional>

#include "common/serializer.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/cost_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tbon/topology.hpp"

namespace petastat::tbon {

/// Control envelope arming a streaming sampling run: take `count` samples
/// starting at sample index `cursor`, one every `interval` of virtual time
/// (0 = back-to-back).
struct SampleRequest {
  std::uint32_t cursor = 0;
  std::uint32_t count = 1;
  SimTime interval = 0;

  void encode(ByteSink& sink) const;
  [[nodiscard]] static Result<SampleRequest> decode(ByteSource& source);
  /// Encoded size: version u8 + cursor u32 + count u32 + interval u64.
  [[nodiscard]] static constexpr std::uint64_t wire_bytes() { return 17; }
};

/// Header of every upward per-sample delta message. `changed == false` means
/// "my subtree's class signature is unchanged since the last sample" and the
/// header is the entire message; `changed == true` means the sender's packed
/// payload follows.
struct DeltaHeader {
  std::uint32_t cursor = 0;
  bool changed = false;
  std::uint64_t signature = 0;

  void encode(ByteSink& sink) const;
  [[nodiscard]] static Result<DeltaHeader> decode(ByteSource& source);
};

/// Encoded size of a DeltaHeader: version u8 + cursor u32 + changed u8 +
/// signature u64.
inline constexpr std::uint64_t kDeltaHeaderBytes = 14;
/// An unchanged child's whole upward message is the bare header.
inline constexpr std::uint64_t kDeltaAckBytes = kDeltaHeaderBytes;

/// What one broadcast moved.
struct BroadcastReport {
  SimTime finished_at = 0;     // the last leaf armed
  std::uint64_t messages = 0;  // one per tree edge reached
  std::uint64_t bytes = 0;
};

/// Broadcasts `request` down the tree. Every proc pays
/// machine::control_packet_cost on arrival before forwarding; per-link
/// transfer times come from `network`. `on_leaf` fires at each leaf proc's
/// arm time (after its decode CPU); `done` fires once after the last leaf.
/// A topology with no leaves completes at the current virtual time.
void broadcast(sim::Simulator& simulator, net::Network& network,
               const TbonTopology& topology,
               const machine::StreamCosts& costs, const SampleRequest& request,
               std::function<void(std::uint32_t leaf_proc, SimTime)> on_leaf,
               std::function<void(BroadcastReport)> done);

/// Downstream control multicast (e.g. "take 10 samples now"): small fixed
/// message fanned out level by level. Returns via callback when the last
/// leaf has it.
void multicast(sim::Simulator& simulator, net::Network& network,
               const TbonTopology& topology, std::uint64_t bytes,
               std::function<void(SimTime finished_at)> done);

}  // namespace petastat::tbon
