#include "tbon/multicast.hpp"

#include <memory>


namespace petastat::tbon {

// ---------------------------------------------------------------------------
// Envelopes

void SampleRequest::encode(ByteSink& sink) const {
  put_wire_version(sink);
  sink.put_u32(cursor);
  sink.put_u32(count);
  sink.put_u64(static_cast<std::uint64_t>(interval));
}

Result<SampleRequest> SampleRequest::decode(ByteSource& source) {
  if (auto s = check_wire_version(source); !s.is_ok()) return s;
  SampleRequest request;
  if (auto s = source.get_u32(request.cursor); !s.is_ok()) return s;
  if (auto s = source.get_u32(request.count); !s.is_ok()) return s;
  std::uint64_t interval = 0;
  if (auto s = source.get_u64(interval); !s.is_ok()) return s;
  request.interval = static_cast<SimTime>(interval);
  if (request.count == 0) {
    return invalid_argument("SampleRequest with zero samples");
  }
  return request;
}

void DeltaHeader::encode(ByteSink& sink) const {
  put_wire_version(sink);
  sink.put_u32(cursor);
  sink.put_u8(changed ? 1 : 0);
  sink.put_u64(signature);
}

Result<DeltaHeader> DeltaHeader::decode(ByteSource& source) {
  if (auto s = check_wire_version(source); !s.is_ok()) return s;
  DeltaHeader header;
  if (auto s = source.get_u32(header.cursor); !s.is_ok()) return s;
  std::uint8_t changed = 0;
  if (auto s = source.get_u8(changed); !s.is_ok()) return s;
  if (changed > 1) return invalid_argument("DeltaHeader changed flag corrupt");
  header.changed = changed == 1;
  if (auto s = source.get_u64(header.signature); !s.is_ok()) return s;
  return header;
}

// ---------------------------------------------------------------------------
// Fan-out

namespace {

struct FanOutState {
  std::uint32_t remaining_leaves = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimTime per_proc_cpu = 0;
  std::function<void(std::uint32_t, SimTime)> on_leaf;
  std::function<void(BroadcastReport)> done;
};

void fan_out(sim::Simulator& simulator, net::Network& network,
             const TbonTopology& topology, std::uint64_t bytes,
             std::uint32_t proc_index,
             const std::shared_ptr<FanOutState>& state) {
  // The proc decodes the envelope before acting on it.
  const SimTime armed_at = simulator.now() + state->per_proc_cpu;
  const auto& proc = topology.procs[proc_index];
  if (proc.is_leaf()) {
    const auto finish = [&simulator, proc_index, state, armed_at]() {
      if (state->on_leaf) state->on_leaf(proc_index, armed_at);
      if (--state->remaining_leaves == 0 && state->done) {
        state->done(BroadcastReport{simulator.now(), state->messages,
                                    state->bytes});
      }
    };
    if (state->per_proc_cpu == 0) {
      finish();
    } else {
      simulator.schedule_at(armed_at, finish);
    }
    return;
  }
  const auto forward = [&simulator, &network, &topology, bytes, state,
                        &proc]() {
    for (const std::uint32_t child : proc.children) {
      ++state->messages;
      state->bytes += bytes;
      network.transfer_async(proc.host, topology.procs[child].host, bytes,
                             [&simulator, &network, &topology, bytes, child,
                              state]() {
                               fan_out(simulator, network, topology, bytes,
                                       child, state);
                             });
    }
  };
  if (state->per_proc_cpu == 0) {
    forward();
  } else {
    simulator.schedule_at(armed_at, forward);
  }
}

void start_fan_out(sim::Simulator& simulator, net::Network& network,
                   const TbonTopology& topology, std::uint64_t bytes,
                   const std::shared_ptr<FanOutState>& state) {
  // Count leaf *procs*, not daemons: a leaf serving several daemons appears
  // once in the fan-out but several times in leaf_of_daemon, and the
  // completion callback would wait for decrements that never come.
  for (const auto& proc : topology.procs) {
    if (proc.is_leaf()) ++state->remaining_leaves;
  }
  if (state->remaining_leaves == 0) {
    simulator.schedule_in(0, [state, &simulator]() {
      if (state->done) {
        state->done(BroadcastReport{simulator.now(), 0, 0});
      }
    });
    return;
  }
  fan_out(simulator, network, topology, bytes, 0, state);
}

}  // namespace

void broadcast(sim::Simulator& simulator, net::Network& network,
               const TbonTopology& topology,
               const machine::StreamCosts& costs, const SampleRequest& request,
               std::function<void(std::uint32_t, SimTime)> on_leaf,
               std::function<void(BroadcastReport)> done) {
  auto state = std::make_shared<FanOutState>();
  state->per_proc_cpu = machine::control_packet_cost(costs);
  state->on_leaf = std::move(on_leaf);
  state->done = std::move(done);
  // The wire size is the envelope's actual encoding, asserted so the
  // constant in wire_bytes() can never drift from the encoder.
  ByteSink sink;
  request.encode(sink);
  check(sink.size() == SampleRequest::wire_bytes(),
        "SampleRequest wire_bytes out of sync with encoder");
  start_fan_out(simulator, network, topology, sink.size(), state);
}

// Legacy barrier multicast: opaque bytes, no CPU model. Kept for callers
// that only need "every leaf heard us".
void multicast(sim::Simulator& simulator, net::Network& network,
               const TbonTopology& topology, std::uint64_t bytes,
               std::function<void(SimTime)> done) {
  auto state = std::make_shared<FanOutState>();
  state->per_proc_cpu = 0;
  state->done = [done = std::move(done)](BroadcastReport report) {
    if (done) done(report.finished_at);
  };
  start_fan_out(simulator, network, topology, bytes, state);
}

}  // namespace petastat::tbon
