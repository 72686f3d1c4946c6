// Arrival-trace parsing for the `--service` CLI mode: a JSON file describing
// the service configuration and every session request, replayed by the
// SessionScheduler.
//
// Format (all times in seconds, all keys lowercase):
//   {
//     "machine": "petascale",            // atlas|bgl|petascale (default atlas)
//     "policy": "backfill",              // fifo|backfill (default backfill)
//     "executor_threads": 4,             // shared engine width (default 4)
//     "comm_slot_capacity": 1024,        // optional ledger overrides
//     "fe_connection_capacity": 1024,
//     "sessions": [
//       {"name": "big", "arrival": 0, "priority": 10,
//        "tasks": 65536, "topology": "2deep", "app": "statbench"},
//       ...
//     ]
//   }
// Inside a session object, "name"/"arrival"/"priority" are service-level;
// every other key is the matching `petastat` CLI flag without the leading
// dashes ("tasks" -> --tasks, "fe-shards" -> --fe-shards; booleans are bare
// flags: "sbrs": true). Validation is therefore exactly the CLI's. Sessions
// cannot override the machine — it is the shared, contended resource.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace petastat::service {

struct ServiceTrace {
  ServiceConfig config;
  std::vector<SessionRequest> sessions;
};

/// Parses trace text. Malformed JSON, unknown keys, out-of-range priorities,
/// negative arrivals, and invalid session flags are INVALID_ARGUMENT.
[[nodiscard]] Result<ServiceTrace> parse_service_trace(std::string_view text);

/// Reads and parses a trace file (NOT_FOUND when it cannot be opened,
/// UNAVAILABLE on a read error).
[[nodiscard]] Result<ServiceTrace> load_service_trace(const std::string& path);

}  // namespace petastat::service
