// Strong integer id types and the simulation time base shared by all modules.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace petastat {

// Simulated wall-clock time in nanoseconds. All model costs are expressed in
// this unit; helpers below convert from human units.
using SimTime = std::uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;
inline constexpr SimTime kSimTimeNever = std::numeric_limits<SimTime>::max();

/// Largest number of seconds that converts to SimTime (about 570 years;
/// 1.8e19 ns is below 2^64). Any user-supplied duration or instant that
/// becomes a SimTime is checked with fits_sim_time() first.
inline constexpr double kMaxSimSeconds = 1.8e10;

/// True for a number of seconds in [0, kMaxSimSeconds]; false for negatives,
/// NaN and infinities.
constexpr bool fits_sim_time(double s) {
  return s >= 0.0 && s <= kMaxSimSeconds;
}

/// Converts a floating-point number of seconds to SimTime, saturating at 0.
/// Values above kMaxSimSeconds (and NaN) do not fit: validate input with
/// fits_sim_time().
constexpr SimTime seconds(double s) {
  return s <= 0.0 ? SimTime{0} : static_cast<SimTime>(s * 1e9);
}

/// Converts SimTime back to floating-point seconds for reporting.
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) * 1e-9; }

/// A transparent strongly-typed wrapper over an integer id. Distinct Tag
/// types cannot be mixed accidentally (e.g. a TaskId is not a NodeId).
template <typename Tag, typename Rep = std::uint32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value_(v) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const {
    return value_ != std::numeric_limits<Rep>::max();
  }

  static constexpr StrongId invalid() {
    return StrongId(std::numeric_limits<Rep>::max());
  }

  friend constexpr bool operator==(StrongId, StrongId) = default;
  friend constexpr auto operator<=>(StrongId, StrongId) = default;

 private:
  Rep value_ = std::numeric_limits<Rep>::max();
};

/// Global node identifier across all tiers of the simulated machine.
using NodeId = StrongId<struct NodeTag>;
/// MPI rank of an application task (0-based, global).
using TaskId = StrongId<struct TaskTag>;
/// Tool daemon identifier (0-based, dense).
using DaemonId = StrongId<struct DaemonTag>;
/// A process in the TBON tree (front end, comm process, or back end).
using TbonProcId = StrongId<struct TbonProcTag>;
/// Interned call-frame (function name) identifier.
using FrameId = StrongId<struct FrameTag>;

}  // namespace petastat

template <typename Tag, typename Rep>
struct std::hash<petastat::StrongId<Tag, Rep>> {
  std::size_t operator()(petastat::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
