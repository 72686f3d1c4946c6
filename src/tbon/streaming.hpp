// Incremental per-sample merge rounds (--stream mode) run on the one
// reduction engine: tbon::StreamingReduction is tbon::Reduction, driven
// round by round through run_round (see reduction.hpp).
#pragma once

#include "tbon/reduction.hpp"
