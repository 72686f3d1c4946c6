// Whole-file reads and writes with every failure checked. A report, a DOT
// tree or a checkpoint that did not reach the disk is an error, not a
// "wrote <path>": the flush at close is where a full device (ENOSPC) shows.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace petastat {

/// Replaces `path` with `contents`. UNAVAILABLE when the file cannot be
/// opened, or when the write or the closing flush fails.
[[nodiscard]] Status write_file(const std::string& path,
                                std::string_view contents);

/// The whole of `path`. NOT_FOUND when it cannot be opened; UNAVAILABLE on a
/// read error (a directory, an I/O error), never a silently short result.
[[nodiscard]] Result<std::string> read_file(const std::string& path);

}  // namespace petastat
