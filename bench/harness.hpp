// Shared reporting helpers for the figure-reproduction benches. Each bench
// prints the series the corresponding paper figure plots, one row per
// (scale, variant), plus the paper's stated anchors where it gives numbers,
// and a qualitative shape check (who wins / where it fails / crossovers).
//
// Everything printed is also recorded, and `finish(argc, argv)` writes the
// whole record as machine-readable JSON when the bench is invoked with
// `--json <path>` — the seed of BENCH_*.json regression tracking:
//
//   ./build/bench_fig04_merge_atlas --json BENCH_fig04.json
//
// (The two Google Benchmark microbenches emit JSON natively via
// `--benchmark_format=json`.)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/types.hpp"
#include "stat/report.hpp"
#include "stat/scenario.hpp"

namespace petastat::bench {

/// The unit of a series of (virtual) seconds, the default.
inline constexpr const char* kSeconds = "s";

/// One series of (x = scale, y) measurements, y in `unit`: seconds unless
/// the series says otherwise (a size or a count). tools/bench_compare.py
/// judges seconds by a relative threshold and every other unit exactly.
struct Series {
  Series() = default;
  explicit Series(std::string series_name, std::string series_unit = kSeconds)
      : name(std::move(series_name)), unit(std::move(series_unit)) {}

  std::string name;
  std::string unit = kSeconds;
  std::vector<double> x;
  std::vector<double> y;  // negative = failed at this scale
  std::vector<std::string> notes;

  void add(double scale, double seconds, std::string note_text = "") {
    x.push_back(scale);
    y.push_back(seconds);
    notes.push_back(std::move(note_text));
  }

  /// Copy containing only the successful (y >= 0) points.
  [[nodiscard]] Series successes() const {
    Series out(name, unit);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (y[i] >= 0) out.add(x[i], y[i], notes[i]);
    }
    return out;
  }

  /// Ratio of per-x slope between last and first half; ~1 for linear,
  /// < 0.5 for strongly sublinear (logarithmic-ish) growth. Failed points
  /// are excluded.
  [[nodiscard]] double tail_slope_ratio() const {
    const Series ok = successes();
    if (ok.x.size() < 3) return 1.0;
    const std::size_t mid = ok.x.size() / 2;
    const double early = (ok.y[mid] - ok.y[0]) / (ok.x[mid] - ok.x[0]);
    const double late =
        (ok.y.back() - ok.y[mid]) / (ok.x.back() - ok.x[mid]);
    return early != 0.0 ? late / early : 0.0;
  }

  [[nodiscard]] bool grows_roughly_linearly() const {
    const double r = tail_slope_ratio();
    return r > 0.5 && r < 2.0;
  }
  [[nodiscard]] bool grows_sublinearly() const {
    return tail_slope_ratio() < 0.5;
  }
};

/// Everything one bench run reported, for the JSON emitter.
struct BenchRecord {
  std::string figure;
  std::string caption;
  struct Table {
    std::string x_label;
    std::vector<Series> series;
  };
  std::vector<Table> tables;
  std::vector<std::string> notes;
  struct Anchor {
    std::string what, paper, measured;
  };
  std::vector<Anchor> anchors;
  struct ShapeCheck {
    std::string what;
    bool holds;
  };
  std::vector<ShapeCheck> shape_checks;
};

inline BenchRecord& record() {
  static BenchRecord r;
  return r;
}

inline void title(const std::string& figure, const std::string& caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("==============================================================\n");
  record().figure = figure;
  record().caption = caption;
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
  record().notes.push_back(text);
}

inline void anchor(const std::string& what, const std::string& paper,
                   const std::string& measured) {
  std::printf("  paper-anchor: %-52s paper=%-12s measured=%s\n", what.c_str(),
              paper.c_str(), measured.c_str());
  record().anchors.push_back({what, paper, measured});
}

inline void shape_check(const std::string& what, bool holds) {
  std::printf("  shape-check:  %-52s [%s]\n", what.c_str(),
              holds ? "OK" : "MISMATCH");
  record().shape_checks.push_back({what, holds});
}

/// Prints aligned columns: scale, then one column per series.
inline void print_table(const std::string& x_label,
                        const std::vector<Series>& series) {
  record().tables.push_back({x_label, series});
  std::printf("\n  %-14s", x_label.c_str());
  for (const auto& s : series) std::printf(" %18s", s.name.c_str());
  std::printf("\n");
  if (series.empty()) return;
  for (std::size_t row = 0; row < series.front().x.size(); ++row) {
    std::printf("  %-14.0f", series.front().x[row]);
    for (const auto& s : series) {
      if (row >= s.y.size()) {
        std::printf(" %18s", "-");
      } else if (s.y[row] < 0) {
        std::printf(" %18s", ("FAIL(" + s.notes[row] + ")").c_str());
      } else {
        std::printf(" %16.3f%-2s", s.y[row], s.unit.c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Convenience: run a scenario and return the result.
inline stat::StatRunResult run_scenario(const machine::MachineConfig& machine,
                                        std::uint32_t num_tasks,
                                        machine::BglMode mode,
                                        const stat::StatOptions& options) {
  machine::JobConfig job;
  job.num_tasks = num_tasks;
  job.mode = mode;
  stat::StatScenario scenario(machine, job, options);
  return scenario.run();
}

/// Serializes the recorded run. Schema (stable for regression tracking):
/// {figure, caption, notes[], tables[{x_label, series[{name, unit, points[{x,
/// y, note}]}]}], anchors[{what, paper, measured}], shape_checks[{what,
/// holds}]} where y < 0 marks a failed point (note holds the status code)
/// and a series of seconds omits its unit.
inline std::string to_json(const BenchRecord& r) {
  using stat::json_escape;
  std::string out = "{\n";
  out += "  \"figure\": \"" + json_escape(r.figure) + "\",\n";
  out += "  \"caption\": \"" + json_escape(r.caption) + "\",\n";
  out += "  \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + json_escape(r.notes[i]) + "\"");
  }
  out += "],\n  \"tables\": [";
  for (std::size_t t = 0; t < r.tables.size(); ++t) {
    const auto& table = r.tables[t];
    out += (t ? ",\n" : "\n");
    out += "    {\"x_label\": \"" + json_escape(table.x_label) +
           "\", \"series\": [";
    for (std::size_t s = 0; s < table.series.size(); ++s) {
      const Series& series = table.series[s];
      out += (s ? ",\n" : "\n");
      out += "      {\"name\": \"" + json_escape(series.name) + "\", ";
      if (series.unit != kSeconds) {
        out += "\"unit\": \"" + json_escape(series.unit) + "\", ";
      }
      out += "\"points\": [";
      for (std::size_t i = 0; i < series.x.size(); ++i) {
        char point[160];
        std::snprintf(point, sizeof point, "%s{\"x\": %.9g, \"y\": %.9g",
                      i ? ", " : "", series.x[i], series.y[i]);
        out += point;
        if (!series.notes[i].empty()) {
          out += ", \"note\": \"" + json_escape(series.notes[i]) + "\"";
        }
        out += "}";
      }
      out += "]}";
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n  \"anchors\": [";
  for (std::size_t i = 0; i < r.anchors.size(); ++i) {
    out += (i ? ",\n" : "\n");
    out += "    {\"what\": \"" + json_escape(r.anchors[i].what) +
           "\", \"paper\": \"" + json_escape(r.anchors[i].paper) +
           "\", \"measured\": \"" + json_escape(r.anchors[i].measured) + "\"}";
  }
  out += "\n  ],\n  \"shape_checks\": [";
  for (std::size_t i = 0; i < r.shape_checks.size(); ++i) {
    out += (i ? ",\n" : "\n");
    out += "    {\"what\": \"" + json_escape(r.shape_checks[i].what) +
           "\", \"holds\": " + (r.shape_checks[i].holds ? "true" : "false") +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

/// Call at the end of main: writes the recorded run to the path given by
/// `--json <path>` (if any) and returns the process exit code (non-zero when
/// the JSON file cannot be written).
inline int finish(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json needs a path\n");
        return 2;
      }
      path = argv[++i];  // consume the value
    } else {
      // Self-driving benches take no other flags; a typo must not silently
      // skip the JSON a regression-tracking pipeline expects.
      std::fprintf(stderr, "error: unknown argument '%s' (only --json <path>)\n",
                   argv[i]);
      return 2;
    }
  }
  if (path.empty()) return 0;
  if (const Status written = write_file(path, to_json(record()));
      !written.is_ok()) {
    std::fprintf(stderr, "error: %s\n", written.to_string().c_str());
    return 3;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace petastat::bench
