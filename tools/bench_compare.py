#!/usr/bin/env python3
"""Diff fresh bench --json output against committed BENCH_*.json baselines.

The figure-reproduction benches emit a stable-schema JSON record (see
bench/harness.hpp): tables of (x, y) series plus named shape checks. A
series' y is in seconds unless it names another unit ("unit": "KB", "count",
...). This gate fails when a point of seconds regresses by more than the
threshold (slower), when a point of any other unit changes at all, when a
point that used to succeed now fails, or when a shape check that used to
hold no longer does. Faster-than-baseline seconds are reported but never
fail the gate.

Usage:
  bench_compare.py BASELINE FRESH [--threshold 0.10]

BASELINE and FRESH are either two JSON files or two directories; directories
are matched by BENCH_*.json file name. Exit codes: 0 clean, 1 regression,
2 usage/IO error.
"""

import argparse
import json
import os
import sys

# Points faster than this are pure noise floor; ratio checks on them would
# flag meaningless microsecond wiggles.
ABSOLUTE_FLOOR_SECONDS = 1e-6


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"error: cannot read {path}: {error}")


SECONDS = "s"


def index_series(record):
    """(table_index, series_name) -> (unit, {x: (y, note)})."""
    out = {}
    for t_index, table in enumerate(record.get("tables", [])):
        for series in table.get("series", []):
            points = {}
            for point in series.get("points", []):
                points[point["x"]] = (point["y"], point.get("note", ""))
            out[(t_index, series["name"])] = (series.get("unit", SECONDS),
                                              points)
    return out


def compare_record(name, baseline, fresh, threshold):
    """Returns (regressions, notes) for one bench record."""
    regressions = []
    notes = []

    base_series = index_series(baseline)
    fresh_series = index_series(fresh)
    for key, (unit, base_points) in base_series.items():
        if key not in fresh_series:
            regressions.append(f"{name}: series {key[1]!r} disappeared")
            continue
        fresh_unit, fresh_points = fresh_series[key]
        if fresh_unit != unit:
            regressions.append(f"{name}: {key[1]} changed unit "
                               f"{unit!r} -> {fresh_unit!r}")
            continue
        for x, (base_y, _) in sorted(base_points.items()):
            if x not in fresh_points:
                regressions.append(
                    f"{name}: {key[1]} lost the point at x={x:g}")
                continue
            fresh_y, fresh_note = fresh_points[x]
            if base_y < 0 and fresh_y >= 0:
                notes.append(f"{name}: {key[1]} @ {x:g} now succeeds "
                             f"({fresh_y:g} {unit})")
            elif base_y >= 0 and fresh_y < 0:
                regressions.append(
                    f"{name}: {key[1]} @ {x:g} now FAILS ({fresh_note})")
            elif unit != SECONDS:
                # Sizes and counts are deterministic: any change is one.
                if fresh_y != base_y:
                    regressions.append(
                        f"{name}: {key[1]} @ {x:g} changed "
                        f"{base_y:g} {unit} -> {fresh_y:g} {unit}")
            elif base_y >= ABSOLUTE_FLOOR_SECONDS:
                ratio = fresh_y / base_y
                if ratio > 1.0 + threshold:
                    regressions.append(
                        f"{name}: {key[1]} @ {x:g} regressed "
                        f"{base_y:.4f}s -> {fresh_y:.4f}s ({ratio:.2f}x)")
                elif ratio < 1.0 - threshold:
                    notes.append(
                        f"{name}: {key[1]} @ {x:g} improved "
                        f"{base_y:.4f}s -> {fresh_y:.4f}s ({ratio:.2f}x)")

    base_checks = {c["what"]: c["holds"]
                   for c in baseline.get("shape_checks", [])}
    fresh_checks = {c["what"]: c["holds"]
                    for c in fresh.get("shape_checks", [])}
    for what, held in base_checks.items():
        if what not in fresh_checks:
            regressions.append(f"{name}: shape check disappeared: {what!r}")
        elif held and not fresh_checks[what]:
            regressions.append(f"{name}: shape check broke: {what!r}")
        elif not held and fresh_checks[what]:
            notes.append(f"{name}: shape check now holds: {what!r}")
    return regressions, notes


def pair_up(baseline_path, fresh_path):
    if os.path.isdir(baseline_path) != os.path.isdir(fresh_path):
        sys.exit("error: BASELINE and FRESH must both be files or both dirs")
    if not os.path.isdir(baseline_path):
        return [(os.path.basename(baseline_path), baseline_path, fresh_path)]
    pairs = []
    names = sorted(n for n in os.listdir(baseline_path)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        sys.exit(f"error: no BENCH_*.json baselines in {baseline_path}")
    for file_name in names:
        fresh_file = os.path.join(fresh_path, file_name)
        if not os.path.exists(fresh_file):
            sys.exit(f"error: fresh output {fresh_file} is missing "
                     "(bench not run?)")
        pairs.append((file_name,
                      os.path.join(baseline_path, file_name), fresh_file))
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >threshold regressions of bench JSON output.")
    parser.add_argument("baseline", help="baseline JSON file or directory")
    parser.add_argument("fresh", help="fresh JSON file or directory")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression tolerance for seconds "
                        "(default 0.10)")
    args = parser.parse_args()

    all_regressions = []
    all_notes = []
    for name, baseline_file, fresh_file in pair_up(args.baseline, args.fresh):
        regressions, notes = compare_record(
            name, load(baseline_file), load(fresh_file), args.threshold)
        all_regressions.extend(regressions)
        all_notes.extend(notes)

    for note in all_notes:
        print(f"note: {note}")
    for regression in all_regressions:
        print(f"REGRESSION: {regression}")
    if all_regressions:
        print(f"{len(all_regressions)} regression(s) beyond "
              f"{args.threshold:.0%}")
        return 1
    print(f"bench gate clean (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
