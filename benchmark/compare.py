#!/usr/bin/env python3
"""Compares two benchmark result files, one row per metric x workload.

    python3 benchmark/compare.py PARENT.json CHANGE.json

PARENT and CHANGE are files benchmark/run.py wrote (by default
build/benchmark/results_seed<N>.json) for the parent commit and the change,
with the same seed and settings. Bounds and directions come from
BENCHMARK.json. Standard library only.

Verdicts for the end-to-end metrics:
  worse       the change's median is worse than the parent's by more than the
              metric's bound
  unresolved  the parent's interquartile range (Q3 - Q1) is wider than the
              bound, so the difference cannot be told from noise; reported
              instead of "unchanged" (or "worse") unless every change sample
              beats every parent sample, which reads "better"
  better      the change's median beats the parent's by more than the
              parent's interquartile range
  unchanged   otherwise
  MISMATCH    virtual_s, the trace count, the output digest, or (when both
              files are traced) a per-layer count or byte total differs:
              these repeat exactly for a given seed
  FAILED      a session failed a check in either file

Per-layer times are single-shot and printed for reference, without a verdict.
Exit code 1 when any row reads worse, MISMATCH or FAILED.
"""

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_METRICS = ("virtual_s",)
EXACT_UNITS = ("count", "B")


def load(path):
    return json.loads(Path(path).read_text())["workloads"]


def relative(change, parent):
    return (change - parent) / parent if parent else 0.0


def judge(metric, parent, change):
    """Verdict and signed worsening (positive = worse) for one metric."""
    p, c = parent["median"], change["median"]
    worse = relative(c, p) if metric["better"] == "lower" else -relative(c, p)
    if metric["name"] in EXACT_METRICS:
        return ("match" if p == c else "MISMATCH"), worse
    spread = (parent["q3"] - parent["q1"]) / p if p else 0.0
    if metric["better"] == "lower":
        all_better = max(change["samples"]) < min(parent["samples"])
    else:
        all_better = min(change["samples"]) > max(parent["samples"])
    if spread > metric["bound"]:
        return ("better" if all_better else "unresolved"), worse
    if worse > metric["bound"]:
        return "worse", worse
    if -worse > spread:
        return "better", worse
    return "unchanged", worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parent, change = load(argv[1]), load(argv[2])
    exact_layers = [m["name"] for m in spec["per_layer"]
                    if m["unit"] in EXACT_UNITS]
    bad = 0
    print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':>36} "
          f"{'change':>12} {'delta':>8} {'bound':>6}  verdict")
    for name in [w for w in parent if w in change]:
        p, c = parent[name], change[name]
        if p["failed"] or c["failed"]:
            print(f"{name:<18} {'failed_frac':<14} {p['failed_frac']:>36.4g} "
                  f"{c['failed_frac']:>12.4g} {'':>8} {'':>6}  FAILED")
            bad += 1
        for metric in spec["end_to_end"]:
            pm = p["end_to_end"].get(metric["name"])
            cm = c["end_to_end"].get(metric["name"])
            if pm is None or cm is None:
                continue
            verdict, worse = judge(metric, pm, cm)
            bad += verdict in ("worse", "MISMATCH")
            parent_text = f"{pm['median']:.6g} [{pm['q1']:.6g}, {pm['q3']:.6g}]"
            print(f"{name:<18} {metric['name']:<14} {parent_text:>36} "
                  f"{cm['median']:>12.6g} {100 * worse:>+7.1f}% "
                  f"{100 * metric['bound']:>5.0f}%  {verdict}")
        for key in ("traces", "digest"):
            if p.get(key) != c.get(key):
                print(f"{name:<18} {key:<14} {str(p.get(key)):>36} "
                      f"{str(c.get(key)):>12} {'':>8} {'':>6}  MISMATCH")
                bad += 1
        pl, cl = p.get("per_layer") or {}, c.get("per_layer") or {}
        for layer in [k for k in pl if k in cl]:
            if layer in exact_layers and pl[layer] != cl[layer]:
                print(f"{name:<18} {layer:<14} {pl[layer]:>36.6g} "
                      f"{cl[layer]:>12.6g} {'':>8} {'':>6}  MISMATCH")
                bad += 1
        if pl and cl:
            print(f"  {name} per-layer (single-shot, for reference):")
            for layer in [k for k in pl if k in cl and k not in exact_layers]:
                print(f"    {layer:<34} {pl[layer]:>14.6g} -> {cl[layer]:<14.6g}"
                      f" {100 * relative(cl[layer], pl[layer]):>+7.1f}%")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
