#!/usr/bin/env python3
"""Host-time benchmark of petastat: build, run, check and report.

Builds benchmark/ (a standalone CMake project over the repository's library)
into build/benchmark, then runs build/benchmark/petastat_bench as one process
per repeat, so every repeat pays the process-wide planner cache and a cold
allocator the way a CLI user does. Standard library only.

    python3 benchmark/run.py                  # every workload: 1 warm-up + 7 repeats
    python3 benchmark/run.py --trace          # ... plus one traced replay each
    python3 benchmark/run.py --workload bgl208k_hier --seed 7 --seconds 20 --trace 0

Repeats of different workloads are interleaved round-robin. --seconds S
replaces the fixed repeat count: each workload repeats until its measured
processes have taken S seconds (at least 3 repeats).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: BENCHMARK.json's end_to_end metrics, or with --trace its
per_layer metrics. When more than one workload runs, each metric name is
prefixed with "<workload>/". The full record (every sample, quartiles,
per-layer values, host fingerprint) is written to
build/benchmark/results_seed<N>.json (with the workload names appended when
not all of them ran), or --out.

Exit codes: 0 all checks passed; 1 a check failed or the build failed;
2 usage error or fewer than 4 CPUs (the workloads are not shrunk to fit).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build" / "benchmark"
BENCH_BIN = BUILD / "petastat_bench"
EXPECTED = BENCH / "expected"
WORKLOADS = ("bgl208k_hier", "bgl208k_dense", "petascale_stream",
             "service_backfill")
MIN_CPUS = 4
REPEATS = 7  # measured repeats per workload, after one discarded warm-up
MIN_REPEATS = 3
PROCESS_TIMEOUT_S = 90
# Per-layer values that are not in the traced replay's "layers" object.
TRACE_EXTRAS = ("plan.profile_cache_hit_ratio", "service.sessions",
                "service.backfilled", "service.mean_queue_wait_s",
                "sim.exec_speedup_4t")


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    """Keeps compiler and petastat_bench temporaries inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(jobs):
    """Configures (once) and builds petastat_bench; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs)])
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        for step in steps:
            try:
                rc = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                     cwd=ROOT, env=child_env())
            except OSError as error:
                log(f"error: cannot run {step[0]}: {error}")
                return False
            if rc != 0:
                break
    if rc != 0 or not BENCH_BIN.exists():
        log(f"error: benchmark build failed ({build_log}):")
        log("".join(build_log.read_text(errors="replace").splitlines(True)[-30:]))
        return False
    return True


def run_bench(args):
    """Runs petastat_bench once; returns (record or None, peak RSS MB, exit code)."""
    proc = subprocess.Popen([str(BENCH_BIN)] + args, stdout=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return record, usage.ru_maxrss / 1024.0, proc.returncode


def summarize(values):
    """Median, quartiles and count; with n = 7 no percentile has ten samples
    beyond it, so the median is the headline."""
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class Workload:
    """Everything measured and checked for one workload in this set."""

    def __init__(self, name):
        self.name = name
        self.processes = []  # one dict per process, warm-up included
        self.samples = {"run_s": [], "traces_per_s": [], "peak_rss_mb": [],
                        "virtual_s": []}
        self.setups = []
        self.measured_s = 0.0
        self.repeats = 0
        self.broken = False  # a process gave no result: stop repeating
        self.trace = None
        self.trace_ran = False
        self.trace_metrics = {}
        self.failures = []

    def run(self, seed, measured):
        begin = time.perf_counter()
        record, rss, rc = run_bench(["run", self.name, "--seed", str(seed)])
        elapsed = time.perf_counter() - begin
        self.processes.append({"record": record, "rc": rc})
        if record is None:
            self.failures.append(f"run process exited {rc} without a result")
            self.broken = True
            return
        self.failures.extend(record["failures"])
        if not measured:
            return
        self.repeats += 1
        self.measured_s += elapsed
        self.setups.extend(record["setup_samples_s"])
        self.samples["run_s"].append(record["run_s"])
        self.samples["traces_per_s"].append(record["traces"] / record["run_s"])
        self.samples["peak_rss_mb"].append(rss)
        self.samples["virtual_s"].append(record["virtual_s"])

    def done(self, seconds):
        if self.broken:
            return True
        if seconds:
            return self.repeats >= MIN_REPEATS and self.measured_s >= seconds
        return self.repeats >= REPEATS

    def run_trace(self, seed):
        out = BUILD / f"trace_{self.name}.json"
        record, _, rc = run_bench(["trace", self.name, "--seed", str(seed),
                                    "--out", str(out)])
        self.trace_ran = True
        self.trace = record
        if record is None:
            self.failures.append(f"trace process exited {rc} without a result")
            return
        self.failures.extend(record["failures"])
        metrics = dict(record["layers"])
        for key in TRACE_EXTRAS:
            if key in record:
                metrics[key] = record[key]
        # The untraced runs alternated with the replays, at the same moment
        # of the host. The scheduler's time beyond its sessions' solo reruns
        # is the service layer's own.
        untraced = statistics.median(record["untraced_run_s"])
        service_self = untraced - record["solo_s"] if "solo_s" in record else 0.0
        metrics["service.self_s"] = service_self
        explained = record["run_path_self_s"] + service_self
        replayed = record["run_path_wall_s"] + service_self
        metrics["trace.coverage"] = explained / untraced
        metrics["trace.residual_s"] = untraced - explained
        metrics["trace.overhead"] = replayed / untraced
        self.trace_metrics = metrics

    def check_digests(self, expected, update):
        """Counts failed sessions over every process, warm-up included: a
        process whose checks failed, or whose digest differs from the
        expected one (or, with none committed, from the first repeat's)."""
        records = [p["record"] for p in self.processes if p["record"]]
        digests = [r["digest"] for r in records]
        reference = None if update else expected.get(self.name)
        if reference is None and digests:
            reference = digests[0]
        attempted, failed = 0, 0
        for process in self.processes:
            record = process["record"]
            if record is None:
                attempted += 1
                failed += 1
                continue
            attempted += record["sessions"]
            bad = record["failed"]
            if record["digest"] != reference:
                bad = record["sessions"]
                self.failures.append(
                    f"digest {record['digest']} != expected {reference}")
            failed += bad
        if self.trace_ran and self.trace is None:
            attempted += 1
            failed += 1
        elif self.trace is not None:
            attempted += self.trace["service.sessions"]
            failed += self.trace["failed"]
            if self.trace["digest"] != reference:
                failed += 1
                self.failures.append(
                    f"traced digest {self.trace['digest']} != {reference}")
        self.digest = reference
        self.digests_agree = len(set(digests)) == 1 and len(digests) >= 2
        return attempted, failed

    def end_to_end(self):
        metrics = {"setup_s": summarize(self.setups)}
        for name, values in self.samples.items():
            metrics[name] = summarize(values)
        return metrics


def host_fingerprint(calib_start, calib_end):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    host = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_rev": rev}
    if calib_start and calib_end:
        host.update({
            "compiler": calib_start["compiler"],
            "build_type": calib_start["build_type"],
            "calib_s": {"start": calib_start["calib_s"],
                        "end": calib_end["calib_s"],
                        "drift": calib_end["calib_s"] / calib_start["calib_s"] - 1},
        })
    return host


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def expected_path(seed):
    return EXPECTED / f"seed{seed}.json"


def load_expected(seed):
    path = expected_path(seed)
    if not path.exists():
        return {}
    return json.loads(path.read_text())["digests"]


def write_expected(seed, workloads):
    path = expected_path(seed)
    digests = load_expected(seed)
    written = []
    for w in workloads:
        if w.digests_agree and not w.failures:
            digests[w.name] = w.digest
            written.append(w.name)
    if written:
        EXPECTED.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "digests": dict(sorted(digests.items()))},
                                   indent=2) + "\n")
    log(f"expected digests written for: {', '.join(written) or 'none'} "
        f"({path.relative_to(ROOT)})")


def print_tables(workloads, host, e2e_units, traced):
    calib = host.get("calib_s")
    print(f"host: {host['nproc']} CPUs, {host['cpu_model']}, "
          f"{host.get('compiler', '?')} {host.get('build_type', '?')}, "
          f"rev {host['git_rev'][:12]}")
    if calib:
        print(f"host.calib_s: {calib['start']:.4f} s at start, "
              f"{calib['end']:.4f} s at end ({100 * calib['drift']:+.1f}%)")
    print(f"\n{'workload':<18} {'metric':<14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>4}  unit")
    for w in workloads:
        for name, summary in w.summary["end_to_end"].items():
            print(f"{w.name:<18} {name:<14} {summary['median']:>14.6g} "
                  f"{summary['q1']:>14.6g} {summary['q3']:>14.6g} "
                  f"{summary['n']:>4}  {e2e_units.get(name, '')}")
        print(f"{w.name:<18} {'failed_frac':<14} {w.summary['failed_frac']:>14.6g}"
              f" {'':>14} {'':>14} {w.summary['attempted']:>4}  ratio")
    if traced:
        names = []
        for w in workloads:
            names += [n for n in w.trace_metrics if n not in names]
        print(f"\n{'per-layer (single-shot traced replay)':<38}" +
              "".join(f" {w.name:>18}" for w in workloads))
        for name in names:
            row = f"{name:<38}"
            for w in workloads:
                value = w.trace_metrics.get(name)
                row += f" {value:>18.6g}" if value is not None else f" {'-':>18}"
            print(row)
    for w in workloads:
        for failure in w.failures:
            print(f"FAILED {w.name}: {failure}")


def main():
    parser = argparse.ArgumentParser(
        description="petastat host-time benchmark (see benchmark/README.md)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2008,
                        help="the only input: every generated input derives "
                             "from it (default 2008)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"instead of {REPEATS} repeats: repeat each "
                             "workload until its repeats took this long "
                             f"(at least {MIN_REPEATS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): add one traced replay per "
                             "workload and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default "
                             "build/benchmark/results_seed<N>.json)")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this seed's output digests in "
                             "benchmark/expected/ when two repeats agree "
                             "bit for bit")
    args = parser.parse_args()
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    cpus = len(os.sched_getaffinity(0))
    if cpus < MIN_CPUS:
        log(f"error: {cpus} CPUs available; the workloads need {MIN_CPUS} "
            "(petascale_stream and the service run 4 executor threads)")
        return 2
    e2e_units, layer_units = load_spec()
    if not build(jobs=min(MIN_CPUS, cpus)):
        return 1

    expected = load_expected(args.seed)
    workloads = [Workload(name) for name in (args.workload or WORKLOADS)]
    # A traced run reports per-layer metrics; its untraced repeats (which
    # still check outputs and fill the results file) get half the time, and
    # the traced process takes about the rest.
    seconds = args.seconds / 2 if args.seconds and args.trace else args.seconds
    calib_start, _, _ = run_bench(["calib"])
    for w in workloads:
        w.run(args.seed, measured=False)
    while not all(w.done(seconds) for w in workloads):
        for w in workloads:
            if not w.done(seconds):
                w.run(args.seed, measured=True)
    if args.trace:
        for w in workloads:
            w.run_trace(args.seed)
    calib_end, _, _ = run_bench(["calib"])

    attempted, failed = 0, 0
    for w in workloads:
        a, f = w.check_digests(expected, args.update_expected)
        attempted += a
        failed += f
        w.summary = {"end_to_end": w.end_to_end() if w.repeats else {},
                     "attempted": a, "failed": f,
                     "failed_frac": f / a if a else 1.0,
                     "traces": (w.processes[0]["record"] or {}).get("traces"),
                     "digest": w.digest, "failures": w.failures}
        if args.trace:
            w.summary["per_layer"] = w.trace_metrics
    host = host_fingerprint(calib_start, calib_end)
    if args.update_expected:
        write_expected(args.seed, workloads)

    subset = "" if len(workloads) == len(WORKLOADS) else "_" + "_".join(
        w.name for w in workloads)
    out = args.out or BUILD / f"results_seed{args.seed}{subset}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "host": host,
                               "workloads": {w.name: w.summary for w in workloads}},
                              indent=2) + "\n")
    print_tables(workloads, host, e2e_units, args.trace)
    print(f"results: {out}")

    metrics = {}
    prefix = len(workloads) > 1
    for w in workloads:
        if args.trace:
            values = {n: (w.trace_metrics.get(n), u) for n, u in layer_units.items()}
        else:
            values = {n: (w.summary["end_to_end"].get(n, {}).get("median"), u)
                      for n, u in e2e_units.items()}
        for name, (value, unit) in values.items():
            if value is None:
                failed += 1
                w.failures.append(f"metric {name} was not measured")
                continue
            key = f"{w.name}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
