"""fourgeo benchmark: one CLI command per fresh process, checked by an oracle.

    python3 bench/run.py --workload {paper,scan_high,symbolic,exotic}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (it needs src/fourgeo).  The load
is a closed loop with one client: the next `fourgeo` process starts only
after the previous one has exited and its output has been checked, so at
most one op process runs at any time.  An op is timed from spawn to exit,
which includes the interpreter start-up and imports that users pay on every
command, and which keeps memoization inside one process from counting.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
ops with the same ops run under bench/trace_child.py, reports the per-layer
metrics of the traced ones, the tracing overhead, and prints each layer's
share of op time next to the predictions in PREDICTIONS.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
# The machine's speed drifts by +-20% over seconds to minutes (shared
# cores), so every time is normalized: a calibration probe runs between
# consecutive ops, and each op's wall and CPU times are scaled by
# REFERENCE_PROBE_S / (mean of the probes just before and just after it).
# Reported times are therefore in reference seconds: what the op would take
# where the probe takes 80 ms (it takes 60-95 ms on a shared 2.1 GHz Xeon core).
REFERENCE_PROBE_S = 0.080
# Per-op limit; a timeout is a failed op.
TIMEOUT_S = {"paper": 60.0, "scan_high": 30.0, "symbolic": 30.0, "exotic": 30.0}
# Tail percentile per workload: the highest one that leaves at least ten ops
# beyond it at this commit's op rate with --seconds 25.  Fixed here so that
# both sides of a comparison report the same percentile.
TAIL_PCT = {"paper": 15, "scan_high": 75, "symbolic": 80, "exotic": 75}

LAYERS = ("cli", "script", "pipeline", "geography", "calculus", "knots", "algebra")

# Named per-layer metrics: span names (see trace_child.py) behind each, and
# whether it reports calls, self time, or both.
NAMED = {
    "algebra.poly_mul": (["algebra.Poly.__mul__"], "calls self_s"),
    "algebra.poly_eval": (["algebra.Poly.__call__"], "calls self_s"),
    "algebra.integer_valued": (["algebra.integer_valued"], "calls self_s"),
    "algebra.laurent_new": (["algebra.LaurentPoly.__post_init__"], "calls self_s"),
    "algebra.laurent_eval": (["algebra.LaurentPoly.__call__"], "calls self_s"),
    "algebra.laurent_str": (["algebra.LaurentPoly.__str__"], "self_s"),
    "knots.alexander": (["knots.torus_knot_alexander"], "calls self_s"),
    "knots.knot_validate": (["knots.Knot.__post_init__"], "self_s"),
    "knots.distinguish": (["knots.distinguish_family"], "self_s"),
    "calculus.require_count": (["calculus._require_count"], "calls"),
    "calculus.record_new": (["calculus.ManifoldRecord.__post_init__"], "calls"),
    "script.parse": (["script.parse"], "self_s"),
    "script.eval": (["script.evaluate"], "self_s"),
    "geography.render": (["geography.render_csv", "geography.render_svg"], "self_s"),
}
# Per-op counters the traced child derives from returned values.
COUNTERS = {
    "algebra.laurent_new.terms": ("laurent_terms", "count"),
    "knots.alexander.terms": ("alexander_terms", "count"),
    "knots.distinguish.pairs": ("distinguish_pairs", "count"),
    "calculus.require_count.poly_evals": ("require_count_poly_evals", "count"),
    "script.parse.nodes": ("parse_nodes", "count"),
    "geography.rows": ("geography_rows", "count"),
    "geography.bytes_out": ("geography_bytes", "bytes"),
}

# Layer metric -> end-to-end metric it should move -> on which workloads.
PREDICTIONS = [
    ("algebra.poly_mul / poly_eval / integer_valued", "op_p50_ms, op_cpu_ms", "symbolic (~0 on scan_high)"),
    ("algebra.laurent_new / laurent_eval, knots.alexander, knots.knot_validate",
     "op_p50_ms, peak_rss_mb", "paper; op_p50_ms on exotic (0 on scan_high, symbolic)"),
    ("knots.ledger_terms_kept_ratio", "op_p50_ms", "paper"),
    ("knots.distinguish, algebra.laurent_str, cli.bytes_out", "op_p50_ms", "exotic"),
    ("calculus.require_count, calculus.record_new", "op_p50_ms", "symbolic; records also scan_high"),
    ("pipeline.build_reuse_ratio", "op_p50_ms", "paper"),
    ("script.parse / script.eval", "op_p50_ms", "symbolic (0 elsewhere)"),
    ("geography.rows / render / bytes_out", "ops_per_s", "scan_high"),
    ("cli.import_s", "op_p50_ms", "every workload, most on symbolic"),
    ("algebra.max_coeff_bits", "(input size, should not move)", "every workload"),
]

# Cells predicted idle: (metric, workloads where it must read exactly 0).
IDLE = [
    ("knots.alexander.terms", ("scan_high", "symbolic")),
    ("algebra.poly_mul.calls", ("scan_high",)),
    ("script.calls", ("paper", "scan_high", "exotic")),
    ("script.parse.nodes", ("paper", "scan_high", "exotic")),
]


# Children see none of the caller's PYTHON* settings (such as
# PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so they run like an installed
# command: bytecode cached next to the sources, stdout block-buffered.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = os.path.join(ROOT, "src")


# A fresh interpreter that imports some of the standard library and does
# rational arithmetic and dict updates: the same kind of work as a fourgeo
# command, without fourgeo.
PROBE_CODE = """
import argparse, dataclasses, fractions, json
acc = fractions.Fraction(0)
for i in range(1, 200):
    acc += fractions.Fraction(1, i)
counts = {}
for i in range(20000):
    counts[i % 97] = counts.get(i % 97, 0) + i
assert acc > 0 and len(counts) == 97
"""


def calibration_probe() -> float:
    """Wall seconds of one run of PROBE_CODE in a child interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_CODE], env=CHILD_ENV, check=True)
    return time.perf_counter() - t0


class OpResult:
    def __init__(self, wall_s, cpu_s, rss_mb, ok, reason, stdout_bytes, speed):
        # speed: REFERENCE_PROBE_S / (probe time around this op); times
        # multiplied by it are in reference seconds.
        self.raw_wall_s = wall_s
        self.wall_s, self.cpu_s = wall_s * speed, cpu_s * speed
        self.rss_mb, self.ok, self.reason = rss_mb, ok, reason
        self.stdout_bytes, self.speed = stdout_bytes, speed


class Runner:
    def __init__(self, workload: str, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.spawned = 0
        self.last_probe: float | None = None

    def _assert_no_children(self) -> None:
        # Closed loop: no earlier op process may still exist (or be unreaped).
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        raise RuntimeError("an op process was still alive when the next op started")

    def run(self, op: workloads.Op, trace_path: str | None = None, probe: bool = True) -> OpResult:
        """Run one op and check its output; with probe, calibration probes
        bracket it and its times are normalized."""
        op_dir = os.path.join(self.work_dir, f"op{self.spawned}")
        os.makedirs(op_dir)
        env = dict(CHILD_ENV, TMPDIR=op_dir, XDG_CACHE_HOME=op_dir)
        if trace_path is None:
            cmd = [sys.executable, "-m", "fourgeo.cli", *op.argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"), trace_path, *op.argv]
        out_path = os.path.join(op_dir, "stdout")
        err_path = os.path.join(op_dir, "stderr")
        self._assert_no_children()
        self.spawned += 1
        timed_out = threading.Event()
        if probe and self.last_probe is None:
            self.last_probe = calibration_probe()
        before = self.last_probe
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=op_dir, env=env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)

            def kill():
                timed_out.set()
                try:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(TIMEOUT_S[self.workload], kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - t0
                timer.cancel()
                timer.join()
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
        speed = 1.0
        if probe:
            self.last_probe = calibration_probe()
            speed = REFERENCE_PROBE_S / ((before + self.last_probe) / 2)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if timed_out.is_set():
            reason = f"timed out after {TIMEOUT_S[self.workload]} s"
        elif proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                reason = f"exit code {proc.returncode}: {fh.read()[-200:].strip()}"
        else:
            reason = op.check(op_dir, stdout)
        result = OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                          reason is None, reason, len(stdout.encode("utf-8")), speed)
        shutil.rmtree(op_dir)
        return result


def setup(workload: str, seed: int, work_dir: str, runner: Runner) -> list[workloads.Op]:
    """Generate the seeded inputs, write the .geo files, run one untimed
    warm-up invocation (it compiles bytecode and warms the file cache)."""
    geo_dir = os.path.join(work_dir, "inputs")
    os.makedirs(geo_dir)
    rng = random.Random(seed * 16 + list(workloads.WORKLOADS).index(workload))
    ops = workloads.WORKLOADS[workload](rng, geo_dir)
    for op in ops:
        for name, text in op.files.items():
            with open(os.path.join(geo_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    result = runner.run(workloads.WARMUPS[workload], probe=False)
    if not result.ok:
        print(f"warm-up failed: {result.reason}", file=sys.stderr)
    return ops


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def normalized(trace: dict, speed: float) -> dict:
    """Scale a trace's times into reference seconds, like the op's own."""
    trace["import_s"] *= speed
    for stat in trace["stats"].values():
        stat[1] *= speed
    return trace


def layer_metrics(traces: list[dict], traced: list[OpResult]) -> dict[str, tuple[float, str]]:
    """Per-op means of the traced ops' counts and self times, and the two
    waste ratios computed from the totals."""
    k = len(traces)
    stats: dict[str, list] = {}
    for t in traces:
        for name, (calls, self_s, errors) in t["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0])
            s[0] += calls
            s[1] += self_s
            s[2] += errors
    counters = {key: sum(t["counters"][key] for t in traces) for key in traces[0]["counters"]}

    def total(names, idx):
        return sum(stats.get(n, (0, 0.0, 0))[idx] for n in names)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [n for n in stats if n.split(".")[0] == layer]
        m[f"{layer}.calls"] = (total(names, 0) / k, "count")
        m[f"{layer}.self_s"] = (total(names, 1) / k, "s")
        m[f"{layer}.errors"] = (total(names, 2), "count")
    m["blocks.calls"] = (total([n for n in stats if n.startswith("blocks.")], 0) / k, "count")
    for metric, (names, fields) in NAMED.items():
        if "calls" in fields:
            m[f"{metric}.calls"] = (total(names, 0) / k, "count")
        if "self_s" in fields:
            m[f"{metric}.self_s"] = (total(names, 1) / k, "s")
    for metric, (key, unit) in COUNTERS.items():
        m[metric] = (counters[key] / k, unit)
    laurent = [n for n in stats if n.startswith("algebra.LaurentPoly.")]
    m["algebra.laurent.self_s"] = (total(laurent, 1) / k, "s")
    m["cli.bytes_out"] = (sum(r.stdout_bytes for r in traced) / k, "bytes")
    m["cli.import_s"] = (sum(t["import_s"] for t in traces) / k, "s")
    m["algebra.max_coeff_bits"] = (max(t["counters"]["max_coeff_bits"] for t in traces), "bits")
    made = counters["ledger_materialized"]
    m["knots.ledger_terms_kept_ratio"] = (counters["ledger_kept"] / made if made else 0.0, "ratio")
    attempts = counters["stage_attempts"]
    distinct = sum(t["stage_distinct"] for t in traces)
    m["pipeline.build_reuse_ratio"] = (distinct / attempts if attempts else 1.0, "ratio")
    return m


def print_shares(workload: str, m: dict, traced_wall_s: float) -> None:
    print(f"layer shares of traced op time on {workload} "
          f"(mean traced op {traced_wall_s * 1000:.1f} ms):")
    rows = [(layer, m[f"{layer}.self_s"][0]) for layer in LAYERS]
    rows.append(("import", m["cli.import_s"][0]))
    rows.append(("start-up/exit", traced_wall_s - sum(v for _, v in rows)))
    for name, value in sorted(rows, key=lambda r: -r[1]):
        print(f"  {name:14s} {value * 1000:9.2f} ms  {100 * value / traced_wall_s:5.1f}%")
        if name == "algebra":
            value = m["algebra.laurent.self_s"][0]
            print(f"    {'LaurentPoly':12s} {value * 1000:9.2f} ms  {100 * value / traced_wall_s:5.1f}%")
    print("predictions (layer metric -> end-to-end metric -> workload):")
    for layer_metric, e2e, where in PREDICTIONS:
        print(f"  {layer_metric} -> {e2e} -> {where}")
    for metric, idle_on in IDLE:
        if workload in idle_on:
            verdict = "idle" if m[metric][0] == 0 else "NOT IDLE"
            print(f"  predicted idle on {workload}: {metric} = {m[metric][0]:g} ({verdict})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (os.path.join("src", "fourgeo", "cli.py"), os.path.join("scripts", "kn.geo"))
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a fourgeo source checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    oracle.self_check()

    base = os.path.join(BENCH_DIR, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(args, base: str) -> int:
    setup_times = []
    for i in range(SETUPS):
        work_dir = os.path.join(base, f"setup{i}")
        runner = Runner(args.workload, work_dir)
        before = calibration_probe()
        t0 = time.perf_counter()
        ops = setup(args.workload, args.seed, work_dir, runner)
        elapsed = time.perf_counter() - t0
        speed = REFERENCE_PROBE_S / ((before + calibration_probe()) / 2)
        setup_times.append(elapsed * speed)

    results: list[OpResult] = []
    traced: list[OpResult] = []
    traces: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while not results or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        results.append(runner.run(op))
        if args.trace:
            trace_path = os.path.join(base, f"trace{len(traces)}.json")
            traced.append(runner.run(op, trace_path))
            if os.path.exists(trace_path):
                traces.append(normalized(load_trace(trace_path), traced[-1].speed))
                if len(traces) == 1:
                    keep = os.path.join(BENCH_DIR, "_out")
                    os.makedirs(keep, exist_ok=True)
                    shutil.copy(trace_path, os.path.join(keep, f"trace-{args.workload}.json"))
                os.remove(trace_path)

    every = results + traced
    failed = [r for r in every if not r.ok]
    for r in failed[:5]:
        print(f"failed op: {r.reason}")
    walls = [r.wall_s * 1000 for r in results]
    print(f"raw op wall time: median {statistics.median(r.raw_wall_s for r in results) * 1000:.1f} ms; "
          f"machine speed factor (reference probe / probe): median "
          f"{statistics.median(r.speed for r in results):.3f}, "
          f"range {min(r.speed for r in results):.3f}..{max(r.speed for r in results):.3f}")
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} untraced ops"
          + (f" + {len(traced)} traced ops" if args.trace else "")
          + f", {len(failed)} failed; at most one op process at a time "
            f"(checked before each of {runner.spawned} spawns in the last set-up and loop)")

    if not args.trace:
        pct = TAIL_PCT[args.workload]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (sum(r.ok for r in results) / sum(r.wall_s for r in results), "1/s"),
            "op_p50_ms": (statistics.median(walls), "ms"),
            "op_tail_ms": (percentile(walls, pct), "ms"),
            "op_cpu_ms": (statistics.median(r.cpu_s * 1000 for r in results), "ms"),
            "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
            "success_rate": ((len(results) - len(failed)) / len(results), "ratio"),
        }
        print(f"op_tail_ms is the p{pct} op time over {len(results)} ops "
              f"({len(results) - math.ceil(pct / 100 * len(results))} ops beyond it)")
    else:
        if not traces:
            print("error: no traced op wrote a trace", file=sys.stderr)
            return 1
        metrics = layer_metrics(traces, traced)
        traced_walls = [r.wall_s * 1000 for r in traced]
        metrics["tracing_overhead_ms"] = (statistics.median(traced_walls) - statistics.median(walls), "ms")
        print_shares(args.workload, metrics, statistics.mean(r.wall_s for r in traced))

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
