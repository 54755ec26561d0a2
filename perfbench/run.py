"""obro benchmark: time to a certified bound, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload runs per call, one solve
at a time.  Each instance is solved by `engine.run`, then certified
outside the solve timing, and every result passes the correctness gate
of workloads.py.  Solves repeat in passes over the workload's instances
for S seconds (at least one pass).  Times are CPU seconds, scaled by the
host speed probe of hostspeed.py.

With --trace 0 the end-to-end metrics are measured; with --trace 1 half
the time runs untraced and half traced, and the per-layer metrics come
from the traced half.  The metrics are printed one per line with their
units, then the environment, then a JSON line with the keys correct,
attempted, failed and metrics.  Details and spans go to .bench_out/.
See NOTES.md for the workloads and what each metric should move.
"""

import argparse
import ctypes
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import hostspeed
import workloads
from obro import engine
from tracing import Tracer, clock

SETUP_PROBES = 5  # fresh interpreters timed per run; the median is setup_s
OUT_DIR = workloads.ROOT / ".bench_out"
SOLVE_PHASE, VERIFY_PHASE = "engine.run", "verify"

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@contextmanager
def stdout_captured(sink):
    """Point fd 1 at ``sink`` so solver chatter stays out of the metric
    stream; C-level buffers are flushed before fd 1 is restored."""
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes = [ctypes.c_void_p]
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(sink.fileno(), 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


@dataclass
class Row:
    """One instance's solve in one pass and its certification."""

    inst: workloads.Instance
    out: workloads.Outcome
    solve_s: float = math.nan  # CPU seconds
    verify_s: float = math.nan
    solve_wall_s: float = math.nan
    verify_wall_s: float = math.nan
    solve_at: tuple = ()  # (start, end) in time.monotonic
    verify_at: tuple = ()


def solve_and_certify(inst, tracer):
    """One timed `engine.run`, then the timed certification of its result,
    repeated for the instance's ``certify_s``; ``verify_s`` is per repeat.

    A collection first empties the young generations, so the collector
    runs at the same points of every repeat."""
    row = Row(inst, workloads.Outcome())
    span = tracer.span if tracer else (lambda name: nullcontext())
    gc.collect()
    try:
        start, start_wall = clock(), time.monotonic()
        with span(SOLVE_PHASE):
            result = engine.run(
                inst.prob, tol=inst.tol, max_iter=inst.max_iter, solver=inst.solver
            )
        solved, solved_wall = clock(), time.monotonic()
        row.out.status, row.out.iterations = result.status, len(result.history)
        row.out.lb, row.out.ub = float(result.lb), float(result.ub)
        repeats = 0
        with span(VERIFY_PHASE):
            while not repeats or clock() - solved < inst.certify_s:
                workloads.certify(inst, result, row.out)
                repeats += 1
        verified, verified_wall = clock(), time.monotonic()
        row.solve_s, row.verify_s = solved - start, (verified - solved) / repeats
        row.solve_wall_s = solved_wall - start_wall
        row.verify_wall_s = (verified_wall - solved_wall) / repeats
        row.solve_at, row.verify_at = (start_wall, solved_wall), (solved_wall, verified_wall)
    except Exception as exc:  # noqa: BLE001 - a raising instance counts as failed
        row.out.error = f"{type(exc).__name__}: {exc}"
    return row


def measure(instances, seconds, tracer=None):
    """Passes over the instances for ``seconds``: the first pass always
    runs, a later one only if a pass of median length still fits.  The
    seeded instances run in the first pass only, where the gate judges
    them; later passes repeat the timed instances.  Returns one record per
    pass: its rows and, when traced, its span, count and maximum window."""
    timed = [inst for inst in instances if not inst.seeded]
    seeded = [inst for inst in instances if inst.seeded]
    passes, lengths = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + median(lengths) <= seconds:
        began = time.perf_counter()
        if tracer:
            first, counts = len(tracer.spans), tracer.counts.copy()
            tracer.maxima.clear()
        rows = [solve_and_certify(inst, tracer) for inst in timed]
        if not passes:
            rows += [solve_and_certify(inst, tracer) for inst in seeded]
        window = None
        if tracer:
            window = (first, len(tracer.spans), tracer.counts - counts, dict(tracer.maxima))
        passes.append((rows, window))
        lengths.append(time.perf_counter() - began)
    return passes


def median(values):
    return statistics.median(values) if values else math.nan


def instance_times(passes, column):
    """Times per seed-independent instance, in pass order."""
    times = {}
    for rows, _ in passes:
        for row in rows:
            if not row.out.error and not row.inst.seeded:
                times.setdefault(row.inst.name, []).append(getattr(row, column))
    return times


def typical(passes, column):
    """Mean over the seed-independent instances of each one's mean time.

    Means, not medians: the host switches between a fast and a slow speed
    within a tenth of a second, so the times of one instance are bimodal.
    Their median jumps between the modes, while their mean moves smoothly
    with the share of slow time, as the probe's mean repeat time does."""
    return mean_of(statistics.fmean, instance_times(passes, column))


def scaled(passes, phase, probe):
    """`typical` time of ``phase`` ("solve" or "verify") in seconds of the
    reference host, scaled by the probe repeats that ran while it did."""
    intervals = [
        getattr(row, f"{phase}_at") for rows, _ in passes for row in rows
        if not row.out.error and not row.inst.seeded
    ]
    return typical(passes, f"{phase}_s") * probe.scale(intervals)


def mean_of(pick, times):
    return statistics.fmean(map(pick, times.values())) if times else math.nan


def setup_seconds(workload, seed):
    """CPU seconds of set-up in fresh interpreters, and the intervals in
    which they ran."""
    times, intervals = [], []
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(workloads.BENCH_DIR / "workloads.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=workloads.ROOT,
        )
        intervals.append((began, time.monotonic()))
        times.append(float(proc.stdout.split()[-1]))
    return times, intervals


def layer_metrics(tracer, rows, window):
    """Per-layer figures of one traced pass."""
    first, last, counts, maxima = window
    calls, total, own = tracer.layer_times(first, last)
    run, ver = SOLVE_PHASE, VERIFY_PHASE

    def counted(name, phases=(run, ver)):
        return sum(counts[p, name] for p in phases)

    def ratio(part, whole):  # 0 when nothing was certified: every solve raised
        return part / whole if whole else 0.0

    return {
        "engine.run_s": total[run, run],
        "engine.self_s": total[run, run] - total[run, "master.solve"]
        - total[run, "subproblem.solve"],
        "engine.iterations": sum(row.out.iterations for row in rows),
        "master.build_s": total[run, "master.build"],
        "master.milp_s": total[run, "master.milp"],
        "master.calls": calls[run, "master.solve"],
        "master.nodes": counted("master.nodes", (run,)),
        "master.binaries": maxima.get((run, "master.binaries"), 0),
        "master.rows": maxima.get((run, "master.rows"), 0),
        "master.cols": maxima.get((run, "master.cols"), 0),
        "master.nnz": maxima.get((run, "master.nnz"), 0),
        "subproblem.build_s": total[run, "subproblem.build"],
        "subproblem.lp_s": total[run, "subproblem.lp"],
        "subproblem.calls": calls[run, "subproblem.solve"],
        "model.validate_s": total[run, "model.validate"] + total[run, "model.scenario_issues"],
        "model.validate_calls": calls[run, "model.validate"],
        "model.scenario_issues_calls": calls[run, "model.scenario_issues"],
        "pwl.sup_distance_calls": calls[run, "pwl.sup_distance"],
        "linsolve.simplex_pivots": counted("linsolve.simplex_pivots"),
        "linsolve.bb_nodes": counted("linsolve.bb_nodes"),
        # per result certified once: a feeder result is certified repeatedly
        "verify.saddle_s": ratio(total[ver, "verify.saddle"] * len(rows),
                                 calls[ver, "verify.saddle"]),
        "oracle.grid_share": ratio(total[ver, "oracle.grid"], total[ver, ver]),
        "oracle.grid_points": counted("oracle.grid_points", (ver,)),
        "oracle.enum_share": ratio(total[ver, "oracle.enum"], total[ver, ver]),
        "oracle.enum_patterns": counted("oracle.enum_patterns", (ver,)),
    }, {f"{phase}/{name}": t for (phase, name), t in sorted(own.items())}


def git_commit():
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = workloads.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (workloads.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with hostspeed.Probe() as probe:
        setup_cpu, setup_at = setup_seconds(args.workload, args.seed) if not args.trace else ([], [])
        tracer = Tracer() if args.trace else None
        instances = workloads.setup(args.workload, args.seed, tracer.span if tracer else None)
        # what set-up left behind is never collected again: collections during
        # the solves walk the objects the solves make, not the benchmark's own
        gc.collect()
        gc.freeze()

        with tempfile.TemporaryFile(dir=OUT_DIR) as chatter:
            with stdout_captured(chatter):
                if tracer:
                    passes = measure(instances, args.seconds / 2)
                    tracer.install()
                    try:
                        traced = measure(instances, args.seconds / 2, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    passes, traced = measure(instances, args.seconds), []
            chatter.seek(0)
            text = chatter.read()
    chatter_lines = text.count(b"\n") + (1 if text and not text.endswith(b"\n") else 0)

    outcomes = [(row.inst, row.out) for rows, _ in passes + traced for row in rows]
    failures = [(inst, out, workloads.judge(inst, out)) for inst, out in outcomes]
    failed = sum(1 for *_, reasons in failures if reasons)
    uncertified = sum(1 for inst, out in outcomes if not out.error and out.excess > inst.tol)
    self_test_ok = all(workloads.gate_self_test(row.inst, row.out) for row in passes[0][0])
    for inst, out, reasons in failures:
        for reason in reasons:
            print(f"FAILED {inst.name}: {reason}", file=sys.stderr)
    if not self_test_ok:
        print("FAILED gate self-test: a shifted ub was not rejected", file=sys.stderr)

    solve_s, verify_s = scaled(passes, "solve", probe), scaled(passes, "verify", probe)
    if tracer:
        # the passes after the first hold the seed-independent instances only,
        # so their counts repeat exactly from pass to pass and from seed to
        # seed; times are medians over these passes
        per_pass = [layer_metrics(tracer, rows, window) for rows, window in traced[1:] or traced]
        metrics = {
            name: value if PER_LAYER_UNITS[name] == "count"
            else median([m[name] for m, _ in per_pass])
            for name, value in per_pass[0][0].items()
        }
        _, load_total, _ = tracer.layer_times(0, len(tracer.spans))
        metrics.update({
            "setup.load_s": load_total["setup.load", "setup.load"],
            "setup.assemble_s": load_total["setup.assemble", "setup.assemble"],
            "engine.uncertified_frac": uncertified / len(outcomes),
            "linsolve.highs_stdout_lines": chatter_lines,
            "trace.overhead_s": scaled(traced, "solve", probe) - solve_s,
        })
        units = PER_LAYER_UNITS
        self_times = per_pass[0][1]
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    else:
        metrics = {
            "setup_s": median([t * probe.scale([at]) for t, at in zip(setup_cpu, setup_at)]),
            "solve_s": solve_s,
            "verify_s": verify_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units, self_times = END_TO_END_UNITS, {}

    env = environment(args)
    summary = {
        "probe_repeat_s": statistics.fmean(probe.costs),
        "setup_cpu_s": median(setup_cpu),
        "solve_cpu_s": typical(passes, "solve_s"),
        "verify_cpu_s": typical(passes, "verify_s"),
        "passes": len(passes) + len(traced),
        "solves": len(outcomes),
        "solve_wall_s": typical(passes, "solve_wall_s"),
        "verify_wall_s": typical(passes, "verify_wall_s"),
        "failed_frac": failed / len(outcomes),
        "uncertified_frac": uncertified / len(outcomes),
        "gate_self_test": self_test_ok,
    }
    for name in units:
        print(f"{args.workload}  {name:<28} {metrics[name]!r} {units[name]}")
    for name, value in summary.items():
        print(f"{args.workload}  {name:<28} {value!r}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {
        "env": env,
        "summary": summary,
        "metrics": metrics,
        "self_time_one_traced_pass": self_times,
        "solve_times": instance_times(passes, "solve_s"),
        "verify_times": instance_times(passes, "verify_s"),
        "solve_intervals": instance_times(passes, "solve_at"),
        "verify_intervals": instance_times(passes, "verify_at"),
        "setup": {"cpu_s": setup_cpu, "intervals": setup_at},
        "probe": {"ends": probe.ends, "costs": probe.costs},
        "first_pass": [
            {"name": row.inst.name, "status": row.out.status, "lb": row.out.lb,
             "ub": row.out.ub, "iterations": row.out.iterations, "excess": row.out.excess,
             "checks": row.out.checks}
            for row in passes[0][0]
        ],
        "failures": [
            {"name": inst.name, "error": out.error, "reasons": reasons}
            for inst, out, reasons in failures if reasons
        ],
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0 and self_test_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
