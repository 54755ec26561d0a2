"""Workload inputs, certification and the correctness gate of the obro benchmark.

Run as a script (``python3 perfbench/workloads.py WORKLOAD SEED``) it sets
one workload up in a fresh interpreter and prints the CPU seconds the
interpreter spent from its start, imports included; run.py starts it
several times to measure set-up.
"""

import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

if not (SRC / "obro" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: obro sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

import obro
from obro import bess, configio
from obro.engine import verify_saddle
from obro.linsolve import HighsSolver, default_solver
from obro.model import ObroProblem, UncertainTerm
from obro.oracle import GRID_BUDGET, brute_force_subproblem, enumerate_master
from obro.pwl import NeighborhoodSpec, Partition, SampledFunction, sup_distance
from obro.subproblem import solve_subproblem

if Path(obro.__file__).resolve().parent != SRC / "obro":
    raise SystemExit(f"benchmark: imported obro from {obro.__file__}, not {SRC}")

WORKLOADS = ("bess-day", "reduction-fine", "generic-verify")
FEEDER_CERTIFY_S = 5.0  # CPU seconds of repeated certification per feeder result
GENERIC_CONFIGS = (
    "tiny_identity",
    "two_pocket",
    "two_term_coupled",
    "degenerate_delta0",
    "two_pocket_truncated",
)
N_RANDOM = 20  # seeded random instances per generic-verify pass
RANDOM_TOL = 1e-6
RANDOM_MAX_ITER = 100
GRID_LEVELS = 101  # the `obro verify` default
GRID_WORK_CAP = GRID_BUDGET // 10  # keeps one grid oracle call well under a second
SADDLE_TOL = 1e-4  # as `obro verify`
FIXED_POINT_TOL = 1e-6  # as `verify_saddle`
ENUM_TOL = 1e-6  # as `obro verify`
FLOAT_SLACK = 1e-9  # relative rounding allowance when comparing brackets

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


@dataclass
class Instance:
    """One problem as the benchmark runs it: solved by `engine.run`, then
    certified.  ``expect`` is the recorded reference (status, [lb, ub],
    checks expected to pass); ``oracles`` adds the saddle checks and the
    two brute-force oracles to the certification, as `obro verify` does.
    ``seeded`` marks the random instances: their solve times swing between
    one-iteration and multi-iteration draws, so the timings leave them out
    and they widen the correctness gate only.  The certification repeats
    until ``certify_s`` CPU seconds have passed, at least once."""

    name: str
    prob: ObroProblem
    tol: float
    max_iter: int
    solver: object
    expect: dict
    oracles: bool
    seeded: bool = False
    certify_s: float = 0.0


@dataclass
class Outcome:
    """What one solve and its certification produced."""

    status: str = "error"
    lb: float = math.nan
    ub: float = math.nan
    iterations: int = 0
    adversary: float = math.nan  # adversary value at the returned x
    checks: dict = field(default_factory=dict)
    error: str = ""

    @property
    def excess(self) -> float:
        return self.adversary - self.ub


def random_instance(rng, index: int) -> Instance:
    """One draw from the acceptance-test family of strictly monotone terms
    (1-2 terms, 2-3 samples, 1-3 evaluation points), plus a negative linear
    cost so the decision is not pinned at the lower bounds.  References
    rise by at least 2*delta/(L-1) per segment, so the grid oracle's gap
    bound is exact; the cost leaves the adversary problem unchanged."""
    n_terms = int(rng.integers(1, 3))
    split = rng.integers(0, n_terms, size=int(rng.integers(1, 4)))
    terms, upper = [], []
    var = 0
    for ti in range(n_terms):
        n = int(rng.integers(2, 4))
        span = float(rng.uniform(0.5, 1.5))
        interior = np.sort(rng.uniform(0.15, 0.85, n - 2)) * span if n > 2 else []
        points = np.concatenate([[0.0], interior, [span]])
        slopes = rng.uniform(0.5, 1.5, n - 1)
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(points))])
        lip = 3.0
        min_rise = float(np.min(np.abs(np.diff(values))))
        delta = float(rng.uniform(0.2, 0.8) * (lip - 1) * min_rise / 2)
        dev = 10.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 0.8) * delta * span)
        evals = tuple(var + k for k in range(max(1, int(np.sum(split == ti)))))
        var = evals[-1] + 1
        spec = NeighborhoodSpec(SampledFunction(Partition(points), values), delta, dev, lip)
        terms.append(UncertainTerm(f"f{ti}", spec, evals))
        upper.extend([span] * len(evals))
    prob = ObroProblem(
        c=-rng.uniform(0.0, 1.5, var),
        rows=[],
        lower=np.zeros(var),
        upper=np.array(upper),
        epsilon=0.1,
        terms=terms,
    )
    return Instance(
        f"random[{index}]", prob, RANDOM_TOL, RANDOM_MAX_ITER, default_solver(),
        REFERENCE["random"], oracles=True, seeded=True,
    )


def setup(workload: str, seed: int, span=None) -> list:
    """Load or generate the workload's instances, assembled and ready to
    solve.  ``span(name)``, when given, returns a context manager wrapped
    around the load and assembly phases."""
    span = span or (lambda name: nullcontext())
    if workload in ("bess-day", "reduction-fine"):
        import scipy.optimize  # noqa: F401 - HighsSolver imports these lazily
        import scipy.sparse  # noqa: F401

        config, step = {
            "bess-day": ("bess_8node.json", None),
            "reduction-fine": ("bess_reduction.json", 0.001),
        }[workload]
        with span("setup.load"):
            cfg = configio.load_config(CONFIGS / config)
            feeder, inputs, schemes, options = configio.bess_case_from_config(cfg)
            inputs.scheme = step if step is not None else schemes["benchmark"]
        with span("setup.assemble"):
            prob = bess.assemble_bess_problem(feeder, inputs)
        return [
            Instance(workload, prob, options["tol"], options["max_iter"], HighsSolver(),
                     REFERENCE[workload], oracles=False, certify_s=FEEDER_CERTIFY_S)
        ]
    if workload != "generic-verify":
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    instances = []
    for name in GENERIC_CONFIGS:
        with span("setup.load"):
            cfg = configio.load_config(CONFIGS / f"{name}.json")
        with span("setup.assemble"):
            prob, options = configio.problem_from_config(cfg)
        instances.append(
            Instance(name, prob, options["tol"], options["max_iter"], default_solver(),
                     REFERENCE[name], oracles=True)
        )
    rng = np.random.default_rng(seed)
    with span("setup.assemble"):
        instances.extend(random_instance(rng, i) for i in range(N_RANDOM))
    return instances


def grid_levels(prob: ObroProblem) -> int:
    """Largest odd level count up to the `obro verify` default whose grid
    fits the work cap; odd so the reference itself is a grid point."""
    levels = GRID_LEVELS
    while levels > 3:
        work = sum(
            (levels if t.spec.delta_max > 0 else 1) ** t.spec.partition.n_points
            for t in prob.terms
        )
        if work <= GRID_WORK_CAP:
            break
        levels -= 2
    return levels


def saddle_checks(inst: Instance, result):
    """The adversary value at the returned decision and the saddle checks.

    Generic instances get `verify_saddle`, as `obro verify` runs it.  The
    feeders get the adversary LP at the returned decision and the
    fixed-point check it allows, but no master re-solve: `obro bess`
    certifies nothing, and the re-solve would take as long as the run's
    last master MILP."""
    if inst.oracles:
        report = verify_saddle(inst.prob, result, tol=SADDLE_TOL, solver=inst.solver)
        checks = {"outer": report.outer_ok, "fixed_point": report.fixed_point_ok}
        return result.ub + report.inner_excess, checks
    scenario, value = solve_subproblem(inst.prob, result.x, inst.solver)
    distance = min(
        max(sup_distance(a, b) for a, b in zip(scenario.functions, s.functions))
        for s in result.scenarios
    )
    return float(value), {"fixed_point": bool(distance <= FIXED_POINT_TOL)}


def certify(inst: Instance, result, outcome: Outcome):
    """The checks of `obro verify`, phrased against the adversary value at
    the returned decision so that they do not depend on which iterate the
    engine returns.  Feeder instances get the saddle checks only: their
    grids and segment patterns are far beyond the oracle budgets."""
    prob = inst.prob
    outcome.adversary, outcome.checks = saddle_checks(inst, result)
    if not inst.oracles:
        return
    levels = grid_levels(prob)
    grid, _ = brute_force_subproblem(prob, result.x, levels)
    enum, _ = enumerate_master(prob, result.scenarios)
    step = max(2 * t.spec.delta_max / (levels - 1) for t in prob.terms)
    lipschitz = sum(
        len(t.eval_indices) + prob.epsilon * (t.spec.partition.hi - t.spec.partition.lo)
        for t in prob.terms
    )
    outcome.checks.update(
        grid_below_adversary=bool(grid <= outcome.adversary + 1e-9),
        adversary_within_grid_gap=bool(outcome.adversary <= grid + lipschitz * step + 1e-9),
        enumeration_matches_lb=bool(abs(enum - result.lb) <= ENUM_TOL),
    )


def judge(inst: Instance, out: Outcome) -> list:
    """Reasons the outcome counts as failed; empty when it is correct.

    Any valid run brackets the true min-max value, so its [lb, ub] must
    meet the recorded reference bracket, and a run expected to converge
    must have closed its gap to tol.  Checks recorded as passing must
    still pass.  The distance of the adversary value at x above ub is
    reported as uncertified, not judged here."""
    exp = inst.expect
    if out.error:
        return [f"raised: {out.error}"]
    reasons = []
    if out.status != exp["status"]:
        reasons.append(f"status {out.status}, expected {exp['status']}")
    if exp["status"] == "converged" and not out.ub - out.lb <= inst.tol:
        reasons.append(f"gap {out.ub - out.lb:.3g} above tol {inst.tol:g}")
    if "ub" in exp:
        slack = FLOAT_SLACK * max(1.0, abs(exp["ub"]))
        if not (out.lb <= exp["ub"] + slack and exp["lb"] <= out.ub + slack):
            reasons.append(
                f"[{out.lb!r}, {out.ub!r}] misses reference [{exp['lb']!r}, {exp['ub']!r}]"
            )
    reasons.extend(f"check {c} failed" for c in exp["checks"] if not out.checks.get(c))
    return reasons


def gate_self_test(inst: Instance, out: Outcome) -> bool:
    """A correct outcome of a converging instance with a reference bracket
    must turn failed once its ub moves by 2*tol either way."""
    if judge(inst, out) or inst.expect["status"] != "converged" or "ub" not in inst.expect:
        return True
    return all(judge(inst, replace(out, ub=out.ub + d)) for d in (2 * inst.tol, -2 * inst.tol))


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
    print(repr(time.process_time()))
