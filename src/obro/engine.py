"""The alternating loop: generate a worst case, cut, re-decide, repeat.

Upper bounds come from adversary values at the current decision, lower
bounds from the growing master, which sums each term's worst stored
function and so is never below the worst whole stored scenario; the
loop stops when they pinch to the tolerance, when a generated scenario
repeats an earlier one (a fixed point, so the pair is already a
semi-global saddle point), or at the iteration cap.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from obro.linsolve import Solver
from obro.master import solve_master
from obro.model import ObroProblem, Scenario, reference_scenario, validate
from obro.pwl import sup_distance
from obro.subproblem import solve_subproblem

__all__ = ["IterationRecord", "EngineResult", "SaddleReport", "run", "verify_saddle"]

log = logging.getLogger("obro.engine")

DUPLICATE_TOL = 1e-9
# sup distance within which verify_saddle takes the worst case at the last
# master iterate as one already stored
FIXED_POINT_TOL = 1e-6


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x: np.ndarray
    sub_value: float
    ub: float
    lb: float
    wall_ms: float

    @property
    def gap(self) -> float:
        return self.ub - self.lb


@dataclass
class EngineResult:
    """``x`` is the certified incumbent: the evaluated decision whose
    adversary value is ``ub``.  ``x_master`` is the last master iterate,
    which the adversary has not evaluated unless the run ended at a
    fixed point."""

    status: str  # converged | max-iterations
    x: np.ndarray
    x_master: np.ndarray
    scenarios: list
    history: list = field(default_factory=list)
    message: str = ""

    @property
    def ub(self) -> float:
        return self.history[-1].ub if self.history else np.inf

    @property
    def lb(self) -> float:
        return self.history[-1].lb if self.history else -np.inf

    @property
    def gap(self) -> float:
        return self.ub - self.lb

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _scenario_distance(a: Scenario, b: Scenario) -> float:
    return max(sup_distance(fa, fb) for fa, fb in zip(a.functions, b.functions))


def run(
    prob: ObroProblem,
    tol: float = 1e-2,
    max_iter: int = 100,
    solver: Solver | None = None,
) -> EngineResult:
    """Alternate adversary and decision maker until the bounds pinch.

    Each iteration appends one IterationRecord to the result's history.
    Scenario pools never hold duplicates: a repeated worst case certifies
    a fixed point and ends the run as converged.
    """
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    scenarios = [reference_scenario(prob)]
    ub = np.inf
    x_best = None

    try:
        x, lb = solve_master(prob, scenarios, solver)
    except Exception as exc:  # noqa: BLE001 - annotate with the phase
        raise type(exc)(f"initial master solve: {exc}") from exc
    log.info("init: x0 ready, master bound %.6g", lb)

    history = []
    status, message = "max-iterations", ""
    for k in range(max_iter):
        start = time.perf_counter()
        try:
            scen, value = solve_subproblem(prob, x, solver)
        except Exception as exc:
            raise type(exc)(f"iteration {k}, subproblem: {exc}") from exc
        if value < ub:
            ub, x_best = value, x

        dup = min((_scenario_distance(scen, s) for s in scenarios), default=np.inf)
        if dup <= DUPLICATE_TOL:
            # repeated scenario: the pool did not change, so the last
            # master bound stands as the LB
            status = "converged"
            message = f"fixed point: scenario repeated within {DUPLICATE_TOL:g}"
            log.info("k=%d fixed point, gap %.3g", k, ub - lb)
        else:
            scenarios.append(scen)
            try:
                x, lb = solve_master(prob, scenarios, solver)
            except Exception as exc:
                raise type(exc)(f"iteration {k}, master: {exc}") from exc
            log.info("k=%d UB %.6g LB %.6g gap %.3g", k, ub, lb, ub - lb)
            if ub - lb <= tol:
                status = "converged"
                message = f"gap {ub - lb:.3g} within tolerance"
        wall = 1e3 * (time.perf_counter() - start)
        history.append(IterationRecord(k, x.copy(), value, ub, lb, wall))
        if status == "converged":
            break

    return EngineResult(status, x_best.copy(), x.copy(), scenarios, history, message)


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of the three fixed-point/saddle checks.

    inner: re-solving the adversary at the returned decision gains nothing
    beyond the upper bound.  outer: re-solving the master over the final
    pool reproduces the bound.  fixed_point: the adversary at the last
    master iterate regenerates a stored scenario.
    """

    inner_ok: bool
    inner_excess: float
    outer_ok: bool
    outer_shift: float
    fixed_point_ok: bool
    fixed_point_distance: float

    @property
    def passed(self) -> bool:
        return self.inner_ok and self.outer_ok and self.fixed_point_ok

    def rows(self):
        return [
            ("inner global optimality", self.inner_ok, self.inner_excess),
            ("outer value stability", self.outer_ok, self.outer_shift),
            ("fixed point", self.fixed_point_ok, self.fixed_point_distance),
        ]

    def __str__(self):
        return "; ".join(
            f"{name}: {'pass' if ok else 'FAIL'} ({v:.3e})" for name, ok, v in self.rows()
        )


def verify_saddle(
    prob: ObroProblem,
    result: EngineResult,
    tol: float = 1e-4,
    solver: Solver | None = None,
) -> SaddleReport:
    """Re-solve both sides and report the three checks.

    The inner check runs at the returned incumbent ``result.x``.  The
    fixed-point check runs at the last master iterate ``result.x_master``:
    the incumbent's own worst case is always in the pool, so only the
    iterate can show that the pool has stopped growing.  That check is
    conclusive only for runs that end on a repeated scenario: a run that
    converges on the gap, or is truncated, stops before the adversary
    has seen the iterate, whose worst case is then usually new, so the
    check fails there although the bounds hold.

    The inner and outer checks pass within ``tol``; the fixed-point check
    passes when that worst case lies within ``FIXED_POINT_TOL`` (sup
    distance) of a stored scenario.
    """
    scen_star, value_star = solve_subproblem(prob, result.x, solver)
    inner_excess = value_star - result.ub
    _, eta = solve_master(prob, result.scenarios, solver)
    outer_shift = abs(eta - result.lb)
    if not np.array_equal(result.x_master, result.x):
        scen_star, _ = solve_subproblem(prob, result.x_master, solver)
    fp_distance = min(_scenario_distance(scen_star, s) for s in result.scenarios)
    return SaddleReport(
        inner_ok=bool(inner_excess <= tol),
        inner_excess=float(inner_excess),
        outer_ok=bool(outer_shift <= tol),
        outer_shift=float(outer_shift),
        fixed_point_ok=bool(fp_distance <= FIXED_POINT_TOL),
        fixed_point_distance=float(fp_distance),
    )
