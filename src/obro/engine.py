"""The alternating loop: generate a worst case, cut, re-decide, repeat.

Upper bounds come from adversary values at the current decision, lower
bounds from the growing master, which sums each term's worst stored
function and so is never below the worst whole stored scenario; the
loop stops when they pinch to the tolerance, when a generated scenario
repeats an earlier one (a fixed point, so the pair is already a
semi-global saddle point), or at the iteration cap.  From the second
iteration on, a second worst case is taken between the incumbent and
the iterate (in-out separation, Ben-Ameur & Neto 2007), which shortens
the cutting-plane tail on the lower bound.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from obro.linsolve import Solver
from obro.master import solve_master
from obro.model import ObroProblem, reference_scenario, validate
from obro.pwl import sup_distance
from obro.subproblem import solve_subproblem

__all__ = ["IterationRecord", "EngineResult", "SaddleReport", "run", "verify_saddle"]

log = logging.getLogger("obro.engine")

DUPLICATE_TOL = 1e-9
# sup distance within which verify_saddle takes the worst case at the last
# master iterate as one already stored
FIXED_POINT_TOL = 1e-6
# the in-out point's step from the incumbent toward the master iterate
_IN_OUT_ALPHA = 0.5


def in_phase(phase: str, fn, *args):
    """``fn(*args)``.  An error it raises is raised again ``from`` the
    original with ``phase`` leading its message: of the same type when
    that type takes the message alone, else a RuntimeError."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - annotate with the phase
        message = f"{phase}: {exc}"
        try:
            error = type(exc)(message)
        except TypeError:  # the constructor wants more than a message
            error = RuntimeError(message)
        raise error from exc


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x: np.ndarray
    sub_value: float
    in_out_value: float  # NaN when the in-out step was skipped
    ub: float
    lb: float
    wall_ms: float

    @property
    def gap(self) -> float:
        return self.ub - self.lb


@dataclass(frozen=True)
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


def _worst_case(prob: ObroProblem, x, scenarios: list, solver, phase: str):
    """The adversary step: the worst case at ``x``, its value, and its sup
    distance to the nearest stored scenario (the pool always holds the
    reference)."""
    scen, value = in_phase(phase, solve_subproblem, prob, x, solver)
    distance = min(
        max(sup_distance(fa, fb) for fa, fb in zip(scen.functions, s.functions))
        for s in scenarios
    )
    return scen, value, distance


def run(
    prob: ObroProblem,
    tol: float = 1e-2,
    max_iter: int = 100,
    solver: Solver | None = None,
) -> EngineResult:
    """Alternate adversary and decision maker until the bounds pinch.

    Each iteration appends one IterationRecord to the result's history.
    Scenario pools never hold duplicates: a repeated worst case certifies
    a fixed point and ends the run as converged.  After a new iterate's
    worst case joins the pool, the adversary is also solved at the point
    ``_IN_OUT_ALPHA`` of the way from the incumbent to the iterate; its
    worst case joins the pool too unless it repeats one, and the point
    becomes the incumbent when its value beats the UB.
    """
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    scenarios = [reference_scenario(prob)]
    ub, x_best = np.inf, None

    x, lb = in_phase("initial master solve", solve_master, prob, scenarios, solver)
    log.info("init: x0 ready, master bound %.6g", lb)

    history = []
    status, message = "max-iterations", ""
    for k in range(max_iter):
        start = time.perf_counter()
        scen, value, dup = _worst_case(prob, x, scenarios, solver, f"iteration {k}, subproblem")
        c, in_out_value = x_best, np.nan
        if value < ub:
            ub, x_best = value, x

        if dup <= DUPLICATE_TOL:
            # repeated scenario: the pool did not change, so the last
            # master bound stands as the LB
            status = "converged"
            message = f"fixed point: scenario repeated within {DUPLICATE_TOL:g}"
        else:
            scenarios.append(scen)
            if c is not None and not np.array_equal(c, x):
                x_s = c + _IN_OUT_ALPHA * (x - c)
                scen_s, in_out_value, dup_s = _worst_case(
                    prob, x_s, scenarios, solver, f"iteration {k}, in-out subproblem"
                )
                if dup_s > DUPLICATE_TOL:
                    scenarios.append(scen_s)
                if in_out_value < ub:
                    ub, x_best = in_out_value, x_s
            x, lb = in_phase(f"iteration {k}, master", solve_master, prob, scenarios, solver)
            if ub - lb <= tol:
                status = "converged"
                message = f"gap {ub - lb:.3g} within tolerance"
        log.info("k=%d UB %.6g LB %.6g gap %.3g in-out %.6g", k, ub, lb, ub - lb, in_out_value)
        wall = 1e3 * (time.perf_counter() - start)
        history.append(IterationRecord(k, x.copy(), value, in_out_value, ub, lb, wall))
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
    _, value, fp_distance = _worst_case(prob, result.x, result.scenarios, solver, "inner check")
    inner_excess = value - result.ub
    _, eta = in_phase("outer check", solve_master, prob, result.scenarios, solver)
    outer_shift = abs(eta - result.lb)
    if not np.array_equal(result.x_master, result.x):
        _, _, fp_distance = _worst_case(
            prob, result.x_master, result.scenarios, solver, "fixed-point check"
        )
    return SaddleReport(
        inner_ok=bool(inner_excess <= tol),
        inner_excess=float(inner_excess),
        outer_ok=bool(outer_shift <= tol),
        outer_shift=float(outer_shift),
        fixed_point_ok=bool(fp_distance <= FIXED_POINT_TOL),
        fixed_point_distance=float(fp_distance),
    )
