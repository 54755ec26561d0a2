"""Worst-case function generation: the inner maximization as an LP.

Given the current decision, the adversary picks sample values for every
uncertain term to maximize the interpolated objective minus the deviation
penalty, subject to the neighborhood constraints; the LP minimizes the
negated value.  Decision variables per term: the sampled values, boxed
by their bounds to the sup radius, one absolute-deviation slack per
sample point, and the term's total deviation, bounded by the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from obro.linsolve import LinearProgram, Row, Solver, default_solver, solve_lp
from obro.model import ObroProblem, Scenario, scenario_issues, validate
from obro.pwl import (
    SampledFunction,
    sample_coefficients,
    trapezoid_deviation,
    trapezoid_weights,
)

__all__ = ["build_subproblem", "solve_subproblem"]


class SubproblemError(RuntimeError):
    """Internal inconsistency: the adversary LP must be feasible and bounded
    for any valid problem (the reference point is always feasible and the
    sample columns' bounds box every value to the sup radius)."""


@dataclass(frozen=True)
class AdversaryBlock:
    """The part of the adversary LP that no decision changes: column
    offsets per term (values block, slack block, deviation variable) and
    the program every build starts from, ``lp``, whose read-only cost is
    the deviation penalty alone.  Held by the problem as
    ``ObroProblem.adversary``."""

    offsets: tuple
    lp: LinearProgram


def adversary_block(prob: ObroProblem) -> AdversaryBlock:
    """Validate the problem and build its block; `ObroProblem.adversary`
    calls this once per problem."""
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))

    offsets = []
    base = 0
    for term in prob.terms:
        n = term.spec.partition.n_points
        offsets.append((base, base + n, base + 2 * n))
        base += 2 * n + 1
    c = np.zeros(base)
    lower = np.full(base, -np.inf)
    upper = np.full(base, np.inf)
    rows = []

    for term, (f0, s0, d0) in zip(prob.terms, offsets):
        spec = term.spec
        part = spec.partition
        ref = spec.reference.values
        n = part.n_points

        lower[f0 : f0 + n] = ref - spec.delta_max  # the sup radius box
        upper[f0 : f0 + n] = ref + spec.delta_max
        lower[s0 : s0 + n] = 0.0  # slacks are nonnegative
        lower[d0] = 0.0
        upper[d0] = spec.dev_max  # the deviation budget
        c[d0] = prob.epsilon

        for p in range(n - 1):
            cap = spec.lip_ratio * abs(ref[p] - ref[p + 1])
            rows.append(
                Row({f0 + p: 1.0, f0 + p + 1: -1.0}, "<=", cap, f"{term.name}.ratio+[{p}]")
            )
            rows.append(
                Row({f0 + p: -1.0, f0 + p + 1: 1.0}, "<=", cap, f"{term.name}.ratio-[{p}]")
            )
        for p in range(n):
            rows.append(
                Row({f0 + p: 1.0, s0 + p: -1.0}, "<=", ref[p], f"{term.name}.abs+[{p}]")
            )
            rows.append(
                Row({f0 + p: -1.0, s0 + p: -1.0}, "<=", -ref[p], f"{term.name}.abs-[{p}]")
            )
        weights = trapezoid_weights(part.points)
        coeffs = {s0 + p: -w for p, w in enumerate(weights)}
        coeffs[d0] = 1.0
        rows.append(Row(coeffs, "=", 0.0, f"{term.name}.quadrature"))

    for a in (c, lower, upper):
        a.flags.writeable = False  # shared by every LP built from the block
    return AdversaryBlock(tuple(offsets), LinearProgram(c, rows, lower, upper))


def build_subproblem(prob: ObroProblem, x_k: np.ndarray) -> LinearProgram:
    """Assemble the adversary LP at decision ``x_k``; it minimizes the
    negated adversary value.

    Only the cost depends on ``x_k``: the rows, which carry their HiGHS
    form and phase-1 start, and the bounds are the block's program's,
    built once.  The certain cost c.x_k is a constant and stays out of
    the LP; callers re-add it when reporting values.
    """
    block = prob.adversary
    lp = block.lp
    x_k = np.asarray(x_k, dtype=float)
    c = lp.c.copy()
    for term, (f0, _, _) in zip(prob.terms, block.offsets):
        part = term.spec.partition
        c[f0 : f0 + part.n_points] = -sample_coefficients(
            part, x_k[list(term.eval_indices)]
        )
    return LinearProgram(c, lp.rows, lp.lower, lp.upper)


def solve_subproblem(
    prob: ObroProblem, x_k: np.ndarray, solver: Solver | None = None
) -> tuple[Scenario, float]:
    """Generate the worst-case scenario at ``x_k`` and its objective value.

    The returned value includes the certain cost, so it equals the value
    functional at the generated scenario.  ``solver`` defaults to the master's.
    """
    x_k = np.asarray(x_k, dtype=float)
    lp = build_subproblem(prob, x_k)
    out = solve_lp(lp, solver or default_solver(prob.master.mip))
    if out.status != "optimal":
        raise SubproblemError(f"adversary LP ended {out.status}")

    offsets = prob.adversary.offsets
    functions = []
    for term, (f0, s0, d0) in zip(prob.terms, offsets):
        n = term.spec.partition.n_points
        f = SampledFunction(term.spec.partition, out.x[f0 : f0 + n])
        dev = trapezoid_deviation(f, term.spec.reference)
        if abs(dev - out.x[d0]) > 1e-6:
            raise SubproblemError(
                f"deviation variable drifted from quadrature by {abs(dev - out.x[d0]):.2e}"
            )
        functions.append(f)
    scen = Scenario(tuple(functions))
    issues = scenario_issues(prob, scen)
    if issues:
        raise SubproblemError("generated scenario invalid: " + "; ".join(issues))
    value = float(prob.c @ x_k - out.objective)
    return scen, value
