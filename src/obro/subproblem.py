"""Worst-case function generation: the inner maximization as an LP.

Given the current decision, the adversary picks sample values for every
uncertain term to maximize the interpolated objective minus the deviation
penalty, subject to the neighborhood constraints.  Decision variables per
term: the sampled values, one absolute-deviation slack per sample point,
and the term's total deviation.
"""

from __future__ import annotations

import numpy as np

from obro.linsolve import LinearProgram, Row, Solver, solve_lp
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
    sup-radius rows box every value)."""


def _term_layout(prob: ObroProblem):
    """Column offsets per term: values block, slack block, deviation var."""
    offsets = []
    base = 0
    for term in prob.terms:
        n = term.spec.partition.n_points
        offsets.append((base, base + n, base + 2 * n))
        base += 2 * n + 1
    return offsets, base


def build_subproblem(prob: ObroProblem, x_k: np.ndarray) -> LinearProgram:
    """Assemble the adversary LP at decision ``x_k``.

    The certain cost c.x_k is a constant and stays out of the LP; callers
    re-add it when reporting values.
    """
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    x_k = np.asarray(x_k, dtype=float)

    offsets, n_cols = _term_layout(prob)
    c = np.zeros(n_cols)
    lower = np.full(n_cols, -np.inf)
    upper = np.full(n_cols, np.inf)
    rows = []
    names = []

    for ti, (term, (f0, s0, d0)) in enumerate(zip(prob.terms, offsets)):
        spec = term.spec
        part = spec.partition
        ref = spec.reference.values
        n = part.n_points
        names.extend(f"{term.name}.f[{p}]" for p in range(n))
        names.extend(f"{term.name}.s[{p}]" for p in range(n))
        names.append(f"{term.name}.dev")

        lower[s0 : s0 + n] = 0.0  # slacks are nonnegative
        lower[d0] = 0.0

        for p in range(n):
            rows.append(
                Row({f0 + p: 1.0}, "<=", ref[p] + spec.delta_max, f"{term.name}.sup+[{p}]")
            )
            rows.append(
                Row({f0 + p: -1.0}, "<=", -(ref[p] - spec.delta_max), f"{term.name}.sup-[{p}]")
            )
        rows.append(Row({d0: 1.0}, "<=", spec.dev_max, f"{term.name}.budget"))
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

        c[d0] = -prob.epsilon
        c[f0 : f0 + n] = sample_coefficients(part, x_k[list(term.eval_indices)])

    return LinearProgram("max", c, rows, lower, upper, names)


def solve_subproblem(
    prob: ObroProblem, x_k: np.ndarray, solver: Solver | None = None
) -> tuple[Scenario, float]:
    """Generate the worst-case scenario at ``x_k`` and its objective value.

    The returned value includes the certain cost, so it equals the value
    functional at the generated scenario.
    """
    x_k = np.asarray(x_k, dtype=float)
    lp = build_subproblem(prob, x_k)
    out = solve_lp(lp, solver)
    if out.status != "optimal":
        raise SubproblemError(f"adversary LP ended {out.status}")

    offsets, _ = _term_layout(prob)
    functions = []
    deviations = []
    for term, (f0, s0, d0) in zip(prob.terms, offsets):
        n = term.spec.partition.n_points
        f = SampledFunction(term.spec.partition, out.x[f0 : f0 + n].copy())
        dev = trapezoid_deviation(f, term.spec.reference)
        if abs(dev - out.x[d0]) > 1e-6:
            raise SubproblemError(
                f"deviation variable drifted from quadrature by {abs(dev - out.x[d0]):.2e}"
            )
        functions.append(f)
        deviations.append(dev)
    scen = Scenario(tuple(functions), tuple(deviations))
    issues = scenario_issues(prob, scen)
    if issues:
        raise SubproblemError("generated scenario invalid: " + "; ".join(issues))
    value = float(out.objective + prob.c @ x_k)
    return scen, value
