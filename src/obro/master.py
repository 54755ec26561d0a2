"""Decision update over accumulated scenarios: the outer MILP.

The epigraph variable dominates one cut per stored scenario.  Every
evaluation coordinate gets its own incremental block (Vielma, Ahmed &
Nemhauser, Oper. Res. 58(2), 2010): segment fractions z filled left to
right, kept in order by binaries y with z[k+1] <= y[k] <= z[k].  The
coordinate is the first sample point plus the filled segment widths; a
cut interpolates a scenario as its first value plus the filled
increments.  All cuts share the fractions, since every scenario is
sampled on the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from obro.linsolve import (
    LinearProgram,
    MixedIntegerProgram,
    Row,
    Solver,
    solve_milp,
)
from obro.model import ObroProblem, scenario_issues, validate

__all__ = ["MasterLayout", "master_layout", "build_master", "solve_master"]


class MasterError(RuntimeError):
    pass


@dataclass(frozen=True)
class MasterLayout:
    """Column map of the master MILP: decision vector, epigraph variable,
    then per evaluation coordinate a block of segment fractions ``z`` and a
    block of ordering binaries ``y``."""

    n_x: int
    eta: int
    z_slices: tuple  # (term, eval) -> slice, flattened in term order
    y_slices: tuple
    eval_keys: tuple  # (term index, eval position, eval var index)
    n_total: int


def master_layout(prob: ObroProblem) -> MasterLayout:
    n_x = prob.n_vars
    base = n_x + 1
    zs, ys, keys = [], [], []
    for ti, term in enumerate(prob.terms):
        ns = term.spec.partition.n_segments
        for pi, e in enumerate(term.eval_indices):
            zs.append(slice(base, base + ns))
            ys.append(slice(base + ns, base + 2 * ns - 1))
            base += 2 * ns - 1
            keys.append((ti, pi, e))
    return MasterLayout(n_x, n_x, tuple(zs), tuple(ys), tuple(keys), base)


def build_master(
    prob: ObroProblem, scenarios: list, lay: MasterLayout | None = None
) -> MixedIntegerProgram:
    """Assemble the scenario-cut MILP over the stored worst cases.

    ``lay``, when given, must be ``master_layout(prob)``.
    """
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    if not scenarios:
        raise ValueError("need at least one scenario")
    for li, scen in enumerate(scenarios):
        bad = scenario_issues(prob, scen)
        if bad:
            raise ValueError(f"scenario {li} invalid: " + "; ".join(bad))

    if lay is None:
        lay = master_layout(prob)
    n = lay.n_total
    c = np.zeros(n)
    c[lay.eta] = 1.0
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[: lay.n_x] = prob.lower
    upper[: lay.n_x] = prob.upper
    lower[lay.n_x + 1 :] = 0.0
    upper[lay.n_x + 1 :] = 1.0
    binaries = []

    rows = [
        Row(dict(r.coeffs), r.sense, r.rhs, r.name or f"poly[{i}]")
        for i, r in enumerate(prob.rows)
    ]

    for (ti, _, e), z, y in zip(lay.eval_keys, lay.z_slices, lay.y_slices):
        term = prob.terms[ti]
        points = term.spec.partition.points
        tag = f"{term.name}@{prob.var_name(e)}"
        binaries.extend(range(y.start, y.stop))
        for k in range(y.stop - y.start):
            rows.append(
                Row({z.start + k + 1: 1.0, y.start + k: -1.0}, "<=", 0.0, f"{tag}.next[{k}]")
            )
            rows.append(
                Row({y.start + k: 1.0, z.start + k: -1.0}, "<=", 0.0, f"{tag}.full[{k}]")
            )
        link = {z.start + k: float(h) for k, h in enumerate(np.diff(points))}
        link[e] = -1.0
        rows.append(Row(link, "=", -float(points[0]), f"{tag}.coordinate"))

    for li, scen in enumerate(scenarios):
        coeffs = {j: float(v) for j, v in enumerate(prob.c) if v != 0.0}
        coeffs[lay.eta] = coeffs.get(lay.eta, 0.0) - 1.0
        rhs = prob.epsilon * sum(scen.deviations)
        for (ti, _, _), z in zip(lay.eval_keys, lay.z_slices):
            values = scen.functions[ti].values
            rhs -= float(values[0])
            for k, d in enumerate(np.diff(values)):
                coeffs[z.start + k] = coeffs.get(z.start + k, 0.0) + float(d)
        rows.append(Row(coeffs, "<=", rhs, f"cut[{li}]"))

    lp = LinearProgram("min", c, rows, lower, upper)
    return MixedIntegerProgram(lp, tuple(binaries))


def solve_master(
    prob: ObroProblem, scenarios: list, solver: Solver | None = None
) -> tuple[np.ndarray, float]:
    """Solve the scenario-cut MILP; returns the decision and its bound."""
    lay = master_layout(prob)
    out = solve_milp(build_master(prob, scenarios, lay), solver)
    if out.status == "infeasible":
        raise MasterError("decision polyhedron is empty")
    if out.status != "optimal":
        raise MasterError(f"master MILP ended {out.status}")
    x = out.x[: lay.n_x].copy()
    eta = float(out.x[lay.eta])
    return x, eta
