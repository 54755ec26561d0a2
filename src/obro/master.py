"""Decision update over accumulated scenarios: the outer MILP.

The master minimizes the worst of one cut per stored scenario, anchored
on the first one: its objective is the first scenario's cut plus an
excess ``eta >= 0``, and every later scenario ``s`` adds the row
``eta >= cut_s - cut_0``.  This is the epigraph form ``min t, t >=
cut_s`` under the affine substitution ``t = cut_0 + eta``, so the LP
relaxation and the optimum are the same; the difference rows are
sparser, because the certain cost cancels and so does every increment
two scenarios share.  Every evaluation coordinate gets its own
incremental block (Vielma, Ahmed & Nemhauser, Oper. Res. 58(2), 2010):
segment fractions z filled left to right, kept in order by binaries y
with z[k+1] <= y[k] <= z[k].  The coordinate is the first sample point
plus the filled segment widths; a cut interpolates a scenario as its
first value plus the filled increments.  All cuts share the fractions,
since every scenario is sampled on the same partition.
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
    """Column map of the master MILP: decision vector, ``eta`` (the
    excess of the worst cut over the first scenario's cut), then per
    evaluation coordinate a block of segment fractions ``z`` and a block
    of ordering binaries ``y``."""

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
    """Assemble the scenario-cut MILP over the stored worst cases,
    anchored on ``scenarios[0]``: a master over K scenarios has K - 1 cut
    rows, and its objective carries the anchor's constant as the
    program's ``offset``.

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
    c[: lay.n_x] = prob.c
    c[lay.eta] = 1.0
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[: lay.n_x] = prob.lower
    upper[: lay.n_x] = prob.upper
    lower[lay.n_x :] = 0.0  # eta >= 0 stands for the first scenario's cut
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

    def cut(scen):
        # cut_s = c.x + sum(increments . z) - rhs, per evaluation block
        increments = [np.diff(scen.functions[ti].values) for ti, _, _ in lay.eval_keys]
        rhs = prob.epsilon * sum(scen.deviations)
        for ti, _, _ in lay.eval_keys:
            rhs -= float(scen.functions[ti].values[0])
        return increments, rhs

    anchor, anchor_rhs = cut(scenarios[0])
    for z, d in zip(lay.z_slices, anchor):
        c[z] = d
    for li, scen in enumerate(scenarios[1:], 1):
        increments, rhs = cut(scen)
        coeffs = {lay.eta: -1.0}  # Row drops the increments equal to the anchor's
        for z, d, d0 in zip(lay.z_slices, increments, anchor):
            coeffs.update(zip(range(z.start, z.stop), (d - d0).tolist()))
        rows.append(Row(coeffs, "<=", rhs - anchor_rhs, f"cut[{li}]"))

    lp = LinearProgram("min", c, rows, lower, upper, offset=-anchor_rhs)
    return MixedIntegerProgram(lp, tuple(binaries))


def solve_master(
    prob: ObroProblem, scenarios: list, solver: Solver | None = None
) -> tuple[np.ndarray, float]:
    """Solve the scenario-cut MILP; returns the decision and its bound,
    the worst cut value at the optimum (the objective, anchor included)."""
    lay = master_layout(prob)
    out = solve_milp(build_master(prob, scenarios, lay), solver)
    if out.status == "infeasible":
        raise MasterError("decision polyhedron is empty")
    if out.status != "optimal":
        raise MasterError(f"master MILP ended {out.status}")
    x = out.x[: lay.n_x].copy()
    return x, float(out.objective)
