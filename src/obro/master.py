"""Decision update over accumulated scenarios: the outer MILP.

The master minimizes, per uncertain term, the worst of that term's
stored functions, anchored on the first scenario: its objective is the
first scenario's cut plus one excess ``eta_t >= 0`` per term ``t``, and
every later scenario ``s`` adds, for each term, the row ``eta_t >=
cut_{s,t} - cut_{0,t}``, which touches only that term's fractions.  The
bound is therefore ``c.x + sum_t max_s cut_{s,t}(x)`` over the stored
pool, the multicut master of Birge & Louveaux (EJOR 34(3), 1988).  It
assumes the neighborhoods are independent per term, as the adversary LP
is block-diagonal by term: the neighborhood is the product of the
per-term ones, so every mix of stored per-term functions is an
admissible worst case and the bound is a valid lower bound, at least
the worst whole stored scenario's.  The difference rows are sparse,
because the certain cost cancels and so does every increment two
functions share.  Every evaluation coordinate gets its own incremental
block (Vielma, Ahmed & Nemhauser, Oper. Res. 58(2), 2010): segment
fractions z filled left to right, kept in order by binaries y with
z[k+1] <= y[k] <= z[k].  The coordinate is the first sample point plus
the filled segment widths; a cut interpolates a function as its first
value plus the filled increments.  All cuts share the fractions, since
every scenario is sampled on the same partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from obro.linsolve import (
    LinearProgram, MixedIntegerProgram, Row, Solver, default_solver, solve_milp
)
from obro.model import ObroProblem, scenario_issues, validate
from obro.pwl import trapezoid_deviation

__all__ = ["build_master", "solve_master"]


class MasterError(RuntimeError):
    pass


@dataclass(frozen=True)
class MasterBlock:
    """The part of the master MILP that no scenario changes, held by the
    problem as ``ObroProblem.master``.  ``mip`` is the master without
    cuts, whose cost lacks the anchor's increments: its columns are the
    decision vector, the first term's excess column, then per evaluation
    coordinate a block of segment fractions ``z`` and a block of ordering
    binaries ``y``, then the other terms' excess columns; its rows are the
    polyhedron rows the column box can violate, the incremental-block rows
    and the coordinate links.  ``etas`` lists the excess columns in term
    order (the excess of a term's worst stored function over the first
    scenario's), and ``z_slices``, ``y_slices`` and ``eval_keys`` (term
    index, evaluation variable) follow the evaluation coordinates in term
    order.  ``pool`` holds the last build's scenarios, each as
    ``(scenario, its cut, its cut rows)``; the anchor has no rows."""

    etas: tuple
    z_slices: tuple
    y_slices: tuple
    eval_keys: tuple
    mip: MixedIntegerProgram
    pool: list = field(default_factory=list, compare=False, repr=False)


def master_block(prob: ObroProblem) -> MasterBlock:
    """Validate the problem and build its block; `ObroProblem.master`
    calls this once per problem.  A ``<=`` polyhedron row whose maximum
    over the box ``[prob.lower, prob.upper]`` is within its rhs holds
    everywhere and is left out, since HiGHS runs the masters with
    presolve off and would carry it; a coefficient on an unbounded side
    makes that maximum +inf."""
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))

    n_x = prob.n_vars
    base = n_x + 1
    zs, ys, keys = [], [], []
    for ti, term in enumerate(prob.terms):
        ns = term.spec.partition.n_segments
        for e in term.eval_indices:
            zs.append(slice(base, base + ns))
            ys.append(slice(base + ns, base + 2 * ns - 1))
            base += 2 * ns - 1
            keys.append((ti, e))
    etas = (n_x, *range(base, base + len(prob.terms) - 1))
    n = base + len(etas) - 1
    c = np.zeros(n)
    c[:n_x] = prob.c
    c[list(etas)] = 1.0
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[:n_x] = prob.lower
    upper[:n_x] = prob.upper
    lower[n_x:] = 0.0  # eta_t >= 0 stands for the first scenario's cut
    upper[n_x + 1 :] = 1.0
    upper[list(etas)] = np.inf
    binaries = []

    rows = [
        Row(r.coeffs, r.sense, r.rhs, r.name or f"poly[{i}]")
        for i, r in enumerate(prob.rows)
        if r.sense == "=" or sum(
            a * (prob.upper[j] if a > 0 else prob.lower[j]) for j, a in r.coeffs.items()
        ) > r.rhs
    ]

    for (ti, e), z, y in zip(keys, zs, ys):
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

    for a in (c, lower, upper):
        a.flags.writeable = False  # shared by every master built from the block
    mip = MixedIntegerProgram(LinearProgram(c, rows, lower, upper), binaries)
    return MasterBlock(etas, tuple(zs), tuple(ys), tuple(keys), mip)


def build_master(prob: ObroProblem, scenarios: list) -> MixedIntegerProgram:
    """Assemble the per-term cut MILP over the stored worst cases,
    anchored on ``scenarios[0]``: a master over K scenarios and T terms
    has (K - 1)·T cut rows, one per later scenario and term with no
    de-duplication, and its objective carries the anchor's constant as
    the program's ``offset``.  Its columns are those of ``prob.master``.

    The rows, bounds and binaries that no scenario changes are those of
    the problem's block, built and validated once (``ObroProblem.master``),
    and the program shares its read-only bounds.  The block keeps the cut
    rows of the last pool: the longest prefix of ``scenarios`` identical
    to it, anchor included, reuses them, and each later scenario is
    checked once, when it enters, and adds its rows.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    block = prob.master
    pool = block.pool

    def cut(scen):
        # cut_{s,t} = sum(increments[t] . z) - rhs[t] over term t's blocks;
        # total is the whole cut's constant, summed in the same order
        funcs = scen.functions
        devs = [trapezoid_deviation(f, t.spec.reference) for t, f in zip(prob.terms, funcs)]
        increments = [np.diff(f.values) for f in funcs]
        rhs = [prob.epsilon * d for d in devs]
        total = prob.epsilon * sum(devs)
        for ti, _ in block.eval_keys:
            first = float(funcs[ti].values[0])
            rhs[ti] -= first
            total -= first
        return increments, rhs, total

    kept = 0
    while kept < min(len(pool), len(scenarios)) and pool[kept][0] is scenarios[kept]:
        kept += 1
    del pool[kept:]
    for li in range(kept, len(scenarios)):
        scen = scenarios[li]
        bad = scenario_issues(prob, scen)
        if bad:
            raise ValueError(f"scenario {li} invalid: " + "; ".join(bad))
        increments, rhs, total = cut(scen)
        rows = ()
        if li:
            anchor, anchor_rhs, _ = pool[0][1]
            coeffs = [{eta: -1.0} for eta in block.etas]  # Row drops increments equal to the anchor's
            delta = [(d - d0).tolist() for d, d0 in zip(increments, anchor)]
            for (ti, _), z in zip(block.eval_keys, block.z_slices):
                coeffs[ti].update(zip(range(z.start, z.stop), delta[ti]))
            rows = tuple(
                Row(row, "<=", r - r0, f"{term.name}.cut[{li}]")
                for term, row, r, r0 in zip(prob.terms, coeffs, rhs, anchor_rhs)
            )
        pool.append((scen, (increments, rhs, total), rows))

    anchor, _, anchor_total = pool[0][1]
    static = block.mip.lp
    c = static.c.copy()
    for (ti, _), z in zip(block.eval_keys, block.z_slices):
        c[z] = anchor[ti]
    rows = (*static.rows, *itertools.chain.from_iterable(cuts for _, _, cuts in pool))
    lp = LinearProgram(c, rows, static.lower, static.upper, offset=-anchor_total)
    return MixedIntegerProgram(lp, block.mip.binaries)


def solve_master(
    prob: ObroProblem, scenarios: list, solver: Solver | None = None
) -> tuple[np.ndarray, float]:
    """Solve the per-term cut MILP; returns the decision and its bound,
    the sum over terms of the worst stored cut at the optimum (the
    objective, anchor included).  A pool that extends or repeats the
    last one built for ``prob`` costs only its new cut rows and the
    solve (see `build_master`).  With no ``solver``, `default_solver`
    picks one from the block, so a problem keeps one backend per run."""
    out = solve_milp(build_master(prob, scenarios), solver or default_solver(prob.master.mip))
    if out.status == "infeasible":
        raise MasterError("decision polyhedron is empty")
    if out.status != "optimal":
        raise MasterError(f"master MILP ended {out.status}")
    x = out.x[: prob.n_vars].copy()
    return x, float(out.objective)
