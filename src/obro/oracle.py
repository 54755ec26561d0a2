"""Brute-force verifiers for the two optimization layers, plus the
partition-refinement consistency study.

These are the trust anchors: the adversary oracle enumerates sample-value
grids directly against the neighborhood definition, and the master oracle
enumerates segment activation patterns, pinned by variable bounds alone,
leaving only a tiny LP per pattern and no MILP solve.  Both are
deterministic and guarded by explicit work budgets.  Ties go to the
earliest candidate in lexicographic order: for the grid oracle, the
earliest grid index among the maximal values as its own floating-point
arithmetic computes them (a different summation order may split a tie
in the last bit and pick another maximizer of equal value); for the
master oracle, a later pattern replaces the best so far only when its
objective is lower by more than 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from obro.engine import in_phase, run
from obro.linsolve import BranchBoundSolver, LinearProgram
from obro.master import MasterBlock, build_master
from obro.model import ObroProblem, validate
from obro.pwl import SampledFunction, sample_coefficients, trapezoid_weights

__all__ = [
    "GridBudgetError",
    "brute_force_subproblem",
    "enumerate_master",
    "grid_gap",
    "grid_radius",
    "grid_work",
    "levels_within_budget",
    "pin_segments",
    "RefinementTable",
    "refinement_study",
]

GRID_BUDGET = 10**7
MAX_LEVELS = 101
PATTERN_BUDGET = 10**6
CHECK_SLACK = 1e-12
_SWEEP_BLOCK = 2**15  # grid points per vector pass of the grid oracle


class GridBudgetError(RuntimeError):
    pass


def grid_radius(spec) -> float:
    """Half-width of the grid each sample value of a term with
    neighborhood ``spec`` ranges over: the sup radius when finite, else
    the farthest one sample alone can move within the deviation budget."""
    if np.isfinite(spec.delta_max):
        return spec.delta_max
    return spec.dev_max / trapezoid_weights(spec.partition.points).min()


def grid_gap(prob: ObroProblem, levels: int) -> float:
    """How far ``brute_force_subproblem`` at ``levels`` may fall below the
    adversary LP's value: the widest grid step times the objective's
    Lipschitz constant in the sample values."""
    step = max(2 * grid_radius(t.spec) / (levels - 1) for t in prob.terms)
    lipschitz = sum(
        len(t.eval_indices) + prob.epsilon * (t.spec.partition.hi - t.spec.partition.lo)
        for t in prob.terms
    )
    return lipschitz * step


def grid_work(prob: ObroProblem, levels: int) -> int:
    """Grid points of ``brute_force_subproblem``'s search at ``levels``,
    which its budget counts; a term with no sup radius has a single point
    per sample.  The count is the grid's size, not the points the sweep
    evaluates: it stops once no remaining row can win."""
    return sum(
        (levels if t.spec.delta_max > 0 else 1) ** t.spec.partition.n_points
        for t in prob.terms
    )


def levels_within_budget(prob: ObroProblem) -> int:
    """The largest odd level count up to ``MAX_LEVELS`` whose grid fits
    ``GRID_BUDGET``; 3 when none does, which the search then rejects.
    Odd counts keep the reference value itself on the grid."""
    for levels in range(MAX_LEVELS, 3, -2):
        if grid_work(prob, levels) <= GRID_BUDGET:
            return levels
    return 3


def brute_force_subproblem(
    prob: ObroProblem, x: np.ndarray, levels: int = MAX_LEVELS
) -> tuple[float, list]:
    """Grid search over the adversary's sample values, term by term.

    Each sample value ranges over ``levels`` evenly spaced offsets within
    ``grid_radius`` of its reference; combinations violating the
    deviation budget or the ratio bound are discarded.  The problem
    separates over terms, so terms are enumerated independently and
    their best values summed.  Always a lower bound on the LP optimum;
    within the objective's Lipschitz constant times the grid step of it.

    Per term, the offsets of samples 1..n-1 (the tail) are enumerated once
    with their deviation and objective share, a tail that breaks a ratio
    row taking the value -inf.  The offsets of sample 0 (the grid's rows)
    are then swept in blocks of about ``_SWEEP_BLOCK`` grid points, each
    block one 2-D broadcast over the tail, so the full ``levels**n`` grid
    is never held in memory.  The ratio row between samples 0 and 1 is a
    table over their offsets, and the deviation budget is tested only when
    the largest deviation on the grid exceeds it.

    The rows are swept best bound first (Land & Doig's pruning step).  A
    row's bound is sample 0's share less its deviation cost, plus the
    best such net value of any tail that passes its ratio rows and, when
    the budget binds, fits the budget left by sample 0's deviation,
    padded by 1e-9 times the summed magnitudes of those parts.  Rows go
    in descending padded bound, earlier rows first among equals, and the
    sweep stops at the first row whose padded bound is below the best
    value found so far.  The padding exceeds any round-off of the bound
    and of a point's value, so no skipped row holds a point that could
    win or tie, and every point evaluated keeps the arithmetic of a full
    sweep.  The returned function is the grid point with the largest
    value as computed here, the earliest in lexicographic grid order
    (sample 0 slowest) among equal values, so repeated calls return
    bit-identical results.
    """
    issues = validate(prob)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    if levels < 3:
        raise ValueError("levels must be at least 3")
    x = np.asarray(x, dtype=float)

    work = grid_work(prob, levels)
    if work > GRID_BUDGET:
        raise GridBudgetError(f"grid budget exceeded: {work:.3g} > {GRID_BUDGET:.0e}")

    total = float(prob.c @ x)
    eps = prob.epsilon
    best_functions = []
    for term in prob.terms:
        spec = term.spec
        part = spec.partition
        n = part.n_points
        ref = spec.reference.values
        coeff = sample_coefficients(part, x[list(term.eval_indices)])

        if spec.delta_max > 0:
            radius = grid_radius(spec)
            offsets = np.linspace(-radius, radius, levels)
        else:
            offsets = np.zeros(1)
        weights = trapezoid_weights(part.points)
        ratio_cap = spec.lip_ratio * np.abs(np.diff(ref)) + CHECK_SLACK
        budget = spec.dev_max + CHECK_SLACK

        # The tail: every combination of offsets for samples 1..n-1, one
        # row each, sample 1 slowest.
        tail_dev = _grid([np.abs(offsets)] * (n - 1)) @ weights[1:]
        f_tail = _grid([r + offsets for r in ref[1:]])
        tail_val = f_tail @ coeff[1:]
        f0 = ref[0] + offsets
        head_dev = np.abs(offsets) * weights[0]
        head_val = f0 * coeff[0]
        inner = len(f_tail) // len(offsets)
        rows = max(1, _SWEEP_BLOCK // len(f_tail))

        # Without sup radius the reference is the only grid point, and it
        # passes every test: its deviation is 0 and lip_ratio > 1.
        pair_bad, dev_binds = None, False
        if spec.delta_max > 0:
            tail_ok = np.ones(len(f_tail), dtype=bool)
            for k in range(1, n - 1):
                tail_ok &= np.abs(f_tail[:, k] - f_tail[:, k - 1]) <= ratio_cap[k]
            tail_val[~tail_ok] = -np.inf
            # The pair-0 ratio test as a table over (sample-0, sample-1)
            # offsets; each entry covers ``inner`` consecutive tail rows.
            pair_bad = ~(np.abs((ref[1] + offsets) - f0[:, None]) <= ratio_cap[0])
            # Floating-point addition is monotone, so no grid point breaks
            # the budget when the largest deviation fits it.
            dev_binds = head_dev.max() + tail_dev.max() > budget

        def block(idx):
            """Rows ``idx`` of the term's grid (sample-0 offsets) as one 2-D
            broadcast over the tail."""
            dev = head_dev[idx, None] + tail_dev
            vals = head_val[idx, None] + tail_val
            if dev_binds:
                vals[dev > budget] = -np.inf
            dev *= eps
            vals -= dev
            if pair_bad is not None:
                bad = pair_bad[idx]
                if bad.any():
                    vals.reshape(len(idx), len(offsets), inner)[bad] = -np.inf
            return vals

        # Row i's values are at most its head's net value plus the best
        # net tail value, among the tails within the budget left by its
        # head when the budget binds.  The padding scales with the summed
        # magnitudes, not with the bound, so round-off never lifts a
        # computed value to it even when large terms cancel.
        tail_scale = np.abs(tail_val[np.isfinite(tail_val)]).max(initial=0.0)
        if dev_binds:
            # the best net value among the tails sorted by deviation, up
            # to each row's room; the room's padding keeps every tail the
            # block keeps, whose rounded deviation sum is within budget
            by_dev = np.argsort(tail_dev, kind="stable")
            tail_net = (tail_val - eps * tail_dev)[by_dev]
            best_tail = np.append(-np.inf, np.maximum.accumulate(tail_net))
            room = (budget - head_dev) + 1e-9 * (1 + budget)
            best_tail = best_tail[np.searchsorted(tail_dev[by_dev], room, side="right")]
        else:
            best_tail = (tail_val - eps * tail_dev).max()
        bound = (head_val - eps * head_dev) + best_tail
        bound += 1e-9 * (1 + np.abs(head_val) + eps * head_dev + tail_scale + eps * tail_dev.max())
        best_val, best_key = _best_first(bound, rows, block)
        if best_key is None:
            raise GridBudgetError(f"no feasible grid point at {levels} levels")
        i, j = divmod(best_key, len(f_tail))
        best_f = np.concatenate([[f0[i]], f_tail[j]])
        total += best_val
        best_functions.append(SampledFunction(part, best_f))
    return total, best_functions


def _best_first(bound: np.ndarray, rows: int, block) -> tuple[float, int | None]:
    """The largest value of a grid, swept ``rows`` rows per ``block(idx)``
    call, and the earliest flat grid index holding it; (-inf, None) when
    every value is -inf.

    ``bound[i]`` must be at least every value of row ``i``.  Rows go in
    descending bound order, earlier rows first among equal bounds, and the
    sweep stops at the first row whose bound is below the best value so
    far: no row from there on can win or tie.  A block's value replaces
    the best one when it is larger, or equal at an earlier grid index, so
    the result is the one a sweep of the whole grid in index order gives.
    """
    order = np.argsort(-bound, kind="stable")
    bound = bound[order]
    best_val, best_key = -np.inf, None
    lo = 0
    while lo < len(order):
        hi = lo + int(np.count_nonzero(bound[lo : lo + rows] >= best_val))
        if hi == lo:
            break
        idx = order[lo:hi]
        lo = hi
        vals = block(idx)
        top = vals.max()
        if top == -np.inf or top < best_val:
            continue
        width = vals.shape[1]
        hits = np.flatnonzero(vals == top)
        keys = idx[hits // width] * width + hits % width
        first = int(np.argmin(keys))
        if top > best_val or keys[first] < best_key:
            # the point's own value: max may return 0.0 for a -0.0 there
            best_val, best_key = float(vals.flat[hits[first]]), int(keys[first])
    return best_val, best_key


def _grid(axes) -> np.ndarray:
    """Every combination of one value per axis, one row each, in
    lexicographic order (the first axis slowest)."""
    m = len(axes)
    grid = np.empty([len(a) for a in axes] + [m])
    for k, a in enumerate(axes):
        grid[..., k] = a.reshape([-1 if i == k else 1 for i in range(m)])
    return grid.reshape(-1, m)


def enumerate_master(prob: ObroProblem, scenarios: list) -> tuple[float, np.ndarray]:
    """Solve the master exactly by trying every segment activation pattern.

    For each assignment of one segment per evaluation coordinate the
    coordinates are pinned (``pin_segments``) and the remaining LP solved
    by the bundled simplex; the best pattern wins (first one on ties, in
    lexicographic pattern order).  Pattern objectives carry the master's
    ``offset``, the anchor's constant, so the value is the master's bound.
    An infeasible pattern is skipped; any other unsolved one raises
    RuntimeError, since a capped LP may hold the best pattern.
    """
    simplex = BranchBoundSolver()
    mip = build_master(prob, scenarios)
    block = prob.master

    seg_counts = [z.stop - z.start for z in block.z_slices]
    n_patterns = math.prod(seg_counts)  # exact: np.prod wraps around in int64
    if n_patterns > PATTERN_BUDGET:
        raise GridBudgetError(
            f"pattern budget exceeded: {n_patterns} > {PATTERN_BUDGET:.0e}"
        )

    best = None
    for pattern in itertools.product(*(range(s) for s in seg_counts)):
        out = simplex.solve_lp(pin_segments(mip.lp, block, pattern))
        if out.status == "infeasible":
            continue
        if not out.optimal:
            raise RuntimeError(f"segment pattern {pattern} ended {out.status}")
        if best is None or out.objective < best[0] - 1e-12:
            best = (float(out.objective), out.x[: prob.n_vars].copy())
    if best is None:
        raise RuntimeError("every segment pattern infeasible")
    return best[0], best[1]


def pin_segments(lp: LinearProgram, block: MasterBlock, pattern) -> LinearProgram:
    """The master LP with evaluation coordinate ``i`` pinned to segment
    ``pattern[i]``: earlier fractions full, later ones empty, binaries to
    match, and only the segment's own fraction free."""
    lo = lp.lower.copy()
    up = lp.upper.copy()
    for z, y, s in zip(block.z_slices, block.y_slices, pattern):
        lo[z.start : z.start + s] = up[z.start : z.start + s] = 1.0
        lo[z.start + s + 1 : z.stop] = up[z.start + s + 1 : z.stop] = 0.0
        lo[y.start : y.start + s] = up[y.start : y.start + s] = 1.0
        lo[y.start + s : y.stop] = up[y.start + s : y.stop] = 0.0
    return replace(lp, lower=lo, upper=up)


@dataclass(frozen=True)
class RefinementTable:
    """Rows of (step, final value, x distance to previous, value distance
    to previous); the first row has no predecessor (NaN distances)."""

    steps: tuple
    values: tuple
    x_distances: tuple
    value_distances: tuple
    increasing_flags: tuple

    @property
    def trend_ok(self) -> bool:
        return not any(self.increasing_flags)

    def to_csv(self) -> str:
        lines = ["step,value,x_distance_to_previous,value_distance_to_previous"]
        for s, v, dx, dv in zip(
            self.steps, self.values, self.x_distances, self.value_distances
        ):
            lines.append(f"{s:.12g},{v:.12g},{dx:.12g},{dv:.12g}")
        return "\n".join(lines) + "\n"


def refinement_study(
    prob_builder,
    steps,
    tol: float = 1e-2,
    max_iter: int = 200,
) -> RefinementTable:
    """Run the full loop per partition step and tabulate solution drift.

    ``prob_builder`` maps a partition step to a problem; ``steps`` must be
    strictly decreasing.  A consecutive pair is flagged when its x or value
    distance is larger than the previous pair's, i.e. when refinement
    stops looking convergent.  The reported value per step is
    the final upper bound (the certified worst-case cost).
    """
    steps = [float(s) for s in steps]
    if len(steps) < 2:
        raise ValueError("need at least two steps")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly decreasing")

    values, xs = [], []
    for step in steps:
        prob = prob_builder(step)
        result = in_phase(f"step {step}", run, prob, tol, max_iter)
        if not result.converged:
            raise RuntimeError(f"step {step}: engine ended {result.status}")
        values.append(result.ub)
        xs.append(result.x)

    x_dist = [np.nan]
    v_dist = [np.nan]
    for prev, cur, pv, cv in zip(xs, xs[1:], values, values[1:]):
        x_dist.append(float(np.max(np.abs(cur - prev))))
        v_dist.append(abs(cv - pv))
    flags = [False, False]
    for i in range(2, len(steps)):
        flags.append(x_dist[i] > x_dist[i - 1] or v_dist[i] > v_dist[i - 1])
    return RefinementTable(
        tuple(steps), tuple(values), tuple(x_dist), tuple(v_dist), tuple(flags)
    )
