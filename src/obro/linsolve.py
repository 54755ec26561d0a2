"""Desk-scale LP and MILP solving behind a pluggable solver interface.

The bundled backend favors transparency over speed: a dense two-phase
bounded-variable simplex with Bland's anti-cycling rule for LPs, one
tableau row per program row, and best-bound branch-and-bound on binary
variables for MILPs.  It is deterministic: identical inputs produce
identical primal vectors.  A HiGHS-backed adapter (via scipy.optimize)
exposes the same interface.  `default_solver` is the one rule between
them: HiGHS for a master block of more than ``HIGHS_ROWS`` rows.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
import logging
import math
import os
import sys
import tempfile
import warnings
from abc import ABC, abstractmethod
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import itemgetter
from types import MappingProxyType

import numpy as np

__all__ = [
    "Row",
    "LinearProgram",
    "SparseRows",
    "MixedIntegerProgram",
    "SolveOutcome",
    "Solver",
    "BranchBoundSolver",
    "HighsSolver",
    "default_solver",
    "solve_lp",
    "solve_milp",
]

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
INT_TOL = 1e-6
# the bundled solver's caps: simplex pivots per LP (node LPs included),
# branch-and-bound nodes per MILP, and the node count that first warns
PIVOT_LIMIT = 10**6
NODE_LIMIT = 10**6
WARN_NODES = 10**4
# master block rows above which HiGHS is the default: on whole runs the
# bundled solver leads up to 34 rows and HiGHS from 45 (README "Solvers")
HIGHS_ROWS = 40

log = logging.getLogger("obro.linsolve")


@dataclass(frozen=True)
class Row:
    """One linear constraint: coeffs . x  (sense)  rhs, with sense ``<=``
    or ``=``; a ``>=`` row is written negated.

    Frozen, and ``coeffs`` is a read-only view of the row's own copy of
    its nonzero coefficients, so an edit raises at the write; a changed
    row comes from ``dataclasses.replace``.
    """

    coeffs: Mapping[int, float]
    sense: str  # "<=" or "="
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("<=", "="):
            raise ValueError(f"bad row sense {self.sense!r}")
        coeffs = {int(j): float(v) for j, v in self.coeffs.items() if v != 0.0}
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError(f"row {self.name!r} references variable {min(self.coeffs)}")

    def __reduce__(self):  # a mappingproxy does not pickle
        return Row, (dict(self.coeffs), self.sense, self.rhs, self.name)


class SparseRows(tuple):
    """A rows list, checked once, with what every program on it shares.

    Every `LinearProgram` keeps its rows as one.  It is a tuple, so no row
    is added or dropped under the cache.  ``width`` is one past the largest
    column a row references.  The HiGHS form, ``highs(n_vars)``, is built
    on first use for that column count and kept; ``start`` holds the
    bundled simplex's phase-1 end state under one set of bounds, or None.
    A program built from another's ``rows`` shares both.
    """

    def __init__(self, rows):
        width = 0
        for r in self:  # tuple.__new__ has stored ``rows``
            if math.isnan(r.rhs):
                raise ValueError(f"row {r.name!r}: rhs must not be NaN")
            if not all(map(math.isfinite, r.coeffs.values())):
                raise ValueError(f"row {r.name!r}: coefficient must not be NaN or infinite")
            if r.coeffs:
                width = max(width, max(r.coeffs) + 1)
        self.width = width
        self._form = None
        self.start = None

    def highs(self, n_vars: int):
        """``(A, lower, upper)`` with ``lower <= A @ x <= upper`` for the
        rows over ``n_vars`` columns: ``A`` is one CSC matrix, ``<=`` rows
        first, in list order and with lower bound ``-inf``, then ``=`` rows
        with equal bounds."""
        if self._form is None or self._form[0] != n_vars:
            self._form = n_vars, self._convert(n_vars)
        return self._form[1]

    def _convert(self, n_vars):
        from scipy import sparse

        m = len(self)
        counts = np.fromiter((len(r.coeffs) for r in self), np.intp, m)
        nnz = int(counts.sum())
        cols = np.fromiter(itertools.chain.from_iterable(r.coeffs for r in self), np.intp, nnz)
        vals = np.fromiter(
            itertools.chain.from_iterable(r.coeffs.values() for r in self), float, nnz
        )
        upper = np.fromiter((r.rhs for r in self), float, m)
        is_eq = np.fromiter((r.sense == "=" for r in self), bool, m)
        lower = np.where(is_eq, upper, -np.inf)
        order = np.concatenate([np.flatnonzero(~is_eq), np.flatnonzero(is_eq)])
        # gather each row's entries in the new row order
        starts = np.cumsum(counts) - counts
        counts = counts[order]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(starts[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        a = sparse.csr_matrix((vals[take], cols[take], indptr), shape=(m, n_vars))
        return a.tocsc(), lower[order], upper[order]


@dataclass(frozen=True)
class LinearProgram:
    """Minimize c.x + ``offset`` subject to ``rows`` and the bounds.

    ``offset`` is a constant that every backend adds to the reported
    objective; it moves no solution.  Frozen, like the problem: a changed
    program comes from ``dataclasses.replace``, so ``rows`` is always a
    `SparseRows` checked against ``c``, and a program built from another's
    ``rows`` shares their cached form and start.  The arrays are the
    caller's and can be edited in place; the start is keyed by value.
    """

    c: np.ndarray
    rows: SparseRows
    lower: np.ndarray
    upper: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        rows = self.rows if isinstance(self.rows, SparseRows) else SparseRows(self.rows)
        n = np.size(self.c)
        if rows.width > n:
            r = next(r for r in rows if r.coeffs and max(r.coeffs) >= n)
            raise ValueError(f"row {r.name!r} references variable {max(r.coeffs)}")
        object.__setattr__(self, "rows", rows)
        for name in ("c", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "offset", float(self.offset))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound arrays must match the variable count")
        if not np.isfinite(self.c).all():
            raise ValueError("c must not be NaN or infinite")
        if math.isnan(self.offset):
            raise ValueError("offset must not be NaN")
        ordered = self.lower <= self.upper  # false at a NaN bound too
        if not ordered.all():
            j = int(np.argmin(ordered))
            for name in ("lower", "upper"):
                if math.isnan(getattr(self, name)[j]):
                    raise ValueError(f"{name}[{j}] must not be NaN")
            raise ValueError(f"variable {j}: lower bound above upper")
        closed = (self.lower < np.inf) & (self.upper > -np.inf)  # some value is admitted
        if not closed.all():
            raise ValueError(f"variable {int(np.argmin(closed))}: bounds admit no finite value")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class MixedIntegerProgram:
    lp: LinearProgram
    binaries: tuple

    def __post_init__(self):
        object.__setattr__(self, "binaries", tuple(sorted(set(int(j) for j in self.binaries))))
        n = self.lp.n_vars
        lower, upper = self.lp.lower.tolist(), self.lp.upper.tolist()
        for j in self.binaries:
            if not 0 <= j < n:
                raise ValueError(f"binary index {j} out of range")
            if lower[j] not in (0.0, 1.0) or upper[j] not in (0.0, 1.0):
                raise ValueError(f"binary {j} has a bound other than 0 or 1")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one LP or MILP solve."""

    status: str  # optimal | infeasible | unbounded | iteration-limit | inconclusive
    objective: float | None = None
    x: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def primal_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst constraint or bound violation of x (0 when feasible).  Reads
    only ``lower``, ``upper`` and ``rows``, so a problem with a decision
    polyhedron (``model.ObroProblem``) works too."""
    worst = max(np.max(lp.lower - x, initial=0.0), np.max(x - lp.upper, initial=0.0))
    for r in lp.rows:
        lhs = sum(v * x[j] for j, v in r.coeffs.items())
        if r.sense == "<=":
            worst = max(worst, lhs - r.rhs)
        else:
            worst = max(worst, abs(lhs - r.rhs))
    return float(worst)


class Solver(ABC):
    """Interface an LP/MILP backend must provide: each solve minimizes
    its program."""

    @abstractmethod
    def solve_lp(self, lp: LinearProgram) -> SolveOutcome: ...

    @abstractmethod
    def solve_milp(self, mip: MixedIntegerProgram) -> SolveOutcome: ...


# ---------------------------------------------------------------------------
# bundled simplex
# ---------------------------------------------------------------------------


class BranchBoundSolver(Solver):
    """The bundled backend: a dense two-phase bounded-variable tableau
    simplex with Bland's rule for LPs, and best-bound branch-and-bound on
    binary variables for MILPs, whose every node relaxation is solved by
    that simplex.

    Each variable becomes nonnegative tableau columns t: it is shifted
    onto a finite lower bound or mirrored onto a finite upper one, and a
    free variable is split into a + and a - column.  A column with both
    bounds finite keeps its width ``up - lo`` (0 for a fixed variable) as
    an implicit bound; the others' width is infinite.  Each program row
    stays one tableau row, its rhs net of the shift (Dantzig's
    upper-bounding technique).  A nonbasic column stays at 0,
    complemented (t -> width - t) when at its width.
    Each step goes to the first bound met: a basic variable falls to 0,
    or rises to its width (complemented, then pivoted out), or the
    entering column reaches its own width and flips, which counts as a
    pivot.  Bland's rule (lowest-index entering column, lowest index on
    ratio ties, a complemented column ranked as its bound) makes the
    pivot sequence cycle-free and fully deterministic.  Intended for
    desk-scale programs: the pivot cap on every LP, node LPs included,
    and the node cap turn numerical trouble and blow-up into an explicit
    iteration-limit status.  The caps are the module's ``PIVOT_LIMIT``,
    ``NODE_LIMIT`` and ``WARN_NODES``.

    Phase 1 reads only the rows and the bounds, so its end state is kept
    in ``lp.rows.start`` (`SparseRows`), keyed by the bounds' bytes.  A solve
    whose bounds miss the slot builds the tableau, runs phase 1 and the
    drive-out of the artificials, and refills it; every solve then copies
    the slot's state and runs phase 2 from it, so a program on those rows
    with equal bounds, such as each adversary LP of one problem, skips
    straight to phase 2 and ends bit-identical to a cold solve.
    ``stats["pivots"]`` counts the whole path, phase 1 included, and
    ``PIVOT_LIMIT`` caps it as in a cold solve.

    Branch-and-bound runs every node, the root first, through one loop.
    A fractional relaxation is queued with its branching binary, the most
    fractional (smallest index on ties); the best-bound node is expanded
    next, a monotone counter breaking ties so runs are repeatable, into
    children fixing that binary to 0 then 1.  ``NODE_LIMIT`` is checked
    after each expansion, the root's included.
    """

    def solve_lp(self, lp: LinearProgram) -> SolveOutcome:
        rows = lp.rows
        bounds = (lp.lower.tobytes(), lp.upper.tobytes())  # by value: arrays can be edited

        def price_out(costs):
            z = np.append(costs, 0.0)
            for i, j in enumerate(basis):
                if costs[j] != 0.0:
                    z -= costs[j] * T[i]
            return z

        def pivot(z, row, col):
            T[row] /= T[row, col]
            for i, a in enumerate(T[:, col].tolist()):
                if i != row and a != 0.0:
                    T[i] -= a * T[row]
            if z[col] != 0.0:
                z -= z[col] * T[row]
            basis[row] = col

        def complement(z, col):  # t -> width - t
            T[:, -1] -= ub[col] * T[:, col]
            T[:, col] *= -1.0
            z[col] = -z[col]
            rank[col], twin[col] = twin[col], rank[col]

        def run_phase(z):
            nonlocal pivots
            while True:
                cand = [j for j in (z < -PIVOT_TOL).nonzero()[0].tolist() if movable[j]]
                if not cand:
                    return "optimal"
                enter = min(cand, key=rank.__getitem__)
                # each bound the step can meet: (step, Bland index, row,
                # whether the basic variable rises to its width); the
                # entering column meeting its own width (row -1) flips it
                steps = [(ub[enter], twin[enter], -1, False)] if ub[enter] < np.inf else []
                rhs = T[:, -1].tolist()
                for i, a in enumerate(T[:, enter].tolist()):
                    if a > PIVOT_TOL:
                        steps.append((rhs[i] / a, rank[basis[i]], i, False))
                    elif a < -PIVOT_TOL and ub[basis[i]] < np.inf:
                        steps.append(((ub[basis[i]] - rhs[i]) / -a, twin[basis[i]], i, True))
                if not steps:
                    return "unbounded"
                best = min(steps)[0] + 1e-9
                _, _, leave, rises = min((s for s in steps if s[0] <= best), key=itemgetter(1))
                if leave < 0:
                    complement(z, enter)
                else:
                    if rises:
                        complement(z, basis[leave])
                    pivot(z, leave, enter)
                pivots += 1
                if pivots > PIVOT_LIMIT:
                    return "iteration-limit"

        if not rows.start or rows.start[0] != bounds:
            # x[j] = shift[j] + sum(sign * t[k]) over the (k, sign) in col_of[j];
            # cols holds each t column's (variable, sign) and ub its width
            shift = [0.0] * lp.n_vars
            cols, ub, col_of = [], [], []
            for j, (lo, up) in enumerate(zip(lp.lower.tolist(), lp.upper.tolist())):
                k = len(cols)
                if math.isfinite(lo):
                    shift[j] = lo
                    col_of.append(((k, 1.0),))
                    ub.append(up - lo)
                elif math.isfinite(up):
                    shift[j] = up
                    col_of.append(((k, -1.0),))
                    ub.append(np.inf)
                else:
                    col_of.append(((k, 1.0), (k + 1, -1.0)))
                    ub += [np.inf, np.inf]
                cols += [(j, s) for _, s in col_of[j]]
            nt = len(cols)
            rhs = []  # net of the shift; a loop, as sum() compensates from Python 3.12
            for r in rows:
                const = 0.0
                for j, v in r.coeffs.items():
                    const += v * shift[j]
                rhs.append(r.rhs - const)

            # tableau: [t vars | "<=" slacks | artificials | rhs], each row
            # negated when its rhs is negative; "=" rows and negated "<=" rows
            # start on an artificial
            ns = sum(r.sense == "<=" for r in rows)
            na = sum(r.sense == "=" or b < 0 for r, b in zip(rows, rhs))
            width = nt + ns + na + 1
            T = np.zeros((len(rows), width))
            basis = [0] * len(rows)
            slack, art = nt, nt + ns
            for i, (r, b) in enumerate(zip(rows, rhs)):
                sign = -1.0 if b < 0 else 1.0
                for j, v in r.coeffs.items():
                    for k, s in col_of[j]:
                        T[i, k] = sign * (v * s)
                T[i, -1] = sign * b
                if r.sense == "<=":
                    T[i, slack] = sign
                    basis[i], slack = slack, slack + 1
                if r.sense == "=" or b < 0:
                    T[i, art] = 1.0
                    basis[i], art = art, art + 1
            # Bland's order: t columns, slacks, complemented t columns, then
            # artificials; `twin` holds the index a column takes complemented
            rank = list(range(nt + ns)) + list(range(2 * nt + ns, nt + width - 1))
            twin = [k + nt + ns for k in range(nt)] + rank[nt:]
            ub += [np.inf] * (ns + na)
            # artificials never re-enter, and a width-0 column cannot move
            movable = [u > 0 for u in ub[: nt + ns]] + [False] * (na + 1)
            pivots = phase1 = 0
            if na:
                costs1 = np.zeros(width - 1)
                costs1[nt + ns :] = 1.0
                z1 = price_out(costs1)
                if run_phase(z1) != "optimal":
                    return SolveOutcome("iteration-limit", stats={"pivots": pivots})
                if sum(T[i, -1] for i, j in enumerate(basis) if j >= nt + ns) > FEAS_TOL:
                    return SolveOutcome("infeasible", stats={"pivots": pivots})
                phase1 = pivots
                # drive leftover artificials out; keep the rows that are not
                # dependent, as a row left with nothing to pivot on is
                order = sorted(range(nt + ns), key=rank.__getitem__)
                keep = []
                for i, j in enumerate(basis):
                    if j >= nt + ns:
                        col = next((k for k in order if abs(T[i, k]) > PIVOT_TOL), None)
                        if col is None:
                            continue
                        pivot(z1, i, col)
                        pivots += 1
                    keep.append(i)
                T, basis = T[keep], [basis[i] for i in keep]
            state = T, tuple(basis), tuple(rank), tuple(twin), ub, movable, cols, shift
            rows.start = bounds, (*state, phase1, pivots)

        # phase 1 reads only the rows and the bounds: start from its end state
        T, basis, rank, twin, ub, movable, cols, shift, phase1, pivots = rows.start[1]
        if phase1 > PIVOT_LIMIT:
            return SolveOutcome("iteration-limit", stats={"pivots": PIVOT_LIMIT + 1})
        T, basis, rank, twin = T.copy(), list(basis), list(rank), list(twin)
        nt, width = len(cols), T.shape[1]
        c = lp.c.tolist()
        ct = np.array([s * c[j] for j, s in cols])
        costs2 = np.zeros(width - 1)
        costs2[:nt] = np.where(np.array(rank[:nt]) >= nt, -ct, ct)
        status = run_phase(price_out(costs2))
        if status != "optimal":
            return SolveOutcome(status, stats={"pivots": pivots})

        t = np.zeros(width - 1)
        t[basis] = T[:, -1]
        t = np.where(np.array(rank[:nt]) >= nt, np.array(ub[:nt]) - t[:nt], t[:nt])
        x = np.array(shift)
        objective = float(ct @ t) + (float(lp.c @ x) + lp.offset)
        for (j, s), tk in zip(cols, t):
            x[j] += s * tk
        return SolveOutcome("optimal", objective, x, {"pivots": pivots})

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveOutcome:
        lp = mip.lp
        nodes = 0
        incumbent, inc_score = None, np.inf
        heap, counter = [], itertools.count()
        children = [{}]  # the root is the first node solved
        while children:
            for fixings in children:
                nodes += 1
                if nodes == WARN_NODES + 1:
                    warnings.warn(f"branch-and-bound past {WARN_NODES} nodes", stacklevel=2)
                lo, up = lp.lower.copy(), lp.upper.copy()
                for j, v in fixings.items():
                    lo[j] = up[j] = v
                out = self.solve_lp(replace(lp, lower=lo, upper=up))
                if out.status == "infeasible":
                    continue
                if not out.optimal:  # only the root can be unbounded: it holds every child
                    return SolveOutcome(out.status, stats={"nodes": nodes})
                if out.objective >= inc_score - 1e-9:
                    continue
                x = out.x
                # branch on the most fractional binary, the first on ties
                j = max(mip.binaries, key=lambda j: min(x[j], 1.0 - x[j]), default=None)
                if j is not None and min(x[j], 1.0 - x[j]) > INT_TOL:
                    heapq.heappush(heap, (out.objective, next(counter), fixings, j))
                else:
                    for j in mip.binaries:
                        x[j] = round(x[j])
                    incumbent, inc_score = out, out.objective
            if nodes > NODE_LIMIT:
                out = incumbent or SolveOutcome("iteration-limit")
                return replace(out, status="iteration-limit", stats={"nodes": nodes})
            children = []
            if heap and heap[0][0] < inc_score - 1e-9:
                _, _, fixings, j = heapq.heappop(heap)
                children = [{**fixings, j: 0.0}, {**fixings, j: 1.0}]

        if incumbent is None:
            return SolveOutcome("infeasible", stats={"nodes": nodes})
        return replace(incumbent, stats={"nodes": nodes})


# the benchmark's tracer patches `SimplexSolver.solve_lp` by this name; the
# alias goes once the tracer reads solver stats instead of patching
SimplexSolver = BranchBoundSolver


# scipy `milp`'s status codes; 1 is an iteration, node or time limit, and 4
# is "other": HiGHS proved neither optimality nor a limit
# (unbounded-or-infeasible, or a solver error); the message says which
_HIGHS_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded"}


@contextmanager
def _stdout_to_debug_log():
    """Point fd 1 at a temporary file for the block, then log each line
    written there at DEBUG.  fd 1 is process-wide: keep other threads
    quiet."""
    with tempfile.TemporaryFile() as captured:
        sys.stdout.flush()
        _fflush(None)
        saved = os.dup(1)
        try:
            os.dup2(captured.fileno(), 1)
            yield
        finally:
            _fflush(None)  # C stdio holds native output until flushed
            os.dup2(saved, 1)
            os.close(saved)
        captured.seek(0)
        for line in captured.read().decode(errors="replace").splitlines():
            log.debug("%s", line)


_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes, _fflush.restype = [ctypes.c_void_p], ctypes.c_int


class HighsSolver(Solver):
    """scipy/HiGHS backend for instances beyond the bundled code.  LPs and
    MILPs alike go to `scipy.optimize.milp`; an LP has no integrality.
    Presolve is off for every solve (README "Solvers"): it restarts the
    masters' root search, costs the small LPs more than it saves, and
    can call an unbounded LP infeasible.  scipy passes `milp`'s ``disp``
    option, off by default and never set here, to HiGHS as
    ``log_to_console``, so LP solves print nothing.  The MIP solver
    prints past that option on some MILPs (1.12.0 does on one binary
    fixed at 1), so MILP solves run with fd 1 captured into the DEBUG
    log."""

    def solve_lp(self, lp: LinearProgram) -> SolveOutcome:
        return self._milp(lp)[1]

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveOutcome:
        integrality = np.zeros(mip.lp.n_vars)
        integrality[list(mip.binaries)] = 1
        with _stdout_to_debug_log():
            res, out = self._milp(mip.lp, integrality)
        if out.optimal:
            for j in mip.binaries:
                if min(out.x[j], 1.0 - out.x[j]) <= INT_TOL:
                    out.x[j] = round(out.x[j])
            out.stats["nodes"] = int(res.mip_node_count or 0)
        return out

    @staticmethod
    def _milp(lp: LinearProgram, integrality=None):
        """Solve ``lp`` without presolve, a MILP to a zero gap; returns
        scipy's result and the outcome, whose stats carry scipy's ``message``."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        options = {"presolve": False}
        if integrality is not None:
            options["mip_rel_gap"] = 0.0
        res = milp(
            lp.c,
            integrality=integrality,
            bounds=Bounds(lp.lower, lp.upper),
            constraints=LinearConstraint(*lp.rows.highs(lp.n_vars)),
            options=options,
        )
        status = _HIGHS_STATUS.get(res.status, "inconclusive")
        stats = {"message": res.message}
        if status != "optimal":
            return res, SolveOutcome(status, stats=stats)
        return res, SolveOutcome("optimal", float(res.fun + lp.offset), res.x, stats)


def default_solver(mip: MixedIntegerProgram | None = None) -> Solver:
    """HiGHS when ``mip``, a problem's master block, has more than
    ``HIGHS_ROWS`` rows; else, and with no program, the bundled solver."""
    if mip is not None and len(mip.lp.rows) > HIGHS_ROWS:
        return HighsSolver()
    return BranchBoundSolver()


def solve_lp(lp: LinearProgram, solver: Solver | None = None) -> SolveOutcome:
    return (solver or default_solver()).solve_lp(lp)


def solve_milp(mip: MixedIntegerProgram, solver: Solver | None = None) -> SolveOutcome:
    return (solver or default_solver()).solve_milp(mip)
