"""Desk-scale LP and MILP solving behind a pluggable solver interface.

The bundled backend favors transparency over speed: a dense two-phase
simplex with Bland's anti-cycling rule for LPs, and best-bound
branch-and-bound on binary variables for MILPs.  It is deterministic:
identical inputs produce identical primal vectors.  A HiGHS-backed
adapter (via scipy.optimize) exposes the same interface for instances
too large for the bundled code.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
import logging
import os
import sys
import tempfile
import warnings
from abc import ABC, abstractmethod
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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


class SparseRows:
    """The rows over ``n_vars`` columns in the form HiGHS takes.

    Creating one checks the rows' column indices; the form is built on
    first use and kept.  Linear programs that hold the same rows tuple
    share one instance (``LinearProgram.sparse``).
    """

    def __init__(self, rows, n_vars: int):
        for r in rows:
            if r.coeffs and max(r.coeffs) >= n_vars:
                raise ValueError(f"row {r.name!r} references variable {max(r.coeffs)}")
        self.rows = rows
        self.n_vars = n_vars
        self._form = None

    def highs(self):
        """``(A, lower, upper)`` with ``lower <= A @ x <= upper`` for the
        rows: ``A`` is one CSC matrix, ``<=`` rows first, in list order
        and with lower bound ``-inf``, then ``=`` rows with equal bounds."""
        if self._form is None:
            self._form = self._convert()
        return self._form

    def _convert(self):
        from scipy.sparse import csr_matrix

        rows = self.rows
        m = len(rows)
        counts = np.fromiter((len(r.coeffs) for r in rows), np.intp, m)
        nnz = int(counts.sum())
        cols = np.fromiter(itertools.chain.from_iterable(r.coeffs for r in rows), np.intp, nnz)
        vals = np.fromiter(
            itertools.chain.from_iterable(r.coeffs.values() for r in rows), float, nnz
        )
        upper = np.fromiter((r.rhs for r in rows), float, m)
        is_eq = np.fromiter((r.sense == "=" for r in rows), bool, m)
        lower = np.where(is_eq, upper, -np.inf)
        order = np.concatenate([np.flatnonzero(~is_eq), np.flatnonzero(is_eq)])
        # gather each row's entries in the new row order
        starts = np.cumsum(counts) - counts
        counts = counts[order]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(starts[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        a = csr_matrix((vals[take], cols[take], indptr), shape=(m, self.n_vars))
        return a.tocsc(), lower[order], upper[order]


@dataclass
class LinearProgram:
    """Minimize c.x + ``offset`` subject to ``rows`` and the bounds.

    ``offset`` is a constant that every backend adds to the reported
    objective; it moves no solution.  ``rows`` is kept as a tuple, so it
    cannot grow or shrink under a cached form; changed rows come from
    ``dataclasses.replace``.  ``sparse`` carries the HiGHS form of
    ``rows``, created with the program; a program built from another's
    ``rows`` and ``sparse`` shares its conversion.  It is used only while
    its rows are this program's ``rows`` by identity and its column count
    matches, and replaced otherwise.
    """

    c: np.ndarray
    rows: tuple
    lower: np.ndarray
    upper: np.ndarray
    sparse: SparseRows | None = field(default=None, repr=False, compare=False)
    offset: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rows = tuple(self.rows)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.offset = float(self.offset)
        n = self.c.size
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound arrays must match the variable count")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"variable {j}: lower bound above upper")
        self.sparse_rows()  # checks the row indices once per rows list

    @property
    def n_vars(self) -> int:
        return self.c.size

    def sparse_rows(self) -> SparseRows:
        """The sparse form of ``rows``, created on first use for these rows."""
        sp = self.sparse
        if sp is None or sp.rows is not self.rows or sp.n_vars != self.n_vars:
            sp = self.sparse = SparseRows(self.rows, self.n_vars)
        return sp


@dataclass
class MixedIntegerProgram:
    lp: LinearProgram
    binaries: tuple

    def __post_init__(self):
        self.binaries = tuple(sorted(set(int(j) for j in self.binaries)))
        n = self.lp.n_vars
        for j in self.binaries:
            if not 0 <= j < n:
                raise ValueError(f"binary index {j} out of range")
            if self.lp.lower[j] < -1e-12 or self.lp.upper[j] > 1 + 1e-12:
                raise ValueError(f"binary {j} has bounds outside [0, 1]")


@dataclass
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


class _StandardForm:
    """Equality standard form of a LinearProgram.

    Variables are shifted/mirrored/split to be nonnegative; every row
    (including finite upper bounds on shifted variables and both halves
    of equality rows) becomes `a.t <= rhs`, then gains a slack.  Rows with
    negative rhs are negated and receive a phase-1 artificial.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars

        # variable transform: x = shift + sum(sign * t_col)
        self.shift = np.zeros(n)
        self.cols = []  # list of (orig var, sign)
        bound_rows = []  # (t column, ub) for finite shifted ranges
        for j in range(n):
            lo, up = lp.lower[j], lp.upper[j]
            if np.isfinite(lo):
                self.shift[j] = lo
                self.cols.append((j, 1.0))
                if np.isfinite(up):
                    bound_rows.append((len(self.cols) - 1, up - lo))
            elif np.isfinite(up):
                self.shift[j] = up
                self.cols.append((j, -1.0))
            else:
                self.cols.append((j, 1.0))
                self.cols.append((j, -1.0))
        self.nt = len(self.cols)

        ct = np.zeros(self.nt)
        for k, (j, s) in enumerate(self.cols):
            ct[k] += s * lp.c[j]
        self.ct = ct
        self.obj_const = float(lp.c @ self.shift) + lp.offset

        # per-variable t-columns for fast row transforms
        col_of = [[] for _ in range(n)]
        for k, (j, s) in enumerate(self.cols):
            col_of[j].append((k, s))

        rows_t = []  # (dense coeffs over t, rhs)
        for r in lp.rows:
            a = np.zeros(self.nt)
            const = 0.0
            for j, v in r.coeffs.items():
                const += v * self.shift[j]
                for k, s in col_of[j]:
                    a[k] += v * s
            rhs = r.rhs - const
            rows_t.append((a, rhs))
            if r.sense == "=":
                rows_t.append((-a, -rhs))
        for k, ub in bound_rows:
            a = np.zeros(self.nt)
            a[k] = 1.0
            rows_t.append((a, ub))

        self.rows_t = rows_t
        self.m = len(rows_t)

    def to_x(self, t: np.ndarray) -> np.ndarray:
        x = self.shift.copy()
        for k, (j, s) in enumerate(self.cols):
            x[j] += s * t[k]
        return x


class BranchBoundSolver(Solver):
    """The bundled backend: a dense two-phase tableau simplex with Bland's
    rule for LPs, and best-bound branch-and-bound on binary variables for
    MILPs, whose every node relaxation is solved by that simplex.

    Bland's rule (lowest-index entering column, lowest-index basic
    variable on ratio ties) makes the pivot sequence cycle-free and fully
    deterministic.  Branching takes the most-fractional binary (smallest
    index on ties), fixing it to 0 then 1; nodes are explored in
    best-relaxation-bound order with a monotone counter breaking ties, so
    runs are repeatable.  Intended for desk-scale programs: the pivot cap
    on every LP, node LPs included, and the node cap turn numerical
    trouble and blow-up into an explicit iteration-limit status.  The caps
    are the module's ``PIVOT_LIMIT``, ``NODE_LIMIT`` and ``WARN_NODES``.
    """

    def solve_lp(self, lp: LinearProgram) -> SolveOutcome:
        sf = _StandardForm(lp)
        m, nt = sf.m, sf.nt
        pivots = 0

        # tableau: [t vars | slacks | artificials | rhs]
        art_rows = [i for i, (_, rhs) in enumerate(sf.rows_t) if rhs < 0]
        na = len(art_rows)
        width = nt + m + na + 1
        T = np.zeros((m, width))
        basis = np.empty(m, dtype=int)
        for i, (a, rhs) in enumerate(sf.rows_t):
            flip = -1.0 if rhs < 0 else 1.0
            T[i, :nt] = flip * a
            T[i, nt + i] = flip
            T[i, -1] = flip * rhs
            basis[i] = nt + i
        for k, i in enumerate(art_rows):
            T[i, nt + m + k] = 1.0
            basis[i] = nt + m + k

        def price_out(costs):
            z = np.zeros(width)
            z[: costs.size] = costs
            for i in range(T.shape[0]):
                cb = costs[basis[i]] if basis[i] < costs.size else 0.0
                if cb != 0.0:
                    z -= cb * T[i]
            z[-1] = 0.0
            return z

        def pivot(z, row, col):
            piv = T[row, col]
            T[row] /= piv
            for i in range(T.shape[0]):
                if i != row and T[i, col] != 0.0:
                    T[i] -= T[i, col] * T[row]
            if z[col] != 0.0:
                z -= z[col] * T[row]
            basis[row] = col

        def run_phase(z, allowed):
            nonlocal pivots
            while True:
                enter = -1
                for j in allowed:
                    if z[j] < -PIVOT_TOL:
                        enter = j
                        break
                if enter < 0:
                    return "optimal"
                ratios = np.full(T.shape[0], np.inf)
                mask = T[:, enter] > PIVOT_TOL
                ratios[mask] = T[mask, -1] / T[mask, enter]
                best = np.min(ratios) if ratios.size else np.inf
                if not np.isfinite(best):
                    return "unbounded"
                leave, leave_var = -1, None
                for i in range(T.shape[0]):
                    if ratios[i] <= best + 1e-9 and (
                        leave < 0 or basis[i] < leave_var
                    ):
                        leave, leave_var = i, basis[i]
                pivot(z, leave, enter)
                pivots += 1
                if pivots > PIVOT_LIMIT:
                    return "iteration-limit"

        structural = range(nt + m)  # artificials never re-enter

        if na:
            costs1 = np.zeros(nt + m + na)
            costs1[nt + m :] = 1.0
            z1 = price_out(costs1)
            status = run_phase(z1, structural)
            if status != "optimal":
                return SolveOutcome("iteration-limit", stats={"pivots": pivots})
            phase1_obj = sum(
                T[i, -1] for i in range(T.shape[0]) if basis[i] >= nt + m
            )
            if phase1_obj > FEAS_TOL:
                return SolveOutcome("infeasible", stats={"pivots": pivots})
            # drive leftover artificials out; drop dependent rows
            drop = set()
            for i in range(T.shape[0]):
                if basis[i] >= nt + m:
                    col = next(
                        (j for j in structural if abs(T[i, j]) > PIVOT_TOL), None
                    )
                    if col is None:
                        drop.add(i)
                    else:
                        pivot(z1, i, col)
                        pivots += 1
            if drop:
                keep = [i for i in range(T.shape[0]) if i not in drop]
                T = T[keep]
                basis = basis[keep]

        costs2 = np.zeros(nt + m + na)
        costs2[:nt] = sf.ct
        status = run_phase(price_out(costs2), structural)
        if status != "optimal":
            return SolveOutcome(status, stats={"pivots": pivots})

        t = np.zeros(nt)
        for i in range(T.shape[0]):
            if basis[i] < nt:
                t[basis[i]] = T[i, -1]
        objective = float(sf.ct @ t) + sf.obj_const
        return SolveOutcome("optimal", objective, sf.to_x(t), {"pivots": pivots})


    def solve_milp(self, mip: MixedIntegerProgram) -> SolveOutcome:
        lp = mip.lp
        nodes = 0
        warned = False
        incumbent = None
        inc_score = np.inf
        heap = []
        counter = itertools.count()

        def node_lp(fixings):
            lo = lp.lower.copy()
            up = lp.upper.copy()
            for j, v in fixings.items():
                lo[j] = up[j] = float(v)
            return replace(lp, lower=lo, upper=up)

        def consider(fixings):
            nonlocal nodes, incumbent, inc_score, warned
            nodes += 1
            if nodes > WARN_NODES and not warned:
                warnings.warn(f"branch-and-bound past {WARN_NODES} nodes", stacklevel=3)
                warned = True
            out = self.solve_lp(node_lp(fixings))
            if out.status == "infeasible":
                return None
            if out.status != "optimal":
                return out.status
            if out.objective >= inc_score - 1e-9:
                return None
            frac = [
                j
                for j in mip.binaries
                if min(out.x[j], 1.0 - out.x[j]) > INT_TOL
            ]
            if not frac:
                x = out.x.copy()
                for j in mip.binaries:
                    x[j] = round(x[j])
                incumbent = SolveOutcome(
                    "optimal", out.objective, x, stats=dict(out.stats)
                )
                inc_score = out.objective
                return None
            heapq.heappush(heap, (out.objective, next(counter), fixings, out))
            return None

        bad = consider({})
        if bad == "unbounded":
            return SolveOutcome("unbounded", stats={"nodes": nodes})
        if bad == "iteration-limit":
            return SolveOutcome("iteration-limit", stats={"nodes": nodes})

        while heap:
            bound, _, fixings, relax = heapq.heappop(heap)
            if bound >= inc_score - 1e-9:
                break
            # a node is pushed only with a fractional binary, and a fixed
            # binary's value is its bound, so an unfixed one is found here
            j_star, best_frac = -1, INT_TOL
            for j in mip.binaries:
                if j in fixings:
                    continue
                d = min(relax.x[j], 1.0 - relax.x[j])
                if d > best_frac:
                    j_star, best_frac = j, d
            for v in (0, 1):
                bad = consider({**fixings, j_star: v})
                if bad == "iteration-limit":
                    return SolveOutcome("iteration-limit", stats={"nodes": nodes})
            if nodes > NODE_LIMIT:
                out = incumbent or SolveOutcome("iteration-limit")
                return replace(out, status="iteration-limit", stats={"nodes": nodes})

        if incumbent is None:
            return SolveOutcome("infeasible", stats={"nodes": nodes})
        incumbent.stats["nodes"] = nodes
        return incumbent


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
    scipy passes `milp`'s ``disp`` option, off by default and never set
    here, to HiGHS as ``log_to_console``, so LP solves print nothing.  The
    MIP solver has prints that option does not govern, so MILP solves run
    with fd 1 captured into the DEBUG log."""

    def solve_lp(self, lp: LinearProgram) -> SolveOutcome:
        return self._milp(lp)[1]

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveOutcome:
        integrality = np.zeros(mip.lp.n_vars)
        integrality[list(mip.binaries)] = 1
        # presolve's reduced-cost fixing restarts the root search many
        # times on the scenario-cut masters (see README); with it off, the
        # master block leaves out the rows the column bounds imply
        with _stdout_to_debug_log():
            res, out = self._milp(mip.lp, integrality, {"mip_rel_gap": 0.0, "presolve": False})
        if out.optimal:
            for j in mip.binaries:
                if min(out.x[j], 1.0 - out.x[j]) <= INT_TOL:
                    out.x[j] = round(out.x[j])
            out.stats["nodes"] = int(res.mip_node_count or 0)
        return out

    @staticmethod
    def _milp(lp: LinearProgram, integrality=None, options=None):
        """Solve ``lp``; returns scipy's result and the outcome, whose
        stats carry scipy's ``message``."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        res = milp(
            lp.c,
            integrality=integrality,
            bounds=Bounds(lp.lower, lp.upper),
            constraints=LinearConstraint(*lp.sparse_rows().highs()),
            options=options,
        )
        status = _HIGHS_STATUS.get(res.status, "inconclusive")
        stats = {"message": res.message}
        if status != "optimal":
            return res, SolveOutcome(status, stats=stats)
        return res, SolveOutcome("optimal", float(res.fun + lp.offset), res.x, stats)


def default_solver() -> Solver:
    return BranchBoundSolver()


def solve_lp(lp: LinearProgram, solver: Solver | None = None) -> SolveOutcome:
    return (solver or default_solver()).solve_lp(lp)


def solve_milp(mip: MixedIntegerProgram, solver: Solver | None = None) -> SolveOutcome:
    return (solver or default_solver()).solve_milp(mip)
