import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from obro.bess import assemble_bess_problem
from obro.linsolve import (
    BranchBoundSolver,
    HighsSolver,
    LinearProgram,
    MixedIntegerProgram,
    Row,
    SparseRows,
    primal_violation,
)
from obro.master import solve_master
from obro.model import Scenario, reference_scenario
from obro.pwl import SampledFunction

from feeders import feeder_case

SOLVERS = [BranchBoundSolver(), HighsSolver()]
MILP_SOLVERS = [BranchBoundSolver(), HighsSolver()]


def lp_max_x():
    return LinearProgram(
        "max", np.array([1.0]), [Row({0: 1.0}, "<=", 1.0)], np.array([0.0]), np.array([np.inf])
    )


@pytest.mark.parametrize("solver", SOLVERS, ids=["simplex", "highs"])
class TestSolveLp:
    def test_bounded_maximum(self, solver):
        out = solver.solve_lp(lp_max_x())
        assert out.optimal
        assert out.objective == pytest.approx(1.0)
        assert out.x[0] == pytest.approx(1.0)

    def test_infeasible(self, solver):
        lp = LinearProgram(
            "min", np.array([1.0]), [Row({0: 1.0}, ">=", 2.0)],
            np.array([-np.inf]), np.array([1.0]),
        )
        assert solver.solve_lp(lp).status == "infeasible"

    def test_unbounded(self, solver):
        lp = LinearProgram("max", np.array([1.0]), [], np.array([0.0]), np.array([np.inf]))
        assert solver.solve_lp(lp).status == "unbounded"

    def test_equality_and_inequality_mix(self, solver):
        lp = LinearProgram(
            "min", np.array([2.0, 3.0]),
            [Row({0: 1, 1: 1}, ">=", 4.0), Row({0: 1, 1: -1}, "=", 1.0)],
            np.zeros(2), np.full(2, 10.0),
        )
        out = solver.solve_lp(lp)
        assert out.objective == pytest.approx(9.5)
        np.testing.assert_allclose(out.x, [2.5, 1.5], atol=1e-9)

    def test_free_variables(self, solver):
        lp = LinearProgram(
            "min", np.array([1.0, 0.0]),
            [Row({0: 1, 1: 1}, ">=", -3.0), Row({1: 1.0}, "=", 1.0)],
            np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]),
        )
        out = solver.solve_lp(lp)
        assert out.objective == pytest.approx(-4.0)


class TestSimplexContract:
    def test_deterministic_primal(self):
        rng = np.random.default_rng(11)
        lp = LinearProgram(
            "min", rng.normal(size=6),
            [Row({j: rng.normal() for j in range(6)}, "<=", 1.0) for _ in range(8)],
            np.full(6, -2.0), np.full(6, 2.0),
        )
        a = BranchBoundSolver().solve_lp(lp)
        b = BranchBoundSolver().solve_lp(lp)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.stats["pivots"] == b.stats["pivots"]

    def test_pivot_limit_reported(self):
        lp = LinearProgram(
            "min", np.array([1.0, 1.0]),
            [Row({0: 1, 1: 1}, ">=", 1.0)], np.zeros(2), np.ones(2),
        )
        out = BranchBoundSolver(pivot_limit=0).solve_lp(lp)
        assert out.status == "iteration-limit"

    def test_pivot_limit_reaches_node_lps(self):
        # the root relaxation needs a pivot, and branch-and-bound solves it
        # under the solver's own pivot cap
        lp = LinearProgram(
            "max", np.array([1.0, 1.0]),
            [Row({0: 1, 1: 1}, "<=", 1.5)], np.zeros(2), np.ones(2),
        )
        mip = MixedIntegerProgram(lp, (1,))
        assert BranchBoundSolver().solve_milp(mip).optimal
        out = BranchBoundSolver(pivot_limit=0).solve_milp(mip)
        assert out.status == "iteration-limit"

    @pytest.mark.parametrize("seed", range(25))
    def test_weak_duality_random(self, seed):
        # HiGHS proves its optimum with a dual certificate; matching its
        # status and objective certifies the simplex optimum the same way
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        lower = np.where(rng.random(n) < 0.8, rng.uniform(-2, 0, n), -np.inf)
        upper = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 3, n), np.inf)
        upper = np.maximum(upper, lower)
        rows = [
            Row(
                {j: float(rng.normal()) for j in range(n) if rng.random() < 0.7},
                str(rng.choice(["<=", ">=", "="])) if rng.random() < 0.4 else "<=",
                float(rng.normal() * 2),
            )
            for _ in range(m)
        ]
        sense = "min" if rng.random() < 0.5 else "max"
        lp = LinearProgram(sense, rng.normal(size=n), rows, lower, upper)
        out = BranchBoundSolver().solve_lp(lp)
        highs = HighsSolver().solve_lp(lp)
        assert out.status == highs.status
        if out.optimal:
            assert out.objective == pytest.approx(highs.objective, abs=1e-6)
            assert primal_violation(lp, out.x) <= 1e-7


@pytest.mark.parametrize("solver", MILP_SOLVERS, ids=["bnb", "highs"])
class TestSolveMilp:
    def test_forced_round_up(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(
                "min", np.array([1.0]), [Row({0: 1.0}, ">=", 0.3)],
                np.zeros(1), np.ones(1),
            ),
            (0,),
        )
        out = solver.solve_milp(mip)
        assert out.objective == pytest.approx(1.0)
        assert out.x[0] == 1.0

    def test_tiny_knapsack(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(
                "max", np.array([2.0, 3.0]), [Row({0: 1, 1: 1}, "<=", 1.0)],
                np.zeros(2), np.ones(2),
            ),
            (0, 1),
        )
        out = solver.solve_milp(mip)
        assert out.objective == pytest.approx(3.0)
        assert out.x[1] == 1.0

    def test_milp_infeasible(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(
                "min", np.array([1.0]),
                [Row({0: 1.0}, ">=", 0.4), Row({0: 1.0}, "<=", 0.6)],
                np.zeros(1), np.ones(1),
            ),
            (0,),
        )
        assert solver.solve_milp(mip).status == "infeasible"

    def test_milp_unbounded(self, solver):
        # max x0 + x1 with x0 >= 0 free above and binary x1 <= 0.5
        mip = MixedIntegerProgram(
            LinearProgram(
                "max", np.array([1.0, 1.0]), [Row({1: 1.0}, "<=", 0.5)],
                np.zeros(2), np.array([np.inf, 1.0]),
            ),
            (1,),
        )
        assert solver.solve_milp(mip).status == "unbounded"


@pytest.mark.parametrize(
    "solver, kind",
    [(BranchBoundSolver(), "lp"), (BranchBoundSolver(), "milp"), (HighsSolver(), "milp")],
    ids=["simplex", "bnb", "highs"],
)
@pytest.mark.parametrize("sense", ["min", "max"])
def test_offset_moves_objective_not_solution(solver, kind, sense):
    # x0 + 2 x1 over x0 + x1 <= 1.5, x1 binary, bounds [0, 1]
    plain = LinearProgram(
        sense, np.array([1.0, 2.0]), [Row({0: 1.0, 1: 1.0}, "<=", 1.5)], np.zeros(2), np.ones(2)
    )
    shifted = replace(plain, offset=-0.75)
    if kind == "lp":
        a, b = solver.solve_lp(plain), solver.solve_lp(shifted)
    else:
        a = solver.solve_milp(MixedIntegerProgram(plain, (1,)))
        b = solver.solve_milp(MixedIntegerProgram(shifted, (1,)))
    assert a.optimal and b.optimal
    np.testing.assert_array_equal(a.x, b.x)
    assert b.objective == pytest.approx(a.objective - 0.75, abs=1e-12)
    assert a.objective == pytest.approx(0.0 if sense == "min" else 2.5, abs=1e-12)


def test_highs_other_status_is_not_a_limit(monkeypatch):
    # scipy status 4 ("unbounded or infeasible", or a solver error) proves
    # no limit was hit; it keeps its own status and scipy's message
    msg = "The problem is unbounded or infeasible. (HiGHS Status 9: ...)"
    monkeypatch.setattr(
        scipy.optimize, "milp", lambda *a, **k: OptimizeResult(status=4, message=msg)
    )
    lp = LinearProgram("max", np.array([1.0]), [], np.zeros(1), np.ones(1))
    out = HighsSolver().solve_milp(MixedIntegerProgram(lp, (0,)))
    assert out.status == "inconclusive"
    assert out.stats["message"] == msg


def test_highs_stat_keys():
    # an LP reports scipy's message; a MILP adds its node count
    lp = LinearProgram(
        "max", np.ones(2), [Row({0: 1.0, 1: 1.0}, "<=", 1.5)], np.zeros(2), np.ones(2)
    )
    assert set(HighsSolver().solve_lp(lp).stats) == {"message"}
    mip = MixedIntegerProgram(lp, (1,))
    assert set(HighsSolver().solve_milp(mip).stats) == {"message", "nodes"}


def enumerate_reference(mip):
    """Ground truth by trying every binary assignment."""
    lp = mip.lp
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=len(mip.binaries)):
        lo, up = lp.lower.copy(), lp.upper.copy()
        for j, v in zip(mip.binaries, bits):
            lo[j] = up[j] = v
        out = BranchBoundSolver().solve_lp(replace(lp, lower=lo, upper=up))
        if not out.optimal:
            continue
        better = (
            best is None
            or (lp.sense == "min" and out.objective < best - 1e-12)
            or (lp.sense == "max" and out.objective > best + 1e-12)
        )
        if better:
            best = out.objective
    return best


@pytest.mark.parametrize("seed", range(30))
def test_branch_and_bound_matches_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 8))
    nb = int(rng.integers(1, min(n, 12) + 1))
    binaries = tuple(sorted(rng.choice(n, size=nb, replace=False).tolist()))
    upper = rng.uniform(1, 3, n)
    upper[list(binaries)] = 1.0
    rows = [
        Row(
            {j: float(rng.normal()) for j in range(n) if rng.random() < 0.8},
            "<=",
            float(abs(rng.normal()) * 2),
        )
        for _ in range(int(rng.integers(1, 6)))
    ]
    sense = "min" if rng.random() < 0.5 else "max"
    mip = MixedIntegerProgram(
        LinearProgram(sense, rng.normal(size=n), rows, np.zeros(n), upper), binaries
    )
    reference = enumerate_reference(mip)
    out = BranchBoundSolver().solve_milp(mip)
    if reference is None:
        assert out.status == "infeasible"
    else:
        assert out.optimal
        assert out.objective == pytest.approx(reference, abs=1e-6)
        assert primal_violation(mip.lp, out.x) <= 1e-7
        # second run is bit-identical
        again = BranchBoundSolver().solve_milp(mip)
        np.testing.assert_array_equal(out.x, again.x)


@pytest.mark.parametrize("solver", MILP_SOLVERS, ids=["bnb", "highs"])
def test_twelve_binaries_match_enumeration(solver):
    rng = np.random.default_rng(99)
    n = 13
    binaries = tuple(range(12))
    upper = np.ones(n)
    upper[12] = 2.5
    rows = [
        Row(
            {j: float(rng.normal()) for j in range(n) if rng.random() < 0.8},
            "<=",
            float(abs(rng.normal()) * 2),
        )
        for _ in range(5)
    ]
    mip = MixedIntegerProgram(
        LinearProgram("min", rng.normal(size=n), rows, np.zeros(n), upper), binaries
    )
    reference = enumerate_reference(mip)
    out = solver.solve_milp(mip)
    assert out.optimal
    assert out.objective == pytest.approx(reference, abs=1e-6)
    assert primal_violation(mip.lp, out.x) <= 1e-7


def test_bound_sandwich_and_node_accounting():
    mip = MixedIntegerProgram(
        LinearProgram(
            "min", np.array([1.0, 1.0, 1.0]),
            [Row({0: 1, 1: 1, 2: 1}, ">=", 1.6)], np.zeros(3), np.ones(3),
        ),
        (0, 1, 2),
    )
    out = BranchBoundSolver().solve_milp(mip)
    assert out.objective == pytest.approx(2.0)
    # the root relaxation (sum 1.6) is fractional, so the search branches;
    # a complete tree over three binaries has 15 nodes
    assert 3 <= out.stats["nodes"] <= 15


def test_node_warning_threshold():
    rng = np.random.default_rng(5)
    n = 14
    mip = MixedIntegerProgram(
        LinearProgram(
            "max", rng.uniform(1, 2, n),
            [Row({j: float(rng.uniform(1, 2)) for j in range(n)}, "<=", float(n) / 1.3)],
            np.zeros(n), np.ones(n),
        ),
        tuple(range(n)),
    )
    with pytest.warns(UserWarning, match="branch-and-bound"):
        BranchBoundSolver(warn_nodes=5).solve_milp(mip)


def test_node_limit_status():
    rng = np.random.default_rng(5)
    n = 12
    mip = MixedIntegerProgram(
        LinearProgram(
            "max", rng.uniform(1, 2, n),
            [Row({j: float(rng.uniform(1, 2)) for j in range(n)}, "<=", float(n) / 1.3)],
            np.zeros(n), np.ones(n),
        ),
        tuple(range(n)),
    )
    out = BranchBoundSolver(node_limit=3, warn_nodes=10**9).solve_milp(mip)
    assert out.status == "iteration-limit"


def test_program_validation():
    with pytest.raises(ValueError):
        LinearProgram("min", np.array([1.0]), [], np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        LinearProgram("min", np.array([1.0]), [Row({3: 1.0}, "<=", 0.0)], np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        MixedIntegerProgram(
            LinearProgram("min", np.array([1.0]), [], np.zeros(1), np.full(1, 2.0)), (0,)
        )


@pytest.mark.parametrize("solver", SOLVERS, ids=["simplex", "highs"])
def test_negative_column_index_is_rejected(solver):
    # Python would read column -1 as the last variable: the bundled simplex
    # answered x = [1, 0.5] for this program and HiGHS raised a TypeError
    with pytest.raises(ValueError, match="row 'neg' references variable -1"):
        solver.solve_lp(
            LinearProgram(
                "max", np.ones(2), [Row({-1: 1.0}, "<=", 0.5, "neg")], np.zeros(2), np.ones(2)
            )
        )


def per_row_form(lp):
    """Reference HiGHS form, one coefficient at a time through COO:
    ``(A, lower, upper)`` with ``<=`` and negated ``>=`` rows first, then
    ``=`` rows."""
    from scipy.sparse import coo_matrix

    ineq = [r for r in lp.rows if r.sense != "="]
    eq = [r for r in lp.rows if r.sense == "="]
    rows, cols, vals, lower, upper = [], [], [], [], []
    for i, r in enumerate([*ineq, *eq]):
        sign = -1.0 if r.sense == ">=" else 1.0
        for j, v in r.coeffs.items():
            rows.append(i)
            cols.append(j)
            vals.append(sign * v)
        upper.append(sign * r.rhs)
        lower.append(r.rhs if r.sense == "=" else -np.inf)
    a = coo_matrix((vals, (rows, cols)), shape=(len(upper), lp.n_vars)).tocsc()
    return a, np.array(lower, dtype=float), np.array(upper, dtype=float)


def assert_same_form(got, want):
    (a, lo, up), (ra, rlo, rup) = got, want
    assert a.format == "csc" and a.shape == ra.shape
    for attr in ("indptr", "indices", "data"):
        x, y = getattr(a, attr), getattr(ra, attr)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr
    for b, rb in ((lo, rlo), (up, rup)):
        assert b.dtype == rb.dtype and b.tobytes() == rb.tobytes()


MIXED_ROWS = [
    Row({2: 1.0, 0: -2.0}, "<=", 3.0),
    Row({1: 1.5, 3: 1.0}, ">=", -1.0),
    Row({0: 1.0, 1: 1.0, 2: 1.0}, "=", 2.0),
    Row({3: -1.0, 1: 0.5}, ">=", 0.0),
    Row({2: 2.0, 3: 1.0}, "=", 1.0),
    Row({}, "<=", 4.0),
]


class TestSparseRows:
    @pytest.mark.parametrize(
        "rows",
        [
            MIXED_ROWS,
            [r for r in MIXED_ROWS if r.sense != "="],
            [r for r in MIXED_ROWS if r.sense == "="],
            [],
        ],
        ids=["mixed", "no-equality", "equality-only", "no-rows"],
    )
    def test_matches_per_row_construction(self, rows):
        # column 4 appears in no row
        lp = LinearProgram("min", np.ones(5), rows, np.zeros(5), np.full(5, 10.0))
        sp = SparseRows(rows, 5)
        assert_same_form(sp.highs(), per_row_form(lp))
        assert sp.highs() is sp.highs()  # built once
        assert_same_form(lp.sparse_rows().highs(), per_row_form(lp))

    def test_row_order_and_bounds(self):
        # inequality rows in list order, ">=" rows negated, then "=" rows
        a, lower, upper = SparseRows(MIXED_ROWS, 5).highs()
        np.testing.assert_array_equal(
            a.toarray(),
            [
                [-2.0, 0.0, 1.0, 0.0, 0.0],
                [0.0, -1.5, 0.0, -1.0, 0.0],
                [0.0, -0.5, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0, 1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 2.0, 1.0, 0.0],
            ],
        )
        np.testing.assert_array_equal(lower, [-np.inf, -np.inf, -np.inf, -np.inf, 2.0, 1.0])
        np.testing.assert_array_equal(upper, [3.0, 1.0, 0.0, 4.0, 2.0, 1.0])

    def test_column_past_the_last_is_rejected(self):
        with pytest.raises(ValueError, match="row 'wide' references variable 5"):
            SparseRows([*MIXED_ROWS, Row({5: 1.0}, "<=", 0.0, "wide")], 5)
        with pytest.raises(ValueError, match="references variable 5"):
            LinearProgram("min", np.ones(5), [Row({5: 1.0}, "<=", 0.0)], np.zeros(5), np.ones(5))

    def test_shared_by_programs_on_one_rows_list(self):
        lp = LinearProgram("min", np.ones(5), MIXED_ROWS, np.zeros(5), np.ones(5))
        other = replace(lp, c=np.arange(5.0))
        assert other.sparse_rows() is lp.sparse_rows()

    def test_replaced_rows_never_reuse_the_old_form(self):
        lp = LinearProgram(
            "max", np.array([1.0, 1.0]), [Row({0: 1.0, 1: 1.0}, "<=", 1.0)],
            np.zeros(2), np.full(2, 5.0),
        )
        assert HighsSolver().solve_lp(lp).objective == pytest.approx(1.0)
        old = lp.sparse_rows()
        # same row count and shape, different coefficients and bound
        moved = replace(lp, rows=[Row({0: 1.0, 1: 2.0}, "<=", 4.0)])
        assert moved.sparse is not old and moved.sparse.rows is moved.rows
        out = HighsSolver().solve_lp(moved)
        assert out.objective == pytest.approx(4.0)
        assert_same_form(moved.sparse_rows().highs(), per_row_form(moved))

    def test_rows_cannot_grow_under_the_cached_form(self):
        # appending to a rows list kept HiGHS on the form of the old rows
        lp = LinearProgram("max", [1.0], [Row({0: 1.0}, "<=", 5.0)], [0.0], [10.0])
        assert HighsSolver().solve_lp(lp).objective == pytest.approx(5.0)
        with pytest.raises(AttributeError):
            lp.rows.append(Row({0: 1.0}, "<=", 2.0))
        tighter = replace(lp, rows=[*lp.rows, Row({0: 1.0}, "<=", 2.0)])
        for solver in SOLVERS:
            assert solver.solve_lp(tighter).objective == pytest.approx(2.0)

    def test_form_of_other_rows_or_columns_is_replaced(self):
        rows = [Row({0: 1.0}, "<=", 1.0)]
        sp = SparseRows(rows, 1)
        equal_rows = LinearProgram(
            "min", np.ones(1), [Row({0: 1.0}, "<=", 1.0)], np.zeros(1), np.ones(1), sp
        )
        assert equal_rows.sparse is not sp and equal_rows.sparse.rows is equal_rows.rows
        wider = LinearProgram("min", np.ones(3), rows, np.zeros(3), np.ones(3), sp)
        assert wider.sparse is not sp and wider.sparse_rows().highs()[0].shape == (1, 3)


def test_highs_writes_nothing_to_fd1(capfd):
    # HiGHS logs to the console only when asked (scipy's ``disp``), and its
    # MILP solves run under the fd-1 guard; native output would land on
    # fd 1, which capfd reads at the descriptor
    def lp(rows, upper):
        return LinearProgram("max", np.ones(2), rows, np.zeros(2), np.array([1.0, upper]))

    optimal = lp([Row({0: 1.0, 1: 1.0}, "<=", 1.5)], 1.0)
    infeasible = lp([Row({0: 1.0, 1: 1.0}, ">=", 3.0)], 1.0)
    unbounded = lp([], np.inf)
    statuses = []
    for prog in (optimal, infeasible, unbounded):
        statuses.append(HighsSolver().solve_lp(prog).status)
        statuses.append(HighsSolver().solve_milp(MixedIntegerProgram(prog, (0,))).status)
    os.write(1, b"after\n")
    assert statuses == ["optimal"] * 2 + ["infeasible"] * 2 + ["unbounded"] * 2
    assert capfd.readouterr().out == "after\n"


def test_highs_mip_print_stays_off_fd1(capfd):
    # HiGHS's MIP solver prints "HighsMipSolverData::
    # transformNewIntegerFeasibleSolution tmpSolver.run();" whatever scipy's
    # ``disp`` says, on the master over this pool: the reduction feeder at
    # step 0.0008 with the 4 worst cases an in-out loop stores in its first
    # 4 iterations (x_s = x_best + 0.5 (x - x_best), x_s's worst case kept,
    # no cut at the master iterate x)
    prob = assemble_bess_problem(*feeder_case("bess_reduction", 0.0008))
    stored = json.loads((Path(__file__).parent / "data" / "highs_print_pool.json").read_text())
    pool = [reference_scenario(prob)] + [
        Scenario(
            [SampledFunction(t.spec.partition, v) for t, v in zip(prob.terms, s["values"])],
            s["deviations"],
        )
        for s in stored["scenarios"]
    ]
    _, lb = solve_master(prob, pool, HighsSolver())
    assert lb == pytest.approx(28.037049817710397, abs=1e-6)
    assert capfd.readouterr().out == ""


CHATTY_MILP = """
import ctypes, logging
from obro.linsolve import HighsSolver, LinearProgram, MixedIntegerProgram, Row

logging.basicConfig(level=logging.DEBUG, format="%(name)s %(levelname)s %(message)s")
puts = ctypes.CDLL(None).puts
puts.argtypes, puts.restype = [ctypes.c_char_p], ctypes.c_int
milp = HighsSolver._milp

def chatty_milp(lp, *args):
    out = milp(lp, *args)
    puts(b"native chatter")
    return out

HighsSolver._milp = staticmethod(chatty_milp)
lp = LinearProgram("max", [1.0], [Row({0: 1.0}, "<=", 0.5)], [0.0], [1.0])
print(HighsSolver().solve_milp(MixedIntegerProgram(lp, (0,))).objective)
"""


def test_milp_output_on_fd1_goes_to_the_debug_log():
    # A line written after HiGHS returns sits in C stdio's buffer until the
    # guard flushes it.  C stdio buffers a pipe fully only when Python runs
    # buffered, so the child runs without PYTHONUNBUFFERED.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", CHATTY_MILP],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0.0\n"
    assert "obro.linsolve DEBUG native chatter" in out.stderr.splitlines()
