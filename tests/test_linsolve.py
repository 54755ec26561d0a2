import copy
import ctypes
import inspect
import itertools
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from obro import linsolve
from obro.bess import assemble_bess_problem
from obro.configio import bess_case_from_config, load_config, problem_from_config
from obro.engine import EngineResult, run
from obro.linsolve import (
    BranchBoundSolver,
    HighsSolver,
    LinearProgram,
    MixedIntegerProgram,
    Row,
    SparseRows,
    primal_violation,
)
from obro.master import build_master, solve_master
from obro.model import Scenario, reference_scenario
from obro.pwl import SampledFunction

from feeders import CONFIGS, feeder_case

SOLVERS = [BranchBoundSolver(), HighsSolver()]
MILP_SOLVERS = [BranchBoundSolver(), HighsSolver()]


def geq(coeffs, rhs, name=""):
    """coeffs . x >= rhs, written as the negated ``<=`` row."""
    return Row({j: -v for j, v in coeffs.items()}, "<=", -rhs, name)


def lp_max_x():
    # max x as min -x
    return LinearProgram(
        np.array([-1.0]), [Row({0: 1.0}, "<=", 1.0)], np.array([0.0]), np.array([np.inf])
    )


def infeasible_lp():
    return LinearProgram(
        np.array([1.0]), [geq({0: 1.0}, 2.0)], np.array([-np.inf]), np.array([1.0])
    )


def unbounded_with_rows():
    # feasible at (0, 0, -2, 3, 1) and unbounded along (0, -0.5, 0, 0, -1);
    # HiGHS's presolve calls it infeasible, one reason HiGHS runs without it
    return LinearProgram(
        np.array([3.0, 2.0, -3.0, -1.0, 1.0]),
        [
            Row({0: -3, 1: 3, 2: 1, 3: -3, 4: 3}, "<=", 4.0),
            Row({0: -2, 1: -3, 2: 2, 3: -1, 4: 2}, "<=", -2.0),
            Row({0: 1, 1: 2, 2: -1, 3: -2, 4: -1}, "<=", -4.0),
        ],
        np.array([-np.inf, -np.inf, -2.0, 0.0, -np.inf]),
        np.array([np.inf, np.inf, -2.0, 3.0, 1.0]),
    )


@pytest.mark.parametrize("solver", SOLVERS, ids=["simplex", "highs"])
class TestSolveLp:
    def test_bounded_maximum(self, solver):
        out = solver.solve_lp(lp_max_x())
        assert out.optimal
        assert out.objective == pytest.approx(-1.0)
        assert out.x[0] == pytest.approx(1.0)

    def test_infeasible(self, solver):
        assert solver.solve_lp(infeasible_lp()).status == "infeasible"

    def test_unbounded(self, solver):
        lp = LinearProgram(np.array([-1.0]), [], np.array([0.0]), np.array([np.inf]))
        assert solver.solve_lp(lp).status == "unbounded"

    def test_unbounded_with_rows(self, solver):
        assert solver.solve_lp(unbounded_with_rows()).status == "unbounded"

    def test_equality_and_inequality_mix(self, solver):
        lp = LinearProgram(
            np.array([2.0, 3.0]),
            [geq({0: 1, 1: 1}, 4.0), Row({0: 1, 1: -1}, "=", 1.0)],
            np.zeros(2), np.full(2, 10.0),
        )
        out = solver.solve_lp(lp)
        assert out.objective == pytest.approx(9.5)
        np.testing.assert_allclose(out.x, [2.5, 1.5], atol=1e-9)

    def test_free_variables(self, solver):
        lp = LinearProgram(
            np.array([1.0, 0.0]),
            [geq({0: 1, 1: 1}, -3.0), Row({1: 1.0}, "=", 1.0)],
            np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]),
        )
        out = solver.solve_lp(lp)
        assert out.objective == pytest.approx(-4.0)


class TestSimplexContract:
    def test_deterministic_primal(self):
        rng = np.random.default_rng(11)
        lp = LinearProgram(
            rng.normal(size=6),
            [Row({j: rng.normal() for j in range(6)}, "<=", 1.0) for _ in range(8)],
            np.full(6, -2.0), np.full(6, 2.0),
        )
        a = BranchBoundSolver().solve_lp(lp)
        b = BranchBoundSolver().solve_lp(lp)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.stats["pivots"] == b.stats["pivots"]

    def test_pivot_limit_reported(self, monkeypatch):
        lp = LinearProgram(np.array([1.0, 1.0]), [geq({0: 1, 1: 1}, 1.0)], np.zeros(2), np.ones(2))
        monkeypatch.setattr(linsolve, "PIVOT_LIMIT", 0)
        out = BranchBoundSolver().solve_lp(lp)
        assert out.status == "iteration-limit"

    def test_pivot_limit_reaches_node_lps(self, monkeypatch):
        # the root relaxation needs a pivot, and branch-and-bound solves it
        # under the solver's own pivot cap
        lp = LinearProgram(
            np.array([-1.0, -1.0]), [Row({0: 1, 1: 1}, "<=", 1.5)], np.zeros(2), np.ones(2)
        )
        mip = MixedIntegerProgram(lp, (1,))
        assert BranchBoundSolver().solve_milp(mip).optimal
        monkeypatch.setattr(linsolve, "PIVOT_LIMIT", 0)
        out = BranchBoundSolver().solve_milp(mip)
        assert out.status == "iteration-limit"

    def test_pivot_limit_in_a_child_node(self, monkeypatch):
        # the root relaxation takes 3 pivots and solves within a cap of 3;
        # the first child, x0 fixed to 0, needs more
        lp = LinearProgram(
            np.array([-5.0, -5.0, -2.0, -3.0]),
            [
                Row({0: 2, 1: 1, 2: 2, 3: 3}, "<=", 4.0),
                Row({0: 4, 1: 3, 2: 3, 3: 3}, "<=", 6.0),
                Row({0: 2, 1: 3, 2: 3, 3: 4}, "<=", 6.0),
            ],
            np.zeros(4), np.ones(4),
        )
        mip = MixedIntegerProgram(lp, range(4))
        assert BranchBoundSolver().solve_milp(mip).optimal
        monkeypatch.setattr(linsolve, "PIVOT_LIMIT", 3)
        root = BranchBoundSolver().solve_lp(lp)
        assert root.optimal and root.stats["pivots"] == 3
        out = BranchBoundSolver().solve_milp(mip)
        assert (out.status, out.stats) == ("iteration-limit", {"nodes": 2})

    @pytest.mark.parametrize("seed", range(25))
    def test_weak_duality_random(self, seed):
        # HiGHS proves its optimum with a dual certificate; matching its
        # status and objective certifies the simplex optimum the same way
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        lower = np.where(rng.random(n) < 0.8, rng.uniform(-2, 0, n), -np.inf)
        upper = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 3, n), np.inf)
        upper = np.maximum(upper, lower)
        rows = []
        for _ in range(m):
            coeffs = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.7}
            sense = str(rng.choice(["<=", ">=", "="])) if rng.random() < 0.4 else "<="
            rhs = float(rng.normal() * 2)
            rows.append(geq(coeffs, rhs) if sense == ">=" else Row(coeffs, sense, rhs))
        sign = 1.0 if rng.random() < 0.5 else -1.0  # -1 maximizes the drawn cost
        lp = LinearProgram(sign * rng.normal(size=n), rows, lower, upper)
        out = BranchBoundSolver().solve_lp(lp)
        highs = HighsSolver().solve_lp(lp)
        assert out.status == highs.status
        if out.optimal:
            assert out.objective == pytest.approx(highs.objective, abs=1e-6)
            assert primal_violation(lp, out.x) <= 1e-7


def bounded_lp(rng):
    """An LP with integer data: each column boxed, fixed, bounded below
    only, bounded above only or free, and "<=" and "=" rows with rhs of
    either sign, one of them repeated."""
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
    kind = rng.integers(0, 5, n)  # boxed, fixed, lower only, upper only, free
    lo = rng.integers(-3, 3, n).astype(float)
    up = np.where(kind == 1, lo, lo + rng.integers(1, 4, n))
    lower = np.where(kind <= 2, lo, -np.inf)
    upper = np.where((kind <= 1) | (kind == 3), up, np.inf)
    rows = []
    for _ in range(m):
        coeffs = {j: float(v) for j in range(n) if (v := rng.integers(-3, 4))}
        rows.append(Row(coeffs, "=" if rng.random() < 0.3 else "<=", float(rng.integers(-4, 5))))
    if rows:
        rows.append(rows[int(rng.integers(len(rows)))])
    return LinearProgram(rng.integers(-3, 4, n).astype(float), rows, lower, upper)


class TestBoundedRatioTest:
    def test_random_against_highs(self):
        rng = np.random.default_rng(2024)
        pivots, statuses = 0, Counter()
        for draw in range(200):
            lp = bounded_lp(rng)
            out, highs = BranchBoundSolver().solve_lp(lp), HighsSolver().solve_lp(lp)
            assert out.status == highs.status, draw
            if out.optimal:
                assert out.objective == pytest.approx(highs.objective, abs=1e-6), draw
                assert primal_violation(lp, out.x) <= 1e-7, draw
            pivots += out.stats["pivots"]
            statuses[out.status] += 1
        # the pivot path: elementwise tableau arithmetic, so no BLAS in it
        assert (pivots, statuses) == (317, {"optimal": 67, "infeasible": 64, "unbounded": 69})

    def test_box_is_solved_by_one_flip(self, monkeypatch):
        # no rows: x0 enters and meets its own upper bound, a flip that
        # changes no basis but counts as a pivot
        lp = LinearProgram(np.array([-1.0, 1.0]), [], np.zeros(2), np.ones(2))
        out = BranchBoundSolver().solve_lp(lp)
        assert out.optimal and out.stats["pivots"] == 1
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        monkeypatch.setattr(linsolve, "PIVOT_LIMIT", 0)
        assert BranchBoundSolver().solve_lp(lp).status == "iteration-limit"


def outcome_bits(out):
    """Status, stats and the exact bits of the objective and of x."""
    bits = None if out.x is None else (float(out.objective).hex(), out.x.tobytes())
    return out.status, out.stats, bits


def cold(lp):
    """``lp`` on a fresh rows tuple, so no start of ``lp``'s is read."""
    return LinearProgram(lp.c, list(lp.rows), lp.lower.copy(), lp.upper.copy(), offset=lp.offset)


def phase_one_lp():
    # the "=" row and the negative rhs each start on an artificial, and
    # phase 1 pivots both out
    return LinearProgram(
        np.array([1.0, 2.0, -1.0]),
        [Row({0: 1, 1: 1, 2: 1}, "=", 2.0), geq({0: 1, 2: -1}, 0.5), Row({1: 1, 2: 1}, "<=", 1.5)],
        np.zeros(3), np.full(3, 3.0),
    )


class TestPhaseOneStart:
    """A program on the rows of an earlier solve, under equal bounds,
    replays that solve's phase 1 and ends as a cold solve would."""

    def test_other_bounds_on_the_same_rows(self):
        lp = phase_one_lp()
        before = BranchBoundSolver().solve_lp(lp)
        lower = lp.lower.copy()
        lower[1] = 1.0
        moved = replace(lp, lower=lower)
        assert moved.rows is lp.rows
        out = BranchBoundSolver().solve_lp(moved)
        assert outcome_bits(out) == outcome_bits(BranchBoundSolver().solve_lp(cold(moved)))
        assert out.x[1] == 1.0 != before.x[1]

    def test_bounds_edited_in_place(self):
        lp = phase_one_lp()
        before = BranchBoundSolver().solve_lp(lp)
        lp.lower[1] = 1.0  # the program holds the caller's writable array
        out = BranchBoundSolver().solve_lp(lp)
        assert outcome_bits(out) == outcome_bits(BranchBoundSolver().solve_lp(cold(lp)))
        assert out.x[1] == 1.0 != before.x[1]

    def test_replay_under_every_pivot_cap(self, monkeypatch):
        lp = phase_one_lp()
        total = BranchBoundSolver().solve_lp(lp).stats["pivots"]
        start = lp.rows.start
        capped = []
        for limit in range(total + 1):
            monkeypatch.setattr(linsolve, "PIVOT_LIMIT", limit)
            warm = BranchBoundSolver().solve_lp(lp)
            assert outcome_bits(warm) == outcome_bits(BranchBoundSolver().solve_lp(cold(lp)))
            capped.append(warm.status)
        assert lp.rows.start is start
        # a cap below the phase-1 pivots ends the replay at once
        assert capped[0] == "iteration-limit" and capped[-1] == "optimal"

    def test_program_on_the_rows_of_another_shares_its_form_and_start(self):
        # what each adversary LP of a problem relies on: given only the
        # other's rows, a program converts and runs phase 1 no second time
        lp = phase_one_lp()
        BranchBoundSolver().solve_lp(lp)
        form, start = lp.rows.highs(lp.n_vars), lp.rows.start
        other = LinearProgram(np.array([-1.0, 1.0, 2.0]), lp.rows, lp.lower, lp.upper)
        assert other.rows.highs(other.n_vars) is form
        out = BranchBoundSolver().solve_lp(other)
        assert other.rows.start is start is not None  # replayed, not refilled
        assert outcome_bits(out) == outcome_bits(BranchBoundSolver().solve_lp(cold(other)))
        assert out.objective != BranchBoundSolver().solve_lp(lp).objective

    def test_infeasible_or_capped_phase_one_is_not_kept(self, monkeypatch):
        infeasible = LinearProgram(np.ones(2), [Row({0: 1, 1: 1}, "=", 5.0)], np.zeros(2), np.ones(2))
        assert BranchBoundSolver().solve_lp(infeasible).status == "infeasible"
        assert infeasible.rows.start is None
        monkeypatch.setattr(linsolve, "PIVOT_LIMIT", 0)
        lp = phase_one_lp()
        assert BranchBoundSolver().solve_lp(lp).status == "iteration-limit"
        assert lp.rows.start is None


@pytest.mark.parametrize("solver", MILP_SOLVERS, ids=["bnb", "highs"])
class TestSolveMilp:
    def test_forced_round_up(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(np.array([1.0]), [geq({0: 1.0}, 0.3)], np.zeros(1), np.ones(1)),
            (0,),
        )
        out = solver.solve_milp(mip)
        assert out.objective == pytest.approx(1.0)
        assert out.x[0] == 1.0

    def test_tiny_knapsack(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(
                np.array([-2.0, -3.0]), [Row({0: 1, 1: 1}, "<=", 1.0)], np.zeros(2), np.ones(2)
            ),
            (0, 1),
        )
        out = solver.solve_milp(mip)
        assert out.objective == pytest.approx(-3.0)
        assert out.x[1] == 1.0

    def test_milp_infeasible(self, solver):
        mip = MixedIntegerProgram(
            LinearProgram(
                np.array([1.0]),
                [geq({0: 1.0}, 0.4), Row({0: 1.0}, "<=", 0.6)],
                np.zeros(1), np.ones(1),
            ),
            (0,),
        )
        assert solver.solve_milp(mip).status == "infeasible"

    def test_milp_unbounded(self, solver):
        # max x0 + x1 (min of the negation) with x0 >= 0 free above and
        # binary x1 <= 0.5
        mip = MixedIntegerProgram(
            LinearProgram(
                np.array([-1.0, -1.0]), [Row({1: 1.0}, "<=", 0.5)],
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
    # min or max x0 + 2 x1 over x0 + x1 <= 1.5, x1 binary, bounds [0, 1];
    # max minimizes the negated cost
    sign = 1.0 if sense == "min" else -1.0
    plain = LinearProgram(
        sign * np.array([1.0, 2.0]), [Row({0: 1.0, 1: 1.0}, "<=", 1.5)], np.zeros(2), np.ones(2)
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
    assert a.objective == pytest.approx(0.0 if sense == "min" else -2.5, abs=1e-12)


def test_highs_other_status_is_not_a_limit(monkeypatch):
    # scipy status 4 ("unbounded or infeasible", or a solver error) proves
    # no limit was hit; it keeps its own status and scipy's message
    msg = "The problem is unbounded or infeasible. (HiGHS Status 9: ...)"
    monkeypatch.setattr(
        scipy.optimize, "milp", lambda *a, **k: OptimizeResult(status=4, message=msg)
    )
    lp = LinearProgram(np.array([-1.0]), [], np.zeros(1), np.ones(1))
    out = HighsSolver().solve_milp(MixedIntegerProgram(lp, (0,)))
    assert out.status == "inconclusive"
    assert out.stats["message"] == msg


def test_highs_solves_each_lp_once_without_presolve(monkeypatch):
    calls = []
    milp = scipy.optimize.milp

    def recording_milp(*args, options=None, **kwargs):
        calls.append(options)
        return milp(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", recording_milp)
    cases = [
        (lp_max_x(), "optimal"), (infeasible_lp(), "infeasible"),
        (unbounded_with_rows(), "unbounded"),
    ]
    for lp, status in cases:
        calls.clear()
        assert HighsSolver().solve_lp(lp).status == status
        assert calls == [{"presolve": False}]
    calls.clear()
    box = LinearProgram(np.array([-1.0]), [], np.zeros(1), np.ones(1))
    assert HighsSolver().solve_milp(MixedIntegerProgram(box, (0,))).optimal
    assert calls == [{"presolve": False, "mip_rel_gap": 0.0}]


def test_highs_stat_keys():
    # an LP reports scipy's message; a MILP adds its node count
    lp = LinearProgram(-np.ones(2), [Row({0: 1.0, 1: 1.0}, "<=", 1.5)], np.zeros(2), np.ones(2))
    assert set(HighsSolver().solve_lp(lp).stats) == {"message"}
    mip = MixedIntegerProgram(lp, (1,))
    assert set(HighsSolver().solve_milp(mip).stats) == {"message", "nodes"}


def test_bundled_milp_stats_are_the_node_count(monkeypatch):
    # pivots are an LP stat: a MILP reports its nodes only, whichever
    # way it ends
    lp = LinearProgram(-np.ones(2), [Row({0: 1.0, 1: 1.0}, "<=", 1.5)], np.zeros(2), np.ones(2))
    optimal = BranchBoundSolver().solve_milp(MixedIntegerProgram(lp, (0, 1)))
    assert (optimal.status, optimal.stats) == ("optimal", {"nodes": 5})
    bad = replace(lp, rows=[Row({0: 1.0, 1: 1.0}, "<=", -1.0)])
    infeasible = BranchBoundSolver().solve_milp(MixedIntegerProgram(bad, (0, 1)))
    assert (infeasible.status, infeasible.stats) == ("infeasible", {"nodes": 1})
    monkeypatch.setattr(linsolve, "NODE_LIMIT", 1)
    capped = BranchBoundSolver().solve_milp(MixedIntegerProgram(lp, (0, 1)))
    assert (capped.status, capped.stats) == ("iteration-limit", {"nodes": 3})


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
        if best is None or out.objective < best - 1e-12:
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
    sign = 1.0 if rng.random() < 0.5 else -1.0  # -1 maximizes the drawn cost
    mip = MixedIntegerProgram(
        LinearProgram(sign * rng.normal(size=n), rows, np.zeros(n), upper), binaries
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
        LinearProgram(rng.normal(size=n), rows, np.zeros(n), upper), binaries
    )
    reference = enumerate_reference(mip)
    out = solver.solve_milp(mip)
    assert out.optimal
    assert out.objective == pytest.approx(reference, abs=1e-6)
    assert primal_violation(mip.lp, out.x) <= 1e-7


def test_bound_sandwich_and_node_accounting():
    mip = MixedIntegerProgram(
        LinearProgram(np.ones(3), [geq({0: 1, 1: 1, 2: 1}, 1.6)], np.zeros(3), np.ones(3)),
        (0, 1, 2),
    )
    out = BranchBoundSolver().solve_milp(mip)
    assert out.objective == pytest.approx(2.0)
    # the root relaxation (sum 1.6) is fractional, so the search branches;
    # a complete tree over three binaries has 15 nodes
    assert 3 <= out.stats["nodes"] <= 15


def test_node_warning_threshold(monkeypatch):
    rng = np.random.default_rng(5)
    n = 14
    mip = MixedIntegerProgram(
        LinearProgram(
            -rng.uniform(1, 2, n),
            [Row({j: float(rng.uniform(1, 2)) for j in range(n)}, "<=", float(n) / 1.3)],
            np.zeros(n), np.ones(n),
        ),
        tuple(range(n)),
    )
    monkeypatch.setattr(linsolve, "WARN_NODES", 5)
    with pytest.warns(UserWarning, match="branch-and-bound past 5 nodes") as record:
        line = inspect.currentframe().f_lineno + 1
        BranchBoundSolver().solve_milp(mip)
    # once per solve, at the caller's line
    [warning] = [w for w in record if "branch-and-bound past" in str(w.message)]
    assert (warning.filename, warning.lineno) == (__file__, line)


def test_node_limit_status(monkeypatch):
    rng = np.random.default_rng(5)
    n = 12
    mip = MixedIntegerProgram(
        LinearProgram(
            -rng.uniform(1, 2, n),
            [Row({j: float(rng.uniform(1, 2)) for j in range(n)}, "<=", float(n) / 1.3)],
            np.zeros(n), np.ones(n),
        ),
        tuple(range(n)),
    )
    full = BranchBoundSolver().solve_milp(mip)
    assert (full.status, full.stats["nodes"]) == ("optimal", 67)
    monkeypatch.setattr(linsolve, "NODE_LIMIT", 3)
    monkeypatch.setattr(linsolve, "WARN_NODES", 10**9)
    out = BranchBoundSolver().solve_milp(mip)
    assert out.status == "iteration-limit"
    # the cap is checked after each node's two children
    assert (out.x, out.stats) == (None, {"nodes": 5})
    # the optimum is found by node 35 but not yet proved: the cap returns
    # it with the limit status
    monkeypatch.setattr(linsolve, "NODE_LIMIT", 33)
    capped = BranchBoundSolver().solve_milp(mip)
    assert (capped.status, capped.stats) == ("iteration-limit", {"nodes": 35})
    assert capped.objective == full.objective
    np.testing.assert_array_equal(capped.x, full.x)


def test_program_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), [], np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), [Row({3: 1.0}, "<=", 0.0)], np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        MixedIntegerProgram(LinearProgram(np.array([1.0]), [], np.zeros(1), np.full(1, 2.0)), (0,))
    # a ">=" row is written negated as "<="
    with pytest.raises(ValueError, match="bad row sense '>='"):
        Row({0: 1.0}, ">=", 0.0)


def test_binary_bounds_must_be_zero_or_one():
    # branch-and-bound fixed a binary to 0 or 1 whatever its bounds: min -x
    # on [0, 0.5] read -1 at x = 1, where HiGHS read 0 at x = 0
    def mip(cost, lower, upper):
        lp = LinearProgram(np.array([cost]), [], np.array([lower]), np.array([upper]))
        return MixedIntegerProgram(lp, (0,))

    for lower, upper in [(0.0, 0.5), (0.5, 1.0), (0.2, 0.7)]:
        with pytest.raises(ValueError, match="^binary 0 has a bound other than 0 or 1"):
            mip(1.0, lower, upper)
    for lower, upper in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]:
        for cost in (1.0, -1.0):
            bnb, highs = (s.solve_milp(mip(cost, lower, upper)) for s in MILP_SOLVERS)
            assert bnb.optimal and highs.optimal
            assert bnb.objective == highs.objective
            np.testing.assert_array_equal(bnb.x, highs.x)


@pytest.mark.parametrize("bound", [np.inf, -np.inf])
def test_bounds_admitting_no_value_are_rejected(bound):
    # the bundled simplex read a column with no finite bound as free
    with pytest.raises(ValueError, match="^variable 1: bounds admit no finite value"):
        LinearProgram(np.ones(2), [], np.array([0.0, bound]), np.array([1.0, bound]))


@pytest.mark.parametrize(
    "name, value",
    [
        pytest.param("c", np.nan, id="c"),
        pytest.param("lower", np.nan, id="lower"),
        pytest.param("upper", np.nan, id="upper"),
        pytest.param("offset", np.nan, id="offset"),
        pytest.param("c", np.inf, id="c-inf"),
        pytest.param("c", -np.inf, id="c-minus-inf"),
    ],
)
def test_nan_program_data_is_rejected(name, value):
    # a NaN bound read unbounded on the bundled simplex and infeasible on
    # HiGHS, and a NaN cost optimal with objective NaN against an error; an
    # infinite cost ran into NaN arithmetic on the bundled simplex
    data = {"c": np.ones(2), "lower": np.zeros(2), "upper": np.ones(2), "offset": 0.0}
    data[name] = value if name == "offset" else np.array([data[name][0], value])
    index = "" if name in ("c", "offset") else r"\[1\]"
    kind = "NaN" if np.isnan(value) else "NaN or infinite"
    with pytest.raises(ValueError, match=rf"^{name}{index} must not be {kind}"):
        LinearProgram(data["c"], [], data["lower"], data["upper"], offset=data["offset"])


@pytest.mark.parametrize(
    "row, message",
    [
        (Row({0: 1.0}, "<=", np.nan, "r"), "row 'r': rhs must not be NaN"),
        (Row({0: np.nan}, "=", 1.0, "r"), "row 'r': coefficient must not be NaN"),
        # the bundled simplex read {0: inf, 1: 1} <= 1 as met at x = [1, 1]
        (Row({0: np.inf}, "<=", 1.0, "r"), "row 'r': coefficient must not be NaN or infinite"),
        (Row({0: -np.inf}, "=", 1.0, "r"), "row 'r': coefficient must not be NaN or infinite"),
    ],
)
def test_nan_row_data_is_rejected(row, message):
    with pytest.raises(ValueError, match=message):
        LinearProgram(np.ones(1), [row], np.zeros(1), np.ones(1))


@pytest.mark.parametrize("solver", SOLVERS, ids=["simplex", "highs"])
def test_negative_column_index_is_rejected(solver):
    # Python would read column -1 as the last variable: the bundled simplex
    # answered x = [1, 0.5] for this program and HiGHS raised a TypeError
    with pytest.raises(ValueError, match="row 'neg' references variable -1"):
        solver.solve_lp(
            LinearProgram(-np.ones(2), [Row({-1: 1.0}, "<=", 0.5, "neg")], np.zeros(2), np.ones(2))
        )


def test_row_survives_a_pickle_round_trip():
    row = Row({3: 2.0, 0: -1.5, 1: 0.0}, "=", 4.0, "link")
    back = pickle.loads(pickle.dumps(row))
    assert back == row and back is not row
    with pytest.raises(TypeError):
        back.coeffs[3] = 1.0


@pytest.mark.parametrize("solver", MILP_SOLVERS, ids=["bundled", "highs"])
def test_deep_copy_of_a_master_solves_bit_identically(solver):
    prob, options = problem_from_config(load_config(CONFIGS / "two_term_coupled.json"))
    res = run(prob, tol=options["tol"], max_iter=options["max_iter"])
    mip = build_master(prob, res.scenarios)
    lp = copy.deepcopy(mip.lp)
    assert lp.rows == mip.lp.rows and lp.rows is not mip.lp.rows
    assert ".cut[" in lp.rows[-1].name  # a master with cuts
    copied = MixedIntegerProgram(lp, mip.binaries)
    for solve, prog, twin in ((solver.solve_lp, mip.lp, lp), (solver.solve_milp, mip, copied)):
        want, got = solve(prog), solve(twin)
        assert got.optimal and got.x.tobytes() == want.x.tobytes()


class TestDefaultSolver:
    def test_with_no_program_it_is_the_bundled_solver(self):
        # perfbench's generic workloads call it so
        assert type(linsolve.default_solver()) is BranchBoundSolver

    @pytest.mark.parametrize("extra, backend", [(0, BranchBoundSolver), (1, HighsSolver)])
    def test_rows_past_the_threshold_go_to_highs(self, extra, backend):
        n = linsolve.HIGHS_ROWS + extra
        rows = [Row({0: 1.0}, "<=", 1.0)] * n
        mip = MixedIntegerProgram(LinearProgram(np.zeros(1), rows, [0.0], [1.0]), (0,))
        assert type(linsolve.default_solver(mip)) is backend

    @pytest.mark.parametrize("config, scheme, backend", [
        *((name, None, BranchBoundSolver) for name in (
            "degenerate_delta0", "tiny_identity", "two_pocket", "two_pocket_truncated",
            "two_term_coupled")),
        *((feeder, scheme, HighsSolver) for feeder in ("bess_8node", "bess_reduction")
          for scheme in ("sparse", "benchmark", "dense", "hetero", "parametric")),
    ])
    def test_every_shipped_instance_keeps_its_backend(self, config, scheme, backend):
        # assembly only; the parametric baseline's master block has the
        # partition of the config's own scheme
        cfg = load_config(CONFIGS / f"{config}.json")
        if scheme is None:
            prob, _ = problem_from_config(cfg)
        else:
            feeder, inputs, schemes, _ = bess_case_from_config(cfg)
            if scheme != "parametric":
                inputs = replace(inputs, scheme=schemes[scheme])
            prob = assemble_bess_problem(feeder, inputs)
        assert type(linsolve.default_solver(prob.master.mip)) is backend


def per_row_form(lp):
    """Reference HiGHS form, one coefficient at a time through COO:
    ``(A, lower, upper)`` with ``<=`` rows first, then ``=`` rows."""
    from scipy.sparse import coo_matrix

    ineq = [r for r in lp.rows if r.sense != "="]
    eq = [r for r in lp.rows if r.sense == "="]
    rows, cols, vals, lower, upper = [], [], [], [], []
    for i, r in enumerate([*ineq, *eq]):
        for j, v in r.coeffs.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
        upper.append(r.rhs)
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
    geq({1: 1.5, 3: 1.0}, -1.0),
    Row({0: 1.0, 1: 1.0, 2: 1.0}, "=", 2.0),
    geq({3: -1.0, 1: 0.5}, 0.0),
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
        lp = LinearProgram(np.ones(5), rows, np.zeros(5), np.full(5, 10.0))
        sp = SparseRows(rows)
        assert_same_form(sp.highs(5), per_row_form(lp))
        assert sp.highs(5) is sp.highs(5)  # built once
        assert_same_form(lp.rows.highs(5), per_row_form(lp))

    def test_row_order_and_bounds(self):
        # inequality rows in list order, then "=" rows
        a, lower, upper = SparseRows(MIXED_ROWS).highs(5)
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
        assert SparseRows(MIXED_ROWS).width == 4
        rows = [*MIXED_ROWS, Row({5: 1.0}, "<=", 0.0, "wide"), Row({7: 1.0}, "<=", 0.0, "wider")]
        assert SparseRows(rows).width == 8
        # the first offending row in list order is named
        with pytest.raises(ValueError, match="row 'wide' references variable 5"):
            LinearProgram(np.ones(5), rows, np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match="references variable 5"):
            LinearProgram(np.ones(5), [Row({5: 1.0}, "<=", 0.0)], np.zeros(5), np.ones(5))

    def test_shared_by_programs_on_one_rows_list(self):
        lp = LinearProgram(np.ones(5), MIXED_ROWS, np.zeros(5), np.ones(5))
        other = replace(lp, c=np.arange(5.0))
        assert other.rows is lp.rows

    def test_replaced_rows_never_reuse_the_old_form(self):
        lp = LinearProgram(
            np.array([-1.0, -1.0]), [Row({0: 1.0, 1: 1.0}, "<=", 1.0)],
            np.zeros(2), np.full(2, 5.0),
        )
        assert HighsSolver().solve_lp(lp).objective == pytest.approx(-1.0)
        # same row count and shape, different coefficients and bound
        moved = replace(lp, rows=[Row({0: 1.0, 1: 2.0}, "<=", 4.0)])
        assert moved.rows is not lp.rows and isinstance(moved.rows, SparseRows)
        out = HighsSolver().solve_lp(moved)
        assert out.objective == pytest.approx(-4.0)
        assert_same_form(moved.rows.highs(2), per_row_form(moved))

    def test_rows_cannot_grow_under_the_cached_form(self):
        # appending to a rows list kept HiGHS on the form of the old rows
        lp = LinearProgram([-1.0], [Row({0: 1.0}, "<=", 5.0)], [0.0], [10.0])
        assert HighsSolver().solve_lp(lp).objective == pytest.approx(-5.0)
        with pytest.raises(AttributeError):
            lp.rows.append(Row({0: 1.0}, "<=", 2.0))
        tighter = replace(lp, rows=[*lp.rows, Row({0: 1.0}, "<=", 2.0)])
        for solver in SOLVERS:
            assert solver.solve_lp(tighter).objective == pytest.approx(-2.0)

    @pytest.mark.parametrize("solver", SOLVERS, ids=["simplex", "highs"])
    def test_rows_reassigned_to_a_list_are_wrapped(self, solver):
        lp = LinearProgram(
            -np.ones(2), [Row({0: 1.0, 1: 1.0}, "<=", 1.0)], np.zeros(2), np.full(2, 5.0)
        )
        assert solver.solve_lp(lp).objective == pytest.approx(-1.0)
        with pytest.raises(FrozenInstanceError):
            lp.rows = [Row({0: 1.0, 1: 1.0}, "<=", 3.0)]
        looser = replace(lp, rows=[Row({0: 1.0, 1: 1.0}, "<=", 3.0)])
        assert solver.solve_lp(looser).objective == pytest.approx(-3.0)
        assert isinstance(looser.rows, SparseRows)
        with pytest.raises(ValueError, match="row 'wide' references variable 2"):
            replace(lp, rows=[Row({2: 1.0}, "<=", 0.0, "wide")])

    def test_form_of_other_rows_or_columns_is_replaced(self):
        rows = SparseRows([Row({0: 1.0}, "<=", 1.0)])
        narrow = LinearProgram(-np.ones(1), rows, np.zeros(1), np.full(1, 2.0))
        equal_rows = replace(narrow, rows=[Row({0: 1.0}, "<=", 1.0)])
        assert equal_rows.rows is not rows and equal_rows.rows == rows
        # a wider program on the shared rows converts at its own width, and
        # a narrower one after it does not reuse the wider form
        wider = LinearProgram(-np.ones(3), rows, np.zeros(3), np.full(3, 2.0))
        assert wider.rows is narrow.rows is rows
        for lp, objective in ((wider, -5.0), (narrow, -1.0), (wider, -5.0)):
            assert HighsSolver().solve_lp(lp).objective == pytest.approx(objective)
            assert_same_form(rows.highs(lp.n_vars), per_row_form(lp))


class TestFrozenPrograms:
    """Programs, outcomes and results are frozen like the problem; a
    changed program comes from ``dataclasses.replace``, which checks it."""

    def test_no_field_can_be_reassigned(self):
        lp = LinearProgram(
            -np.ones(2), [Row({0: 1.0, 1: 1.0}, "<=", 1.0)], np.zeros(2), np.ones(2)
        )
        mip = MixedIntegerProgram(lp, (0,))
        out = BranchBoundSolver().solve_lp(lp)
        result = EngineResult("converged", np.zeros(2), np.zeros(2), [])
        for obj, names in (
            (lp, ["c", "rows", "lower", "upper", "offset"]),
            (mip, ["lp", "binaries"]),
            (out, ["status", "objective", "x", "stats"]),
            (result, ["status", "x", "x_master", "scenarios", "history", "message"]),
        ):
            assert [f.name for f in fields(obj)] == names
            for name in names:
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))
        # a mutable program let these reach the solvers unchecked
        for name, value in (("upper", [5.0, 5.0]), ("c", np.array([-1.0]))):
            with pytest.raises(FrozenInstanceError):
                setattr(lp, name, value)
        for solver in SOLVERS:
            assert solver.solve_lp(lp).objective == pytest.approx(-1.0)


def fd1_text(capfd):
    """What reached fd 1.  C stdio holds a native print to a file until it
    is flushed, unless Python runs unbuffered, so flush it first."""
    ctypes.CDLL(None).fflush(None)
    return capfd.readouterr().out


def test_highs_writes_nothing_to_fd1(capfd):
    # HiGHS logs to the console only when asked (scipy's ``disp``), and its
    # MILP solves run under the fd-1 guard; native output would land on
    # fd 1, which capfd reads at the descriptor.  HiGHS 1.12.0 (scipy
    # 1.17.1) prints "HighsMipSolverData::transformNewIntegerFeasibleSolution
    # tmpSolver.run();" past ``disp`` on the MILP of one binary fixed at 1.
    # One whole loop on the reduction feeder runs HiGHS on every adversary
    # LP and master MILP.
    def lp(rows, upper):
        return LinearProgram(-np.ones(2), rows, np.zeros(2), np.array([1.0, upper]))

    optimal = lp([Row({0: 1.0, 1: 1.0}, "<=", 1.5)], 1.0)
    infeasible = lp([geq({0: 1.0, 1: 1.0}, 3.0)], 1.0)
    unbounded = lp([], np.inf)
    statuses = []
    for prog in (optimal, infeasible, unbounded):
        statuses.append(HighsSolver().solve_lp(prog).status)
        statuses.append(HighsSolver().solve_milp(MixedIntegerProgram(prog, (0,))).status)
    fixed = LinearProgram(np.ones(1), [], np.ones(1), np.ones(1))
    statuses.append(HighsSolver().solve_milp(MixedIntegerProgram(fixed, (0,))).status)
    feeder = assemble_bess_problem(*feeder_case("bess_reduction", "sparse"))
    res = run(feeder, solver=HighsSolver())
    os.write(1, b"after\n")
    assert statuses == ["optimal"] * 2 + ["infeasible"] * 2 + ["unbounded"] * 2 + ["optimal"]
    assert res.status == "converged" and res.ub == pytest.approx(28.0487273778, abs=1e-6)
    assert fd1_text(capfd) == "after\n"


def test_highs_mip_print_stays_off_fd1(capfd):
    # An older HiGHS's MIP solver printed "HighsMipSolverData::
    # transformNewIntegerFeasibleSolution tmpSolver.run();" whatever scipy's
    # ``disp`` said, on the master over this pool: the reduction feeder at
    # step 0.0008 with the 4 worst cases an in-out loop stores in its first
    # 4 iterations (x_s = x_best + 0.5 (x - x_best), x_s's worst case kept,
    # no cut at the master iterate x).  HiGHS 1.12.0 (scipy 1.17.1) prints
    # nothing here even without the guard.
    prob = assemble_bess_problem(*feeder_case("bess_reduction", 0.0008))
    stored = json.loads((Path(__file__).parent / "data" / "highs_print_pool.json").read_text())
    pool = [reference_scenario(prob)] + [
        Scenario([SampledFunction(t.spec.partition, v) for t, v in zip(prob.terms, s["values"])])
        for s in stored["scenarios"]
    ]
    _, lb = solve_master(prob, pool, HighsSolver())
    assert lb == pytest.approx(28.037049817710397, abs=1e-6)
    assert fd1_text(capfd) == ""


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
lp = LinearProgram([-1.0], [Row({0: 1.0}, "<=", 0.5)], [0.0], [1.0])
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
