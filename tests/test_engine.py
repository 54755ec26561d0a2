import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from obro import bess, configio, engine, linsolve, master
from obro.engine import run, verify_saddle
from obro.linsolve import BranchBoundSolver, HighsSolver
from obro.master import solve_master
from obro.model import ObroProblem, UncertainTerm
from obro.pwl import NeighborhoodSpec, Partition, SampledFunction, sup_distance
from obro.subproblem import solve_subproblem

from feeders import feeder_case

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def one_term(points, ref_values, delta, lip=2.0, dev=10.0, eps=0.1):
    part = Partition(np.asarray(points, float))
    ref = SampledFunction(part, np.asarray(ref_values, float))
    spec = NeighborhoodSpec(ref, delta, dev, lip)
    return ObroProblem(
        c=np.zeros(1), rows=[],
        lower=np.array([part.lo]), upper=np.array([part.hi]),
        epsilon=eps, terms=[UncertainTerm("f1", spec, (0,))], names=["x"],
    )


def two_pocket(delta=0.2):
    # two competing local minima: the adversary lifts whichever pocket the
    # decision sits in, so the decision hops before settling
    return one_term([0.0, 1 / 3, 2 / 3, 1.0], [0.4, 0.0, 0.05, 0.5], delta, lip=3.0)


class TestDegenerateNeighborhood:
    def test_zero_delta_converges_immediately(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.0)
        res = run(prob, tol=1e-2, max_iter=10)
        assert res.converged
        assert len(res.history) == 1 and res.history[0].k == 0
        assert res.gap == pytest.approx(0.0, abs=1e-9)
        assert res.ub == pytest.approx(res.lb)
        assert "fixed point" in res.message

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    def test_unbounded_box_leaves_the_sample_columns_free(self, solver):
        # delta_max = inf gives the sample columns no bounds; the ratio rows
        # and the budget hold the adversary, and both backends reach one UB
        prob = one_term([0.0, 0.5, 1.0], [0.0, 0.5, 0.5], delta=np.inf)
        assert np.all(prob.adversary.lp.lower[:3] == -np.inf)
        assert np.all(prob.adversary.lp.upper[:3] == np.inf)
        res = run(prob, tol=1e-6, max_iter=25, solver=solver)
        assert res.converged and len(res.history) == 3
        assert res.ub == pytest.approx(9.375, abs=1e-9)
        assert res.lb == pytest.approx(res.ub, abs=1e-6)


class TestIdentityInstance:
    def test_two_step_hand_trace(self):
        # master over the reference picks x=0; the adversary lifts the left
        # sample to 0.1 paying 0.005 of penalty; the refreshed master stays
        # at x=0 where the new cut reads 0.095, closing the gap exactly
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.1)
        res = run(prob, tol=1e-9, max_iter=20)
        assert res.converged
        assert res.x[0] == pytest.approx(0.0, abs=1e-9)
        assert res.ub == pytest.approx(0.095, abs=1e-9)
        assert res.lb == pytest.approx(0.095, abs=1e-9)

    def test_saddle_checks_pass(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.1)
        res = run(prob, tol=1e-9, max_iter=20)
        report = verify_saddle(prob, res, tol=1e-4)
        assert report.passed, str(report)


class TestLoopInvariants:
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    def test_bound_monotonicity_and_gap(self, delta):
        prob = two_pocket(delta)
        res = run(prob, tol=1e-6, max_iter=50)
        assert res.converged
        ubs = [r.ub for r in res.history]
        lbs = [r.lb for r in res.history]
        assert all(a >= b - 1e-12 for a, b in zip(ubs, ubs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
        assert all(r.gap >= -1e-6 for r in res.history)
        assert res.gap <= 1e-6

    def test_scenario_novelty(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        scens = res.scenarios
        for i in range(len(scens)):
            for j in range(i + 1, len(scens)):
                dist = max(
                    sup_distance(a, b)
                    for a, b in zip(scens[i].functions, scens[j].functions)
                )
                assert dist > 1e-9

    def test_multiple_iterations_then_fixed_point(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        assert len(res.history) >= 3
        assert "fixed point" in res.message

    def test_lb_strictly_rises_on_violated_cuts(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        # whenever the new scenario's cut was violated at the previous
        # optimum (its value beats the previous bound by more than
        # tolerance), the refreshed bound must strictly increase
        checked = 0
        for prev, cur in zip(res.history, res.history[1:]):
            if cur.sub_value > prev.lb + 1e-6:
                assert cur.lb > prev.lb + 1e-12
                checked += 1
        assert checked >= 1  # the instance must actually exercise this


    def test_fixed_point_reports_the_master_bound(self):
        # a repeated worst case leaves the pool unchanged, so the last
        # master bound stands as the LB
        prob, options = configio.problem_from_config(
            configio.load_config(CONFIGS / "two_pocket.json")
        )
        res = run(prob, tol=options["tol"], max_iter=options["max_iter"])
        assert "fixed point" in res.message
        assert res.lb == solve_master(prob, res.scenarios)[1]


class TestBoundSandwich:
    def test_bounds_certified_by_full_enumeration(self):
        # independent certificate of LB <= optimum <= UB: enumerate the
        # decision on a grid and the adversary with the grid oracle, and
        # account for both discretization slacks explicitly
        from obro.oracle import brute_force_subproblem

        part = Partition(np.array([0.0, 0.5, 1.0]))
        ref = SampledFunction(part, np.array([0.05, 0.3, 0.0]))
        spec = NeighborhoodSpec(ref, 0.2, 10.0, 3.0)
        prob = ObroProblem(
            c=np.zeros(1), rows=[], lower=np.zeros(1), upper=np.ones(1),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0,))], names=["x"],
        )
        res = run(prob, tol=1e-6, max_iter=50)
        assert res.converged

        levels = 81
        xs = np.linspace(0.0, 1.0, 81)
        opt_grid = min(
            brute_force_subproblem(prob, np.array([x]), levels=levels)[0] for x in xs
        )
        inner_slack = (1 + prob.epsilon * 1.0) * (2 * spec.delta_max / (levels - 1))
        # worst-case value function slope in x: steepest admissible segment
        slope = float(np.max((np.abs(np.diff(ref.values)) + 2 * spec.delta_max)
                             / np.diff(part.points)))
        x_slack = slope * (xs[1] - xs[0])
        assert opt_grid >= res.lb - inner_slack - 1e-9
        assert opt_grid <= res.ub + x_slack + 1e-9


class TestVerifySaddle:
    def test_truncated_run_fails_fixed_point(self):
        prob = two_pocket()
        full = run(prob, tol=1e-6, max_iter=50)
        assert len(full.history) >= 2  # genuinely multi-turn
        res = run(prob, tol=1e-6, max_iter=1)
        assert res.status == "max-iterations"
        report = verify_saddle(prob, res, tol=1e-4)
        assert not report.fixed_point_ok
        assert not report.passed

    def test_converged_run_passes_all(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        report = verify_saddle(prob, res, tol=1e-4)
        assert report.passed, str(report)
        assert report.fixed_point_distance <= 1e-6

    def test_gap_converged_run_fails_fixed_point(self):
        # reduction@0.002 converges on the gap in one iteration, before
        # the adversary sees the last master iterate
        prob, options, solver = reduction_case()
        res = run(prob, tol=options["tol"], max_iter=options["max_iter"], solver=solver)
        assert res.converged and len(res.history) == 1
        assert res.message.startswith("gap")  # not a repeated scenario
        report = verify_saddle(prob, res, solver=solver)
        assert report.inner_ok and report.outer_ok
        assert not report.fixed_point_ok
        assert report.fixed_point_distance > 1e-2

    def test_report_string_marks_the_failing_check(self):
        report = engine.SaddleReport(True, 1e-9, False, 0.25, True, 0.0)
        assert not report.passed
        assert str(report) == (
            "inner global optimality: pass (1.000e-09); "
            "outer value stability: FAIL (2.500e-01); fixed point: pass (0.000e+00)"
        )

    def test_zero_delta_trivially_passes(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.0)
        res = run(prob, tol=1e-2, max_iter=5)
        report = verify_saddle(prob, res, tol=1e-4)
        assert report.passed


class TestArguments:
    def test_bad_tolerance(self):
        prob = two_pocket()
        with pytest.raises(ValueError):
            run(prob, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            run(prob, tol=np.nan)
        with pytest.raises(ValueError):
            run(prob, tol=1e-2, max_iter=0)

    def test_invalid_problem_rejected(self):
        for bad in ({"epsilon": -1.0}, {"epsilon": np.nan}, {"names": ["x", "y"]}, {"terms": []}):
            with pytest.raises(ValueError, match="invalid problem"):
                run(replace(two_pocket(), **bad))

    def test_wall_time_recorded(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        assert all(r.wall_ms >= 0.0 for r in res.history)


class FailingSolver(HighsSolver):
    """HiGHS, except that ``method`` raises ``error``."""

    def __init__(self, method, error):
        setattr(self, method, self.fail)
        self.error = error

    def fail(self, program):
        raise self.error


class TestSolverErrors:
    """A solver's error leaves ``run`` with the phase leading its message
    and the original as its cause."""

    def test_type_kept_when_it_takes_a_message(self):
        boom = ValueError("boom")
        with pytest.raises(ValueError, match="^iteration 0, subproblem: boom$") as info:
            run(two_pocket(), solver=FailingSolver("solve_lp", boom))
        assert info.value.__cause__ is boom

    def test_other_types_become_runtime_errors(self):
        # TimeoutExpired's constructor needs a timeout besides the command
        timeout = subprocess.TimeoutExpired("highs", 5)
        message = "^initial master solve: Command 'highs' timed out after 5 seconds$"
        with pytest.raises(RuntimeError, match=message) as info:
            run(two_pocket(), solver=FailingSolver("solve_milp", timeout))
        assert info.value.__cause__ is timeout

    def test_saddle_check_names_its_phase(self):
        prob = two_pocket()
        res = run(prob, tol=1e-6, max_iter=50)
        boom = ValueError("boom")
        with pytest.raises(ValueError, match="^inner check: boom$") as info:
            verify_saddle(prob, res, solver=FailingSolver("solve_lp", boom))
        assert info.value.__cause__ is boom


class TestFrozenProblem:
    """Two runs on one problem with an in-place edit between them used to
    reuse the stale cached blocks: a changed ``c`` gave an LB above the
    UB, a changed reference a failed quadrature check.  Both writes now
    fail, and a changed problem comes from ``replace``."""

    def test_in_place_edits_raise_at_the_write(self):
        prob = two_pocket()
        first = run(prob, tol=1e-6, max_iter=50)
        with pytest.raises(ValueError, match="read-only"):
            prob.c[:] += 0.5
        with pytest.raises(ValueError, match="read-only"):
            prob.terms[0].spec.reference.values[:] += 0.1
        again = run(prob, tol=1e-6, max_iter=50)
        assert (again.status, again.ub, again.lb) == (first.status, first.ub, first.lb)
        shifted = run(replace(prob, c=prob.c + 0.5), tol=1e-6, max_iter=50)
        fresh = run(replace(two_pocket(), c=[0.5]), tol=1e-6, max_iter=50)
        assert (shifted.ub, shifted.lb) == (fresh.ub, fresh.lb)
        assert shifted.lb <= shifted.ub + 1e-9

    def test_scenario_functions_cannot_be_written(self):
        result = run(two_pocket(), tol=1e-6, max_iter=50)
        assert len(result.scenarios) > 1
        for scen in result.scenarios:
            for f in scen.functions:
                with pytest.raises(ValueError, match="read-only"):
                    f.values[0] = 0.0


def reduction_case(scheme="benchmark"):
    """The six-slot feeder slice, at step 0.002 unless ``scheme`` says
    otherwise, solved on HiGHS."""
    feeder, inputs, schemes, options = configio.bess_case_from_config(
        configio.load_config(CONFIGS / "bess_reduction.json")
    )
    inputs.scheme = schemes[scheme] if isinstance(scheme, str) else scheme
    return bess.assemble_bess_problem(feeder, inputs), options, HighsSolver()


def config_case(name):
    prob, options = configio.problem_from_config(configio.load_config(CONFIGS / f"{name}.json"))
    return prob, options, None


def truncated_case():
    return config_case("two_pocket_truncated")


class TestCertifiedIncumbent:
    """The returned decision is the one the upper bound certifies, even
    when the last master iterate was never evaluated."""

    @pytest.mark.parametrize("case", [reduction_case, truncated_case],
                             ids=["reduction@0.002", "two_pocket_truncated"])
    def test_adversary_at_x_within_ub(self, case):
        prob, options, solver = case()
        res = run(prob, tol=options["tol"], max_iter=options["max_iter"], solver=solver)
        _, value = solve_subproblem(prob, res.x, solver)
        assert value <= res.ub + 1e-9
        assert not np.array_equal(res.x, res.x_master)  # the iterate was not it
        assert any(r.sub_value == res.ub for r in res.history)


class TestInOutStep:
    """From the second iteration on, the adversary also answers at the
    midpoint of the incumbent and the master iterate."""

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    def test_incumbent_from_the_in_out_point(self, solver):
        # the first two iterates [0.875, 0, 0] and [0.875, 0, 0.875] both
        # value above their midpoint, whose worst case closes the gap at
        # 417/1120; the loop without the in-out step needs a third iteration
        part = Partition(np.array([0.0, 0.875]))
        spec = NeighborhoodSpec(SampledFunction(part, np.array([0.0, 1.05])), 0.43, 0.125, 3.0)
        prob = ObroProblem(
            c=np.array([-1.3, -0.75, -1.1]), rows=[],
            lower=np.zeros(3), upper=np.full(3, 0.875),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0, 1, 2))],
        )
        res = run(prob, tol=1e-6, max_iter=50, solver=solver)
        assert len(res.history) == 2
        np.testing.assert_allclose(res.x, [0.875, 0.0, 0.4375], atol=1e-9)
        assert res.ub == pytest.approx(417 / 1120, abs=1e-9)
        assert res.history[1].in_out_value == res.ub
        assert verify_saddle(prob, res, solver=solver).passed

    @pytest.mark.parametrize(
        "case, max_iterations",
        [
            (lambda: config_case("two_pocket"), 3),
            (lambda: reduction_case("hetero"), 5),
            (lambda: reduction_case(0.001), 4),
        ],
        ids=["two_pocket", "reduction-hetero", "reduction@0.001"],
    )
    def test_pool_invariants(self, case, max_iterations):
        # two appends per iteration at most, and still no duplicate; the
        # caps sit below the 4, 6 and 5 iterations these take without
        # the in-out step
        prob, options, solver = case()
        res = run(prob, tol=options["tol"], max_iter=options["max_iter"], solver=solver)
        assert res.converged and len(res.history) <= max_iterations
        scens = res.scenarios
        for i, a in enumerate(scens):
            for b in scens[i + 1:]:
                dist = max(sup_distance(fa, fb) for fa, fb in zip(a.functions, b.functions))
                assert dist > engine.DUPLICATE_TOL
        assert len(scens) <= 1 + 2 * len(res.history)
        assert np.isnan(res.history[0].in_out_value)
        assert not all(np.isnan(r.in_out_value) for r in res.history)


@pytest.mark.parametrize("max_iter, solves", [(50, 1), (1, 2)], ids=["converged", "truncated"])
def test_saddle_check_solves_adversary_per_distinct_decision(monkeypatch, max_iter, solves):
    prob = two_pocket()
    res = run(prob, tol=1e-6, max_iter=max_iter)
    assert np.array_equal(res.x, res.x_master) == (solves == 1)
    seen = []
    solve = engine.solve_subproblem

    def counting_solve(prob, x, solver=None):
        seen.append(np.array(x))
        return solve(prob, x, solver)

    monkeypatch.setattr(engine, "solve_subproblem", counting_solve)
    verify_saddle(prob, res, tol=1e-4)
    assert len(seen) == solves
    np.testing.assert_array_equal(seen[0], res.x)
    np.testing.assert_array_equal(seen[-1], res.x_master)


@pytest.mark.parametrize(
    "name, lps, pivots",
    [
        ("tiny_identity", 3, 9),
        ("two_pocket", 11, 83),
        ("two_term_coupled", 3, 26),
        ("degenerate_delta0", 2, 2),
        ("two_pocket_truncated", 5, 27),
    ],
)
def test_second_run_replays_the_adversary_start(monkeypatch, name, lps, pivots):
    # the bundled LPs of a run, master nodes included, and their pivots;
    # pivot paths use only elementwise tableau arithmetic, so the counts
    # do not depend on the BLAS.  Every adversary LP shares the block's
    # rows and bounds, so the second run replays the first run's start.
    prob, options, _ = config_case(name)
    counts = []
    solve = BranchBoundSolver.solve_lp

    def counting(self, lp):
        out = solve(self, lp)
        counts.append(out.stats["pivots"])
        return out

    monkeypatch.setattr(BranchBoundSolver, "solve_lp", counting)
    sp = prob.adversary.lp.rows
    starts = []
    for _ in range(2):
        counts.clear()
        run(prob, tol=options["tol"], max_iter=options["max_iter"])
        assert (len(counts), sum(counts)) == (lps, pivots)
        starts.append(sp.start)
    assert starts[0] is not None and starts[1] is starts[0]


def test_highs_run_never_calls_linprog(monkeypatch):
    # HiGHS solves the adversary LPs through the same scipy entry point
    # as the master MILPs
    def no_linprog(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", no_linprog)
    prob = bess.assemble_bess_problem(*feeder_case("bess_reduction", "sparse"))
    res = run(prob, tol=1e-2, max_iter=20, solver=HighsSolver())
    assert res.converged


def test_feeder_paths_without_a_solver_stay_off_the_bundled_solver(monkeypatch):
    # the backend rule sends this 302-row master block to HiGHS; the
    # bundled branch-and-bound would take seconds on it
    def refuse(self, prog):
        raise AssertionError("bundled solver reached")

    monkeypatch.setattr(BranchBoundSolver, "solve_lp", refuse)
    monkeypatch.setattr(BranchBoundSolver, "solve_milp", refuse)
    feeder, inputs = feeder_case("bess_reduction", "sparse")
    prob = bess.assemble_bess_problem(feeder, inputs)
    res = run(prob)
    assert res.converged
    report = verify_saddle(prob, res)
    assert report.inner_ok and report.outer_ok
    corner, _, _ = bess.parametric_baseline(feeder, inputs, (9.0, 10.0), (4.0, 5.0))
    assert corner == (10.0, 4.0)


def test_backend_is_chosen_from_the_block_not_the_cut_master(monkeypatch):
    # a block of at most HIGHS_ROWS rows keeps the bundled solver for the
    # whole run, also once cut rows take the master past the threshold
    n_seg = (linsolve.HIGHS_ROWS + 1) // 2  # 2 n_seg - 1 block rows
    points = np.linspace(0.0, 0.04, n_seg + 1)
    prob = one_term(points, 9.62 * (points / 0.2) - 4.7 * (points / 0.2) ** 2, 0.05,
                    lip=1.5, dev=1e-3)
    prob = replace(prob, c=np.array([-30.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS reached")

    monkeypatch.setattr(HighsSolver, "_milp", staticmethod(refuse))
    rows = []
    solve_milp = master.solve_milp

    def spy(mip, solver):
        rows.append(len(mip.lp.rows))
        assert type(solver) is BranchBoundSolver
        return solve_milp(mip, solver)

    monkeypatch.setattr(master, "solve_milp", spy)
    assert len(prob.master.mip.lp.rows) <= linsolve.HIGHS_ROWS
    assert run(prob, tol=1e-6, max_iter=50).converged
    assert max(rows) > linsolve.HIGHS_ROWS
