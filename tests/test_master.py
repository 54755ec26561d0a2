import functools
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from obro import configio, engine, master
from obro.bess import assemble_bess_problem
from obro.engine import run, verify_saddle
from obro.linsolve import (
    BranchBoundSolver,
    HighsSolver,
    LinearProgram,
    MixedIntegerProgram,
    Row,
    solve_milp,
)
from obro.master import build_master, solve_master
from obro.model import (
    ObroProblem,
    Scenario,
    UncertainTerm,
    evaluate_v,
    reference_scenario,
)
from obro.oracle import enumerate_master
from obro.pwl import NeighborhoodSpec, Partition, SampledFunction, trapezoid_deviation
from obro.subproblem import solve_subproblem

from feeders import CONFIGS, feeder_case


def make_problem(points, ref_values, delta=1.0, dev=10.0, lip=3.0, epsilon=0.1, c=None):
    part = Partition(np.asarray(points, float))
    ref = SampledFunction(part, np.asarray(ref_values, float))
    spec = NeighborhoodSpec(ref, delta, dev, lip)
    return ObroProblem(
        c=np.zeros(1) if c is None else np.asarray(c, float),
        rows=[],
        lower=np.array([part.lo]),
        upper=np.array([part.hi]),
        epsilon=epsilon,
        terms=[UncertainTerm("f1", spec, (0,))],
        names=["x"],
    )


def scenario_from_values(prob, values, term=0):
    spec = prob.terms[term].spec
    f = SampledFunction(spec.partition, np.asarray(values, float))
    return Scenario((f,))


class TestReferenceOnlyMaster:
    def test_minimizes_increasing_reference(self):
        prob = make_problem([0.0, 1.0], [0.0, 1.0])
        x, eta = solve_master(prob, [reference_scenario(prob)])
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert eta == pytest.approx(0.0, abs=1e-9)

    def test_concave_samples_pick_left_endpoint(self):
        prob = make_problem([0.0, 0.5, 1.0], [0.0, 0.6, 0.8])
        x, eta = solve_master(prob, [reference_scenario(prob)])
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert eta == pytest.approx(0.0, abs=1e-9)

    def test_interior_minimum(self):
        prob = make_problem([0.0, 0.5, 1.0], [1.0, 0.2, 0.9])
        x, eta = solve_master(prob, [reference_scenario(prob)])
        assert x[0] == pytest.approx(0.5, abs=1e-9)
        assert eta == pytest.approx(0.2, abs=1e-9)


class TestVShapedCuts:
    def v_problem(self, epsilon=0.1):
        # identity reference, one extra scenario {1, 0}: the two cuts are
        # eta >= x and eta >= (1 - x) - eps * trapezoid(1, 1)
        prob = make_problem([0.0, 1.0], [0.0, 1.0], delta=1.0, lip=3.0, epsilon=epsilon)
        scen = scenario_from_values(prob, [1.0, 0.0])
        dev = trapezoid_deviation(scen.functions[0], prob.terms[0].spec.reference)
        assert dev == pytest.approx(1.0)
        return prob, [reference_scenario(prob), scen]

    def test_crossing_point(self):
        # closed form: x = (1 - eps) / 2 where x = 1 - x - eps
        prob, scens = self.v_problem(epsilon=0.1)
        x, eta = solve_master(prob, scens)
        assert x[0] == pytest.approx(0.45, abs=1e-9)
        assert eta == pytest.approx(0.45, abs=1e-9)

    def test_eta_equals_worst_scenario_value(self):
        prob, scens = self.v_problem()
        x, eta = solve_master(prob, scens)
        worst = max(evaluate_v(prob, s, x) for s in scens)
        assert eta == pytest.approx(worst, abs=1e-6)

    def test_cut_validity(self):
        prob, scens = self.v_problem()
        x, eta = solve_master(prob, scens)
        for s in scens:
            assert eta >= evaluate_v(prob, s, x) - 1e-6


class TestLbMonotonicity:
    def test_adding_violated_cut_raises_eta(self):
        prob = make_problem([0.0, 1.0], [0.0, 1.0], delta=0.6)
        scens = [reference_scenario(prob)]
        x0, eta0 = solve_master(prob, scens)
        # a cut violated at x0 = 0: value 0.6 there
        scens.append(scenario_from_values(prob, [0.6, 1.0]))
        x1, eta1 = solve_master(prob, scens)
        assert eta1 > eta0 + 1e-6
        # adding a dominated cut cannot lower the bound
        scens.append(scenario_from_values(prob, [0.0, 1.0]))
        x2, eta2 = solve_master(prob, scens)
        assert eta2 >= eta1 - 1e-9


class TestIncrementalStructure:
    def test_layout_blocks(self):
        for n in (2, 3, 5):
            prob = make_problem(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n))
            block = prob.master
            assert prob.n_vars == 1 and block.etas[0] == 1
            assert block.z_slices == (slice(2, n + 1),)
            assert block.y_slices == (slice(n + 1, 2 * n - 1),)
            assert block.mip.lp.n_vars == 2 * n - 1
            mip = build_master(prob, [reference_scenario(prob)])
            assert mip.binaries == tuple(range(n + 1, 2 * n - 1))  # none when n == 2

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    def test_fill_order_at_optimum(self, solver):
        # identity reference against its mirror image: the cuts eta >= x and
        # eta >= 1 - x - eps * 0.5 cross at x = 0.475, inside segment 1
        points = np.array([0.0, 0.25, 0.5, 1.0])
        prob = make_problem(points, points, delta=1.0, lip=3.0)
        scens = [reference_scenario(prob), scenario_from_values(prob, 1.0 - points)]
        from obro.linsolve import solve_milp

        out = solve_milp(build_master(prob, scens), solver)
        block = prob.master
        z = out.x[block.z_slices[0]]
        y = out.x[block.y_slices[0]]
        assert out.x[0] == pytest.approx(0.475, abs=1e-9)
        np.testing.assert_allclose(z, [1.0, 0.9, 0.0], atol=1e-9)
        np.testing.assert_array_equal(y, [1.0, 0.0])
        assert points[0] + np.diff(points) @ z == pytest.approx(out.x[0], abs=1e-12)

    def test_polyhedron_rows_respected(self):
        from obro.linsolve import Row

        prob = make_problem([0.0, 1.0], [1.0, 0.0])
        prob = replace(prob, rows=[Row({0: 1.0}, "<=", 0.25, "cap")])
        x, eta = solve_master(prob, [reference_scenario(prob)])
        assert x[0] <= 0.25 + 1e-9
        assert eta == pytest.approx(0.75, abs=1e-9)


def two_term_problem():
    p1 = Partition(np.array([0.0, 0.5, 1.0]))
    p2 = Partition(np.array([0.0, 0.4, 0.7, 1.0]))
    t1 = NeighborhoodSpec(SampledFunction(p1, np.array([0.0, 0.6, 1.0])), 0.2, 10.0, 3.0)
    t2 = NeighborhoodSpec(SampledFunction(p2, np.array([0.3, 0.5, 0.9, 1.2])), 0.1, 10.0, 3.0)
    return ObroProblem(
        c=np.array([-0.4, -0.2, -0.6]), rows=[],
        lower=np.zeros(3), upper=np.ones(3), epsilon=0.1,
        terms=[UncertainTerm("f1", t1, (0, 2)), UncertainTerm("f2", t2, (1,))],
    )


class TestPerTermRows:
    def scenarios(self, prob):
        scens = [reference_scenario(prob)]
        for x in ([0.1, 0.9, 0.2], [0.8, 0.3, 0.6], [0.5, 0.5, 0.9]):
            scens.append(solve_subproblem(prob, np.array(x))[0])
        # term f1 of the first scenario with term f2 of the anchor
        scens.append(Scenario((scens[1].functions[0], scens[0].functions[1])))
        return scens

    def test_layout_puts_later_excess_columns_last(self):
        prob = two_term_problem()
        block = prob.master
        assert block.etas == (prob.n_vars, block.mip.lp.n_vars - 1)
        # blocks of f1 at x0 and x2, then f2 at x1, right after etas[0]
        assert [z.start for z in block.z_slices] == [4, 7, 10]
        assert block.y_slices[-1].stop == block.mip.lp.n_vars - 1
        mip = build_master(prob, [reference_scenario(prob)])
        assert (mip.lp.lower[list(block.etas)] == 0.0).all()
        assert (mip.lp.upper[list(block.etas)] == np.inf).all()
        assert (mip.lp.c[list(block.etas)] == 1.0).all()

    def test_one_row_per_scenario_and_term(self):
        prob = two_term_problem()
        block = prob.master
        scens = self.scenarios(prob)
        static = len(build_master(prob, scens[:1]).lp.rows)
        own = [set(), set()]
        for (ti, _), z in zip(block.eval_keys, block.z_slices):
            own[ti].update(range(z.start, z.stop))
        for k in range(1, len(scens) + 1):
            cuts = build_master(prob, scens[:k]).lp.rows[static:]
            assert len(cuts) == 2 * (k - 1)
            for i, row in enumerate(cuts):
                ti = i % 2
                assert row.coeffs[block.etas[ti]] == -1.0
                assert set(row.coeffs) <= own[ti] | {block.etas[ti]}
        assert all(len(row.coeffs) > 1 for row in cuts[:-1])
        # the mixed scenario repeats the anchor's f2: that row keeps only eta_1
        assert cuts[-1].coeffs == {block.etas[1]: -1.0}
        assert cuts[-1].rhs == 0.0
        # and f1 of the first generated scenario: the same row as before
        assert cuts[-2].coeffs == cuts[0].coeffs and cuts[-2].rhs == cuts[0].rhs

    def test_bound_is_sum_of_per_term_worst_cuts(self):
        prob = two_term_problem()
        scens = self.scenarios(prob)
        x, bound = solve_master(prob, scens)
        worst = max(evaluate_v(prob, s, x) for s in mixed_scenarios(scens))
        assert bound == pytest.approx(worst, abs=1e-9)
        assert bound <= solve_subproblem(prob, x)[1] + 1e-9


def counting(monkeypatch, name):
    """Record the last argument of every call to ``master.<name>``: the
    problem validated, or the scenario checked."""
    calls = []
    original = getattr(master, name)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(master, name, counted)
    return calls


def same_objects(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestMasterBlock:
    """The rows, bounds and binaries that no scenario changes are built and
    validated once per problem, and each pool scenario's cut rows once
    per pool; every build still equals a build from nothing."""

    def pool(self):
        prob = two_term_problem()
        return prob, TestPerTermRows().scenarios(prob)

    def test_second_build_reuses_block_and_cut_rows(self):
        prob, scens = self.pool()
        first = build_master(prob, scens)
        block = prob.master
        second = build_master(prob, scens)
        assert prob.master is block
        assert first.lp.rows is not second.lp.rows
        assert same_objects(first.lp.rows, second.lp.rows)
        fresh = build_master(replace(prob), scens)  # a new object holds no block
        assert fresh.lp.rows == second.lp.rows and fresh.binaries == second.binaries

    def test_replaced_problem_or_field_rebuilds_the_block(self, monkeypatch):
        validated = counting(monkeypatch, "validate")
        prob, scens = self.pool()
        build_master(prob, scens)
        block = prob.master
        copy = replace(prob)
        assert "master" not in vars(copy)
        build_master(copy, scens)
        assert copy.master is not block and prob.master is block
        capped = replace(prob, rows=[Row({0: 1.0}, "<=", 0.25, "cap")])
        mip = build_master(capped, scens)
        assert capped.master is not block and mip.lp.rows[0].name == "cap"
        renewed = replace(capped, terms=list(capped.terms))
        build_master(renewed, scens)
        assert renewed.master is not capped.master
        assert same_objects(validated, [prob, copy, capped, renewed])
        assert prob.master is block and build_master(prob, scens).lp.rows[0].name != "cap"
        # an invalid replacement is caught by the new validation
        bad = replace(prob, terms=[UncertainTerm("f1", prob.terms[0].spec, (3,)), prob.terms[1]])
        with pytest.raises(ValueError, match="out of range"):
            build_master(bad, scens)

    def test_new_anchor_rebuilds_every_cut(self, monkeypatch):
        checked = counting(monkeypatch, "scenario_issues")
        prob, scens = self.pool()
        old = build_master(prob, scens).lp.rows
        static = len(prob.master.mip.lp.rows)
        assert len(checked) == len(scens)
        # a new reference scenario equals the old anchor, as in a new run
        for pool in ([reference_scenario(prob), *scens[1:]], scens[2:]):
            checked.clear()
            rows = build_master(prob, pool).lp.rows
            assert same_objects(checked, pool)
            assert not any(r is o for r in rows[static:] for o in old[static:])
            assert rows == build_master(replace(prob), pool).lp.rows

    def test_invalid_scenario_after_cached_prefix_raises(self):
        prob = make_problem([0.0, 1.0], [0.0, 1.0], delta=0.1)
        scens = [reference_scenario(prob), scenario_from_values(prob, [0.1, 0.9])]
        build_master(prob, scens)
        bad = scenario_from_values(prob, [5.0, 1.0])
        with pytest.raises(ValueError, match="scenario 2 invalid"):
            build_master(prob, [*scens, bad])
        with pytest.raises(ValueError, match="scenario 2 invalid"):
            build_master(prob, [*scens, bad])
        assert len(build_master(prob, scens).lp.rows) == len(prob.master.mip.lp.rows) + 1

    @pytest.mark.parametrize("k", [1, 5], ids=["no-cut", "cuts"])
    def test_sparse_form_matches_full_conversion(self, k):
        from test_linsolve import assert_same_form, per_row_form

        prob, scens = self.pool()
        lp = build_master(prob, scens[:k]).lp
        assert len(lp.rows) - len(prob.master.mip.lp.rows) == 2 * (k - 1)
        assert_same_form(lp.rows.highs(lp.n_vars), per_row_form(lp))

    def test_programs_cannot_change_the_block(self):
        prob, scens = self.pool()
        want = build_master(replace(prob), scens).lp
        lp = build_master(prob, scens).lp
        lp.c[:] = 0.5  # each build's own cost
        for a in (lp.lower, lp.upper):  # the block's, shared by every build
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
        again = build_master(prob, scens).lp
        for got, ref in ((again.c, want.c), (again.lower, want.lower), (again.upper, want.upper)):
            assert got.tobytes() == ref.tobytes()
        static = prob.master.mip.lp
        assert again.lower is static.lower and again.upper is static.upper
        for a in (static.c, static.lower, static.upper):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_run_checks_each_scenario_and_the_problem_once(self, monkeypatch):
        checked = counting(monkeypatch, "scenario_issues")
        validated = counting(monkeypatch, "validate")
        path = Path(__file__).resolve().parent.parent / "configs" / "two_pocket.json"
        prob, options = configio.problem_from_config(configio.load_config(path))
        result = run(prob, tol=options["tol"], max_iter=options["max_iter"])
        assert len(result.scenarios) > 2
        assert same_objects(checked, result.scenarios)
        assert same_objects(validated, [prob])
        # the saddle check's master re-solve reuses the whole pool
        assert verify_saddle(prob, result).outer_ok
        assert same_objects(checked, result.scenarios) and same_objects(validated, [prob])


class TestImpliedRows:
    """The master block leaves out the polyhedron rows that every point of
    the column box satisfies."""

    def problem(self, rows):
        # x0 is evaluated on [0, 1]; x1 is an auxiliary in [0, inf)
        base = make_problem([0.0, 0.5, 1.0], [0.0, 0.6, 0.8], c=[0.0, -0.1])
        return replace(
            base, rows=rows, lower=np.zeros(2), upper=np.array([1.0, np.inf]), names=None
        )

    def rows(self):
        return [
            Row({0: 1.0}, "<=", 2.0, "implied"),
            Row({0: 1.0, 1: -1.0}, "<=", np.inf, "infinite_rhs"),
            Row({1: 1.0}, "<=", 5.0, "unbounded_side"),
            Row({0: -1.0}, "<=", -0.3, "binding"),
            # as a <= row this one would be implied: it pins x1 to its lower bound
            Row({1: -1.0}, "=", 0.0, "equality"),
        ]

    def test_block_keeps_only_rows_the_box_can_violate(self):
        prob = self.problem(self.rows())
        poly = [r.name for r in prob.master.mip.lp.rows if "@" not in r.name]
        assert poly == ["unbounded_side", "binding", "equality"]
        assert len(prob.rows) == 5

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bb", "highs"])
    def test_same_optimum_as_without_the_implied_rows(self, solver):
        full = self.problem(self.rows())
        lean = self.problem(self.rows()[2:])
        x, bound = solve_master(full, [reference_scenario(full)], solver)
        x_lean, bound_lean = solve_master(lean, [reference_scenario(lean)], solver)
        assert x[0] == pytest.approx(0.3, abs=1e-9) and x[1] == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(x, x_lean) and bound == bound_lean

    def test_feeder_rows_match_their_box_maxima(self):
        prob = assemble_bess_problem(*feeder_case("bess_8node"))
        rows = prob.rows
        a = np.zeros((len(rows), prob.n_vars))
        for i, r in enumerate(rows):
            a[i, list(r.coeffs)] = list(r.coeffs.values())
        with np.errstate(invalid="ignore"):
            corner = np.where(a > 0, a * prob.upper, np.where(a < 0, a * prob.lower, 0.0))
        violable = corner.sum(axis=1) > np.array([r.rhs for r in rows])
        names = {r.name for r in rows}
        kept = [r.name for r in prob.master.mip.lp.rows if r.name in names]
        assert kept == [r.name for r, v in zip(rows, violable) if v]
        assert (len(rows), len(kept)) == (864, 290)
        assert prob.rows is rows


FEEDERS = {"reduction@0.001": ("bess_reduction", 0.001), "bess-day": ("bess_8node", "benchmark")}


@functools.lru_cache(maxsize=None)
def feeder_problem(key):
    return assemble_bess_problem(*feeder_case(*FEEDERS[key]))


class TestLiveSegments:
    """Each evaluation coordinate's block spans only the segments a
    feasible decision can reach; the masters keep their optima."""

    # (live, all) segments, and the master optima of one run as the block
    # over the whole partition gave them
    LIVE = {"reduction@0.001": (308, 456), "bess-day": (895, 960)}
    OPTIMA = {
        "reduction@0.001": [
            27.454299647916557, 27.92807974499996, 28.03131315773983, 28.04914728471874
        ],
        "bess-day": [42.4952847399999, 44.8951729049999],
    }
    GENERIC = {  # master columns, rows and enumerated value over one run's pool
        "tiny_identity": (3, 1, 0.095),
        "two_pocket": (7, 5, 0.18833333333333338),
        "two_term_coupled": (10, 7, 0.08749999999999991),
        "degenerate_delta0": (5, 3, 0.0),
        "two_pocket_truncated": (5, 3, 0.05),
    }

    @pytest.mark.parametrize(
        "rows, live, bound",
        [
            ([Row({0: 1.0}, "<=", 0.25)], slice(0, 1), 0.6),
            ([Row({0: -1.0}, "<=", -0.6)], slice(1, 2), 0.34),
            # a range ending on the breakpoint keeps the segment beyond it
            ([Row({0: 1.0}, "<=", 0.5)], slice(0, 2), 0.2),
            ([Row({0: -1.0}, "<=", -0.5)], slice(0, 2), 0.2),
            # through an auxiliary and an = row
            ([Row({0: 1.0, 1: -1.0}, "=", 0.0), Row({1: 1.0}, "<=", 0.25)], slice(0, 1), 0.6),
        ],
        ids=["below", "above", "up-to-breakpoint", "from-breakpoint", "equality"],
    )
    def test_block_spans_the_segments_the_rows_leave(self, rows, live, bound):
        # the reference falls from 1.0 to 0.2 at x0 = 0.5, then rises to 0.9
        base = make_problem([0.0, 0.5, 1.0], [1.0, 0.2, 0.9], c=[0.0, 0.0])
        prob = replace(base, rows=rows, lower=np.zeros(2), upper=np.ones(2), names=None)
        assert prob.master.segments == (live,)
        for solver in (BranchBoundSolver(), HighsSolver()):
            assert solve_master(prob, [reference_scenario(prob)], solver)[1] == pytest.approx(
                bound, abs=1e-9
            )

    @pytest.mark.parametrize("key", FEEDERS)
    def test_fbbt_range_contains_obbt_range(self, key):
        # OBBT: the least and greatest x_e over the polyhedron, one LP each
        prob = feeder_problem(key)
        lo, up = master.tightened_box(prob)
        block = prob.master
        for (ti, e), seg in zip(block.eval_keys, block.segments):
            extremes = []
            for sign in (1.0, -1.0):
                c = np.zeros(prob.n_vars)
                c[e] = sign
                out = HighsSolver().solve_lp(LinearProgram(c, prob.rows, prob.lower, prob.upper))
                assert out.optimal
                extremes.append(out.x[e])
            least, most = extremes
            assert lo[e] <= least + 1e-9 and most - 1e-9 <= up[e]
            points = prob.terms[ti].spec.partition.points
            assert all(points[k + 1] < least for k in range(seg.start))
            assert all(points[k] > most for k in range(seg.stop, points.size - 1))

    @pytest.mark.parametrize("key", FEEDERS)
    def test_live_counts_and_master_optima(self, key, monkeypatch):
        prob = feeder_problem(key)
        block = prob.master
        live = sum(seg.stop - seg.start for seg in block.segments)
        every = sum(prob.terms[ti].spec.partition.n_segments for ti, _ in block.eval_keys)
        assert (live, every) == self.LIVE[key]
        assert len(block.mip.binaries) == live - len(block.segments)
        bounds = []

        def spy(*args):
            x, bound = solve_master(*args)
            bounds.append(bound)
            return x, bound

        monkeypatch.setattr(engine, "solve_master", spy)
        result = run(prob, tol=1e-2, max_iter=100)
        assert result.converged
        np.testing.assert_allclose(bounds, self.OPTIMA[key], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("name", GENERIC)
    def test_generic_configs_keep_the_whole_partition(self, name):
        config = configio.load_config(CONFIGS / f"{name}.json")
        prob, options = configio.problem_from_config(config)
        block = prob.master
        terms = [prob.terms[ti] for ti, _ in block.eval_keys]
        assert block.segments == tuple(slice(0, t.spec.partition.n_segments) for t in terms)
        cols, rows, value = self.GENERIC[name]
        assert (block.mip.lp.n_vars, len(block.mip.lp.rows)) == (cols, rows)
        result = run(prob, tol=options["tol"], max_iter=options["max_iter"])
        assert enumerate_master(prob, result.scenarios)[0] == value


class TestErrors:
    def test_empty_scenarios(self):
        prob = make_problem([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            build_master(prob, [])

    def test_invalid_scenario(self):
        prob = make_problem([0.0, 1.0], [0.0, 1.0], delta=0.1)
        bad = scenario_from_values(prob, [5.0, 1.0])
        with pytest.raises(ValueError, match="scenario 0"):
            build_master(prob, [bad])

    def test_infeasible_polyhedron(self):
        from obro.linsolve import Row
        from obro.master import MasterError

        prob = replace(make_problem([0.0, 1.0], [0.0, 1.0]), rows=[Row({0: 1.0}, "<=", -0.5)])
        with pytest.raises(MasterError, match="empty"):
            solve_master(prob, [reference_scenario(prob)])

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    def test_empty_tightened_range_keeps_one_segment(self, solver):
        # FBBT pushes x0's range to [0, -0.5]: the block keeps one segment
        # and the solve, not the build, finds the polyhedron empty
        base = make_problem([0.0, 0.25, 0.5, 1.0], [0.0, 0.2, 0.6, 1.0], c=[0.0, 0.0])
        prob = replace(
            base, lower=np.zeros(2), upper=np.ones(2), names=None,
            rows=[Row({0: 1.0, 1: 1.0}, "<=", -0.5, "empty")],
        )
        lo, up = master.tightened_box(prob)
        assert lo[0] > up[0]
        block = prob.master
        assert block.segments == (slice(0, 1),)
        assert block.z_slices[0].stop - block.z_slices[0].start == 1
        with pytest.raises(master.MasterError, match="decision polyhedron is empty"):
            solve_master(prob, [reference_scenario(prob)], solver)
        with pytest.raises(master.MasterError, match="initial master solve: .*empty"):
            run(prob, solver=solver)


def epigraph_master(prob, scenarios):
    """The single-cut master in epigraph form: minimize ``eta`` subject to
    one dense row ``eta >= cut_s`` per whole scenario.  The static rows
    come from ``build_master`` over one scenario, which adds no cut row;
    the other terms' excess columns appear in no row and stay at 0."""
    block = prob.master
    eta = block.etas[0]
    static = build_master(prob, scenarios[:1])
    c = np.zeros(block.mip.lp.n_vars)
    c[eta] = 1.0
    lower = static.lp.lower.copy()
    lower[eta] = -np.inf
    rows = list(static.lp.rows)
    for li, scen in enumerate(scenarios):
        coeffs = {j: float(v) for j, v in enumerate(prob.c) if v != 0.0}
        coeffs[eta] = coeffs.get(eta, 0.0) - 1.0
        rhs = prob.epsilon * sum(
            trapezoid_deviation(f, t.spec.reference) for t, f in zip(prob.terms, scen.functions)
        )
        for (ti, _), seg, z in zip(block.eval_keys, block.segments, block.z_slices):
            values = scen.functions[ti].values
            rhs -= float(values[seg.start])
            for k, d in enumerate(np.diff(values)[seg]):
                coeffs[z.start + k] = coeffs.get(z.start + k, 0.0) + float(d)
        rows.append(Row(coeffs, "<=", rhs, f"cut[{li}]"))
    lp = LinearProgram(c, rows, lower, static.lp.upper.copy())
    return MixedIntegerProgram(lp, static.binaries)


def mixed_scenarios(scenarios):
    """Every combination of one stored function per term, as whole
    scenarios: the product of the per-term pools."""
    return [
        Scenario(tuple(s.functions[ti] for ti, s in enumerate(combo)))
        for combo in itertools.product(scenarios, repeat=len(scenarios[0].functions))
    ]


def acceptance_family_cases(count=12):
    """Seeded problems from the acceptance family, each with 2-4 distinct
    scenarios generated by the adversary at random decisions, so the
    anchor is a generated worst case, not the reference.  Repeated worst
    cases are dropped, as the engine's pool never holds one."""
    from test_acceptance import random_subproblem_instance

    def values(scen):
        return np.concatenate([f.values for f in scen.functions])

    rng = np.random.default_rng(4242)
    cases = []
    while len(cases) < count:
        prob, _ = random_subproblem_instance(rng)
        # a certain cost pulling x off its bound
        prob = replace(prob, c=rng.uniform(-1.5, 0.0, prob.n_vars))
        scens = []
        for _ in range(4):
            scen = solve_subproblem(prob, rng.uniform(prob.lower, prob.upper))[0]
            if all(np.max(np.abs(values(scen) - values(s))) > 1e-9 for s in scens):
                scens.append(scen)
        if len(scens) >= 2:
            cases.append((prob, scens))
    return cases


def v_shape_case():
    return TestVShapedCuts().v_problem()


class TestAnchoredMaster:
    """The per-term master anchored on its first scenario is the epigraph
    master over every mix of stored per-term functions, under ``t = cut_0
    + sum_t eta_t``: same optimum, far fewer and sparser cut rows.  Its
    bound is never below the single-cut master's over whole scenarios."""

    CASES = [v_shape_case()] + acceptance_family_cases()

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    @pytest.mark.parametrize(
        "case", range(len(CASES)), ids=["v-shape"] + [f"family{i}" for i in range(len(CASES) - 1)]
    )
    def test_same_optimum_as_epigraph(self, case, solver):
        prob, scens = self.CASES[case]
        mixes = mixed_scenarios(scens)
        reference = solve_milp(epigraph_master(prob, mixes), solver)
        assert reference.optimal
        x, eta = solve_master(prob, scens, solver)
        assert eta == pytest.approx(reference.objective, abs=1e-9)
        assert max(evaluate_v(prob, s, x) for s in mixes) == pytest.approx(eta, abs=1e-9)
        single_cut = solve_milp(epigraph_master(prob, scens), solver)
        assert eta >= single_cut.objective - 1e-9

    def test_per_term_bound_exceeds_single_cut(self):
        gains = [
            solve_master(prob, scens)[1] - solve_milp(epigraph_master(prob, scens)).objective
            for prob, scens in self.CASES
            if len(prob.terms) == 2
        ]
        assert max(gains) > 1e-6

    def test_cut_rows_are_differences_to_the_anchor(self):
        prob = make_problem([0.0, 0.5, 1.0], [1.0, 0.2, 0.9], delta=0.5, c=[0.3])
        anchor = scenario_from_values(prob, [1.2, 0.2, 0.6])
        other = scenario_from_values(prob, [0.6, 0.2, 0.6])
        block = prob.master
        static = build_master(prob, [anchor]).lp
        for k in (1, 2, 3):
            lp = build_master(prob, [anchor, other, anchor][:k]).lp
            cuts = lp.rows[len(static.rows) :]
            assert len(cuts) == k - 1
            assert (lp.lower[block.etas[0]], lp.upper[block.etas[0]]) == (0.0, np.inf)
        z = block.z_slices[0]
        # c cancels, and so does the second increment, which both share
        assert cuts[0].coeffs == {block.etas[0]: -1.0, z.start: (0.2 - 0.6) - (0.2 - 1.2)}
        # a repeat of the anchor leaves only the excess column
        assert cuts[1].coeffs == {block.etas[0]: -1.0}
        assert cuts[1].rhs == 0.0
        # the objective is the anchor's cut: c on x, its increments on z
        assert lp.c[0] == 0.3 and lp.c[block.etas[0]] == 1.0
        np.testing.assert_array_equal(lp.c[z], np.diff(anchor.functions[0].values))
        dev = trapezoid_deviation(anchor.functions[0], prob.terms[0].spec.reference)
        assert lp.offset == pytest.approx(1.2 - prob.epsilon * dev, abs=1e-15)

    def test_enumeration_agrees_with_offset(self):
        # the anchor's first value and deviation make a nonzero constant
        prob = make_problem([0.0, 0.4, 1.0], [1.0, 0.3, 0.8], delta=0.5, lip=4.0, c=[0.2])
        scens = [
            scenario_from_values(prob, [1.4, 0.5, 0.9]),
            scenario_from_values(prob, [0.8, 0.7, 1.2]),
            scenario_from_values(prob, [1.3, 0.2, 0.4]),
        ]
        assert build_master(prob, scens).lp.offset != 0.0
        v_enum, x_enum = enumerate_master(prob, scens)
        x_m, eta = solve_master(prob, scens)
        assert v_enum == pytest.approx(eta, abs=1e-9)
        assert x_enum[0] == pytest.approx(x_m[0], abs=1e-9)
        worst = max(evaluate_v(prob, s, x_m) for s in scens)
        assert eta == pytest.approx(worst, abs=1e-9)
        assert solve_milp(epigraph_master(prob, scens)).objective == pytest.approx(eta, abs=1e-9)
