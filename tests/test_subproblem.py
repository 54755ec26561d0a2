from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from obro import bess, configio, subproblem
from obro.linsolve import BranchBoundSolver, HighsSolver, SparseRows
from obro.model import ObroProblem, UncertainTerm, evaluate_v, reference_scenario
from obro.pwl import (
    NeighborhoodSpec,
    Partition,
    SampledFunction,
    check_neighborhood,
    trapezoid_deviation,
)
from obro.subproblem import build_subproblem, solve_subproblem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def identity_problem(delta=0.1, lip=2.0, dev=10.0, epsilon=0.1, points=(0.0, 1.0)):
    part = Partition(np.asarray(points, float))
    ref = SampledFunction(part, part.points.copy())
    spec = NeighborhoodSpec(ref, delta, dev, lip)
    return ObroProblem(
        c=np.zeros(1), rows=[],
        lower=np.array([points[0]]), upper=np.array([points[-1]]),
        epsilon=epsilon, terms=[UncertainTerm("f1", spec, (0,))], names=["x"],
    )


def grid_search_value(prob, x, levels=401):
    """Independent check: enumerate sample values on a grid (vectorized
    restatement of the neighborhood constraints and the value functional)."""
    from obro.pwl import interp_coefficients

    term = prob.terms[0]
    spec = term.spec
    ref = spec.reference
    pts = ref.partition.points
    n = pts.size
    offsets = np.linspace(-spec.delta_max, spec.delta_max, levels)
    combos = np.stack(np.meshgrid(*([offsets] * n), indexing="ij"), axis=-1).reshape(-1, n)
    f = ref.values[None, :] + combos
    dx = np.diff(pts)
    s = np.abs(combos)
    dev = np.sum(0.5 * (s[:, 1:] + s[:, :-1]) * dx[None, :], axis=1)
    ok = dev <= spec.dev_max + 1e-12
    cap = spec.lip_ratio * np.abs(np.diff(ref.values))
    ok &= np.all(np.abs(np.diff(f, axis=1)) <= cap[None, :] + 1e-12, axis=1)
    coeff = np.zeros(n)
    for e in term.eval_indices:
        p, a_lo, a_hi = interp_coefficients(ref.partition, x[e])
        coeff[p] += a_lo
        coeff[p + 1] += a_hi
    vals = f @ coeff - prob.epsilon * dev
    vals[~ok] = -np.inf
    return float(np.max(vals))


class TestHandDerivedOptimum:
    """Two-sample identity reference, delta=0.1, L=2, eps=0.1.

    Active-constraint enumeration at eval x=1: the objective rewards only
    the right sample value, so it rails at the sup cap 1.1 and pays
    eps * trapezoid(0, 0.1) = 0.005 of penalty; touching the left value
    only adds penalty.  Optimum 1.1 - 0.005 = 1.095.
    """

    def test_eval_at_one(self):
        prob = identity_problem()
        scen, value = solve_subproblem(prob, np.array([1.0]))
        assert value == pytest.approx(1.095, abs=1e-9)
        np.testing.assert_allclose(scen.functions[0].values, [0.0, 1.1], atol=1e-9)
        assert grid_search_value(prob, np.array([1.0])) == pytest.approx(1.095, abs=2e-3)

    def test_eval_at_zero(self):
        # same enumeration at x=0: raise the left value to 0.1; the right
        # value stays on the reference because every move costs penalty
        prob = identity_problem()
        scen, value = solve_subproblem(prob, np.array([0.0]))
        assert value == pytest.approx(0.095, abs=1e-9)
        np.testing.assert_allclose(scen.functions[0].values, [0.1, 1.0], atol=1e-9)

    def test_lp_solver_agrees_with_highs(self):
        prob = identity_problem()
        _, v1 = solve_subproblem(prob, np.array([1.0]), BranchBoundSolver())
        _, v2 = solve_subproblem(prob, np.array([1.0]), HighsSolver())
        assert v1 == pytest.approx(v2, abs=1e-9)


class TestDegenerateNeighborhood:
    def test_zero_delta_returns_reference(self):
        prob = identity_problem(delta=0.0)
        scen, value = solve_subproblem(prob, np.array([0.7]))
        np.testing.assert_allclose(scen.functions[0].values, [0.0, 1.0], atol=1e-12)
        dev = trapezoid_deviation(scen.functions[0], prob.terms[0].spec.reference)
        assert dev == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(0.7)


class TestSubproblemContracts:
    def test_lp_shape(self):
        prob = identity_problem(points=(0.0, 0.5, 1.0))
        lp = build_subproblem(prob, np.array([0.4]))
        n = 3
        assert lp.n_vars == 2 * n + 1
        spec = prob.terms[0].spec
        # the sup-radius box and the budget are the value and deviation bounds
        ref = spec.reference.values
        np.testing.assert_array_equal(lp.lower[:n], ref - spec.delta_max)
        np.testing.assert_array_equal(lp.upper[:n], ref + spec.delta_max)
        assert (lp.lower[2 * n], lp.upper[2 * n]) == (0.0, spec.dev_max)
        kinds = [r.name.split(".")[1].split("[")[0] for r in lp.rows]
        assert len(kinds) == 4 * n - 1
        assert kinds.count("ratio+") == n - 1 and kinds.count("ratio-") == n - 1
        assert kinds.count("abs+") == n and kinds.count("abs-") == n
        assert kinds.count("quadrature") == 1

    def test_value_consistency_and_membership(self):
        prob = identity_problem(points=(0.0, 0.25, 0.5, 1.0), delta=0.2)
        x = np.array([0.6])
        scen, value = solve_subproblem(prob, x)
        assert check_neighborhood(scen.functions[0], prob.terms[0].spec, tol=1e-7).passed
        assert value == pytest.approx(evaluate_v(prob, scen, x), abs=1e-6)
        ref_value = evaluate_v(prob, reference_scenario(prob), x)
        assert value >= ref_value - 1e-9

    def test_adversary_dominance_and_budget(self):
        prob = identity_problem(points=(0.0, 0.5, 1.0), delta=0.15)
        for xv in (0.0, 0.3, 0.5, 0.9):
            x = np.array([xv])
            _, value = solve_subproblem(prob, x)
            ref_value = evaluate_v(prob, reference_scenario(prob), x)
            assert value >= ref_value - 1e-9
            n_evals = len(prob.terms[0].eval_indices)
            assert value <= ref_value + n_evals * prob.terms[0].spec.delta_max + 1e-9

    def test_out_of_partition_coordinate(self):
        prob = identity_problem()
        with pytest.raises(Exception):
            build_subproblem(prob, np.array([1.5]))

    def test_multiple_evaluation_points(self):
        part = Partition(np.array([0.0, 1.0]))
        ref = SampledFunction(part, part.points.copy())
        spec = NeighborhoodSpec(ref, 0.1, 10.0, 2.0)
        prob = ObroProblem(
            c=np.zeros(2), rows=[], lower=np.zeros(2), upper=np.ones(2),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0, 1))],
        )
        x = np.array([1.0, 1.0])
        scen, value = solve_subproblem(prob, x)
        # both coordinates read the same raised endpoint: 2*1.1 - 0.005
        assert value == pytest.approx(2.195, abs=1e-9)

    def test_tight_deviation_budget_binds(self):
        # with dev_max below the unconstrained optimum's deviation, the
        # budget row must bind: deviation == dev_max at the solution
        prob = identity_problem(dev=0.01)
        scen, value = solve_subproblem(prob, np.array([1.0]))
        dev = trapezoid_deviation(scen.functions[0], prob.terms[0].spec.reference)
        assert dev == pytest.approx(0.01, abs=1e-9)
        assert value < 1.095


class DriftingSolver(BranchBoundSolver):
    """Returns the adversary's optimum with every deviation column 1e-3
    above the quadrature of its samples."""

    def __init__(self, prob):
        self.prob = prob

    def solve_lp(self, lp):
        out = super().solve_lp(lp)
        x = out.x.copy()
        for _, _, d0 in self.prob.adversary.offsets:
            x[d0] += 1e-3
        return replace(out, x=x)


class LiftingSolver(BranchBoundSolver):
    """Returns every sample lifted twice the sup radius above its
    reference, with the deviation column at the lifted samples'
    quadrature, so the drift check passes and only membership fails."""

    def __init__(self, prob):
        self.prob = prob

    def solve_lp(self, lp):
        out = super().solve_lp(lp)
        x = out.x.copy()
        for term, (f0, _, d0) in zip(self.prob.terms, self.prob.adversary.offsets):
            ref = term.spec.reference
            lifted = SampledFunction(ref.partition, ref.values + 2 * term.spec.delta_max)
            x[f0 : f0 + ref.partition.n_points] = lifted.values
            x[d0] = trapezoid_deviation(lifted, ref)
        return replace(out, x=x)


class TestOutputChecks:
    def test_drifted_deviation_column_is_an_error(self):
        prob = identity_problem(points=(0.0, 0.5, 1.0))
        with pytest.raises(
            subproblem.SubproblemError,
            match=r"^deviation variable drifted from quadrature by 1\.00e-03$",
        ):
            solve_subproblem(prob, np.array([0.6]), DriftingSolver(prob))

    def test_scenario_outside_the_neighborhood_is_an_error(self):
        prob = identity_problem(points=(0.0, 0.5, 1.0))
        with pytest.raises(
            subproblem.SubproblemError,
            match=r"^generated scenario invalid: terms\[0\]: sup bound: violated by 1\.000e-01;",
        ):
            solve_subproblem(prob, np.array([0.6]), LiftingSolver(prob))


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_match_grid_search(seed):
    rng = np.random.default_rng(200 + seed)
    points = np.array([0.0, rng.uniform(0.3, 0.7), 1.0])
    values = np.array([0.0, rng.uniform(0.2, 0.8), rng.uniform(1.0, 1.5)])
    part = Partition(points)
    ref = SampledFunction(part, values)
    spec = NeighborhoodSpec(ref, float(rng.uniform(0.02, 0.08)), 10.0, 4.0)
    prob = ObroProblem(
        c=np.zeros(1), rows=[], lower=np.zeros(1), upper=np.ones(1),
        epsilon=0.1, terms=[UncertainTerm("f1", spec, (0,))],
    )
    x = np.array([float(rng.uniform(0, 1))])
    _, value = solve_subproblem(prob, x)
    approx = grid_search_value(prob, x, levels=81)
    step = 2 * spec.delta_max / 80
    lipschitz = 1 + prob.epsilon * (part.hi - part.lo)
    assert approx <= value + 1e-9
    assert value <= approx + lipschitz * step + 1e-9


def config_problem(name):
    cfg = configio.load_config(CONFIGS / f"{name}.json")
    if name == "bess_8node":
        feeder, inputs, schemes, _ = configio.bess_case_from_config(cfg)
        inputs.scheme = schemes["benchmark"]
        return bess.assemble_bess_problem(feeder, inputs)
    return configio.problem_from_config(cfg)[0]


def form_bytes(form):
    a, lower, upper = form
    return (a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes(),
            lower.tobytes(), upper.tobytes())


class TestAdversaryBlock:
    """The rows, bounds and sparse form are built once per problem; each
    build only computes the cost at its decision."""

    @pytest.mark.parametrize("name", ["bess_8node", "two_term_coupled"])
    def test_cached_lp_equals_fresh_build(self, name):
        prob = config_problem(name)
        span = prob.upper - prob.lower  # infinite off the evaluation coordinates
        inside = np.where(np.isfinite(span), prob.lower + 0.3 * span, 0.0)
        for x in (prob.lower, prob.upper, inside):
            cached = build_subproblem(prob, x)
            fresh = build_subproblem(replace(prob), x)  # a new object holds no block
            assert cached.rows is prob.adversary.lp.rows
            assert fresh.rows is not cached.rows
            assert cached.c.tobytes() == fresh.c.tobytes()
            assert cached.lower.tobytes() == fresh.lower.tobytes()
            assert cached.upper.tobytes() == fresh.upper.tobytes()
            assert list(cached.rows) == list(fresh.rows)
            # the HiGHS matrices of the shared form and of a new conversion
            rebuilt = SparseRows(list(fresh.rows), fresh.n_vars).highs()
            assert form_bytes(cached.sparse_rows().highs()) == form_bytes(rebuilt)

    def test_second_build_constructs_no_row(self, monkeypatch):
        made = []
        row = subproblem.Row

        def counting_row(*args, **kwargs):
            made.append(args)
            return row(*args, **kwargs)

        monkeypatch.setattr(subproblem, "Row", counting_row)
        prob = identity_problem(points=(0.0, 0.5, 1.0))
        first = build_subproblem(prob, np.array([0.2]))
        assert len(made) == len(first.rows) > 0
        second = build_subproblem(prob, np.array([0.9]))
        assert len(made) == len(first.rows)
        assert second.rows is first.rows and second.sparse is first.sparse

    def test_reassigned_terms_build_a_validated_block(self, monkeypatch):
        calls = []
        validate = subproblem.validate

        def counting_validate(prob):
            calls.append(prob)
            return validate(prob)

        monkeypatch.setattr(subproblem, "validate", counting_validate)
        prob = identity_problem(delta=0.1)
        build_subproblem(prob, np.array([0.5]))
        build_subproblem(prob, np.array([0.7]))
        assert len(calls) == 1
        spec = prob.terms[0].spec
        pinned = replace(prob, terms=[
            UncertainTerm("f1", NeighborhoodSpec(spec.reference, 0.0, spec.dev_max,
                                                 spec.lip_ratio), (0,))
        ])
        assert "adversary" not in vars(pinned)
        lp = build_subproblem(pinned, np.array([0.5]))
        assert calls == [prob, pinned]
        assert pinned.adversary is not prob.adversary
        n = spec.partition.n_points
        np.testing.assert_array_equal(lp.lower[:n], spec.reference.values)
        np.testing.assert_array_equal(lp.upper[:n], spec.reference.values)
        wide = build_subproblem(prob, np.array([0.5])).upper[:n]
        np.testing.assert_array_equal(wide, spec.reference.values + spec.delta_max)
        assert len(calls) == 2
        # an invalid replacement is caught by the new validation
        bad = replace(prob, terms=[UncertainTerm("f1", spec, (3,))])
        with pytest.raises(ValueError, match="out of range"):
            build_subproblem(bad, np.array([0.5]))
