import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obro.configio import load_config, problem_from_config
from obro.linsolve import BranchBoundSolver, HighsSolver, Row
from obro.master import build_master, solve_master
from obro.model import (
    ObroProblem,
    Scenario,
    UncertainTerm,
    evaluate_v,
    reference_scenario,
)
from obro.oracle import (
    CHECK_SLACK,
    GridBudgetError,
    brute_force_subproblem,
    enumerate_master,
    levels_within_budget,
    pin_segments,
    refinement_study,
)
from obro.pwl import (
    NeighborhoodSpec,
    Partition,
    SampledFunction,
    check_neighborhood,
    make_partition,
    sample_coefficients,
    sample_reference,
    sup_distance,
    trapezoid_deviation,
    trapezoid_weights,
)
from obro.subproblem import solve_subproblem


def one_term(points, ref_values, delta, lip=2.0, dev=10.0, eps=0.1):
    part = Partition(np.asarray(points, float))
    ref = SampledFunction(part, np.asarray(ref_values, float))
    spec = NeighborhoodSpec(ref, delta, dev, lip)
    return ObroProblem(
        c=np.zeros(1), rows=[],
        lower=np.array([part.lo]), upper=np.array([part.hi]),
        epsilon=eps, terms=[UncertainTerm("f1", spec, (0,))], names=["x"],
    )


class TestBruteForceSubproblem:
    def test_zero_delta_single_point(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.0)
        value, funcs = brute_force_subproblem(prob, np.array([0.7]), levels=11)
        assert value == pytest.approx(0.7)
        np.testing.assert_array_equal(funcs[0].values, [0.0, 1.0])

    def test_two_sample_identity_instance(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.1)
        value, _ = brute_force_subproblem(prob, np.array([1.0]), levels=201)
        assert value == pytest.approx(1.095, abs=2e-3)

    def test_dominated_by_lp_and_within_lipschitz_gap(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            mid = float(rng.uniform(0.3, 0.7))
            prob = one_term(
                [0.0, mid, 1.0],
                [0.0, rng.uniform(0.3, 0.7), rng.uniform(1.0, 1.4)],
                delta=float(rng.uniform(0.02, 0.06)),
                lip=4.0,
            )
            x = np.array([float(rng.uniform(0, 1))])
            levels = 101
            value, funcs = brute_force_subproblem(prob, x, levels=levels)
            _, lp_value = solve_subproblem(prob, x)
            spec = prob.terms[0].spec
            step = 2 * spec.delta_max / (levels - 1)
            lipschitz = 1 + prob.epsilon * (spec.partition.hi - spec.partition.lo)
            assert value <= lp_value + 1e-9
            assert lp_value <= value + lipschitz * step + 1e-9

    def test_levels_refinement_never_hurts(self):
        prob = one_term([0.0, 0.5, 1.0], [0.0, 0.6, 1.1], delta=0.05)
        x = np.array([0.8])
        coarse, _ = brute_force_subproblem(prob, x, levels=51)
        fine, _ = brute_force_subproblem(prob, x, levels=101)
        assert fine >= coarse - 1e-12

    def test_grid_budget_guard(self):
        prob = one_term(np.linspace(0, 1, 10), np.linspace(0, 1, 10), delta=0.1)
        with pytest.raises(GridBudgetError):
            brute_force_subproblem(prob, np.array([0.5]), levels=101)

    def test_two_terms_decompose(self):
        part = Partition(np.array([0.0, 1.0]))
        ref = SampledFunction(part, part.points.copy())
        mk = lambda name: UncertainTerm(name, NeighborhoodSpec(ref, 0.1, 10.0, 2.0), ())
        t1 = UncertainTerm("f1", NeighborhoodSpec(ref, 0.1, 10.0, 2.0), (0,))
        t2 = UncertainTerm("f2", NeighborhoodSpec(ref, 0.1, 10.0, 2.0), (1,))
        prob = ObroProblem(
            c=np.zeros(2), rows=[], lower=np.zeros(2), upper=np.ones(2),
            epsilon=0.1, terms=[t1, t2],
        )
        value, funcs = brute_force_subproblem(prob, np.array([1.0, 1.0]), levels=201)
        assert value == pytest.approx(2 * 1.095, abs=4e-3)
        assert len(funcs) == 2


def grid_by_definition(prob, x, levels, ratio=True, budget=True):
    """The grid oracle's value, enumerated point by point from the
    neighborhood definition; ``ratio``/``budget`` switch a family off."""
    total = float(prob.c @ x)
    for term in prob.terms:
        spec = term.spec
        ref = spec.reference
        grid = (
            np.linspace(-spec.delta_max, spec.delta_max, levels)
            if spec.delta_max > 0
            else [0.0]
        )
        cap = spec.lip_ratio * np.abs(np.diff(ref.values)) + CHECK_SLACK
        best = -np.inf
        for offs in itertools.product(grid, repeat=ref.values.size):
            f = SampledFunction(ref.partition, ref.values + np.array(offs))
            dev = trapezoid_deviation(f, ref)
            if sup_distance(f, ref) > spec.delta_max + CHECK_SLACK:
                continue
            if budget and dev > spec.dev_max + CHECK_SLACK:
                continue
            if ratio and np.any(np.abs(np.diff(f.values)) > cap):
                continue
            value = sum(f(x[e]) for e in term.eval_indices) - prob.epsilon * dev
            best = max(best, value)
        total += best
    return total


def two_terms():
    p2 = Partition(np.array([0.0, 1.0]))
    p3 = Partition(np.array([0.0, 0.4, 1.0]))
    t1 = NeighborhoodSpec(SampledFunction(p2, np.array([0.0, 1.0])), 0.1, 10.0, 2.0)
    t2 = NeighborhoodSpec(SampledFunction(p3, np.array([0.3, 0.5, 1.2])), 0.08, 0.05, 3.0)
    return ObroProblem(
        c=np.array([0.2, -0.4]), rows=[], lower=np.zeros(2), upper=np.ones(2),
        epsilon=0.1, terms=[UncertainTerm("f1", t1, (0,)), UncertainTerm("f2", t2, (1,))],
    )


def several_evaluations():
    part = Partition(np.array([0.0, 0.5, 1.0]))
    spec = NeighborhoodSpec(SampledFunction(part, np.array([0.0, 0.6, 1.1])), 0.1, 0.1, 3.0)
    return ObroProblem(
        c=np.array([0.5, -0.2, 0.1]), rows=[], lower=np.zeros(3), upper=np.ones(3),
        epsilon=0.1, terms=[UncertainTerm("f1", spec, (0, 1, 2))],
    )


# (problem, x, levels, which constraint family binds, if one is meant to)
DEFINITION_CASES = {
    "2-point": (one_term([0.0, 1.0], [0.0, 1.0], delta=0.1), [0.7], 9, None),
    "3-point": (one_term([0.0, 0.4, 1.0], [0.2, 0.6, 1.1], delta=0.08, lip=3.0), [0.55], 9, None),
    "4-point": (
        one_term([0.0, 0.3, 0.6, 1.0], [0.1, 0.5, 0.7, 1.2], delta=0.06, lip=3.0),
        [0.45], 7, None,
    ),
    "delta-0": (one_term([0.0, 0.5, 1.0], [0.0, 0.6, 1.1], delta=0.0), [0.3], 9, None),
    # Raising the middle sample alone by delta breaks the ratio cap 2.5 * 0.1.
    # The best grid point sits on the cap and passes only through CHECK_SLACK,
    # because round-off puts its step just above the rounded cap.
    "ratio-binds": (
        one_term([0.0, 0.5, 1.0], [0.0, 0.1, 0.2], delta=0.2, lip=2.5), [0.5], 9, "ratio",
    ),
    # Raising samples 1 and 2 by delta needs deviation 0.075; the best grid
    # point spends the budget 0.05 exactly, again up to round-off.
    "budget-binds": (
        one_term([0.0, 0.5, 1.0], [0.0, 0.6, 1.1], delta=0.1, lip=3.0, dev=0.05),
        [0.7], 9, "budget",
    ),
    "two-terms": (two_terms(), [0.35, 0.8], 9, None),
    "several-evaluations": (several_evaluations(), [0.2, 0.5, 0.9], 9, None),
}


class TestGridAgainstDefinition:
    @pytest.mark.parametrize("case", list(DEFINITION_CASES))
    def test_matches_enumeration_of_definition(self, case):
        prob, x, levels, binds = DEFINITION_CASES[case]
        x = np.array(x)
        value, funcs = brute_force_subproblem(prob, x, levels=levels)
        assert value == pytest.approx(grid_by_definition(prob, x, levels), abs=1e-12)
        if binds is not None:
            loose = grid_by_definition(prob, x, levels, **{binds: False})
            assert loose > value + 1e-6

        for term, f in zip(prob.terms, funcs):
            spec = term.spec
            grid = np.linspace(-spec.delta_max, spec.delta_max, levels)
            for p, v in enumerate(f.values):
                assert np.any(spec.reference.values[p] + grid == v)
            assert check_neighborhood(f, spec).passed
        scen = Scenario(tuple(funcs))
        assert evaluate_v(prob, scen, x) == pytest.approx(value, abs=1e-12)

    def test_tie_goes_to_earliest_grid_index(self):
        # dyadic data, so (0.25, 0.5) and (0.5, 0.25) tie exactly: both
        # spend the budget 0.375 and have the same value
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.5, dev=0.375, eps=0.125)
        value, funcs = brute_force_subproblem(prob, np.array([0.5]), levels=5)
        assert value == 0.875 - 0.125 * 0.375
        np.testing.assert_array_equal(funcs[0].values, [0.25, 1.5])

    def test_repeated_calls_bit_identical(self):
        prob, x, levels, _ = DEFINITION_CASES["two-terms"]
        v1, f1 = brute_force_subproblem(prob, np.array(x), levels=levels)
        v2, f2 = brute_force_subproblem(prob, np.array(x), levels=levels)
        assert v1 == v2
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.values, b.values)


def grid_per_offset(prob, x, levels):
    """The grid oracle as one pass over the tail per offset of sample 0:
    the same arithmetic per grid point as the blocked sweep, so the two
    must agree bit for bit, maximizer included."""
    total = float(prob.c @ x)
    functions = []
    for term in prob.terms:
        spec = term.spec
        part = spec.partition
        n = part.n_points
        ref = spec.reference.values
        coeff = sample_coefficients(part, x[list(term.eval_indices)])
        if spec.delta_max > 0:
            offsets = np.linspace(-spec.delta_max, spec.delta_max, levels)
        else:
            offsets = np.zeros(1)
        weights = trapezoid_weights(part.points)
        ratio_cap = spec.lip_ratio * np.abs(np.diff(ref)) + CHECK_SLACK

        tail = np.stack(
            np.meshgrid(*([offsets] * (n - 1)), indexing="ij"), axis=-1
        ).reshape(-1, n - 1)
        f_tail = ref[1:] + tail
        tail_dev = np.abs(tail) @ weights[1:]
        tail_ok = np.all(np.abs(np.diff(f_tail, axis=1)) <= ratio_cap[1:], axis=1)
        tail_val = f_tail @ coeff[1:]

        best_val, best_off = -np.inf, None
        for off0 in offsets:
            f0 = ref[0] + off0
            dev = abs(off0) * weights[0] + tail_dev
            ok = tail_ok & (dev <= spec.dev_max + CHECK_SLACK)
            ok &= np.abs(f_tail[:, 0] - f0) <= ratio_cap[0]
            vals = f0 * coeff[0] + tail_val - prob.epsilon * dev
            vals[~ok] = -np.inf
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_off = np.concatenate([[off0], tail[j]])
        if best_off is None:
            raise GridBudgetError("no feasible grid point")
        total += best_val
        functions.append(ref + best_off)
    return total, functions


def assert_same_as_per_offset(prob, x, levels):
    x = np.asarray(x, float)
    try:
        ref_total, ref_values = grid_per_offset(prob, x, levels)
    except GridBudgetError:  # an even grid can miss a zero budget
        with pytest.raises(GridBudgetError, match="no feasible grid point"):
            brute_force_subproblem(prob, x, levels)
        return
    total, funcs = brute_force_subproblem(prob, x, levels)
    assert total == ref_total
    assert len(funcs) == len(ref_values)
    for f, values in zip(funcs, ref_values):
        assert np.array_equal(f.values, values)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GENERIC_CONFIGS = [
    "tiny_identity", "two_pocket", "two_term_coupled", "degenerate_delta0",
    "two_pocket_truncated",
]


def budget_binds(prob):
    """Whether some term's deviation budget excludes grid points: its
    largest grid deviation, every sample at full offset, exceeds it."""
    return any(
        t.spec.delta_max * (t.spec.partition.hi - t.spec.partition.lo)
        > t.spec.dev_max + CHECK_SLACK
        for t in prob.terms
    )


def acceptance_draws(count=10):
    """Seeded draws from the acceptance family, half of them with a
    binding deviation budget."""
    from test_acceptance import random_subproblem_instance

    rng = np.random.default_rng(1313)
    draws = {True: [], False: []}
    while min(len(d) for d in draws.values()) < count // 2:
        prob, x = random_subproblem_instance(rng)
        draws[budget_binds(prob)].append((prob, x))
    return draws[True][: count // 2] + draws[False][: count // 2]


def pair0_pruned():
    """Sample 0 may differ from sample 1 by at most 1.05 * 0.1, so the
    pair-0 ratio test removes most (sample-0, sample-1) offset pairs."""
    return one_term([0.0, 0.4, 0.7, 1.0], [0.0, 0.1, 0.5, 0.6], delta=0.2, lip=1.05, dev=0.3)


def mixed_delta0():
    """A term without sup radius next to one with it."""
    part = Partition(np.array([0.0, 0.5, 1.0]))
    flat = NeighborhoodSpec(SampledFunction(part, np.array([0.2, 0.6, 1.1])), 0.0, 0.0, 2.0)
    wide = NeighborhoodSpec(SampledFunction(part, np.array([0.0, 0.4, 0.5])), 0.1, 0.04, 2.0)
    return ObroProblem(
        c=np.array([0.3, -0.2]), rows=[], lower=np.zeros(2), upper=np.ones(2),
        epsilon=0.1, terms=[UncertainTerm("f1", flat, (0,)), UncertainTerm("f2", wide, (1,))],
    )


class TestGridSweepBitIdentity:
    """The blocked sweep returns what one pass per sample-0 offset
    returns, bit for bit, at every level count."""

    @pytest.mark.parametrize("name", GENERIC_CONFIGS)
    def test_generic_configs(self, name):
        prob, _ = problem_from_config(load_config(CONFIGS / f"{name}.json"))
        rng = np.random.default_rng(17)
        for levels in (3, 5, levels_within_budget(prob)):
            for _ in range(2):
                assert_same_as_per_offset(prob, rng.uniform(prob.lower, prob.upper), levels)

    @pytest.mark.parametrize("draw", range(10))
    def test_acceptance_draws(self, draw):
        prob, x = ACCEPTANCE_DRAWS[draw]
        assert budget_binds(prob) == (draw < 5)
        for levels in (3, 5, levels_within_budget(prob)):
            assert_same_as_per_offset(prob, x, levels)

    def test_pair0_ratio_prunes(self):
        prob = pair0_pruned()
        spec = prob.terms[0].spec
        ref = spec.reference.values
        cap = spec.lip_ratio * abs(ref[1] - ref[0]) + CHECK_SLACK
        for levels in (3, 5, 9, levels_within_budget(prob)):
            offsets = np.linspace(-spec.delta_max, spec.delta_max, levels)
            pairs = np.abs((ref[1] + offsets) - (ref[0] + offsets)[:, None])
            assert np.any(pairs > cap)
            for x in (0.05, 0.3, 0.9):
                assert_same_as_per_offset(prob, [x], levels)

    @pytest.mark.parametrize("prob", [
        one_term([0.0, 0.5, 1.0], [0.0, 0.6, 1.1], delta=0.0),
        one_term([0.0, 1.0], [0.3, 0.1], delta=0.0, dev=0.0),
        mixed_delta0(),
    ], ids=["one-term", "two-point", "mixed"])
    def test_delta0_terms(self, prob):
        rng = np.random.default_rng(5)
        for levels in (3, 5, levels_within_budget(prob)):
            assert_same_as_per_offset(prob, rng.uniform(prob.lower, prob.upper), levels)

    def test_ties_split_across_blocks(self, monkeypatch):
        # one row per block, so the strict comparison across blocks,
        # not the argmax inside one, keeps the earliest tie
        monkeypatch.setattr("obro.oracle._SWEEP_BLOCK", 1)
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.5, dev=0.375, eps=0.125)
        assert_same_as_per_offset(prob, [0.5], 5)
        _, funcs = brute_force_subproblem(prob, np.array([0.5]), 5)
        np.testing.assert_array_equal(funcs[0].values, [0.25, 1.5])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        levels=st.integers(3, 9),
        data=st.data(),
    )
    def test_small_terms(self, n, levels, data):
        floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
        gaps = data.draw(st.lists(floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
        points = np.concatenate([[0.0], np.cumsum(gaps)])
        values = data.draw(st.lists(floats(-1.0, 1.0), min_size=n, max_size=n))
        prob = one_term(
            points, values,
            delta=data.draw(st.sampled_from([0.0, 0.01, 0.1]) | floats(0.0, 0.5)),
            lip=data.draw(floats(1.01, 4.0)),
            dev=data.draw(floats(0.0, 1.0)),
            eps=data.draw(floats(0.01, 1.0)),
        )
        x = data.draw(floats(0.0, 1.0)) * points[-1]
        assert_same_as_per_offset(prob, [x], levels)


ACCEPTANCE_DRAWS = acceptance_draws()


class TestEnumerateMaster:
    def test_single_segment_equals_master(self):
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=0.5)
        scens = [reference_scenario(prob)]
        v_enum, x_enum = enumerate_master(prob, scens)
        x_m, eta = solve_master(prob, scens)
        assert v_enum == pytest.approx(eta, abs=1e-9)
        assert x_enum[0] == pytest.approx(x_m[0], abs=1e-9)

    def test_v_shape_crossing(self):
        # cuts eta >= x and eta >= 1 - x - eps cross at (1 - eps)/2
        prob = one_term([0.0, 1.0], [0.0, 1.0], delta=1.0, lip=3.0)
        f = SampledFunction(prob.terms[0].spec.partition, np.array([1.0, 0.0]))
        scen = Scenario((f,))
        scens = [reference_scenario(prob), scen]
        v_enum, x_enum = enumerate_master(prob, scens)
        assert x_enum[0] == pytest.approx(0.45, abs=1e-9)
        assert v_enum == pytest.approx(0.45, abs=1e-9)
        for solver in (None, HighsSolver()):
            x_m, eta = solve_master(prob, scens, solver)
            assert v_enum == pytest.approx(eta, abs=1e-6)
            assert x_m[0] == pytest.approx(0.45, abs=1e-6)

    def test_multi_segment_grid(self):
        prob = one_term([0.0, 0.4, 1.0], [1.0, 0.3, 0.8], delta=0.5, lip=4.0)
        f = SampledFunction(prob.terms[0].spec.partition, np.array([0.8, 0.7, 1.2]))
        scen = Scenario((f,))
        scens = [reference_scenario(prob), scen]
        v_enum, _ = enumerate_master(prob, scens)
        for solver in (None, HighsSolver()):
            _, eta = solve_master(prob, scens, solver)
            assert v_enum == pytest.approx(eta, abs=1e-6)

    @pytest.mark.parametrize("points", [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]])
    def test_pinned_pattern_spans_its_segment(self, points):
        prob = one_term(points, points, delta=0.5)
        block = prob.master
        lp = build_master(prob, [reference_scenario(prob)]).lp
        for s in range(len(points) - 1):
            pinned = pin_segments(lp, block, (s,))
            ends = []
            for sign in (1.0, -1.0):
                c = np.zeros(lp.n_vars)
                c[0] = sign
                out = BranchBoundSolver().solve_lp(replace(pinned, c=c))
                assert out.status == "optimal"
                ends.append(out.x[0])
            assert ends == [points[s], points[s + 1]]

    def test_tie_on_interior_breakpoint(self):
        # the optimum x = 0.5 ends segment 0 and starts segment 1: both
        # patterns reach it, and the first one wins
        prob = one_term([0.0, 0.5, 1.0], [1.0, 0.2, 0.9], delta=0.5)
        scens = [reference_scenario(prob)]
        v_enum, x_enum = enumerate_master(prob, scens)
        x_m, eta = solve_master(prob, scens)
        assert v_enum == pytest.approx(0.2, abs=1e-12)
        assert v_enum == pytest.approx(eta, abs=1e-9)
        assert x_enum[0] == pytest.approx(0.5, abs=1e-12)
        assert x_enum[0] == pytest.approx(x_m[0], abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match_branch_and_bound(self, seed):
        rng = np.random.default_rng(300 + seed)
        points = np.array([0.0, rng.uniform(0.2, 0.5), rng.uniform(0.6, 0.9), 1.0])
        prob = one_term(points, rng.uniform(0, 1, 4), delta=0.4, lip=6.0)
        scens = [reference_scenario(prob)]
        for _ in range(int(rng.integers(1, 3))):
            # worst cases at random decisions are guaranteed members
            scen, _ = solve_subproblem(prob, np.array([float(rng.uniform(0, 1))]))
            scens.append(scen)
        v_enum, _ = enumerate_master(prob, scens)
        _, eta = solve_master(prob, scens)
        assert v_enum == pytest.approx(eta, abs=1e-6)


def two_term_pools(count=8):
    """Seeded two-term problems from the acceptance family, each pooling
    the reference and 2-3 distinct worst cases generated at random
    decisions, as the engine's pool holds no repeat."""
    from test_acceptance import random_subproblem_instance

    def values(scen):
        return np.concatenate([f.values for f in scen.functions])

    rng = np.random.default_rng(5151)
    cases = []
    while len(cases) < count:
        prob, _ = random_subproblem_instance(rng)
        if len(prob.terms) != 2:
            continue
        # a certain cost pulling x off its bound
        prob = replace(prob, c=rng.uniform(-1.5, 0.0, prob.n_vars))
        scens = [reference_scenario(prob)]
        wanted = 3 + len(cases) % 2  # the reference plus 2 or 3 generated
        for _ in range(12):
            scen = solve_subproblem(prob, rng.uniform(prob.lower, prob.upper))[0]
            if all(np.max(np.abs(values(scen) - values(s))) > 1e-9 for s in scens):
                scens.append(scen)
            if len(scens) == wanted:
                cases.append((prob, scens))
                break
    return cases


class TestTwoTermMaster:
    """The per-term master against segment enumeration, on pools whose
    per-term functions can be mixed."""

    CASES = two_term_pools()

    @pytest.mark.parametrize("solver", [BranchBoundSolver(), HighsSolver()], ids=["bnb", "highs"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_enumeration(self, case, solver):
        prob, scens = self.CASES[case]
        v_enum, _ = enumerate_master(prob, scens)
        x, bound = solve_master(prob, scens, solver)
        assert bound == pytest.approx(v_enum, abs=1e-9)
        # a mix of stored per-term functions is admissible, so the bound
        # cannot exceed the adversary's value at the master's decision
        assert bound <= solve_subproblem(prob, x)[1] + 1e-9


class TestRefinementStudy:
    @staticmethod
    def builder(step):
        part = make_partition(0.0, 0.04, step)
        curve = lambda p: 9.62 * (p / 0.2) - 4.7 * (p / 0.2) ** 2
        ref = sample_reference(curve, part)
        spec = NeighborhoodSpec(ref, 0.05, 1e-3, 1.5)
        # mild pull toward charging so the optimum is interior-ish
        return ObroProblem(
            c=np.array([-30.0]), rows=[],
            lower=np.zeros(1), upper=np.array([0.04]),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0,))], names=["p"],
        )

    def test_zero_delta_family_is_stable(self):
        def builder(step):
            prob = self.builder(step)
            spec = prob.terms[0].spec
            return replace(prob, terms=[
                UncertainTerm(
                    "f1",
                    NeighborhoodSpec(spec.reference, 0.0, spec.dev_max, spec.lip_ratio),
                    (0,),
                )
            ])

        table = refinement_study(builder, [0.02, 0.01, 0.005], tol=1e-6)
        # the nominal optimizer sits on a shared grid point, so refinement
        # cannot move it
        assert max(table.x_distances[1:]) <= 1e-9
        assert table.trend_ok

    def test_step_trend(self):
        table = refinement_study(self.builder, [0.004, 0.002, 0.001], tol=1e-6)
        assert table.steps == (0.004, 0.002, 0.001)
        assert np.isnan(table.x_distances[0])
        assert len(table.values) == 3

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            refinement_study(self.builder, [0.004])
        with pytest.raises(ValueError):
            refinement_study(self.builder, [0.002, 0.004])

    def test_failure_attributed_to_step(self):
        def bad_builder(step):
            prob = self.builder(step)
            if step < 0.003:
                prob = replace(prob, rows=[Row({0: 1.0}, "<=", -1.0)])  # empty polyhedron
            return prob

        with pytest.raises(Exception, match="0.002"):
            refinement_study(bad_builder, [0.004, 0.002], tol=1e-6)

    def test_csv_shape(self):
        table = refinement_study(self.builder, [0.008, 0.004], tol=1e-6)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "step,value,x_distance_to_previous,value_distance_to_previous"
        assert len(lines) == 3


BUNDLED_ONLY = """
import sys
import obro
from obro.configio import load_config, problem_from_config
prob, options = problem_from_config(load_config("configs/two_pocket.json"))
result = obro.run(prob, options["tol"], options["max_iter"])
assert obro.verify_saddle(prob, result).outer_ok
obro.enumerate_master(prob, result.scenarios)
obro.brute_force_subproblem(prob, result.x, 5)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_bundled_solve_and_oracles_leave_scipy_unimported():
    # scipy is imported only by the HiGHS backend, so a run on the bundled
    # solver and both oracles starts without its import time
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", BUNDLED_ONLY],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
