from dataclasses import FrozenInstanceError, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from obro import master, model, pwl, subproblem
from obro.bess import assemble_bess_problem
from obro.configio import load_config, problem_from_config
from obro.engine import run
from obro.oracle import brute_force_subproblem
from obro.linsolve import Row
from obro.model import (
    ObroProblem,
    Scenario,
    UncertainTerm,
    evaluate_v,
    reference_scenario,
    scenario_issues,
    validate,
)
from obro.pwl import (
    NeighborhoodSpec,
    Partition,
    SampledFunction,
    interp_coefficients,
    trapezoid_deviation,
)
from obro.subproblem import solve_subproblem

from feeders import feeder_case


def identity_spec(points=(0.0, 1.0), delta=0.1, dev=10.0, lip=2.0):
    part = Partition(np.asarray(points, float))
    ref = SampledFunction(part, part.points.copy())
    return NeighborhoodSpec(ref, delta, dev, lip)


def one_term_problem(points=(0.0, 1.0), epsilon=0.1, **spec_kw):
    spec = identity_spec(points, **spec_kw)
    term = UncertainTerm("f1", spec, (0,))
    return ObroProblem(
        c=np.zeros(1),
        rows=[],
        lower=np.array([points[0]]),
        upper=np.array([points[-1]]),
        epsilon=epsilon,
        terms=[term],
        names=["x"],
    )


class TestValidate:
    def test_well_formed(self):
        assert validate(one_term_problem()) == []

    def test_duplicate_evaluation_variable(self):
        spec = identity_spec()
        prob = ObroProblem(
            c=np.zeros(1),
            rows=[],
            lower=np.zeros(1),
            upper=np.ones(1),
            epsilon=0.1,
            terms=[UncertainTerm("f1", spec, (0,)), UncertainTerm("f2", spec, (0,))],
        )
        issues = validate(prob)
        assert any("duplicate evaluation variable" in s for s in issues)

    def test_bounds_exceed_partition(self):
        prob = replace(one_term_problem(), lower=np.array([-1.0]), upper=np.array([2.0]))
        issues = validate(prob)
        assert any("exceed partition" in s for s in issues)

    def test_nonpositive_epsilon(self):
        prob = replace(one_term_problem(), epsilon=0.0)
        issues = validate(prob)
        assert any("epsilon" in s for s in issues), issues

    def test_nan_epsilon(self):
        # NaN fails no ``<= 0`` test; it used to reach the master
        issues = validate(replace(one_term_problem(), epsilon=np.nan))
        assert issues == ["epsilon: must be positive"]

    def test_infinite_epsilon(self):
        # every adversary value was NaN, so the loop kept no incumbent
        prob = replace(one_term_problem(), epsilon=np.inf)
        assert validate(prob) == ["epsilon: must be finite"]
        with pytest.raises(ValueError, match="epsilon: must be finite"):
            run(prob)

    def test_no_terms(self):
        # an empty problem used to pass, then fail in the loop's first
        # distance check
        prob = replace(one_term_problem(), terms=[])
        assert validate(prob) == ["terms: need at least one uncertain term"]
        with pytest.raises(ValueError, match="^invalid problem: terms: need"):
            run(prob)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_cost(self, value):
        # -inf converged with a NaN gap; +inf crashed the loop
        prob = replace(one_term_problem(), c=np.array([value]))
        assert validate(prob) == ["c[x]: must be finite"]
        with pytest.raises(ValueError, match=r"c\[x\]: must be finite"):
            run(prob)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_coefficient(self, value):
        # inf times a zero shift made the simplex's row constant NaN
        prob = replace(one_term_problem(), rows=[Row({0: value}, "<=", 1.0)])
        assert validate(prob) == ["rows[0]: coefficient of x must be finite"]

    def test_nan_row_rhs(self):
        # it passed, then the bundled master read unbounded and HiGHS's
        # polyhedron empty
        config = Path(__file__).resolve().parent.parent / "configs" / "two_term_coupled.json"
        prob, _ = problem_from_config(load_config(config))
        prob = replace(prob, rows=[replace(prob.rows[0], rhs=np.nan)])
        assert validate(prob) == ["rows[0]: rhs must not be NaN"]
        with pytest.raises(ValueError, match=r"rows\[0\]: rhs must not be NaN"):
            run(prob)

    def test_nan_bound_on_free_column(self):
        # only evaluated columns needed finite bounds; a NaN lower bound on
        # a voltage auxiliary made the master's polyhedron read empty
        prob = assemble_bess_problem(*feeder_case("bess_reduction", "sparse"))
        lower = prob.lower.copy()
        lower[prob.names.index("u[2][0]")] = np.nan
        prob = replace(prob, lower=lower)
        assert validate(prob) == ["bounds[u[2][0]]: must not be NaN"]
        with pytest.raises(ValueError, match=r"bounds\[u\[2\]\[0\]\]: must not be NaN"):
            prob.master

    def test_infinite_row_rhs_is_accepted(self):
        rows = [Row({0: 1.0}, "<=", np.inf), Row({0: -1.0}, "<=", np.inf)]
        assert validate(replace(one_term_problem(), rows=rows)) == []

    def test_infinite_eval_bounds(self):
        prob = replace(one_term_problem(), upper=np.array([np.inf]))
        assert any("finite box bounds" in s for s in validate(prob))

    def test_names_need_one_per_variable(self):
        # a short list used to pass, then fail in the master's row names
        prob = ObroProblem(
            np.zeros(2), [], np.zeros(2), np.ones(2), 0.1,
            [UncertainTerm("f1", identity_spec(), (1,))], names=["a"],
        )
        assert validate(prob) == ["names: need one name per variable (got 1 for 2)"]
        assert validate(replace(prob, names=["a", "b"])) == []
        assert validate(replace(prob, names=None)) == []


class TestFrozenProblem:
    """A problem cannot change once built, so the blocks it caches always
    describe it; a changed problem comes from ``dataclasses.replace``."""

    def test_fields_cannot_be_reassigned(self):
        prob = one_term_problem()
        for name in ("c", "rows", "lower", "upper", "epsilon", "terms", "names",
                     "adversary", "master"):
            with pytest.raises(FrozenInstanceError):
                setattr(prob, name, None)

    def test_arrays_and_sequences_are_read_only_copies(self):
        c = np.zeros(1)
        rows = [Row({0: 1.0}, "<=", 0.4)]
        terms = [UncertainTerm("f1", identity_spec(), (0,))]
        prob = ObroProblem(c, rows, [0], [1], 0.1, terms, ["x"])
        c[0] = 1.0
        rows.append(Row({0: -1.0}, "<=", 0.0))
        terms.clear()
        assert prob.c[0] == 0.0 and len(prob.rows) == 1 and len(prob.terms) == 1
        for a in (prob.c, prob.lower, prob.upper):
            assert a.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
        assert (type(prob.rows), type(prob.terms), prob.names) == (tuple, tuple, ("x",))
        with pytest.raises(TypeError):
            prob.terms[0] = prob.terms[0]

    def test_blocks_are_cached_properties(self):
        assert {f.name for f in fields(ObroProblem)} == {
            "c", "rows", "lower", "upper", "epsilon", "terms", "names"
        }
        for name in ("adversary", "master"):
            assert isinstance(vars(ObroProblem)[name], cached_property)
        prob = one_term_problem()
        assert "adversary" not in vars(prob) and "master" not in vars(prob)
        assert prob.adversary is prob.adversary and prob.master is prob.master

    def test_replace_builds_its_own_validated_blocks(self, monkeypatch):
        validated = []
        for module in (subproblem, master):
            def counted(prob, original=module.validate):
                validated.append(prob)
                return original(prob)

            monkeypatch.setattr(module, "validate", counted)
        prob = one_term_problem()
        adversary, held = prob.adversary, prob.master
        cheap = replace(prob, c=np.array([-2.0]))
        assert "adversary" not in vars(cheap) and "master" not in vars(cheap)
        assert cheap.adversary is not adversary and cheap.master is not held
        assert prob.adversary is adversary and prob.master is held
        assert [p is prob for p in validated] == [True, True, False, False]
        assert all(p is cheap for p in validated[2:])
        assert (prob.master.mip.lp.c[0], cheap.master.mip.lp.c[0]) == (0.0, -2.0)

    def test_rows_cannot_be_edited_in_place(self):
        # An edited row used to leave the master built by the first run
        # stale: the second run raised "decision vector infeasible".
        config = Path(__file__).resolve().parent.parent / "configs" / "two_pocket.json"
        base, options = problem_from_config(load_config(config))
        prob = replace(base, rows=[Row({0: 1.0}, "<=", 1.0)])
        first = run(prob, **options)
        with pytest.raises(FrozenInstanceError):
            prob.rows[0].rhs = 0.2
        with pytest.raises(TypeError):
            prob.rows[0].coeffs[0] = 5.0
        assert prob.rows[0] == Row({0: 1.0}, "<=", 1.0)
        assert run(prob, **options).ub == first.ub

        coeffs = {0: 1.0}
        tight = replace(prob, rows=[Row(coeffs, "<=", 0.2)])
        coeffs[0] = 5.0  # the row holds its own copy
        assert dict(tight.rows[0].coeffs) == {0: 1.0}
        result = run(tight, **options)
        assert result.converged and result.x[0] == pytest.approx(0.2)
        assert result.ub == pytest.approx(0.35, abs=1e-9) and first.ub < 0.35


class TestEvaluateV:
    def test_reference_scenario_identity(self):
        prob = one_term_problem()
        scen = reference_scenario(prob)
        assert evaluate_v(prob, scen, np.array([0.5])) == pytest.approx(0.5)

    def test_deviation_penalty(self):
        # constant +0.25 shift of an identity reference on {0, 2, 4} has
        # trapezoid deviation 0.25 * 4 = 1, so V = f(0) - eps * 1
        part = Partition(np.array([0.0, 2.0, 4.0]))
        ref = SampledFunction(part, part.points.copy())
        spec = NeighborhoodSpec(ref, 0.5, 10.0, 2.0)
        prob = ObroProblem(
            c=np.zeros(1), rows=[], lower=np.zeros(1), upper=np.full(1, 4.0),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0,))],
        )
        shifted = SampledFunction(part, ref.values + 0.25)
        dev = trapezoid_deviation(shifted, ref)
        assert dev == pytest.approx(1.0)
        scen = Scenario((shifted,))
        assert evaluate_v(prob, scen, np.array([0.0])) == pytest.approx(0.15)

    def test_two_evaluation_points(self):
        spec = identity_spec()
        prob = ObroProblem(
            c=np.zeros(2), rows=[], lower=np.zeros(2), upper=np.ones(2),
            epsilon=0.1, terms=[UncertainTerm("f1", spec, (0, 1))],
        )
        scen = reference_scenario(prob)
        assert evaluate_v(prob, scen, np.array([0.25, 0.75])) == pytest.approx(1.0)

    def test_infeasible_decision_rejected(self):
        prob = replace(one_term_problem(), rows=[Row({0: 1.0}, "<=", 0.4)])
        with pytest.raises(ValueError, match="infeasible"):
            evaluate_v(prob, reference_scenario(prob), np.array([0.6]))

    def test_nan_decision_rejected(self):
        # a NaN decision used to be valued NaN by evaluate_v and by the
        # adversary LP, and to leave the grid oracle with no feasible point
        config = Path(__file__).resolve().parent.parent / "configs" / "two_pocket.json"
        prob, _ = problem_from_config(load_config(config))
        x = np.array([np.nan])
        with pytest.raises(ValueError, match="decision vector infeasible by nan"):
            evaluate_v(prob, reference_scenario(prob), x)
        with pytest.raises(pwl.PartitionError, match="nan outside partition range"):
            solve_subproblem(prob, x)
        with pytest.raises(pwl.PartitionError, match="nan outside partition range"):
            brute_force_subproblem(prob, x, 5)

    def test_piecewise_linearity_within_segment(self):
        # V at the reference scenario must be linear in the coordinate
        # within one segment: check the interpolation identity directly
        prob = one_term_problem(points=(0.0, 0.5, 1.0))
        scen = reference_scenario(prob)
        part = prob.terms[0].spec.partition
        for x in (0.1, 0.3, 0.45):
            p, a_lo, a_hi = interp_coefficients(part, x)
            expected = a_lo * scen.functions[0].values[p] + a_hi * scen.functions[0].values[p + 1]
            assert evaluate_v(prob, scen, np.array([x])) == pytest.approx(expected)

    def test_certain_cost_term(self):
        prob = replace(one_term_problem(), c=np.array([2.0]))
        scen = reference_scenario(prob)
        assert evaluate_v(prob, scen, np.array([0.5])) == pytest.approx(0.5 + 1.0)


def test_scenario_issues_integrates_each_deviation_once(monkeypatch):
    integrate = pwl.trapezoid_deviation
    calls = []

    def counting(f, ref):
        calls.append(f)
        return integrate(f, ref)

    monkeypatch.setattr(pwl, "trapezoid_deviation", counting)
    # a second integration would come through model's own import of it
    monkeypatch.setattr(model, "trapezoid_deviation", counting, raising=False)
    spec = identity_spec(points=(0.0, 0.5, 1.0), dev=0.01)
    prob = ObroProblem(
        c=np.zeros(2), rows=[], lower=np.zeros(2), upper=np.ones(2), epsilon=0.1,
        terms=[UncertainTerm("f1", spec, (0,)), UncertainTerm("f2", spec, (1,))],
        names=["x", "y"],
    )
    ref = spec.reference
    lifted = SampledFunction(ref.partition, ref.values + 0.05)  # deviation 0.05
    assert scenario_issues(prob, Scenario((ref, lifted))) == [
        "terms[1]: sup bound: ok; deviation budget: violated by 4.000e-02; ratio bound: ok"
    ]
    assert len(calls) == 2
