import numpy as np
import pytest

from obro.bess import (
    Battery,
    ScheduleInputs,
    assemble_bess_problem,
    build_feeder,
    degradation_reference,
    parametric_baseline,
    schedule_from_solution,
    state_of_charge,
    voltages_for_schedule,
)
from obro.linsolve import HighsSolver
from obro.master import solve_master
from obro.model import reference_scenario, validate

from feeders import feeder_case


class TestDegradationReference:
    def test_zero_power(self):
        assert degradation_reference(0.0, 1.0, 0.2) == 0.0

    def test_benchmark_point(self):
        # depth of discharge 0.2: 9.62*0.2 - 4.7*0.04 = 1.924 - 0.188,
        # exact up to one floating rounding step
        assert abs(degradation_reference(0.04, 1.0, 0.2) - 1.736) <= 4e-16

    def test_sign_symmetry(self):
        assert degradation_reference(-0.04, 1.0, 0.2) == degradation_reference(0.04, 1.0, 0.2)

    def test_depth_over_one_rejected(self):
        with pytest.raises(ValueError, match="depth of discharge"):
            degradation_reference(0.3, 1.0, 0.2)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            degradation_reference(0.1, 1.0, 0.0)

    def test_monotone_on_benchmark_domain(self):
        # derivative 9.62 - 9.4 d stays positive up to DoD 0.2
        p = np.linspace(0, 0.04, 81)
        f = np.array([degradation_reference(v, 1.0, 0.2) for v in p])
        assert np.all(np.diff(f) > 0)


class TestBuildFeeder:
    def test_single_line(self):
        feeder = build_feeder([(0, 1, 0.01, 0.008)])
        assert feeder.r_sens[0, 0] == pytest.approx(0.02)
        assert feeder.x_sens[0, 0] == pytest.approx(0.016)

    def test_series_path_intersection(self):
        feeder = build_feeder([(0, 1, 0.01, 0.01), (1, 2, 0.01, 0.01)])
        i1, i2 = feeder.index(1), feeder.index(2)
        assert feeder.r_sens[i2, i2] == pytest.approx(0.04)
        assert feeder.r_sens[i1, i2] == pytest.approx(0.02)
        assert feeder.r_sens[i2, i1] == pytest.approx(0.02)

    def test_star_shared_trunk(self):
        feeder = build_feeder([(0, 1, 0.02, 0.01), (1, 2, 0.01, 0.01), (1, 3, 0.015, 0.01)])
        i2, i3 = feeder.index(2), feeder.index(3)
        assert feeder.r_sens[i2, i3] == pytest.approx(2 * 0.02)

    def test_leaves_without_shared_path(self):
        feeder = build_feeder([(0, 1, 0.01, 0.01), (0, 2, 0.01, 0.01)])
        assert feeder.r_sens[feeder.index(1), feeder.index(2)] == 0.0

    def test_symmetry(self):
        feeder, _ = feeder_case("bess_8node")
        np.testing.assert_allclose(feeder.r_sens, feeder.r_sens.T)
        np.testing.assert_allclose(feeder.x_sens, feeder.x_sens.T)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            build_feeder([(0, 1, 0.01, 0.01), (1, 2, 0.01, 0.01), (2, 1, 0.01, 0.01)])

    def test_detached_cycle_rejected(self):
        # every node has one feed, but 2 and 3 feed each other
        lines = [(0, 1, 0.01, 0.01), (2, 3, 0.01, 0.01), (3, 2, 0.01, 0.01)]
        with pytest.raises(ValueError, match="cycle detected at node 2"):
            build_feeder(lines)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_feeder([(0, 1, 0.01, 0.01), (5, 6, 0.01, 0.01)])


def tiny_inputs(**kw):
    defaults = dict(
        dt=1.0, n_slots=1, load_p={}, load_q={}, pv={},
        batteries=[Battery(node=1, p_max=0.04)], scheme=0.02,
    )
    defaults.update(kw)
    return ScheduleInputs(**defaults)


class TestAssemble:
    def test_single_node_row_census(self):
        feeder = build_feeder([(0, 1, 0.01, 0.008)])
        prob = assemble_bess_problem(feeder, tiny_inputs())
        assert len(prob.terms) == 1
        assert len(prob.terms[0].eval_indices) == 1
        kinds = {}
        for r in prob.rows:
            kinds[r.name.split("[")[0]] = kinds.get(r.name.split("[")[0], 0) + 1
        assert kinds["u_abs_pos"] == 1 and kinds["u_abs_neg"] == 1
        assert kinds["soc_hi"] == 1 and kinds["soc_lo"] == 1
        assert kinds["v_max"] == 1 and kinds["v_min"] == 1
        assert validate(prob) == []

    def test_benchmark_configuration_shape(self):
        feeder, inputs = feeder_case("bess_8node")
        prob = assemble_bess_problem(feeder, inputs)
        assert len(prob.terms) == 2
        assert sum(len(t.eval_indices) for t in prob.terms) == 48
        assert all(t.spec.partition.n_points == 21 for t in prob.terms)
        assert prob.epsilon == 0.1
        assert validate(prob) == []

    def test_idle_network_schedules_nothing(self):
        feeder = build_feeder([(0, 1, 0.01, 0.008)])
        prob = assemble_bess_problem(feeder, tiny_inputs(n_slots=2))
        x, eta = solve_master(prob, [reference_scenario(prob)])
        schedule = schedule_from_solution(tiny_inputs(n_slots=2), x)
        np.testing.assert_allclose(schedule, 0.0, atol=1e-9)
        assert eta == pytest.approx(0.0, abs=1e-9)

    def test_voltage_affine_consistency(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        prob = assemble_bess_problem(feeder, inputs)
        x, _ = solve_master(prob, [reference_scenario(prob)], HighsSolver())
        schedule = schedule_from_solution(inputs, x)
        volts = voltages_for_schedule(feeder, inputs, schedule)
        n_p = len(inputs.batteries) * inputs.n_slots
        u = x[n_p:].reshape(len(feeder.nodes), inputs.n_slots)
        assert np.all(u >= np.abs(volts - 1.0) - 1e-6)
        assert np.all(volts <= inputs.v_max + 1e-6)
        assert np.all(volts >= inputs.v_min - 1e-6)

    def test_soc_stays_within_bounds(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        prob = assemble_bess_problem(feeder, inputs)
        x, _ = solve_master(prob, [reference_scenario(prob)], HighsSolver())
        schedule = schedule_from_solution(inputs, x)
        soc = state_of_charge(inputs, schedule)
        for bi, b in enumerate(inputs.batteries):
            assert np.all(soc[bi] >= -1e-9)
            assert np.all(soc[bi] <= b.e_max + 1e-9)

    def test_input_validation(self):
        feeder = build_feeder([(0, 1, 0.01, 0.008)])
        with pytest.raises(ValueError, match="not in the feeder"):
            assemble_bess_problem(feeder, tiny_inputs(batteries=[Battery(node=9)]))
        with pytest.raises(ValueError, match="initial energy"):
            assemble_bess_problem(
                feeder, tiny_inputs(batteries=[Battery(node=1, e_0=0.5, e_max=0.2)])
            )
        with pytest.raises(ValueError, match="bracket"):
            assemble_bess_problem(feeder, tiny_inputs(v_min=1.01))


class TestSyntheticCase:
    def test_charging_is_forced_by_overvoltage(self):
        feeder, inputs = feeder_case("bess_8node")
        idle = voltages_for_schedule(feeder, inputs, np.zeros((2, 24)))
        assert idle.max() > inputs.v_max  # batteries must absorb
        full = voltages_for_schedule(feeder, inputs, np.full((2, 24), 0.04))
        assert full.max() < inputs.v_max  # and they can
        assert idle.min() > inputs.v_min

    def test_reduction_matches_window(self):
        feeder, inputs = feeder_case("bess_reduction")
        assert inputs.n_slots == 6
        idle = voltages_for_schedule(feeder, inputs, np.zeros((2, 6)))
        assert idle.max() > inputs.v_max


class TestParametricBaseline:
    def test_corner_selection(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        corner, schedule, value = parametric_baseline(
            feeder, inputs, (9.0, 10.0), (4.0, 5.0), HighsSolver()
        )
        assert corner == (10.0, 4.0)
        assert schedule.shape == (2, 6)
        assert value > 0

    def test_four_corner_cross_check(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        corner, schedule, _ = parametric_baseline(
            feeder, inputs, (9.0, 10.0), (4.0, 5.0), HighsSolver()
        )
        assert schedule.max() > 0  # nontrivial schedule, corners differ

        def curve_total(a, b):
            total = 0.0
            for bi, bat in enumerate(inputs.batteries):
                d = np.abs(schedule[bi]) * inputs.dt / bat.e_max
                total += float(np.sum(a * d - b * d**2))
            return total

        corners = [(9.0, 4.0), (9.0, 5.0), (10.0, 4.0), (10.0, 5.0)]
        totals = {c: curve_total(*c) for c in corners}
        assert max(totals, key=totals.get) == (10.0, 4.0) == corner

    def test_degenerate_ranges(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        corner, _, value = parametric_baseline(
            feeder, inputs, (9.62, 9.62), (4.7, 4.7), HighsSolver()
        )
        assert corner == (9.62, 4.7)
        # nominal curve: same as the reference-scenario master
        prob = assemble_bess_problem(feeder, inputs)
        _, eta = solve_master(prob, [reference_scenario(prob)], HighsSolver())
        assert value == pytest.approx(eta, abs=1e-6)

    def test_range_validation(self):
        feeder, inputs = feeder_case("bess_reduction", "sparse")
        with pytest.raises(ValueError):
            parametric_baseline(feeder, inputs, (10.0, 9.0), (4.0, 5.0))
        with pytest.raises(ValueError):
            parametric_baseline(feeder, inputs, (9.0, 10.0), (0.0, 5.0))
