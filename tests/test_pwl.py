import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obro import pwl
from obro.pwl import (
    NeighborhoodSpec,
    Partition,
    PartitionError,
    SampledFunction,
    check_neighborhood,
    interp_coefficients,
    interpolate,
    make_partition,
    sample_coefficients,
    sample_reference,
    sup_distance,
    trapezoid_deviation,
)


def sf(points, values):
    return SampledFunction(Partition(np.asarray(points, float)), np.asarray(values, float))


class TestPartition:
    def test_even_scheme_exact_division(self):
        part = make_partition(0.0, 0.04, 0.002)
        assert part.n_points == 21
        np.testing.assert_allclose(part.points, np.linspace(0, 0.04, 21), atol=1e-15)
        assert part.points[-1] == 0.04

    def test_two_point_partition(self):
        part = make_partition(0.0, 1.0, 1.0)
        np.testing.assert_array_equal(part.points, [0.0, 1.0])

    def test_heterogeneous_point_count(self):
        # direct enumeration: 0:0.0008:0.02 has 26 points, 0.02:0.002:0.04
        # has 11, sharing the breakpoint 0.02 -> 36 points
        part = make_partition(0.0, 0.04, [(0.0, 0.02, 0.0008), (0.02, 0.04, 0.002)])
        first = len(np.arange(0, 26))
        second = 11
        assert part.n_points == first + second - 1 == 36
        assert part.points[0] == 0.0 and part.points[-1] == 0.04
        assert np.any(np.isclose(part.points, 0.02))

    def test_short_final_segment(self):
        part = make_partition(0.0, 1.0, 0.3)
        np.testing.assert_allclose(part.points, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_rejects_bad_schemes(self):
        with pytest.raises(PartitionError):
            make_partition(0.0, 1.0, -0.1)
        with pytest.raises(PartitionError):
            make_partition(0.0, 1.0, [(0.0, 0.4, 0.1), (0.5, 1.0, 0.1)])  # gap
        with pytest.raises(PartitionError):
            make_partition(1.0, 0.0, 0.1)
        with pytest.raises(PartitionError, match="need at least one piece"):
            make_partition(0.0, 1.0, [])

    @pytest.mark.parametrize(
        "lo, hi, scheme",
        [
            (0.0, np.inf, 0.5),
            (-np.inf, 1.0, 0.5),
            (0.0, 1.0, np.inf),
            (0.0, 1.0, np.nan),
            (0.0, 1.0, [(0.0, 0.5, np.inf), (0.5, 1.0, 0.1)]),
            (0.0, 1.0, [(0.0, np.inf, 0.1), (np.inf, 1.0, 0.1)]),
        ],
    )
    def test_rejects_non_finite_bounds_and_steps(self, lo, hi, scheme):
        with pytest.raises(PartitionError, match="must be finite"):
            make_partition(lo, hi, scheme)

    def test_rejects_backward_piece(self):
        # the pieces tile [0, 1] end to end, but the middle one runs back
        with pytest.raises(PartitionError, match="runs backwards"):
            make_partition(0.0, 1.0, [(0.0, 0.5, 0.1), (0.5, 0.3, 0.1), (0.3, 1.0, 0.1)])

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 1e-7])
    def test_point_cap_counts_before_building(self, step):
        # 1e-300 would ask for 1e300 points and 5e-324 for inf of them
        with pytest.raises(PartitionError, match="more than 1000000 points"):
            make_partition(0.0, 1.0, step)

    def test_point_cap_is_inclusive_and_sums_pieces(self, monkeypatch):
        monkeypatch.setattr(pwl, "MAX_POINTS", 11)
        assert make_partition(0.0, 1.0, 0.1).n_points == 11
        with pytest.raises(PartitionError, match="more than 11 points"):
            make_partition(0.0, 1.0, 0.09)  # 12 grid points, then the end at 1
        # 6 + 6 points sharing the breakpoint
        assert make_partition(0.0, 1.0, [(0.0, 0.5, 0.1), (0.5, 1.0, 0.1)]).n_points == 11
        with pytest.raises(PartitionError, match="more than 11 points"):
            make_partition(0.0, 1.0, [(0.0, 0.5, 0.1), (0.5, 1.0, 0.08)])

    def test_points_and_values_are_read_only_copies(self):
        points, values = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        f = SampledFunction(Partition(points), values)
        points[1], values[1] = 5.0, 5.0
        np.testing.assert_array_equal(f.partition.points, [0.0, 1.0])
        np.testing.assert_array_equal(f.values, [1.0, 2.0])
        for a in (f.partition.points, f.values):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    def test_rejects_non_increasing_points(self):
        with pytest.raises(PartitionError):
            Partition(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(PartitionError):
            Partition(np.array([0.5]))


class TestInterpolation:
    def test_midpoint_of_second_segment(self):
        part = Partition(np.array([0.0, 0.5, 1.0]))
        p, a_lo, a_hi = interp_coefficients(part, 0.75)
        assert p == 1
        assert a_lo == pytest.approx(0.5) and a_hi == pytest.approx(0.5)

    def test_interior_sample_point_left_tie_break(self):
        part = Partition(np.array([0.0, 0.5, 1.0]))
        p, a_lo, a_hi = interp_coefficients(part, 0.5)
        assert (p, a_lo, a_hi) == (0, 0.0, 1.0)

    def test_quarter_coefficients(self):
        # solving x = a*0 + (1-a)*0.002 for x = 0.0015 by hand: a = 0.25
        part = make_partition(0.0, 0.04, 0.002)
        p, a_lo, a_hi = interp_coefficients(part, 0.0015)
        assert p == 0
        assert a_lo == pytest.approx(0.25) and a_hi == pytest.approx(0.75)

    def test_out_of_range_raises(self):
        part = Partition(np.array([0.0, 1.0]))
        with pytest.raises(PartitionError):
            interp_coefficients(part, 1.5)
        with pytest.raises(PartitionError):
            interp_coefficients(part, -0.5)

    def test_solver_roundoff_is_clamped(self):
        part = Partition(np.array([0.0, 1.0]))
        p, a_lo, a_hi = interp_coefficients(part, 1.0 + 1e-9)
        assert (p, a_hi) == (0, 1.0)

    def test_interpolate_values(self):
        f = sf([0.0, 0.5, 1.0], [0.0, 1.0, 4.0])
        assert interpolate(f, 0.75) == pytest.approx(2.5)
        assert interpolate(f, 0.5) == pytest.approx(1.0)

    def test_interpolate_degradation_grid_midpoint(self):
        # halfway between two samples the PWL value is their mean
        curve = lambda p: 9.62 * (abs(p) / 0.2) - 4.7 * (abs(p) / 0.2) ** 2
        part = make_partition(0.0, 0.04, 0.002)
        f = sample_reference(curve, part)
        expected = 0.5 * (curve(0.002) + curve(0.004))
        assert interpolate(f, 0.003) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_coefficients_reconstruct_x(self, x):
        part = Partition(np.array([0.0, 0.17, 0.5, 0.62, 1.0]))
        p, a_lo, a_hi = interp_coefficients(part, x)
        assert 0.0 <= a_lo <= 1.0 and 0.0 <= a_hi <= 1.0
        assert a_lo + a_hi == pytest.approx(1.0, abs=1e-12)
        rebuilt = a_lo * part.points[p] + a_hi * part.points[p + 1]
        assert rebuilt == pytest.approx(x, abs=1e-12)

    def test_sample_coefficients_sum_evaluations(self):
        f = sf([0.0, 0.5, 1.0], [0.0, 1.0, 4.0])
        coords = [0.75, 0.5, 0.25, 0.75]
        coeff = sample_coefficients(f.partition, coords)
        # 0.5 sits on segment 0's right end; 0.75 counts twice
        np.testing.assert_array_equal(coeff, [0.5, 2.5, 1.0])
        assert coeff @ f.values == pytest.approx(sum(interpolate(f, x) for x in coords))

    def test_exact_at_sample_points(self):
        rng = np.random.default_rng(3)
        part = Partition(np.sort(rng.uniform(0, 1, 7)) + np.arange(7) * 0.01)
        f = SampledFunction(part, rng.normal(size=7))
        for p in range(part.n_points):
            assert interpolate(f, part.points[p]) == pytest.approx(f.values[p], abs=1e-14)


class TestNormsAndDeviation:
    def test_sup_distance_basics(self):
        assert sup_distance(sf([0, 1], [0, 1]), sf([0, 1], [0, 1])) == 0.0
        assert sup_distance(sf([0, 1], [0, 1.1]), sf([0, 1], [0, 1])) == pytest.approx(0.1)
        assert sup_distance(sf([0, 1, 2], [1, 2, 3]), sf([0, 1, 2], [3, 2, 1])) == 2.0

    def test_sup_distance_partition_mismatch(self):
        with pytest.raises(PartitionError):
            sup_distance(sf([0, 1], [0, 1]), sf([0, 2], [0, 1]))

    def test_trapezoid_deviation_zero_iff_equal(self):
        f = sf([0, 1, 2], [3.0, 1.0, 2.0])
        assert trapezoid_deviation(f, f) == 0.0

    def test_trapezoid_triangle_profile(self):
        ref = sf([0, 1, 2], [0.0, 0.0, 0.0])
        f = sf([0, 1, 2], [0.0, 1.0, 0.0])
        assert trapezoid_deviation(f, ref) == pytest.approx(1.0)

    def test_trapezoid_constant_offset(self):
        ref = sf([0.0, 0.02, 0.04], [1.0, 2.0, 3.0])
        f = sf([0.0, 0.02, 0.04], [1.1, 2.1, 3.1])
        assert trapezoid_deviation(f, ref) == pytest.approx(0.004)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        part = Partition(np.cumsum(rng.uniform(0.1, 1.0, 4)))
        f, g, h = (SampledFunction(part, rng.normal(size=4)) for _ in range(3))
        # symmetry and triangle inequality for both the sup metric and the
        # deviation functional
        assert sup_distance(f, g) == sup_distance(g, f)
        assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h) + 1e-12
        assert trapezoid_deviation(f, g) == trapezoid_deviation(g, f)
        assert (
            trapezoid_deviation(f, h)
            <= trapezoid_deviation(f, g) + trapezoid_deviation(g, h) + 1e-12
        )
        assert sup_distance(f, g) >= 0 and trapezoid_deviation(f, g) >= 0


class TestNeighborhood:
    def make_spec(self, delta=0.1, dev=10.0, lip=2.0):
        ref = sf([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        return NeighborhoodSpec(ref, delta, dev, lip)

    def test_reference_is_member(self):
        spec = self.make_spec()
        report = check_neighborhood(spec.reference, spec)
        assert report.passed

    def test_sup_bound_violation(self):
        spec = self.make_spec(delta=0.1)
        f = sf([0.0, 0.5, 1.0], [0.0, 0.5 + 0.2, 1.0])
        report = check_neighborhood(f, spec)
        assert not report.sup_ok
        assert report.sup_violation == pytest.approx(0.1)

    def test_deviation_budget_violation(self):
        spec = self.make_spec(delta=1.0, dev=0.01)
        f = sf([0.0, 0.5, 1.0], [0.5, 1.0, 1.5])
        report = check_neighborhood(f, spec)
        assert not report.dev_ok

    def test_flat_reference_segment_forces_flat_candidate(self):
        # a flat reference segment gives the ratio bound a zero right side,
        # so the candidate must be flat there too
        ref = sf([0.0, 1.0, 2.0], [1.0, 1.0, 2.0])
        spec = NeighborhoodSpec(ref, 0.5, 10.0, 2.0)
        f = sf([0.0, 1.0, 2.0], [0.9, 1.1, 2.0])
        report = check_neighborhood(f, spec)
        assert not report.ratio_ok
        assert report.ratio_violation == pytest.approx(0.2)
        flat = sf([0.0, 1.0, 2.0], [1.1, 1.1, 2.0])
        assert check_neighborhood(flat, spec).passed

    def test_spec_parameter_validation(self):
        ref = sf([0, 1], [0, 1])
        with pytest.raises(ValueError):
            NeighborhoodSpec(ref, -0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            NeighborhoodSpec(ref, 0.1, -1.0, 2.0)
        with pytest.raises(ValueError):
            NeighborhoodSpec(ref, 0.1, 1.0, 1.0)
        for bad in ((np.nan, 1.0, 2.0), (0.1, np.nan, 2.0), (0.1, 1.0, np.nan)):
            with pytest.raises(ValueError, match="must"):
                NeighborhoodSpec(ref, *bad)
        # an infinite ratio bound times a flat step is NaN; an infinite
        # radius or budget means no bound, but not both, which would leave
        # the adversary LP unbounded
        with pytest.raises(ValueError, match="finite"):
            NeighborhoodSpec(ref, 0.1, 1.0, np.inf)
        with pytest.raises(ValueError, match="not both be infinite"):
            NeighborhoodSpec(ref, np.inf, np.inf, 2.0)
        NeighborhoodSpec(ref, np.inf, 1.0, 2.0)
        NeighborhoodSpec(ref, 0.1, np.inf, 2.0)


class TestSampleReference:
    def test_identity(self):
        part = Partition(np.array([0.0, 0.5, 1.0]))
        f = sample_reference(lambda x: x, part)
        np.testing.assert_array_equal(f.values, part.points)

    def test_degradation_curve_values(self):
        curve = lambda p: 9.62 * (abs(p) * 1.0 / 0.2) - 4.7 * (abs(p) * 1.0 / 0.2) ** 2
        part = Partition(np.array([0.0, 0.02, 0.04]))
        f = sample_reference(curve, part)
        np.testing.assert_allclose(f.values, [0.0, 0.915, 1.736], atol=1e-12)

    def test_constant(self):
        part = Partition(np.array([0.0, 1.0]))
        f = sample_reference(lambda x: 2.5, part)
        np.testing.assert_array_equal(f.values, [2.5, 2.5])

    def test_non_finite_rejected(self):
        part = Partition(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            sample_reference(lambda x: np.inf if x > 0.5 else 0.0, part)


def test_refinement_shrinks_interpolation_error():
    # smooth target: halving an even step must reduce the sup error of the
    # sampled interpolant (checked on 0.004 -> 0.002 -> 0.001)
    curve = lambda p: 9.62 * (p / 0.2) - 4.7 * (p / 0.2) ** 2
    dense = np.linspace(0.0, 0.04, 2001)
    errors = []
    for step in (0.004, 0.002, 0.001):
        part = make_partition(0.0, 0.04, step)
        f = sample_reference(curve, part)
        errors.append(max(abs(interpolate(f, x) - curve(x)) for x in dense))
    assert errors[0] > errors[1] > errors[2]
