"""Piecewise-linear function representation on a fixed partition.

A continuous function is captured by its values at the partition's sample
points and evaluated in between by linear interpolation.  On top of that
representation this module provides the sampled sup norm, the trapezoidal
total-deviation functional, and the membership test for the admissible
neighborhood around a reference curve (sup radius, deviation budget,
rate-of-change ratio bound).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Partition",
    "SampledFunction",
    "NeighborhoodSpec",
    "check_spec_parameters",
    "MembershipReport",
    "make_partition",
    "interp_coefficients",
    "sample_coefficients",
    "interpolate",
    "sup_distance",
    "trapezoid_deviation",
    "trapezoid_weights",
    "check_neighborhood",
    "sample_reference",
]

# Absolute tolerance used by membership checks; two orders above the LP
# feasibility tolerance, far below any meaningful problem parameter.
DEFAULT_TOL = 1e-9

# How far an evaluation coordinate may overshoot the partition range before
# it is an error rather than solver round-off (clamped silently below this).
RANGE_SLACK = 1e-6

# Most sample points a segmentation scheme may give; the shipped schemes
# have at most 51.
MAX_POINTS = 10**6


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Strictly increasing sample coordinates spanning a closed interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a read-only copy
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise PartitionError("partition needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise PartitionError("partition points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise PartitionError("partition points must be strictly increasing")

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def n_segments(self) -> int:
        return self.points.size - 1

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    def same_as(self, other: "Partition") -> bool:
        # functions of one term share their partition object
        return self is other or (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True)
class SampledFunction:
    """One value per sample point of a partition; PWL in between."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a read-only copy
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.partition.n_points,):
            raise PartitionError(
                f"need {self.partition.n_points} values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise PartitionError("sampled values must be finite")

    def __call__(self, x: float) -> float:
        return interpolate(self, x)


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Admissible set around a reference function.

    Members stay within ``delta_max`` of the reference at every sample
    point, keep their trapezoidal total deviation below ``dev_max``, and
    never change faster than ``lip_ratio`` times the reference between
    adjacent samples.
    """

    reference: SampledFunction
    delta_max: float
    dev_max: float
    lip_ratio: float

    def __post_init__(self):
        check_spec_parameters(self.delta_max, self.dev_max, self.lip_ratio)

    @property
    def partition(self) -> Partition:
        return self.reference.partition


def check_spec_parameters(delta_max: float, dev_max: float, lip_ratio: float) -> None:
    """Raise ValueError unless the radius and budget are nonnegative, not
    both infinite (the adversary LP is then unbounded), and the ratio bound
    is finite and above 1."""
    if not delta_max >= 0:
        raise ValueError("delta_max must be nonnegative")
    if not dev_max >= 0:
        raise ValueError("dev_max must be nonnegative")
    if delta_max == dev_max == np.inf:
        raise ValueError("delta_max and dev_max must not both be infinite")
    if not 1 < lip_ratio < np.inf:
        raise ValueError("lip_ratio must exceed 1 and be finite")


def make_partition(lo: float, hi: float, scheme) -> Partition:
    """Build a partition of [lo, hi] from a segmentation scheme.

    ``scheme`` is either a positive step (even segmentation; the final
    segment is shortened when the step does not divide the interval) or a
    list of ``(sub_lo, sub_hi, step)`` pieces tiling [lo, hi] with no gaps
    or overlaps, each piece gridded evenly with its own step.  Bounds and
    steps must be finite, and the scheme may give at most ``MAX_POINTS``
    points, counted before any is built.
    """
    if np.isscalar(scheme):
        pieces = [(float(lo), float(hi), float(scheme))]
    else:
        pieces = [(float(a), float(b), float(h)) for a, b, h in scheme]
    if not (np.all(np.isfinite([lo, hi])) and np.all(np.isfinite(pieces))):
        raise PartitionError("bounds and steps must be finite")
    if not lo < hi:
        raise PartitionError(f"need lo < hi, got [{lo}, {hi}]")
    if not pieces:
        raise PartitionError("need at least one piece")
    if abs(pieces[0][0] - lo) > 1e-12 * max(1.0, abs(lo)):
        raise PartitionError("first piece must start at the interval lower bound")
    if abs(pieces[-1][1] - hi) > 1e-12 * max(1.0, abs(hi)):
        raise PartitionError("last piece must end at the interval upper bound")
    for k in range(1, len(pieces)):
        a, prev = pieces[k][0], pieces[k - 1][1]
        if abs(a - prev) > 1e-12 * max(1.0, abs(a)):
            raise PartitionError(f"piece {k} starts at {a}, previous ends at {prev}")
    grids = [_even_steps(a, b, h) for a, b, h in pieces]
    if sum(n + 1 + short for n, short in grids) - (len(pieces) - 1) > MAX_POINTS:
        raise PartitionError(f"scheme gives more than {MAX_POINTS} points")
    points: list[float] = []
    for k, ((a, b, h), (n_full, short)) in enumerate(zip(pieces, grids)):
        sub = [a + p * h for p in range(int(n_full) + 1)]
        if short:
            sub.append(b)  # short final segment
        else:
            sub[-1] = b  # step divides the piece; snap the rounded endpoint
        points.extend(sub if k == 0 else sub[1:])
    points[0], points[-1] = lo, hi
    return Partition(np.array(points))


def _even_steps(lo: float, hi: float, step: float) -> tuple:
    """Full steps of the even grid of [lo, hi], as a float so that a
    vanishing step counts as inf rather than building a list, and whether
    a short final segment follows them."""
    if step <= 0:
        raise PartitionError(f"step must be positive, got {step}")
    if hi < lo:
        raise PartitionError(f"piece [{lo}, {hi}] runs backwards")
    n_full = np.floor((hi - lo) / step + 1e-9)
    return n_full, bool(lo + n_full * step < hi - 1e-9 * max(1.0, abs(hi - lo)))


def interp_coefficients(part: Partition, x: float):
    """Locate ``x`` in the partition: (segment index, alpha_lo, alpha_hi).

    Segment indices are 0-based; ``x == alpha_lo * points[p] + alpha_hi *
    points[p + 1]`` with the coefficients in [0, 1] summing to one.  An ``x``
    equal to an interior sample point resolves to the segment on its left
    (alpha_hi = 1).  Coordinates within ``RANGE_SLACK`` outside the range
    are clamped; beyond that, or NaN, is an error.
    """
    pts = part.points
    if not pts[0] - RANGE_SLACK <= x <= pts[-1] + RANGE_SLACK:
        raise PartitionError(f"{x} outside partition range [{pts[0]}, {pts[-1]}]")
    x = min(max(float(x), float(pts[0])), float(pts[-1]))
    i = bisect.bisect_left(pts, x)
    p = max(i - 1, 0)
    width = pts[p + 1] - pts[p]
    alpha_hi = (x - pts[p]) / width
    alpha_hi = min(max(alpha_hi, 0.0), 1.0)
    return p, 1.0 - alpha_hi, alpha_hi


def sample_coefficients(part: Partition, coords) -> np.ndarray:
    """Per-sample coefficients of a sum of evaluations: for any function
    ``f`` on ``part``, ``sum(f(x) for x in coords)`` equals
    ``sample_coefficients(part, coords) @ f.values`` up to rounding.
    Contributions are accumulated in the order of ``coords``."""
    coeff = np.zeros(part.n_points)
    for x in coords:
        p, a_lo, a_hi = interp_coefficients(part, x)
        coeff[p] += a_lo
        coeff[p + 1] += a_hi
    return coeff


def interpolate(f: SampledFunction, x: float) -> float:
    p, a_lo, a_hi = interp_coefficients(f.partition, x)
    return a_lo * f.values[p] + a_hi * f.values[p + 1]


def _require_same_partition(f: SampledFunction, g: SampledFunction):
    if not f.partition.same_as(g.partition):
        raise PartitionError("functions live on different partitions")


def sup_distance(f: SampledFunction, g: SampledFunction) -> float:
    """Sup norm of f - g, exact for PWL functions on a shared partition."""
    _require_same_partition(f, g)
    return float(np.max(np.abs(f.values - g.values)))


def trapezoid_deviation(f: SampledFunction, ref: SampledFunction) -> float:
    """Trapezoidal quadrature of |f - ref| over the partition interval."""
    _require_same_partition(f, ref)
    s = np.abs(f.values - ref.values)
    dx = np.diff(f.partition.points)
    return float(np.sum(0.5 * (s[1:] + s[:-1]) * dx))


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Per-sample weights of the trapezoidal rule on ``points``: the
    quadrature of samples ``s`` is ``s @ trapezoid_weights(points)``."""
    dx = np.diff(points)
    w = np.zeros(points.size)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


@dataclass(frozen=True)
class MembershipReport:
    """Per-constraint outcome of a neighborhood membership check.

    Violation magnitudes are already net of the allowed bound (0 means
    exactly on the boundary); a family passes when its violation does not
    exceed the check tolerance.
    """

    sup_ok: bool
    sup_violation: float
    dev_ok: bool
    dev_violation: float
    ratio_ok: bool
    ratio_violation: float

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.dev_ok and self.ratio_ok

    def __str__(self):
        rows = [
            ("sup bound", self.sup_ok, self.sup_violation),
            ("deviation budget", self.dev_ok, self.dev_violation),
            ("ratio bound", self.ratio_ok, self.ratio_violation),
        ]
        return "; ".join(
            f"{name}: {'ok' if ok else f'violated by {v:.3e}'}" for name, ok, v in rows
        )


def check_neighborhood(
    f: SampledFunction, spec: NeighborhoodSpec, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Test sample-point membership of ``f`` in the neighborhood ``spec``.

    Checks, in order: the sup bound at the sample points, the trapezoidal
    deviation budget, and the adjacent-sample ratio bound.  A flat reference
    segment forces the candidate to be flat there as well (the ratio bound
    degenerates to equality).
    """
    ref = spec.reference
    _require_same_partition(f, ref)
    diff = np.abs(f.values - ref.values)
    sup_violation = float(max(np.max(diff) - spec.delta_max, 0.0))
    dev_violation = float(max(trapezoid_deviation(f, ref) - spec.dev_max, 0.0))
    step_f = np.abs(np.diff(f.values))
    step_ref = np.abs(np.diff(ref.values))
    ratio_violation = float(max(np.max(step_f - spec.lip_ratio * step_ref), 0.0))
    return MembershipReport(
        sup_ok=sup_violation <= tol,
        sup_violation=sup_violation,
        dev_ok=dev_violation <= tol,
        dev_violation=dev_violation,
        ratio_ok=ratio_violation <= tol,
        ratio_violation=ratio_violation,
    )


def sample_reference(fn, part: Partition) -> SampledFunction:
    """Sample a scalar closed-form evaluator onto a partition."""
    values = np.array([float(fn(x)) for x in part.points])
    if not np.all(np.isfinite(values)):
        bad = part.points[~np.isfinite(values)][0]
        raise ValueError(f"evaluator returned non-finite value at x={bad}")
    return SampledFunction(part, values)
