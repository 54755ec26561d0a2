"""Problem description for min-max optimization over uncertain objectives.

A problem couples a polyhedral decision set with a certain linear cost and
a list of uncertain terms.  Each term owns a neighborhood of admissible
functions around its reference curve and the decision coordinates at which
the function is evaluated.  The value functional charges the certain cost,
the interpolated function values, and a deviation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from obro.linsolve import FEAS_TOL, primal_violation
from obro.pwl import (
    NeighborhoodSpec,
    check_neighborhood,
    interpolate,
    trapezoid_deviation,
)

__all__ = [
    "UncertainTerm",
    "ObroProblem",
    "Scenario",
    "validate",
    "evaluate_v",
    "reference_scenario",
]


@dataclass(frozen=True)
class UncertainTerm:
    """One adversarially chosen function and where it enters the objective."""

    name: str
    spec: NeighborhoodSpec
    eval_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "eval_indices", tuple(int(e) for e in self.eval_indices))
        if not self.eval_indices:
            raise ValueError(f"term {self.name!r} has no evaluation variables")


@dataclass(frozen=True)
class ObroProblem:
    """min over the polyhedron, max over the admissible functions.

    The decision vector may carry auxiliary coordinates beyond the
    evaluation variables; ``rows`` is the polyhedron A x <= b, on top of
    the per-variable box bounds.  The problem holds read-only float copies
    of ``c``, ``lower`` and ``upper`` and tuples of ``rows``, ``terms`` and
    ``names``, so a changed problem comes only from `dataclasses.replace`.
    The cached properties ``adversary`` (`subproblem.AdversaryBlock`) and
    ``master`` (`master.MasterBlock`) are built and validated on first use.
    """

    c: np.ndarray
    rows: tuple
    lower: np.ndarray
    upper: np.ndarray
    epsilon: float
    terms: tuple
    names: tuple | None = None

    def __post_init__(self):
        for name in ("c", "lower", "upper"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        for name in ("rows", "terms", "names"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def n_vars(self) -> int:
        return self.c.size

    def var_name(self, j: int) -> str:
        return self.names[j] if self.names else f"x{j}"

    @cached_property
    def adversary(self):
        from obro.subproblem import adversary_block

        return adversary_block(self)

    @cached_property
    def master(self):
        from obro.master import master_block

        return master_block(self)


@dataclass(frozen=True)
class Scenario:
    """One generated worst-case function per term; each deviation is taken
    by quadrature where it is used."""

    functions: tuple

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))


def reference_scenario(prob: ObroProblem) -> Scenario:
    """The nominal scenario: every term at its reference, zero deviation."""
    return Scenario(tuple(t.spec.reference for t in prob.terms))


def validate(prob: ObroProblem) -> list:
    """Collect every invariant violation as a human-readable string.

    An empty list is the precondition for the solve entry points.
    """
    issues = []
    n = prob.n_vars
    if prob.names is not None and len(prob.names) != n:
        return [f"names: need one name per variable (got {len(prob.names)} for {n})"]
    if prob.lower.shape != (n,) or prob.upper.shape != (n,):
        issues.append("bounds: arrays must match the variable count")
        return issues
    if not prob.epsilon > 0:
        issues.append("epsilon: must be positive")
    elif prob.epsilon == np.inf:
        issues.append("epsilon: must be finite")
    if not prob.terms:
        issues.append("terms: need at least one uncertain term")
    for j in np.flatnonzero(np.isnan(prob.lower) | np.isnan(prob.upper)):
        issues.append(f"bounds[{prob.var_name(j)}]: must not be NaN")
    for j in np.flatnonzero(prob.lower == np.inf):
        issues.append(f"bounds[{prob.var_name(j)}]: lower must be below +inf")
    for j in np.flatnonzero(prob.upper == -np.inf):
        issues.append(f"bounds[{prob.var_name(j)}]: upper must be above -inf")
    if np.any(prob.lower > prob.upper):
        j = int(np.argmax(prob.lower > prob.upper))
        issues.append(f"bounds[{prob.var_name(j)}]: lower exceeds upper")
    for j in np.flatnonzero(~np.isfinite(prob.c)):
        issues.append(f"c[{prob.var_name(j)}]: must be finite")
    for i, r in enumerate(prob.rows):
        if r.coeffs and max(r.coeffs) >= n:
            issues.append(f"rows[{i}]: references variable {max(r.coeffs)} >= {n}")
            continue
        if math.isnan(r.rhs):
            issues.append(f"rows[{i}]: rhs must not be NaN")
        for j, v in r.coeffs.items():
            if not np.isfinite(v):
                issues.append(f"rows[{i}]: coefficient of {prob.var_name(j)} must be finite")

    seen = {}
    for ti, term in enumerate(prob.terms):
        for e in term.eval_indices:
            if not 0 <= e < n:
                issues.append(f"terms[{ti}]: evaluation index {e} out of range")
                continue
            if e in seen:
                issues.append(
                    f"terms[{ti}]: duplicate evaluation variable "
                    f"{prob.var_name(e)} (also in terms[{seen[e]}])"
                )
            seen[e] = ti
            part = term.spec.partition
            if not (np.isfinite(prob.lower[e]) and np.isfinite(prob.upper[e])):
                issues.append(
                    f"terms[{ti}]: evaluation variable {prob.var_name(e)} "
                    "needs finite box bounds"
                )
            elif prob.lower[e] < part.lo - 1e-12 or prob.upper[e] > part.hi + 1e-12:
                issues.append(
                    f"terms[{ti}]: bounds of {prob.var_name(e)} "
                    f"[{prob.lower[e]}, {prob.upper[e]}] exceed partition "
                    f"[{part.lo}, {part.hi}]"
                )
    return issues


def scenario_issues(prob: ObroProblem, scen: Scenario) -> list:
    """Check a scenario against the problem's neighborhoods, within
    ``FEAS_TOL``."""
    issues = []
    if len(scen.functions) != len(prob.terms):
        return [f"scenario has {len(scen.functions)} functions, need {len(prob.terms)}"]
    for ti, (term, f) in enumerate(zip(prob.terms, scen.functions)):
        report = check_neighborhood(f, term.spec, tol=FEAS_TOL)
        if not report.passed:
            issues.append(f"terms[{ti}]: {report}")
    return issues


def evaluate_v(prob: ObroProblem, scen: Scenario, x: np.ndarray) -> float:
    """Value of the objective functional at (scenario, decision).

    c.x plus the scenario functions interpolated at every evaluation
    coordinate, minus epsilon times each function's trapezoidal deviation
    from its reference.  A decision outside the polyhedron by more than
    ``FEAS_TOL`` is an error.
    """
    x = np.asarray(x, dtype=float)
    viol = primal_violation(prob, x)
    if not viol <= FEAS_TOL:  # a NaN decision has a NaN violation
        raise ValueError(f"decision vector infeasible by {viol:.3e}")
    total = float(prob.c @ x)
    for term, f in zip(prob.terms, scen.functions):
        for e in term.eval_indices:
            total += interpolate(f, x[e])
        total -= prob.epsilon * trapezoid_deviation(f, term.spec.reference)
    return total
