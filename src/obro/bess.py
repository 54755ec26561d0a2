"""Degradation-aware battery charging on a radial distribution feeder.

Node voltages are affine in the nodal injections (sensitivity matrices
derived from the feeder tree), so the scheduling polyhedron is assembled
directly over the battery charging powers.  Each battery's degradation
curve is an uncertain term: the empirical reference maps one slot's depth
of discharge to capacity loss, and the adversary may bend it within the
neighborhood bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from obro.linsolve import Row
from obro.master import solve_master
from obro.model import ObroProblem, UncertainTerm, reference_scenario
from obro.pwl import NeighborhoodSpec, make_partition, sample_reference

__all__ = [
    "degradation_reference",
    "FeederModel",
    "build_feeder",
    "Battery",
    "ScheduleInputs",
    "InputsError",
    "assemble_bess_problem",
    "voltages_for_schedule",
    "state_of_charge",
    "schedule_from_solution",
    "parametric_baseline",
]


def degradation_reference(p: float, dt: float, e_max: float) -> float:
    """Capacity-loss reference for one slot at charging power ``p``.

    The argument is the depth of discharge |p| dt / e_max; the empirical
    fit is 9.62 d - 4.7 d^2, valid for d in [0, 1].
    """
    if e_max <= 0:
        raise ValueError("battery capacity must be positive")
    d = abs(p) * dt / e_max
    if d > 1 + 1e-12:
        raise ValueError(f"depth of discharge {d:.3f} exceeds 1")
    return 9.62 * d - 4.7 * d * d


@dataclass(frozen=True)
class FeederModel:
    """Radial feeder with voltage sensitivities.

    ``r_sens[i, j]`` is twice the summed resistance of the lines shared by
    the substation-to-i and substation-to-j paths, so that
    V_i = V_s + sum_j (r_sens[i,j] * P_inj_j - x_sens[i,j] * Q_load_j).
    """

    nodes: tuple
    v_s: float
    r_sens: np.ndarray
    x_sens: np.ndarray

    def index(self, node) -> int:
        return self.nodes.index(node)


def build_feeder(lines, v_s: float = 1.0, substation=0) -> FeederModel:
    """Derive the voltage sensitivity matrices from a line list.

    The topology must be a tree rooted at the substation; every
    non-substation node needs exactly one feeding line.
    """
    lines = tuple((p, c, float(r), float(x)) for p, c, r, x in lines)
    parent = {}
    for p, c, r, x in lines:
        if r <= 0 or x < 0:
            raise ValueError(f"line {p}-{c}: impedances must be positive")
        if c == substation or c in parent:
            raise ValueError(f"node {c}: not a tree (multiple feeds or feeds root)")
        parent[c] = (p, r, x)
    nodes = tuple(sorted(parent))

    paths = {}  # node -> [(node, r, x)] for the lines up to the substation
    for node in nodes:
        seen = set()
        chain = []
        cur = node
        while cur != substation:
            if cur in seen:
                raise ValueError(f"cycle detected at node {cur}")
            if cur not in parent:
                raise ValueError(f"node {cur}: disconnected from the substation")
            seen.add(cur)
            p, r, x = parent[cur]
            chain.append((cur, r, x))
            cur = p
        paths[node] = chain

    n = len(nodes)
    r_sens = np.zeros((n, n))
    x_sens = np.zeros((n, n))
    for i, ni in enumerate(nodes):
        li = {c: (r, x) for c, r, x in paths[ni]}
        for j, nj in enumerate(nodes):
            shared_r = shared_x = 0.0
            for c, r, x in paths[nj]:
                if c in li:
                    shared_r += r
                    shared_x += x
            r_sens[i, j] = 2.0 * shared_r
            x_sens[i, j] = 2.0 * shared_x
    return FeederModel(nodes, float(v_s), r_sens, x_sens)


@dataclass(frozen=True)
class Battery:
    node: object
    p_min: float = 0.0
    p_max: float = 0.04
    e_max: float = 0.2
    e_0: float = 0.0
    delta_max: float = 0.05
    dev_max: float = 1e-3
    lip_ratio: float = 1.5


class InputsError(ValueError):
    """A `ScheduleInputs` rule is broken.  ``field`` is the input's path in
    a feeder config: ``horizon/dt``, ``horizon/slots``, ``limits``,
    ``weights/voltage``, ``batteries/{i}`` or ``batteries/{i}/node``."""

    def __init__(self, message: str, field: str):
        self.field = field
        super().__init__(message)


@dataclass
class ScheduleInputs:
    """Time series and limits for one scheduling horizon.

    Profile dicts map node -> array over slots; nodes without an entry
    carry zeros.  Units are per-unit power/energy, hours for ``dt``.
    """

    dt: float
    n_slots: int
    load_p: dict
    load_q: dict
    pv: dict
    batteries: list
    v_min: float = 0.95
    v_max: float = 1.05
    w_v: float = 10.0
    epsilon: float = 0.1
    scheme: object = 0.002

    def profile(self, table: dict, node) -> np.ndarray:
        if node in table:
            arr = np.asarray(table[node], dtype=float)
            if arr.shape != (self.n_slots,):
                raise ValueError(f"profile for node {node}: need {self.n_slots} values")
            return arr
        return np.zeros(self.n_slots)

    def validate(self, feeder: FeederModel):
        """Raise `InputsError` at the first broken rule."""
        if not self.dt > 0:
            raise InputsError("dt must be positive", "horizon/dt")
        if self.n_slots < 1:
            raise InputsError("need at least one slot", "horizon/slots")
        if not self.v_min < 1 < self.v_max:
            raise InputsError("voltage limits must bracket 1", "limits")
        if not 0 <= self.w_v < np.inf:
            raise InputsError("voltage weight must be nonnegative and finite", "weights/voltage")
        nodes = {}
        for i, b in enumerate(self.batteries):
            where = f"batteries/{i}"
            if b.node not in feeder.nodes:
                raise InputsError(f"battery node {b.node} not in the feeder", f"{where}/node")
            if b.node in nodes:
                raise InputsError(
                    f"battery node {b.node} repeated (also batteries/{nodes[b.node]})",
                    f"{where}/node",
                )
            nodes[b.node] = i
            if not b.e_max > 0:
                raise InputsError("battery capacity must be positive", where)
            if not 0 <= b.e_0 <= b.e_max:
                raise InputsError(f"battery {b.node}: initial energy outside [0, e_max]", where)
            if not b.p_min < b.p_max:
                raise InputsError(f"battery {b.node}: p_min must be below p_max", where)
            depth = max(abs(b.p_min), abs(b.p_max)) * self.dt / b.e_max
            if depth > 1 + 1e-12:  # degradation_reference's domain
                raise InputsError(
                    f"battery {b.node}: depth of discharge {depth:.3f} exceeds 1", where
                )


def _voltage_constants(feeder: FeederModel, inputs: ScheduleInputs) -> np.ndarray:
    """Per node and slot: voltage with all batteries idle."""
    n, t = len(feeder.nodes), inputs.n_slots
    inj = np.zeros((n, t))
    q = np.zeros((n, t))
    for j, node in enumerate(feeder.nodes):
        inj[j] = inputs.profile(inputs.pv, node) - inputs.profile(inputs.load_p, node)
        q[j] = inputs.profile(inputs.load_q, node)
    return feeder.v_s + feeder.r_sens @ inj - feeder.x_sens @ q


def assemble_bess_problem(feeder: FeederModel, inputs: ScheduleInputs) -> ObroProblem:
    """Build the scheduling min-max problem.

    Decision vector: one charging power per battery and slot, then one
    voltage-deviation auxiliary per node and slot.  Rows: deviation
    epigraphs, voltage limits, and running state-of-charge bounds; the
    voltage itself is eliminated through the affine sensitivity model.
    Each battery contributes one uncertain term evaluated at all of its
    slots.
    """
    inputs.validate(feeder)
    bats = inputs.batteries
    n_nodes, t_slots = len(feeder.nodes), inputs.n_slots
    n_p = len(bats) * t_slots
    n_vars = n_p + n_nodes * t_slots

    def p_ix(b, t):
        return b * t_slots + t

    def u_ix(i, t):
        return n_p + i * t_slots + t

    names = [f"P[{b.node}][{t}]" for b in bats for t in range(t_slots)]
    names += [f"u[{i}][{t}]" for i in feeder.nodes for t in range(t_slots)]

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for bi, b in enumerate(bats):
        lower[p_ix(bi, 0) : p_ix(bi, 0) + t_slots] = b.p_min
        upper[p_ix(bi, 0) : p_ix(bi, 0) + t_slots] = b.p_max

    c = np.zeros(n_vars)
    c[n_p:] = inputs.w_v

    k_const = _voltage_constants(feeder, inputs)
    bat_cols = [feeder.index(b.node) for b in bats]

    rows = []
    for i, node in enumerate(feeder.nodes):
        sens = [feeder.r_sens[i, j] for j in bat_cols]
        for t in range(t_slots):
            k = k_const[i, t]
            up = {p_ix(bi, t): -s for bi, s in enumerate(sens) if s != 0.0}
            rows.append(Row({**up, u_ix(i, t): -1.0}, "<=", 1.0 - k, f"u_abs_pos[{node}][{t}]"))
            dn = {p_ix(bi, t): s for bi, s in enumerate(sens) if s != 0.0}
            rows.append(Row({**dn, u_ix(i, t): -1.0}, "<=", k - 1.0, f"u_abs_neg[{node}][{t}]"))
            rows.append(Row(dict(up), "<=", inputs.v_max - k, f"v_max[{node}][{t}]"))
            rows.append(Row(dict(dn), "<=", k - inputs.v_min, f"v_min[{node}][{t}]"))
    for bi, b in enumerate(bats):
        for t in range(t_slots):
            running = {p_ix(bi, k): inputs.dt for k in range(t + 1)}
            rows.append(Row(running, "<=", b.e_max - b.e_0, f"soc_hi[{b.node}][{t}]"))
            rows.append(
                Row({j: -v for j, v in running.items()}, "<=", b.e_0, f"soc_lo[{b.node}][{t}]")
            )

    terms = []
    for bi, b in enumerate(bats):
        part = make_partition(b.p_min, b.p_max, inputs.scheme)
        ref = sample_reference(
            lambda p, b=b: degradation_reference(p, inputs.dt, b.e_max), part
        )
        spec = NeighborhoodSpec(ref, b.delta_max, b.dev_max, b.lip_ratio)
        evals = tuple(p_ix(bi, t) for t in range(t_slots))
        terms.append(UncertainTerm(f"deg[{b.node}]", spec, evals))

    return ObroProblem(c, rows, lower, upper, inputs.epsilon, terms, names)


def schedule_from_solution(inputs: ScheduleInputs, x: np.ndarray) -> np.ndarray:
    """Charging powers as a (battery, slot) array from a decision vector.

    Sub-tolerance magnitudes (solver noise, negative zeros) are snapped
    to exactly zero.
    """
    n_p = len(inputs.batteries) * inputs.n_slots
    sched = np.asarray(x[:n_p]).reshape(len(inputs.batteries), inputs.n_slots)
    return np.where(np.abs(sched) < 1e-9, 0.0, sched)


def voltages_for_schedule(
    feeder: FeederModel, inputs: ScheduleInputs, schedule: np.ndarray
) -> np.ndarray:
    """Node voltages (node, slot) under a charging schedule."""
    k = _voltage_constants(feeder, inputs)
    v = k.copy()
    for bi, b in enumerate(inputs.batteries):
        j = feeder.index(b.node)
        v -= np.outer(feeder.r_sens[:, j], schedule[bi])
    return v


def state_of_charge(inputs: ScheduleInputs, schedule: np.ndarray) -> np.ndarray:
    """Stored energy (battery, slot) at the end of each slot."""
    e0 = np.array([b.e_0 for b in inputs.batteries])
    return e0[:, None] + np.cumsum(schedule, axis=1) * inputs.dt


def parametric_baseline(
    feeder: FeederModel,
    inputs: ScheduleInputs,
    a_range,
    b_range,
):
    """Scheduling under parametric (not functional) curve uncertainty.

    The curve family a d - b d^2 on d in [0, 1] is pointwise increasing in
    ``a`` and decreasing in ``b``, so the inner maximization lands on the
    corner (a_hi, b_lo) regardless of the schedule; one nominal solve with
    that corner curve settles the problem.
    """
    a_lo, a_hi = (float(v) for v in a_range)
    b_lo, b_hi = (float(v) for v in b_range)
    if not 0 < a_lo <= a_hi:
        raise ValueError("need 0 < a_lo <= a_hi")
    if not 0 < b_lo <= b_hi:
        raise ValueError("need 0 < b_lo <= b_hi")

    def corner_curve(p, dt, e_max):  # ScheduleInputs.validate bounds d by 1
        d = abs(p) * dt / e_max
        return a_hi * d - b_lo * d * d

    prob = assemble_bess_problem(feeder, inputs)
    terms = []
    for term, b in zip(prob.terms, inputs.batteries):
        ref = sample_reference(
            lambda p, b=b: corner_curve(p, inputs.dt, b.e_max), term.spec.partition
        )
        spec = NeighborhoodSpec(ref, 0.0, 0.0, term.spec.lip_ratio)
        terms.append(UncertainTerm(term.name, spec, term.eval_indices))
    prob = replace(prob, terms=terms)

    x, value = solve_master(prob, [reference_scenario(prob)])
    schedule = schedule_from_solution(inputs, x)
    return (a_hi, b_lo), schedule, float(value)

