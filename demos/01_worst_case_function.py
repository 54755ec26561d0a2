"""Generate a worst-case objective function around a reference curve.

The adversary may bend the battery-degradation reference within three
limits: a pointwise band (delta_max), a total-deviation budget (dev_max),
and a rate-of-change ratio bound.  Given a decision, the worst function
is the solution of a small LP.  This script builds the neighborhood,
asks for the worst case at one charging power, and shows where the
adversary spends its budget.
"""

import numpy as np

from obro.bess import degradation_reference
from obro.model import ObroProblem, UncertainTerm, evaluate_v, reference_scenario
from obro.pwl import (
    NeighborhoodSpec,
    check_neighborhood,
    make_partition,
    sample_reference,
    trapezoid_deviation,
)
from obro.subproblem import solve_subproblem

# reference: the empirical degradation curve on [0, 0.04] p.u. charging power
part = make_partition(0.0, 0.04, 0.002)
ref = sample_reference(lambda p: degradation_reference(p, dt=1.0, e_max=0.2), part)
spec = NeighborhoodSpec(ref, delta_max=0.05, dev_max=1e-3, lip_ratio=1.5)

prob = ObroProblem(
    c=np.zeros(1),
    rows=[],
    lower=np.array([0.0]),
    upper=np.array([0.04]),
    epsilon=0.1,
    terms=[UncertainTerm("degradation", spec, (0,))],
    names=["charge_power"],
)

x = np.array([0.031])  # the decision the adversary reacts to
scenario, value = solve_subproblem(prob, x)
worst = scenario.functions[0]

print(f"decision: charging power {x[0]} p.u.")
print(f"reference cost at the decision: {evaluate_v(prob, reference_scenario(prob), x):.6f}")
print(f"worst-case cost at the decision: {value:.6f}")
print(f"deviation spent: {trapezoid_deviation(worst, ref):.6f} of budget {spec.dev_max}")
print()

print(f"{'sample':>8} {'reference':>10} {'worst':>10} {'lift':>8}")
for xv, rv, wv in zip(part.points, ref.values, worst.values):
    mark = " <- decision segment" if abs(xv - x[0]) <= 0.002 else ""
    print(f"{xv:8.4f} {rv:10.6f} {wv:10.6f} {wv - rv:8.4f}{mark}")

report = check_neighborhood(worst, spec, tol=1e-7)
print()
print(f"membership check: {report}")
