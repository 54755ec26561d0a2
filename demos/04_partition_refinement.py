"""Check that finer sampling grids yield consistent solutions.

The uncertain curves are handled through their sample values, so the
whole pipeline depends on the partition step.  Refining the step should
move the final decision and value less and less; this script runs the
full loop on a 6-slot reduction of the feeder case at three steps and
tabulates the drift, then compares a dense grid against a heterogeneous
one that is dense only on the lower half of the power range.
"""

from dataclasses import replace
from pathlib import Path

from obro.bess import assemble_bess_problem
from obro.configio import bess_case_from_config, load_config
from obro.engine import run
from obro.oracle import refinement_study

config = Path(__file__).resolve().parent.parent / "configs" / "bess_reduction.json"
feeder, inputs, schemes, _ = bess_case_from_config(load_config(config))


def builder(step):
    return assemble_bess_problem(feeder, replace(inputs, scheme=step))


table = refinement_study(builder, [0.004, 0.002, 0.001], tol=1e-2, max_iter=100)
print("refinement study (drift relative to the previous, coarser step):")
print(table.to_csv())
print(f"monotone trend: {'yes' if table.trend_ok else 'no'}")
print()

# dense everywhere vs dense only on the lower half of the power range
dense_prob = builder(schemes["dense"])
hetero_prob = builder(schemes["hetero"])
res_dense = run(dense_prob, tol=1e-2, max_iter=100)
res_hetero = run(hetero_prob, tol=1e-2, max_iter=100)
rel = abs(res_dense.ub - res_hetero.ub) / abs(res_dense.ub)
n_dense = dense_prob.terms[0].spec.partition.n_points
n_hetero = hetero_prob.terms[0].spec.partition.n_points
print(f"dense grid  ({n_dense} points/curve): cost {res_dense.ub:.6f}")
print(f"hetero grid ({n_hetero} points/curve): cost {res_hetero.ub:.6f}")
print(f"relative difference {100 * rel:.3f}% -> dense sampling pays off only "
      "where the curve actually bends")
