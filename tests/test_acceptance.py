"""Acceptance gate: one test per shipped criterion, each printing a pass
line with its measured numbers.  The battery case runs once per session
and is shared by the criteria that need it."""

import time
from pathlib import Path

import numpy as np
import pytest

from obro.bess import (
    assemble_bess_problem,
    degradation_reference,
    parametric_baseline,
)
from obro.cli import main
from obro.configio import load_config, problem_from_config
from obro.engine import run, verify_saddle
from obro.linsolve import HighsSolver
from obro.master import solve_master
from obro.model import ObroProblem, UncertainTerm, reference_scenario
from obro.oracle import brute_force_subproblem, enumerate_master, refinement_study
from obro.pwl import NeighborhoodSpec, Partition, SampledFunction
from obro.subproblem import solve_subproblem

from feeders import feeder_case

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOLVE_CONFIGS = [
    "tiny_identity.json",
    "two_pocket.json",
    "two_term_coupled.json",
    "degenerate_delta0.json",
    "two_pocket_truncated.json",
]


def reduction_problem(step):
    feeder, inputs = feeder_case("bess_reduction", step)
    return assemble_bess_problem(feeder, inputs)


def report(criterion, text):
    print(f"\nPASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def bess_run():
    feeder, inputs = feeder_case("bess_8node")
    prob = assemble_bess_problem(feeder, inputs)
    start = time.perf_counter()
    result = run(prob, tol=1e-2, max_iter=200, solver=HighsSolver())
    elapsed = time.perf_counter() - start
    return prob, result, elapsed


@pytest.fixture(scope="module")
def generic_runs():
    out = {}
    for name in SOLVE_CONFIGS:
        prob, options = problem_from_config(load_config(CONFIGS / name))
        result = run(prob, tol=options["tol"], max_iter=500)
        out[name] = (prob, result)
    return out


def random_subproblem_instance(rng):
    """1-2 strictly monotone terms, N in {2, 3}, 1-3 evaluation points.

    References rise by at least 2*delta/(L-1) per segment, so the ratio
    bound cannot exclude any point of the offset box and the grid oracle's
    Lipschitz gap bound is exact.
    """
    n_terms = int(rng.integers(1, 3))
    n_evals_total = int(rng.integers(1, 4))
    split = rng.integers(0, n_terms, size=n_evals_total)
    terms, lower, upper = [], [], []
    var = 0
    for ti in range(n_terms):
        n = int(rng.integers(2, 4))
        span = float(rng.uniform(0.5, 1.5))
        interior = np.sort(rng.uniform(0.15, 0.85, n - 2)) * span if n > 2 else []
        points = np.concatenate([[0.0], interior, [span]])
        slopes = rng.uniform(0.5, 1.5, n - 1)
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(points))])
        lip = 3.0
        min_rise = float(np.min(np.abs(np.diff(values))))
        delta = float(rng.uniform(0.2, 0.8) * (lip - 1) * min_rise / 2)
        if rng.random() < 0.5:
            dev = 10.0
        else:
            dev = float(rng.uniform(0.2, 0.8) * delta * span)
        evals = tuple(
            var + k for k in range(max(1, int(np.sum(split == ti))))
        )
        var = evals[-1] + 1
        part = Partition(points)
        spec = NeighborhoodSpec(SampledFunction(part, values), delta, dev, lip)
        terms.append(UncertainTerm(f"f{ti}", spec, evals))
        lower.extend([0.0] * len(evals))
        upper.extend([span] * len(evals))
    prob = ObroProblem(
        c=np.zeros(var), rows=[], lower=np.array(lower), upper=np.array(upper),
        epsilon=0.1, terms=terms,
    )
    x = rng.uniform(prob.lower, prob.upper)
    return prob, x


def test_criterion_01_subproblem_oracle_equivalence():
    rng = np.random.default_rng(20240811)
    levels = 101
    start = time.perf_counter()
    worst_slack = 0.0
    for _ in range(50):
        prob, x = random_subproblem_instance(rng)
        _, lp_value = solve_subproblem(prob, x)
        grid_value, _ = brute_force_subproblem(prob, x, levels=levels)
        margin = sum(
            (len(t.eval_indices) + prob.epsilon * (t.spec.partition.hi - t.spec.partition.lo))
            * (2 * t.spec.delta_max / (levels - 1))
            for t in prob.terms
        )
        assert grid_value <= lp_value + 1e-9
        assert lp_value <= grid_value + margin + 1e-9
        worst_slack = max(worst_slack, lp_value - grid_value)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"50 instances, worst LP-grid slack {worst_slack:.2e}, {elapsed:.1f}s")


def test_criterion_02_master_oracle_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    count = 0
    worst = 0.0
    while count < 50:
        prob, x = random_subproblem_instance(rng)
        binaries = sum(
            t.spec.partition.n_segments for t in prob.terms for _ in t.eval_indices
        )
        if binaries > 6:
            continue
        scens = [reference_scenario(prob)]
        for _ in range(int(rng.integers(1, 3))):
            scen, _ = solve_subproblem(prob, rng.uniform(prob.lower, prob.upper))
            scens.append(scen)
        _, eta = solve_master(prob, scens)
        enum_value, _ = enumerate_master(prob, scens)
        assert abs(eta - enum_value) <= 1e-6
        worst = max(worst, abs(eta - enum_value))
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"50 instances, worst disagreement {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_hand_derived_lp_optimum():
    # two-sample identity reference, delta=0.1, L=2, eps=0.1, eval at 1:
    # raise the right sample to its cap 1.1, pay eps*trapezoid(0, 0.1)=0.005
    part = Partition(np.array([0.0, 1.0]))
    spec = NeighborhoodSpec(SampledFunction(part, np.array([0.0, 1.0])), 0.1, 10.0, 2.0)
    prob = ObroProblem(
        c=np.zeros(1), rows=[], lower=np.zeros(1), upper=np.ones(1),
        epsilon=0.1, terms=[UncertainTerm("f1", spec, (0,))],
    )
    _, value = solve_subproblem(prob, np.array([1.0]))
    assert value == pytest.approx(1.095, abs=1e-6)
    report(3, f"adversary value {value:.9f} = 1.095 within 1e-6")


def test_criterion_04_algorithm_invariants(generic_runs, bess_run):
    histories = {}
    for name, (_, result) in generic_runs.items():
        histories[name] = result
    histories["bess_8node(benchmark)"] = bess_run[1]
    for name, result in histories.items():
        hist = result.history
        assert result.converged, f"{name} ended {result.status}"
        assert len(hist) <= 500
        assert result.gap <= (1e-2 if "bess" in name else 1e-6) + 1e-12, name
        for a, b in zip(hist, hist[1:]):
            assert b.lb >= a.lb - 1e-9, f"{name}: LB decreased"
            assert b.ub <= a.ub + 1e-9, f"{name}: UB increased"
        assert all(r.gap >= -1e-6 for r in hist), name
    report(4, f"{len(histories)} instances: monotone bounds, gap >= -1e-6, "
              "all converged before 500 iterations")


def test_criterion_05_saddle_verification(generic_runs, bess_run):
    checked = []
    for name, (prob, result) in generic_runs.items():
        if not result.converged:
            continue
        rep = verify_saddle(prob, result, tol=1e-4)
        assert rep.passed, f"{name}: {rep}"
        checked.append(name)
    prob, result, _ = bess_run
    rep = verify_saddle(prob, result, tol=1e-4, solver=HighsSolver())
    assert rep.passed, f"bess: {rep}"
    checked.append("bess_8node(benchmark)")
    report(5, f"all three checks passed on {len(checked)} converged instances")


def test_criterion_06_degradation_curve_value():
    value = degradation_reference(0.04, 1.0, 0.2)
    assert abs(value - 1.736) <= 4e-16  # one floating rounding step
    report(6, f"reference at depth 0.2 = {value!r}")


def test_criterion_07_bess_convergence(bess_run):
    _, result, elapsed = bess_run
    assert result.converged
    assert len(result.history) <= 200
    assert result.gap <= 1e-2
    assert elapsed <= 600.0
    report(7, f"converged in {len(result.history)} iteration(s), "
              f"gap {result.gap:.2e}, {elapsed:.0f}s wall")


def test_criterion_08_parametric_corner():
    feeder, inputs = feeder_case("bess_8node")
    corner, _, value = parametric_baseline(feeder, inputs, (9.0, 10.0), (4.0, 5.0))
    assert corner == (10.0, 4.0)
    report(8, f"worst (a, b) = {corner}, value {value:.4f}")


def test_criterion_09_refinement_consistency():
    table = refinement_study(reduction_problem, [0.004, 0.002, 0.001], tol=1e-2, max_iter=100)
    assert table.value_distances[2] <= table.value_distances[1] + 1e-12
    assert table.x_distances[2] <= table.x_distances[1] + 1e-12

    dense = run(
        reduction_problem(0.0008), tol=1e-2, max_iter=100, solver=HighsSolver()
    )
    hetero = run(
        reduction_problem([(0.0, 0.019, 0.0008), (0.019, 0.038, 0.002)]),
        tol=1e-2, max_iter=100, solver=HighsSolver(),
    )
    assert dense.converged and hetero.converged
    rel = abs(dense.ub - hetero.ub) / abs(dense.ub)
    assert rel <= 0.05
    report(9, f"value drift {table.value_distances[1]:.2e} -> "
              f"{table.value_distances[2]:.2e}, x drift bounded; "
              f"dense vs hetero within {100 * rel:.3f}%")


def test_criterion_10_cmd_solve_determinism(tmp_path):
    for name in SOLVE_CONFIGS:
        out1, out2 = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        codes = [
            main(["solve", str(CONFIGS / name), "--out", str(out)])
            for out in (out1, out2)
        ]
        assert codes[0] == codes[1]
        for csv in ("iterations.csv", "worst_functions.csv", "solution.csv"):
            assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes(), (
                f"{name}/{csv} differs between reruns"
            )
    report(10, f"byte-identical CSVs on {len(SOLVE_CONFIGS)} configs")
