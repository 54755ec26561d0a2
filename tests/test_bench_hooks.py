"""The benchmark's tracer patches obro entry points by name; a rename of
any of them, or a refactor that keeps a name but stops calling it, must
fail here rather than only in a traced benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_installs_and_restores_every_hook(tracing):
    from obro import linsolve

    hooks = [(module, attr) for module, attr, _ in tracing.PATCHES] + [
        (linsolve.SimplexSolver, "solve_lp"),
        (linsolve.BranchBoundSolver, "solve_milp"),
    ]
    originals = [getattr(owner, attr) for owner, attr in hooks]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._saved) == len(hooks)
        for (owner, attr), original in zip(hooks, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(hooks, originals):
        assert getattr(owner, attr) is original, attr


def test_every_hooked_span_is_recorded(tracing):
    # a hook that resolves but is never called reads 0 in its per-layer
    # metric; two_pocket's solve and certification reach every layer
    import workloads
    from obro import configio, engine
    from obro.linsolve import default_solver

    prob, options = configio.problem_from_config(
        configio.load_config(workloads.CONFIGS / "two_pocket.json")
    )
    inst = workloads.Instance(
        "two_pocket", prob, options["tol"], options["max_iter"], default_solver(),
        workloads.REFERENCE["two_pocket"], oracles=True,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = engine.run(inst.prob, tol=inst.tol, max_iter=inst.max_iter, solver=inst.solver)
        outcome = workloads.Outcome()
        workloads.certify(inst, result, outcome)
    finally:
        tracer.uninstall()
    assert outcome.checks and all(outcome.checks.values())
    missing = {name for _, _, name in tracing.PATCHES} - {name for name, *_ in tracer.spans}
    assert not missing, sorted(missing)
