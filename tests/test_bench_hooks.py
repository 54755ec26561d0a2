"""The benchmark's tracer patches obro entry points by name; a rename of
any of them must fail here rather than only in a traced benchmark run."""

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
