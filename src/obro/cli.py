"""Command-line front end: solve configs, run the feeder case, verify.

Commands write plot-ready CSVs and use exit codes to report outcomes:
0 converged / all checks pass, 1 config or runtime error, 2 iteration cap
hit, 3 oracle budget exceeded.  ``OBRO_LOG`` in {quiet, info, trace}
controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from obro import bess
from obro.configio import (
    ConfigError,
    bess_case_from_config,
    format_float,
    load_config,
    problem_from_config,
    write_csv,
)
from obro.engine import run, verify_saddle
from obro.linsolve import HighsSolver, default_solver
from obro.model import validate
from obro.oracle import (
    GridBudgetError,
    brute_force_subproblem,
    enumerate_master,
    grid_radius,
    levels_within_budget,
)

log = logging.getLogger("obro.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_BUDGET = 3


def _setup_logging():
    level = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
    name = os.environ.get("OBRO_LOG", "quiet")
    logging.basicConfig(level=level.get(name, logging.WARNING), format="%(message)s")
    if name not in level and name:
        log.warning("OBRO_LOG=%s not recognized; using quiet", name)


def _load_problem(path):
    """The generic config at ``path`` as (problem, options), or None after
    printing its config error or every validation issue."""
    try:
        prob, options = problem_from_config(load_config(path))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    issues = validate(prob)
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    return None if issues else (prob, options)


def _run_and_write(args, prob, options, solver, write_decision) -> int:
    """The tail of `solve` and `bess`: run the loop with ``--tol`` and
    ``--max-iter`` over the config's options, write the decision through
    ``write_decision(out_dir, x)`` plus iterations.csv and
    worst_functions.csv, print the status line and return its exit code."""
    tol = args.tol if args.tol is not None else options["tol"]
    max_iter = args.max_iter if args.max_iter is not None else options["max_iter"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(prob, tol=tol, max_iter=max_iter, solver=solver)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    write_decision(out_dir, result.x)
    # wall time stays out of the CSV so reruns are byte-identical
    write_csv(
        out_dir / "iterations.csv",
        ["k", "UB", "LB", "gap"],
        [(r.k, float(r.ub), float(r.lb), float(r.gap)) for r in result.history],
    )
    worst = [
        (li, term.name, float(xv), float(fv))
        for li, scen in enumerate(result.scenarios)
        for term, f in zip(prob.terms, scen.functions)
        for xv, fv in zip(f.partition.points, f.values)
    ]
    write_csv(out_dir / "worst_functions.csv", ["scenario", "term", "sample_x", "sample_f"], worst)
    print(f"{result.status}: {len(result.history)} iterations, gap {format_float(result.gap)}")
    return EXIT_OK if result.converged else EXIT_MAX_ITER


def cmd_solve(args) -> int:
    loaded = _load_problem(args.config)
    if loaded is None:
        return EXIT_ERROR
    prob, options = loaded

    def write_solution(out_dir, x):
        write_csv(
            out_dir / "solution.csv",
            ["variable", "value"],
            [(prob.var_name(j), float(x[j])) for j in range(prob.n_vars)],
        )

    return _run_and_write(args, prob, options, default_solver(), write_solution)


def cmd_bess(args) -> int:
    try:
        feeder, inputs, schemes, options = bess_case_from_config(load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.scheme not in schemes:
        print(
            f"error: scheme {args.scheme!r} not in config "
            f"(available: {', '.join(sorted(schemes))})",
            file=sys.stderr,
        )
        return EXIT_ERROR
    scheme = schemes[args.scheme]
    solver = HighsSolver()

    try:
        if isinstance(scheme, dict):  # parametric uncertainty baseline
            corner, schedule, value = bess.parametric_baseline(
                feeder, inputs, scheme["a"], scheme["b"], solver
            )
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_schedule(out_dir / "schedule.csv", feeder, inputs, schedule)
            write_csv(
                out_dir / "parametric.csv",
                ["worst_a", "worst_b", "value"],
                [(corner[0], corner[1], value)],
            )
            print(f"worst (a, b) = ({format_float(corner[0])}, {format_float(corner[1])}), "
                  f"value {format_float(value)}")
            return EXIT_OK

        inputs.scheme = scheme
        prob = bess.assemble_bess_problem(feeder, inputs)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    def write_schedule(out_dir, x):
        schedule = bess.schedule_from_solution(inputs, x)
        _write_schedule(out_dir / "schedule.csv", feeder, inputs, schedule)

    return _run_and_write(args, prob, options, solver, write_schedule)


def _write_schedule(path, feeder, inputs, schedule):
    volts = bess.voltages_for_schedule(feeder, inputs, schedule)
    energy = bess.state_of_charge(inputs, schedule)
    by_node = {b.node: bi for bi, b in enumerate(inputs.batteries)}
    rows = []
    for i, node in enumerate(feeder.nodes):
        bi = by_node.get(node)
        for t in range(inputs.n_slots):
            rows.append(
                (
                    node,
                    t,
                    float(schedule[bi, t]) if bi is not None else 0.0,
                    float(volts[i, t]),
                    float(energy[bi, t]) if bi is not None else 0.0,
                )
            )
    write_csv(path, ["node", "timeslot", "P_b", "V", "E_b"], rows)


def cmd_verify(args) -> int:
    if args.levels is not None and (args.levels < 3 or args.levels % 2 == 0):
        # an odd count keeps the reference, which passes every test, on the grid
        print(f"error: --levels must be an odd count of at least 3, not {args.levels}",
              file=sys.stderr)
        return EXIT_ERROR
    loaded = _load_problem(args.config)
    if loaded is None:
        return EXIT_ERROR
    prob, options = loaded
    levels = args.levels if args.levels is not None else levels_within_budget(prob)

    try:
        result = run(
            prob,
            tol=options["tol"],
            max_iter=options["max_iter"],
            solver=default_solver(),
        )
        report = verify_saddle(prob, result, tol=1e-4)
        oracle_value, _ = brute_force_subproblem(prob, result.x, levels=levels)
        enum_value, _ = enumerate_master(prob, result.scenarios)
    except GridBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: shrink the instance (fewer samples or terms) to verify", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    step = max(2 * grid_radius(t.spec) / (levels - 1) for t in prob.terms)
    lipschitz = sum(
        len(t.eval_indices) + prob.epsilon * (t.spec.partition.hi - t.spec.partition.lo)
        for t in prob.terms
    )
    checks = [
        ("engine converged", result.converged, result.gap),
        *report.rows(),
        (
            "adversary dominates grid oracle",
            oracle_value <= result.ub + 1e-9,
            oracle_value - result.ub,
        ),
        (
            "adversary within oracle gap",
            result.ub <= oracle_value + lipschitz * step + 1e-9,
            result.ub - oracle_value,
        ),
        (
            "master matches segment enumeration",
            abs(enum_value - result.lb) <= 1e-6,
            enum_value - result.lb,
        ),
    ]
    width = max(len(name) for name, _, _ in checks)
    ok = True
    for name, passed, value in checks:
        ok &= bool(passed)
        print(f"{name:<{width}}  {'pass' if passed else 'FAIL'}  {format_float(value)}")
    return EXIT_OK if ok else EXIT_ERROR


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="obro",
        description="Min-max optimization where the adversary picks the objective function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the function-generation loop on a config")
    p_solve.add_argument("config")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--out", default=".")
    p_solve.set_defaults(func=cmd_solve)

    p_bess = sub.add_parser("bess", help="battery scheduling case")
    p_bess.add_argument("config")
    p_bess.add_argument("--scheme", required=True)
    p_bess.add_argument("--tol", type=float, default=None)
    p_bess.add_argument("--max-iter", type=int, default=None)
    p_bess.add_argument("--out", default=".")
    p_bess.set_defaults(func=cmd_bess)

    p_verify = sub.add_parser("verify", help="solve then cross-check against the oracles")
    p_verify.add_argument("config")
    p_verify.add_argument(
        "--levels", type=int, default=None,
        help="grid oracle levels per sample (default: the most, up to 101, "
        "that fit the grid budget)",
    )
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
