"""JSON problem descriptions and CSV emission.

Two config flavors share one file format: a generic problem (variables,
polyhedron rows, cost, uncertain terms) and a feeder scheduling case
(lines, profiles, batteries, segmentation schemes).  Validation errors
carry JSON-pointer-style paths so a bad field is easy to locate.
"""

from __future__ import annotations

import json

import numpy as np

from obro.bess import Battery, ScheduleInputs, build_feeder
from obro.linsolve import Row
from obro.model import ObroProblem, UncertainTerm
from obro.pwl import (
    NeighborhoodSpec,
    Partition,
    SampledFunction,
    make_partition,
)

__all__ = [
    "ConfigError",
    "load_config",
    "problem_from_config",
    "bess_case_from_config",
    "format_float",
    "write_csv",
]


class ConfigError(ValueError):
    """Invalid configuration; ``path`` points at the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("expected an object", path)
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError("expected a list", path)
    return value


def _need(cfg: dict, key: str, path: str):
    if key not in _object(cfg, path):
        raise ConfigError("missing required field", f"{path}/{key}")
    return cfg[key]


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("expected a number", path)
    if value != value:  # JSON's NaN passes every comparison-based check
        raise ConfigError("expected a number, got NaN", path)
    return float(value)


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("expected an integer", path)
    return value


def _numbers(values, path: str) -> list:
    return [_number(v, f"{path}/{k}") for k, v in enumerate(_list(values, path))]


def _scheme(cfg: dict, path: str):
    """A scheme object's ``step``, or its ``pieces`` as a non-empty list
    of ``[lo, hi, step]`` triples, as ``make_partition`` takes them; None
    when it has neither."""
    if "step" in cfg:
        return _number(cfg["step"], f"{path}/step")
    if "pieces" not in cfg:
        return None
    path = f"{path}/pieces"
    if not _list(cfg["pieces"], path):
        raise ConfigError("expected at least one piece", path)
    pieces = []
    for k, piece in enumerate(cfg["pieces"]):
        triple = _numbers(piece, f"{path}/{k}")
        if len(triple) != 3:
            raise ConfigError("expected [lo, hi, step]", f"{path}/{k}")
        pieces.append(tuple(triple))
    return pieces


def _run_options(cfg: dict, max_iter: int) -> dict:
    """The loop's ``tol`` and ``max_iter``; ``max_iter`` is the flavour's
    default cap."""
    options = {
        "tol": _number(cfg.get("tol", 1e-2), "/tol"),
        "max_iter": _integer(cfg.get("max_iter", max_iter), "/max_iter"),
    }
    if options["tol"] <= 0:
        raise ConfigError("tol must be positive", "/tol")
    if options["max_iter"] < 1:
        raise ConfigError("max_iter must be at least 1", "/max_iter")
    return options


def _partition_from(cfg, path: str) -> Partition:
    if isinstance(cfg, list):
        points = _numbers(cfg, path)
        try:
            return Partition(points)
        except ValueError as exc:
            raise ConfigError(str(exc), path)
    if not isinstance(cfg, dict):
        raise ConfigError("expected a point list or a scheme object", path)
    lo = _number(_need(cfg, "lo", path), f"{path}/lo")
    hi = _number(_need(cfg, "hi", path), f"{path}/hi")
    scheme = _scheme(cfg, path)
    if scheme is None:
        raise ConfigError("scheme needs either 'step' or 'pieces'", path)
    try:
        return make_partition(lo, hi, scheme)
    except ValueError as exc:
        raise ConfigError(str(exc), path)


def problem_from_config(cfg: dict) -> tuple:
    """Build (problem, solve options dict) from a generic config."""
    variables = _need(cfg, "variables", "")
    if not isinstance(variables, list) or not variables:
        raise ConfigError("expected a non-empty list", "/variables")
    names, lower, upper = [], [], []
    for i, var in enumerate(variables):
        path = f"/variables/{i}"
        names.append(str(_need(var, "name", path)))
        lower.append(_number(var.get("lower", -np.inf), f"{path}/lower"))
        upper.append(_number(var.get("upper", np.inf), f"{path}/upper"))
    if len(set(names)) != len(names):
        raise ConfigError("duplicate variable names", "/variables")
    index = {n: j for j, n in enumerate(names)}
    n = len(names)

    def coeffs_from(obj, path):
        if not isinstance(obj, dict):
            raise ConfigError("expected {variable: coefficient}", path)
        out = {}
        for key, val in obj.items():
            if key not in index:
                raise ConfigError(f"unknown variable {key!r}", path)
            out[index[key]] = _number(val, f"{path}/{key}")
        return out

    rows = []
    for i, row in enumerate(_list(cfg.get("rows", []), "/rows")):
        path = f"/rows/{i}"
        rows.append(
            Row(
                coeffs_from(_need(row, "coeffs", path), f"{path}/coeffs"),
                "<=",
                _number(_need(row, "rhs", path), f"{path}/rhs"),
                str(row.get("name", f"row{i}")),
            )
        )

    c = np.zeros(n)
    for key, val in _object(cfg.get("cost", {}), "/cost").items():
        if key not in index:
            raise ConfigError(f"unknown variable {key!r}", "/cost")
        c[index[key]] = _number(val, f"/cost/{key}")

    epsilon = _number(_need(cfg, "epsilon", ""), "/epsilon")
    if not 0 < epsilon < np.inf:
        raise ConfigError("epsilon must be positive and finite", "/epsilon")

    terms_cfg = _need(cfg, "terms", "")
    if not isinstance(terms_cfg, list) or not terms_cfg:
        raise ConfigError("expected a non-empty list", "/terms")
    terms = []
    for i, tc in enumerate(terms_cfg):
        path = f"/terms/{i}"
        part = _partition_from(_need(tc, "partition", path), f"{path}/partition")
        ref_values = _numbers(_need(tc, "reference_values", path), f"{path}/reference_values")
        if len(ref_values) != part.n_points:
            raise ConfigError(
                f"need {part.n_points} values for this partition",
                f"{path}/reference_values",
            )
        bounds = [
            _number(_need(tc, key, path), f"{path}/{key}")
            for key in ("delta_max", "dev_max", "lip_ratio")
        ]
        try:
            spec = NeighborhoodSpec(SampledFunction(part, ref_values), *bounds)
        except ValueError as exc:
            raise ConfigError(str(exc), path)
        evals = _list(_need(tc, "evaluations", path), f"{path}/evaluations")
        eval_ix = []
        for k, name in enumerate(evals):
            if not isinstance(name, str) or name not in index:
                raise ConfigError(f"unknown variable {name!r}", f"{path}/evaluations/{k}")
            eval_ix.append(index[name])
        terms.append(UncertainTerm(str(tc.get("name", f"f{i}")), spec, tuple(eval_ix)))

    prob = ObroProblem(c, rows, np.array(lower), np.array(upper), epsilon, terms, names)
    return prob, _run_options(cfg, max_iter=100)


def bess_case_from_config(cfg: dict) -> tuple:
    """Build (feeder, schedule inputs, schemes dict, options) from a config."""
    fcfg = _need(cfg, "feeder", "")
    lines_cfg = _list(_need(fcfg, "lines", "/feeder"), "/feeder/lines")
    lines = []
    for i, ln in enumerate(lines_cfg):
        path = f"/feeder/lines/{i}"
        lines.append(
            (
                _integer(_need(ln, "from", path), f"{path}/from"),
                _integer(_need(ln, "to", path), f"{path}/to"),
                _number(_need(ln, "r", path), f"{path}/r"),
                _number(_need(ln, "x", path), f"{path}/x"),
            )
        )
    v_s = _number(fcfg.get("substation_voltage", 1.0), "/feeder/substation_voltage")
    substation = _integer(fcfg.get("substation", 0), "/feeder/substation")
    try:
        feeder = build_feeder(lines, v_s=v_s, substation=substation)
    except ValueError as exc:
        raise ConfigError(str(exc), "/feeder")

    hcfg = _need(cfg, "horizon", "")
    n_slots = _integer(_need(hcfg, "slots", "/horizon"), "/horizon/slots")
    dt = _number(_need(hcfg, "dt", "/horizon"), "/horizon/dt")

    profiles = _object(cfg.get("profiles", {}), "/profiles")

    def profile_table(key):
        table = {}
        for node_key, series in _object(profiles.get(key, {}), f"/profiles/{key}").items():
            path = f"/profiles/{key}/{node_key}"
            try:
                node = int(node_key)
            except ValueError:
                raise ConfigError("node key must be an integer", path)
            table[node] = _numbers(series, path)
            if len(table[node]) != n_slots:
                raise ConfigError(f"need {n_slots} values", path)
        return table

    # a battery's own field wins over the shared neighborhood; Battery's
    # defaults fill what neither gives
    shared = _object(cfg.get("neighborhood", {}), "/neighborhood")
    batteries = []
    for i, bc in enumerate(_list(_need(cfg, "batteries", ""), "/batteries")):
        path = f"/batteries/{i}"
        node = _integer(_need(bc, "node", path), f"{path}/node")
        fields = {
            key: _number(shared[key], f"/neighborhood/{key}")
            for key in ("delta_max", "dev_max", "lip_ratio")
            if key in shared
        }
        fields.update(
            (key, _number(bc[key], f"{path}/{key}"))
            for key in ("p_min", "p_max", "e_max", "e_0", "delta_max", "dev_max", "lip_ratio")
            if key in bc
        )
        batteries.append(Battery(node, **fields))

    limits = _object(cfg.get("limits", {}), "/limits")
    weights = _object(cfg.get("weights", {}), "/weights")
    epsilon = _number(weights.get("epsilon", 0.1), "/weights/epsilon")
    if not 0 < epsilon < np.inf:
        raise ConfigError("epsilon must be positive and finite", "/weights/epsilon")

    inputs = ScheduleInputs(
        dt=dt,
        n_slots=n_slots,
        load_p=profile_table("load_p"),
        load_q=profile_table("load_q"),
        pv=profile_table("pv"),
        batteries=batteries,
        v_min=_number(limits.get("v_min", 0.95), "/limits/v_min"),
        v_max=_number(limits.get("v_max", 1.05), "/limits/v_max"),
        w_v=_number(weights.get("voltage", 10.0), "/weights/voltage"),
        epsilon=epsilon,
    )

    schemes = {}
    for name, sc in _object(_need(cfg, "schemes", ""), "/schemes").items():
        path = f"/schemes/{name}"
        scheme = _scheme(_object(sc, path), path)
        if scheme is None and "a" in sc and "b" in sc:  # parametric baseline
            scheme = {k: _numbers(sc[k], f"{path}/{k}") for k in ("a", "b")}
        if scheme is None:
            raise ConfigError("scheme needs 'step', 'pieces', or 'a'/'b' ranges", path)
        schemes[name] = scheme

    return feeder, inputs, schemes, _run_options(cfg, max_iter=200)


def format_float(value) -> str:
    """12 significant digits, plain decimal or exponent as %g chooses."""
    return f"{value:.12g}"


def write_csv(path, header, rows):
    """UTF-8, LF-terminated CSV with one header row; floats at 12 digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    format_float(v) if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )
