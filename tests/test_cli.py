import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from obro import cli
from obro.bess import assemble_bess_problem
from obro.cli import main
from obro.configio import (
    ConfigError,
    bess_case_from_config,
    format_float,
    load_config,
    problem_from_config,
)
from obro.linsolve import HighsSolver
from obro.model import validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read(path):
    return Path(path).read_bytes()


class TestConfigIo:
    def test_tiny_identity_roundtrip(self):
        cfg = load_config(CONFIGS / "tiny_identity.json")
        prob, options = problem_from_config(cfg)
        assert prob.n_vars == 1
        assert options["tol"] == 1e-6
        assert prob.terms[0].spec.delta_max == 0.1

    def test_error_paths(self, tmp_path):
        bad = {"variables": [{"name": "x"}], "epsilon": 0.1, "terms": [{}]}
        with pytest.raises(ConfigError, match="/terms/0/partition"):
            problem_from_config(bad)
        bad2 = {
            "variables": [{"name": "x", "lower": 0, "upper": 1}],
            "epsilon": 0.1,
            "terms": [
                {
                    "partition": [0, 1],
                    "reference_values": [0, 1, 2],
                    "delta_max": 0.1,
                    "dev_max": 1,
                    "lip_ratio": 2,
                    "evaluations": ["x"],
                }
            ],
        }
        with pytest.raises(ConfigError, match="/terms/0/reference_values"):
            problem_from_config(bad2)

    def test_unknown_variable_reference(self):
        cfg = json.loads((CONFIGS / "tiny_identity.json").read_text())
        cfg["terms"][0]["evaluations"] = ["y"]
        with pytest.raises(ConfigError, match="unknown variable 'y'"):
            problem_from_config(cfg)

    def test_infinite_row_rhs_is_accepted(self):
        cfg = json.loads((CONFIGS / "tiny_identity.json").read_text())
        cfg["rows"] = [{"coeffs": {"x": 1.0}, "rhs": float("inf")}]
        prob, _ = problem_from_config(cfg)
        assert prob.rows[0].rhs == np.inf and validate(prob) == []

    def test_format_float_significant_digits(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0 / 3.0) == "0.333333333333"
        assert format_float(1.736) == "1.736"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config(name):
    # a feeder config assembles a valid problem for every PWL scheme; both
    # flavours reject a zero tol or max_iter at its own path
    cfg = load_config(CONFIGS / name)
    if "feeder" in cfg:
        parse = bess_case_from_config
        feeder, inputs, schemes, _ = parse(cfg)
        assert set(schemes) == {"sparse", "benchmark", "dense", "hetero", "parametric"}
        for scheme in schemes.values():
            if not isinstance(scheme, dict):
                assert validate(assemble_bess_problem(feeder, replace(inputs, scheme=scheme))) == []
    else:
        parse = problem_from_config
        assert validate(parse(cfg)[0]) == []
    for key in ("tol", "max_iter"):
        with pytest.raises(ConfigError, match=f"^/{key}: "):
            parse({**cfg, key: 0})


# (command, keys down to the value to replace, bad value, path the error cites)
MALFORMED = {
    "max_iter-string": ("solve", ["max_iter"], "ten", "/max_iter"),
    "max_iter-fraction": ("solve", ["max_iter"], 2.7, "/max_iter"),
    "max_iter-bool": ("solve", ["max_iter"], True, "/max_iter"),
    "max_iter-zero": ("solve", ["max_iter"], 0, "/max_iter"),
    "partition-repeat": ("solve", ["terms", 0, "partition"], [0, 0, 1], "/terms/0/partition"),
    "reference-string": (
        "solve", ["terms", 0, "reference_values"], ["a", 1], "/terms/0/reference_values/0"
    ),
    "pieces-empty": (
        "solve", ["terms", 0, "partition"], {"lo": 0.0, "hi": 1.0, "pieces": []},
        "/terms/0/partition/pieces",
    ),
    "variable-number": ("solve", ["variables"], [5], "/variables/0"),
    "delta_max-string": ("solve", ["terms", 0, "delta_max"], "x", "/terms/0/delta_max"),
    "epsilon-nan": ("solve", ["epsilon"], float("nan"), "/epsilon"),
    "epsilon-inf": ("solve", ["epsilon"], float("inf"), "/epsilon"),
    "lip_ratio-inf": ("solve", ["terms", 0, "lip_ratio"], float("inf"), "/terms/0"),
    "delta_max-nan": ("solve", ["terms", 0, "delta_max"], float("nan"), "/terms/0/delta_max"),
    "delta_max-dev_max-inf": (
        "solve", ["terms", 0],
        {"partition": [0.0, 1.0], "reference_values": [0.0, 1.0], "delta_max": float("inf"),
         "dev_max": float("inf"), "lip_ratio": 2.0, "evaluations": ["x"]},
        "/terms/0",
    ),
    "tol-nan": ("solve", ["tol"], float("nan"), "/tol"),
    "cost-list": ("solve", ["cost"], [], "/cost"),
    "evaluations-number": ("solve", ["terms", 0, "evaluations"], 5, "/terms/0/evaluations"),
    "slots-string": ("bess", ["horizon", "slots"], "six", "/horizon/slots"),
    "bess-max_iter-string": ("bess", ["max_iter"], "many", "/max_iter"),
    "bess-tol-zero": ("bess", ["tol"], 0, "/tol"),
    "bess-epsilon-nan": ("bess", ["weights", "epsilon"], float("nan"), "/weights/epsilon"),
    "bess-epsilon-inf": ("bess", ["weights", "epsilon"], float("inf"), "/weights/epsilon"),
    "profile-node-key": ("bess", ["profiles", "load_p", "n1"], [0.0] * 6, "/profiles/load_p/n1"),
    "profile-strings": ("bess", ["profiles", "load_p", "2"], ["low"] * 6, "/profiles/load_p/2/0"),
    "profiles-list": ("bess", ["profiles"], [], "/profiles"),
    "piece-pair": (
        "bess", ["schemes", "hetero", "pieces"], [[0.0, 0.038]], "/schemes/hetero/pieces/0"
    ),
    "neighborhood-list": ("bess", ["neighborhood"], [], "/neighborhood"),
    "lines-number": ("bess", ["feeder", "lines"], 5, "/feeder/lines"),
    "line-node-list": ("bess", ["feeder", "lines", 0, "from"], [0], "/feeder/lines/0/from"),
    "battery-node-string": ("bess", ["batteries", 0, "node"], "2", "/batteries/0/node"),
    "battery-lip_ratio-1": ("bess", ["batteries", 0, "lip_ratio"], 1.0, "/batteries/0"),
    "battery-delta_max-negative": ("bess", ["batteries", 0, "delta_max"], -1, "/batteries/0"),
    "cost-minus-inf": ("solve", ["cost", "x"], float("-inf"), "/cost/x"),
    "cost-inf": ("solve", ["cost", "x"], float("inf"), "/cost/x"),
    "row-coefficient-inf": (
        "solve", ["rows"], [{"coeffs": {"x": float("inf")}, "rhs": 1}], "/rows/0/coeffs/x"
    ),
    "voltage-weight-negative": ("bess", ["weights", "voltage"], -1, "/weights/voltage"),
    "voltage-weight-inf": ("bess", ["weights", "voltage"], float("inf"), "/weights/voltage"),
    "battery-node-repeated": ("bess", ["batteries", 1, "node"], 2, "/batteries/1/node"),
    "battery-node-absent": ("bess", ["batteries", 0, "node"], 99, "/batteries/0/node"),
    "dt-zero": ("bess", ["horizon", "dt"], 0, "/horizon/dt"),
    "slots-zero": ("bess", ["horizon", "slots"], 0, "/horizon/slots"),
    "v_min-above-1": ("bess", ["limits", "v_min"], 1.01, "/limits"),
    "battery-p_min-above-p_max": ("bess", ["batteries", 0, "p_min"], 0.05, "/batteries/0"),
    "battery-e_0-above-e_max": ("bess", ["batteries", 0, "e_0"], 1.0, "/batteries/0"),
    "battery-e_max-zero": ("bess", ["batteries", 0, "e_max"], 0, "/batteries/0"),
    "battery-depth-over-1": ("bess", ["batteries", 0, "p_max"], 1.0, "/batteries/0"),
    "line-r-zero": ("bess", ["feeder", "lines", 0, "r"], 0.0, "/feeder"),
    "line-r-inf": ("bess", ["feeder", "lines", 0, "r"], float("inf"), "/feeder/lines/0/r"),
    "line-x-inf": ("bess", ["feeder", "lines", 0, "x"], float("inf"), "/feeder/lines/0/x"),
    "substation_voltage-inf": (
        "bess", ["feeder", "substation_voltage"], float("inf"), "/feeder/substation_voltage"
    ),
    "dt-inf": ("bess", ["horizon", "dt"], float("inf"), "/horizon/dt"),
    "profile-value-inf": (
        "bess", ["profiles", "load_p", "2"], [float("inf")] + [0.0] * 5, "/profiles/load_p/2/0"
    ),
    "battery-p_min-minus-inf": (
        "bess", ["batteries", 0, "p_min"], float("-inf"), "/batteries/0/p_min"
    ),
    "battery-p_max-inf": ("bess", ["batteries", 0, "p_max"], float("inf"), "/batteries/0/p_max"),
    "battery-e_max-inf": ("bess", ["batteries", 0, "e_max"], float("inf"), "/batteries/0/e_max"),
    "battery-e_0-inf": ("bess", ["batteries", 0, "e_0"], float("inf"), "/batteries/0/e_0"),
    "partition-lo-minus-inf": (
        "solve", ["terms", 0, "partition"], {"lo": float("-inf"), "hi": 1.0, "step": 0.5},
        "/terms/0/partition/lo",
    ),
    "partition-hi-inf": (
        "solve", ["terms", 0, "partition"], {"lo": 0.0, "hi": float("inf"), "step": 0.5},
        "/terms/0/partition/hi",
    ),
    "partition-step-inf": (
        "solve", ["terms", 0, "partition"], {"lo": 0.0, "hi": 1.0, "step": float("inf")},
        "/terms/0/partition/step",
    ),
    "piece-step-inf": (
        "bess", ["schemes", "hetero", "pieces"],
        [[0.0, 0.019, float("inf")], [0.019, 0.038, 0.002]], "/schemes/hetero/pieces/0/2",
    ),
    "parametric-a-inf": (
        "bess", ["schemes", "parametric", "a"], [9.0, float("inf")], "/schemes/parametric/a/1"
    ),
    "parametric-a-three": (
        "bess", ["schemes", "parametric", "a"], [9.0, 9.5, 10.0], "/schemes/parametric/a"
    ),
    "parametric-a-reversed": (
        "bess", ["schemes", "parametric", "a"], [10.0, 9.0], "/schemes/parametric/a"
    ),
    # counted before any point is built: 1e300 points would exhaust memory
    "partition-step-tiny": (
        "solve", ["terms", 0, "partition"], {"lo": 0.0, "hi": 1.0, "step": 1e-300},
        "/terms/0/partition",
    ),
}


@pytest.mark.parametrize("command, keys, value, path", MALFORMED.values(), ids=MALFORMED)
def test_malformed_value_is_a_config_error(tmp_path, capsys, command, keys, value, path):
    config = "tiny_identity" if command == "solve" else "bess_reduction"
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    *parents, last = keys
    owner = cfg
    for key in parents:
        owner = owner[key]
    owner[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    argv = [command, str(bad), "--out", str(tmp_path)]
    if command == "bess":
        argv += ["--scheme", "hetero"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_short_profile_is_a_config_error(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "bess_reduction.json").read_text())
    cfg["profiles"]["load_p"]["2"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["bess", str(bad), "--scheme", "hetero", "--out", str(tmp_path)]) == 1
    slots = cfg["horizon"]["slots"]
    assert capsys.readouterr().err == f"error: /profiles/load_p/2: need {slots} values\n"


def _undecodable(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    return str(path)


def _out_is_a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


def _iterations_csv_is_a_directory(tmp_path):
    (tmp_path / "out" / "iterations.csv").mkdir(parents=True)
    return str(tmp_path / "out")


TWO_POCKET = str(CONFIGS / "two_pocket.json")
FILE_ERRORS = {
    "solve-directory": lambda tmp: ["solve", str(tmp), "--out", str(tmp / "out")],
    "bess-directory": lambda tmp: ["bess", str(tmp), "--scheme", "x", "--out", str(tmp / "out")],
    "solve-undecodable": lambda tmp: ["solve", _undecodable(tmp), "--out", str(tmp / "out")],
    "verify-undecodable": lambda tmp: ["verify", _undecodable(tmp)],
    "out-is-a-file": lambda tmp: ["solve", TWO_POCKET, "--out", _out_is_a_file(tmp)],
    "iterations-csv-is-a-directory": lambda tmp: [
        "solve", TWO_POCKET, "--out", _iterations_csv_is_a_directory(tmp)
    ],
}


@pytest.mark.parametrize("argv", FILE_ERRORS.values(), ids=FILE_ERRORS)
def test_file_error_is_one_error_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_csv_write_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # any exception, not only an OSError, ends at main's one error boundary
    def fail(*args, **kwargs):
        raise ValueError("cannot write")

    monkeypatch.setattr(cli, "write_csv", fail)
    assert main(["solve", TWO_POCKET, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write\n"
    assert captured.out == ""


class TestCmdSolve:
    def test_converged_outputs(self, tmp_path):
        code = main(["solve", str(CONFIGS / "tiny_identity.json"), "--out", str(tmp_path)])
        assert code == 0
        for name in ("iterations.csv", "worst_functions.csv", "solution.csv"):
            assert (tmp_path / name).exists(), name
        lines = (tmp_path / "iterations.csv").read_text().splitlines()
        assert lines[0] == "k,UB,LB,gap"
        assert len(lines) >= 2
        sol = dict(
            line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]
        )
        assert float(sol["x"]) == pytest.approx(0.0, abs=1e-9)

    def test_nonpositive_epsilon_message(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "tiny_identity.json").read_text())
        cfg["epsilon"] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["solve", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bound, cost, issue",
        [
            (float("inf"), 0.0, "bounds[y]: lower must be below +inf"),
            (float("-inf"), -1.0, "bounds[y]: upper must be above -inf"),
        ],
    )
    def test_bounds_admitting_no_value(self, tmp_path, capsys, bound, cost, issue):
        # both were read as a free column: +inf converged with y = 0, and
        # -inf ended "master MILP ended unbounded"
        cfg = json.loads((CONFIGS / "tiny_identity.json").read_text())
        cfg["variables"].append({"name": "y", "lower": bound, "upper": bound})
        cfg["rows"] = [{"coeffs": {"x": 1.0, "y": 1.0}, "rhs": 5.0}]
        cfg["cost"] = {"y": cost}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {issue}\n"
        assert not (tmp_path / "solution.csv").exists()

    def test_max_iterations_exit_code(self, tmp_path):
        # the config's max_iter is 1
        code = main(["solve", str(CONFIGS / "two_pocket_truncated.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["solve", str(CONFIGS / "two_pocket.json"), "--out", str(out)]) == 0
        for name in ("iterations.csv", "worst_functions.csv", "solution.csv"):
            assert read(out1 / name) == read(out2 / name), name


class TestCmdBess:
    def test_sparse_scheme_on_reduction(self, tmp_path):
        code = main(
            [
                "bess",
                str(CONFIGS / "bess_reduction.json"),
                "--scheme",
                "sparse",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        sched = (tmp_path / "schedule.csv").read_text().splitlines()
        assert sched[0] == "node,timeslot,P_b,V,E_b"
        assert len(sched) == 1 + 8 * 6
        assert (tmp_path / "iterations.csv").exists()
        assert (tmp_path / "worst_functions.csv").exists()

    def test_hetero_scheme_partition_size(self, tmp_path):
        from obro.bess import assemble_bess_problem
        from obro.configio import bess_case_from_config, load_config

        cfg = load_config(CONFIGS / "bess_8node.json")
        feeder, inputs, schemes, _ = bess_case_from_config(cfg)
        inputs.scheme = schemes["hetero"]
        prob = assemble_bess_problem(feeder, inputs)
        # both subinterval grids enumerated directly share one breakpoint:
        # 26 points on [0, 0.02] at 0.0008 plus 11 on [0.02, 0.04] at 0.002
        assert prob.terms[0].spec.partition.n_points == 36

    def test_parametric_scheme(self, tmp_path):
        code = main(
            [
                "bess",
                str(CONFIGS / "bess_reduction.json"),
                "--scheme",
                "parametric",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "parametric.csv").read_text().splitlines()
        assert rows[0] == "worst_a,worst_b,value"
        a, b, _ = rows[1].split(",")
        assert (float(a), float(b)) == (10.0, 4.0)

    def test_unknown_scheme(self, tmp_path, capsys):
        code = main(
            [
                "bess",
                str(CONFIGS / "bess_reduction.json"),
                "--scheme",
                "nope",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "scheme 'nope'" in capsys.readouterr().err

    def test_bess_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "bess",
                        str(CONFIGS / "bess_reduction.json"),
                        "--scheme",
                        "sparse",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        for name in ("schedule.csv", "iterations.csv", "worst_functions.csv"):
            assert read(out1 / name) == read(out2 / name), name


GENERIC = ["degenerate_delta0", "tiny_identity", "two_pocket", "two_pocket_truncated",
           "two_term_coupled"]


@pytest.mark.parametrize("name", GENERIC)
def test_generic_config_commands_stay_off_highs(tmp_path, capsys, monkeypatch, name):
    # the backend rule keeps these small master blocks on the bundled
    # solver: with HiGHS refusing, solve and verify print, write and exit
    # as before
    def run_both(out_dir):
        seen = []
        for argv in (["solve", str(CONFIGS / f"{name}.json"), "--out", str(out_dir)],
                     ["verify", str(CONFIGS / f"{name}.json")]):
            seen.append((main(argv), capsys.readouterr()))
        return seen, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    before = run_both(tmp_path / "before")

    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS reached")

    monkeypatch.setattr(HighsSolver, "_milp", staticmethod(refuse))
    assert run_both(tmp_path / "after") == before


class TestCmdVerify:
    @pytest.mark.parametrize("name", ["degenerate_delta0", "two_term_coupled"])
    def test_config_all_pass(self, capsys, name):
        code = main(["verify", str(CONFIGS / f"{name}.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_identity_config_all_pass(self, capsys):
        code = main(["verify", str(CONFIGS / "tiny_identity.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_infinite_sup_radius_all_pass(self, tmp_path, capsys):
        # the grid spans the farthest one sample can move within dev_max;
        # it used to span linspace(-inf, inf) and find no feasible point
        cfg = json.loads((CONFIGS / "two_pocket.json").read_text())
        cfg["terms"][0].update(delta_max=float("inf"), dev_max=0.05)
        path = tmp_path / "unboxed.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 7 and "FAIL" not in out

    def test_default_levels_follow_grid_budget(self, capsys):
        # the 4-sample term needs 101**4 points at 101 levels, over the
        # budget; the default drops to the largest odd count that fits
        code = main(["verify", str(CONFIGS / "two_pocket.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_truncated_run_fails_fixed_point(self, capsys):
        code = main(["verify", str(CONFIGS / "two_pocket_truncated.json")])
        out = capsys.readouterr().out
        assert code != 0
        assert any("fixed point" in line and "FAIL" in line for line in out.splitlines())

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        # 15 samples need 3**15 points even at the fewest levels, over the
        # grid budget
        cfg = json.loads((CONFIGS / "tiny_identity.json").read_text())
        cfg["terms"][0]["partition"] = list(np.linspace(0, 1, 15))
        cfg["terms"][0]["reference_values"] = list(np.linspace(0, 1, 15))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", str(path)])
        assert code == 3
        assert "shrink the instance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", str(CONFIGS / "tiny_identity.json"), "--tol", "0.1"],
        ["bess", str(CONFIGS / "bess_reduction.json"), "--scheme", "sparse", "--max-iter", "1"],
        ["verify", str(CONFIGS / "tiny_identity.json"), "--levels", "101"],
    ],
    ids=["solve-tol", "bess-max-iter", "verify-levels"],
)
def test_config_alone_sets_run_options(capsys, argv):
    # tol and max_iter come from the config, the grid levels from its budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
