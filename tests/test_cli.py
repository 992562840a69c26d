"""End-to-end tests of the command-line interface and its file formats."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from chebnash.cli import _build_parser, main

FAST = ["--h", "0.01", "--tol", "1e-4", "--rho", "0.5", "--np", "2", "--nu", "2"]


def run_cli(args):
    # Small example1 runs may clamp successors; the warning is not under test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(args)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_all_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)]) == 0
    for name in ("policy.csv", "value.csv", "convergence.csv", "run.json"):
        assert (out / name).exists()
    policy = read_csv(out / "policy.csv")
    assert policy.dtype.names == ("node", "p_1", "p_2", "u_1", "u_2")
    assert policy.shape[0] == 9            # (Np+1)^2 rows
    value = read_csv(out / "value.csv")
    assert value.dtype.names == ("node", "p_1", "p_2", "V_1", "V_2")
    conv = read_csv(out / "convergence.csv")
    assert conv.dtype.names == ("iteration", "supdiff_1", "supdiff_2")
    assert conv["supdiff_1"][-1] < 1e-4


def test_run_json_echoes_resolved_config(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["schema_version"] == 1
    assert cfg["preset"] == "example1"
    assert cfg["game"]["h"] == 0.01 and cfg["game"]["Np"] == [2, 2]
    assert cfg["game"]["K"] == [[-1.0, 1.0], [1.0, -1.0]]


def test_example3_preset_coupling_matrix(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example3", *FAST, "--out", str(out)]) == 0
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["game"]["K"] == [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]


def test_example4_preset_coupling_matrix(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example4", *FAST, "--out", str(out)]) == 0
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["game"]["K"] == [
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -3.0, 1.0, 1.0],
        [0.0, 1.0, -2.0, 1.0],
        [0.0, 1.0, 1.0, -2.0],
    ]


def test_solve_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "run"
    cfg = {"preset": "example1",
           "game": {"h": 0.01, "tol": 1e-12, "rho": 0.5, "Np": 2, "Nu": 2,
                    "max_iters": 5}}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert run_cli(["solve", "--config", str(cfg_file), "--out", str(out)]) == 3


def test_custom_without_config_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_rerun_from_run_json_reproduces_outputs_bitwise(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out1)])
    run_cli(["solve", "--config", str(out1 / "run.json"), "--out", str(out2)])
    assert (out1 / "policy.csv").read_bytes() == (out2 / "policy.csv").read_bytes()
    assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()


@pytest.mark.parametrize("key,value", [("threads", 2), ("blocks", 3)])
def test_run_json_with_threads_key_reproduces_outputs_bitwise(tmp_path, key, value):
    # run.json files written by earlier versions carry "threads" and
    # "blocks" entries; they are ignored like any other unknown key.
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out1)])
    cfg = json.loads((out1 / "run.json").read_text())
    assert key not in cfg
    assert len(read_csv(out1 / "policy.csv")) == 9
    cfg[key] = value
    old_run = tmp_path / "old_run.json"
    old_run.write_text(json.dumps(cfg, indent=2) + "\n")
    run_cli(["solve", "--config", str(old_run), "--out", str(out2)])
    for name in ("policy.csv", "value.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "example1", *FAST, "--threads", "2"],
    ["solve", "--preset", "example1", *FAST, "--blocks", "3"],
    ["bench-blocks", "--preset", "example1", *FAST],
], ids=["threads", "blocks", "bench-blocks"])
def test_threads_flag_is_usage_error(tmp_path, argv):
    # Removed options and commands fail in argument parsing.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("chebnash ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": "example1", "game": {"h": 0.01}}))
    out = tmp_path / "run"
    run_cli(["solve", "--config", str(cfg_file), "--h", "0.02", "--tol", "1e-3",
             "--rho", "0.5", "--np", "2", "--nu", "2", "--out", str(out)])
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["game"]["h"] == 0.02


def test_csv_uses_lf_and_dot_decimal(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    raw = (out / "policy.csv").read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw.split(b"\n")[0]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_timepath_with_symmetric_controls(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    assert main(["simulate", "--out", str(out), "--sim-horizon", "2.0",
                 "--p0", "0,0"]) == 0
    path = read_csv(out / "timepath.csv")
    assert path.dtype.names == ("t", "p_1", "p_2", "u_1", "u_2")
    assert path.shape[0] == 201
    np.testing.assert_allclose(path["u_1"], path["u_2"], atol=1e-6)


def test_simulate_zero_horizon_initial_row_only(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    assert main(["simulate", "--out", str(out), "--sim-horizon", "0",
                 "--p0", "0.1,0.2"]) == 0
    raw = (out / "timepath.csv").read_text().strip().split("\n")
    assert len(raw) == 2     # header plus the initial state
    first = raw[1].split(",")
    assert float(first[1]) == pytest.approx(0.1)


def test_simulate_negative_horizon_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    assert main(["simulate", "--out", str(out), "--sim-horizon", "-1"]) == 2
    assert "sim_horizon" in capsys.readouterr().err
    assert not (out / "timepath.csv").exists()


def test_simulate_without_policy_is_error(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "nothing")])
    assert rc == 2
    assert "solve" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, message", [
    ("run.json", lambda text: "{bad", "run.json"),
    ("policy.csv", lambda text: text.replace("u_2", "v_2", 1), "u_2"),
    ("policy.csv", lambda text: "", "policy.csv"),
], ids=["run.json", "policy.csv", "empty-policy.csv"])
@pytest.mark.filterwarnings("ignore:genfromtxt:UserWarning")
def test_simulate_malformed_inputs_are_usage_errors(tmp_path, capsys, name, edit, message):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    (out / name).write_text(edit((out / name).read_text()))
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (out / "timepath.csv").exists()


def test_policy_roundtrip_is_lossless(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    table = read_csv(out / "policy.csv")
    from chebnash.presets import preset_spec
    from chebnash.solver import solve as lib_solve
    import warnings

    spec = preset_spec("example1", h=0.01, tol=1e-4, rho=0.5, Np=2, Nu=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = lib_solve(spec)
    for i in range(2):
        np.testing.assert_array_equal(table[f"u_{i+1}"], result.policy.values[i])


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_errors_decrease_and_rerun_is_bitwise(tmp_path):
    out1 = tmp_path / "a"
    args = ["compare", "--preset", "example1", "--h", "0.01", "--tol", "1e-4",
            "--rho", "0.5", "--np-list", "2,4"]
    assert run_cli([*args, "--out", str(out1)]) == 0
    table = read_csv(out1 / "error.csv")
    assert tuple(table.dtype.names) == ("np", "error", "wall_time")
    assert table["error"][0] > table["error"][1]
    out2 = tmp_path / "b"
    assert run_cli([*args, "--out", str(out2)]) == 0
    a = [line.split(",")[1] for line in (out1 / "error.csv").read_text().splitlines()[1:]]
    b = [line.split(",")[1] for line in (out2 / "error.csv").read_text().splitlines()[1:]]
    assert a == b


def test_compare_single_degree_single_row(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["compare", "--preset", "example1", "--h", "0.01", "--tol", "1e-4",
                    "--rho", "0.5", "--np-list", "3", "--out", str(out)]) == 0
    assert len((out / "error.csv").read_text().strip().splitlines()) == 2


def test_compare_refuses_three_players(tmp_path, capsys):
    rc = main(["compare", "--preset", "example3", *FAST, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no oracle" in capsys.readouterr().err
