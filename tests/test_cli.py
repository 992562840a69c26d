"""End-to-end tests of the command-line interface and its file formats."""

import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from chebnash.cli import _build_parser, main
from chebnash.solver import solve

FAST = ["--h", "0.01", "--tol", "1e-4", "--rho", "0.5", "--np", "2"]


def run_cli(args):
    # Small example1 runs may clamp successors; the warning is not under test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(args)


def read_csv(path):
    # A one-row file (a solve that stops after one sweep) reads as one record.
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))


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


def test_solve_line_shows_the_start_and_sweep_times(tmp_path, capsys, monkeypatch):
    results = []

    def recording_solve(spec):
        results.append(solve(spec))
        return results[-1]

    monkeypatch.setattr("chebnash.cli.solve", recording_solve)
    assert run_cli(["solve", "--preset", "example1", *FAST, "--out", str(tmp_path / "run")]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    found = re.search(r"LQ start (\S+) s, sweeps (\S+) s\)$", line)
    assert found, line
    timings = results[0].timings
    assert found.groups() == (f"{timings['start']:.3g}", f"{timings['sweeps']:.3g}")
    assert 0.0 < float(found[1]) and 0.0 < float(found[2])


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
    # At rho = 0.5 this game does not settle (see CLAMP_HEAVY), so the
    # preset's rate stays.
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example4", "--h", "0.01", "--tol", "1e-4",
                    "--np", "2", "--out", str(out)]) == 0
    cfg = json.loads((out / "run.json").read_text())
    assert cfg["game"]["K"] == [
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -3.0, 1.0, 1.0],
        [0.0, 1.0, -2.0, 1.0],
        [0.0, 1.0, 1.0, -2.0],
    ]


# Successors of the policy clamp at about 2% of their components here, and
# the iteration does not settle within 5 sweeps at Np = 2 or 3; the LQ
# oracle's feedback stays inside [0, U_max] on both grids.
CLAMP_HEAVY = {"h": 0.01, "tol": 1e-4, "rho": 0.5, "max_iters": 5}


def test_solve_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "run"
    cfg = {"preset": "example4", "game": {**CLAMP_HEAVY, "Np": 2}}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert run_cli(["solve", "--config", str(cfg_file), "--out", str(out)]) == 3
    assert len(read_csv(out / "convergence.csv")) == 5


def test_compare_nonconvergence_exit_code_after_writing_errors(tmp_path):
    out = tmp_path / "run"
    cfg = {"preset": "example4", "np_list": [2, 3], "game": CLAMP_HEAVY}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert run_cli(["compare", "--config", str(cfg_file), "--out", str(out)]) == 3
    assert read_csv(out / "error.csv")["np"].tolist() == [2, 3]


def test_refused_lq_start_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_config_file(tmp_path, UNSETTLED)) == 2
    assert "not settled" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("key,value", [("threads", 2), ("blocks", 3), ("Nu", [2, 2])])
def test_run_json_with_threads_key_reproduces_outputs_bitwise(tmp_path, key, value):
    # run.json files written by earlier versions carry "threads" and
    # "blocks" entries, ignored like any other unknown key, and their game
    # carries the control degree "Nu", accepted where it is max(2, Np).
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out1)])
    cfg = json.loads((out1 / "run.json").read_text())
    section = cfg["game"] if key == "Nu" else cfg
    assert key not in section
    assert len(read_csv(out1 / "policy.csv")) == 9
    section[key] = value
    old_run = tmp_path / "old_run.json"
    old_run.write_text(json.dumps(cfg, indent=2) + "\n")
    run_cli(["solve", "--config", str(old_run), "--out", str(out2)])
    for name in ("policy.csv", "value.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "example1", *FAST, "--threads", "2"],
    ["solve", "--preset", "example1", *FAST, "--blocks", "3"],
    ["bench-blocks", "--preset", "example1", *FAST],
    ["simulate", "--preset", "example3"],
    ["simulate", "--h", "0.5"],
    ["compare", "--preset", "example1", "--np", "2"],
    ["compare", "--preset", "example1", "--p0", "0,0"],
    ["solve", "--preset", "example1", *FAST, "--nu", "2"],
    ["compare", "--preset", "example1", "--nu", "2"],
], ids=["threads", "blocks", "bench-blocks", "simulate-preset", "simulate-h",
        "compare-np", "compare-p0", "nu", "compare-nu"])
def test_threads_flag_is_usage_error(tmp_path, argv):
    # Removed options and commands, and flags a command does not read, fail
    # in argument parsing; no flag is taken as an abbreviation (--h of --help).
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
             "--rho", "0.5", "--np", "2", "--out", str(out)])
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


def test_simulate_after_compare_in_the_same_directory_names_compare(tmp_path, capsys):
    # Earlier versions wrote compare's echo to run.json, over a solve run's.
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)]) == 0
    assert run_cli(["compare", "--preset", "example1", "--h", "0.01", "--tol", "1e-4",
                    "--rho", "0.5", "--np-list", "2", "--out", str(out)]) == 0
    (out / "run.json").write_bytes((out / "compare.json").read_bytes())
    capsys.readouterr()
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "written by 'compare'" in err and "'solve' run" in err
    assert not (out / "timepath.csv").exists()


def test_compare_keeps_the_solve_run_in_the_same_directory(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)]) == 0
    solved = (out / "run.json").read_bytes()
    assert run_cli(["compare", "--preset", "example1", "--h", "0.01", "--tol", "1e-4",
                    "--rho", "0.5", "--np-list", "2", "--out", str(out)]) == 0
    assert (out / "run.json").read_bytes() == solved
    assert json.loads((out / "compare.json").read_text())["np_list"] == [2]
    assert main(["simulate", "--out", str(out), "--sim-horizon", "1"]) == 0
    assert (out / "timepath.csv").exists()


def _last_cell_of_first_row(text, cell):
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + cell
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, edit, message", [
    ("run.json", lambda text: "{bad", "run.json"),
    ("policy.csv", lambda text: text.replace("u_2", "v_2", 1), "u_2"),
    ("policy.csv", lambda text: "", "policy.csv"),
    ("policy.csv", lambda text: _last_cell_of_first_row(text, "abc"), "non-finite control"),
    ("policy.csv", lambda text: _last_cell_of_first_row(text, "nan"), "non-finite control"),
], ids=["run.json", "policy.csv", "empty-policy.csv", "non-numeric-u", "nan-u"])
@pytest.mark.filterwarnings("ignore:genfromtxt:UserWarning")
def test_simulate_malformed_inputs_are_usage_errors(tmp_path, capsys, name, edit, message):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    (out / name).write_text(edit((out / name).read_text()))
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (out / "timepath.csv").exists()


# Explicit Euler overshoots the fast exchange K / m on this game, so the LQ
# feedback's closed loop is unstable and the LQ start is refused.
UNSETTLED = {"preset": "example1", "game": {"m": 1e-6, "h": 0.01, "Np": 3}}


def _config_file(tmp_path, cfg, command="solve"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return [command, "--config", str(path), "--out", str(tmp_path / "run")]


def _simulate_edited_run(tmp_path, **edit):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    cfg = {**json.loads((out / "run.json").read_text()), **edit}
    (out / "run.json").write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return ["simulate", "--out", str(out)]


def _file_at_run(tmp_path, *argv):
    """`argv`, after putting a plain file where the directory <tmp>/run would go."""
    (tmp_path / "run").write_text("")
    return list(argv)


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp: ["compare", "--preset", "example1", "--pm", "1.2", "--np-list", "2",
                  "--out", str(tmp / "run")], "oracle invalid"),
    (lambda tmp: ["compare", "--preset", "example1", "--np-list", "0",
                  "--out", str(tmp / "run")], "Np=0"),
    (lambda tmp: _config_file(tmp, [1, 2]), "JSON object"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "game": [1, 2]}), "'game'"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "p0": 0.1}), "p0"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "game": {"J": "x"}}),
     "J must be an integer"),
    (lambda tmp: _simulate_edited_run(tmp, sim_horizon=None), "sim_horizon"),
    (lambda tmp: _simulate_edited_run(tmp, p0=["a", "b"]), "p0"),
    (lambda tmp: ["solve", "--preset", "example1", "--np", ",", "--out", str(tmp / "run")],
     "empty integer list"),
    (lambda tmp: ["solve", "--preset", "example1", "--np", "x", "--out", str(tmp / "run")],
     "cannot parse integer list"),
    (lambda tmp: ["compare", "--preset", "example1", "--np-list", ",",
                  "--out", str(tmp / "run")], "empty integer list"),
    (lambda tmp: ["solve", "--preset", "example1", "--p0", "5,5", "--out", str(tmp / "run")],
     "p0"),
    (lambda tmp: ["solve", "--preset", "example1", "--sim-horizon", "-1",
                  "--out", str(tmp / "run")], "sim_horizon"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "p0": [True, False]}), "p0"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "sim_horizon": True}),
     "sim_horizon"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "sim_horizon": 10**400}),
     "sim_horizon"),
    (lambda tmp: _config_file(tmp, UNSETTLED), "not settled"),
    (lambda tmp: [*_config_file(tmp, UNSETTLED, "compare"), "--np-list", "2"],
     "not settled"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "np_list": 2}, "compare"),
     "np_list"),
    (lambda tmp: _config_file(tmp, {"preset": "example1", "game": {"Np": 2, "Nu": 3}}),
     "Nu must be max(2, Np) = [2, 2]"),
    # compare.json of an earlier version: the preset's Nu = 8 at every degree.
    (lambda tmp: _config_file(tmp, {"preset": "example1", "np_list": [2, 4, 8],
                                    "game": {"Np": [8, 8], "Nu": [8, 8]}}, "compare"),
     "Np=2: invalid game parameters: Nu must be max(2, Np) = [2, 2]"),
    (lambda tmp: _file_at_run(tmp, "solve", "--preset", "example1", "--out", str(tmp / "run")),
     "cannot use {tmp}/run as the output directory"),
    (lambda tmp: _file_at_run(tmp, "compare", "--preset", "example1", "--h", "0.01",
                              "--np-list", "2", "--out", str(tmp / "run" / "x")),
     "cannot use {tmp}/run/x as the output directory"),
    # Both paths exceed the 128 TiB address space; none may be allocated.
    (lambda tmp: [*_simulate_edited_run(tmp), "--sim-horizon", "1e13"],
     "sim_horizon 10000000000000.0 at h = 0.01 is 1e+15 Euler steps"),
    (lambda tmp: ["solve", "--preset", "example1", "--sim-horizon", "1e300",
                  "--out", str(tmp / "run")], "sim_horizon 1e+300 at h = 0.001 is 1e+303"),
], ids=["invalid-oracle", "np-list-0", "config-list", "game-list", "p0-number",
        "J-string", "no-sim_horizon", "p0-strings", "np-empty", "np-string",
        "np-list-empty", "p0-outside-box", "negative-horizon", "p0-bools", "horizon-bool",
        "horizon-past-float-range", "lq-unsettled", "compare-lq-unsettled", "np_list-number",
        "nu-mismatch", "compare-nu-mismatch",
        "out-is-a-file", "out-under-a-file", "simulate-path-past-memory",
        "solve-path-past-memory"])
def test_malformed_input_is_usage_error_before_any_work(tmp_path, capsys, make_argv, message):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message.format(tmp=tmp_path) in err
    assert not (tmp_path / "run" / "error.csv").exists()
    assert not (tmp_path / "run" / "timepath.csv").exists()
    if argv[0] != "simulate":       # simulate reads the run.json that solve wrote
        assert not (tmp_path / "run" / "run.json").exists()
    assert not (tmp_path / "run" / "compare.json").exists()


def test_simulate_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    # A path inside the address space can still need more memory than there
    # is; the stub stands in for an allocation that fails.
    argv = _simulate_edited_run(tmp_path)

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr("chebnash.cli.simulate", out_of_memory)
    capsys.readouterr()
    assert main([*argv, "--sim-horizon", "1e9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at h = 0.01 is 1e+11 Euler steps" in err
    assert not (tmp_path / "run" / "timepath.csv").exists()


def test_policy_roundtrip_is_lossless(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--preset", "example1", *FAST, "--out", str(out)])
    table = read_csv(out / "policy.csv")
    from chebnash.presets import preset_spec
    from chebnash.solver import solve as lib_solve
    import warnings

    spec = preset_spec("example1", h=0.01, tol=1e-4, rho=0.5, Np=2)
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


def test_compare_rerun_from_compare_json_runs_the_same_degrees(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["compare", "--preset", "example1", "--h", "0.01", "--tol", "1e-4",
                    "--rho", "0.5", "--np-list", "2,3", "--out", str(out1)]) == 0
    assert json.loads((out1 / "compare.json").read_text())["np_list"] == [2, 3]
    assert not (out1 / "run.json").exists()
    assert run_cli(["compare", "--config", str(out1 / "compare.json"), "--out", str(out2)]) == 0
    assert (out1 / "compare.json").read_bytes() == (out2 / "compare.json").read_bytes()

    def np_and_error(out):
        return [line.rsplit(",", 1)[0] for line in (out / "error.csv").read_text().splitlines()]

    assert np_and_error(out1) == np_and_error(out2)
    assert len(np_and_error(out1)) == 3


def test_compare_runs_four_players(tmp_path):
    # The oracle is exact for any J where its feedback stays in [0, U_max].
    out = tmp_path / "run"
    assert main(["compare", "--preset", "example4", "--h", "0.01", "--np-list", "2,3",
                 "--out", str(out)]) == 0
    table = read_csv(out / "error.csv")
    assert table["np"].tolist() == [2, 3]
    assert 0.0 < table["error"][1] < table["error"][0] < 1e-2
