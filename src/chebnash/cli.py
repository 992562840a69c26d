"""Command-line front end: solve, simulate and compare.

Configuration is resolved in three layers: preset defaults, then an
optional JSON config file, then command-line flags.  Every run writes a
``run.json`` echoing the fully resolved configuration (schema_version 1);
re-running from that file reproduces all numeric outputs bitwise.

Exit codes: 0 success/converged, 2 usage or configuration error,
3 solver did not converge within max_iters.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .game import GameSpec, build_state_grid
from .oracle import lq_solve, policy_error
from .presets import PRESET_NAMES, preset_spec, spec_from_dict, spec_to_dict
from .solver import fit_policy, simulate, solve

SCHEMA_VERSION = 1
_FLOAT_FMT = "%.16e"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc


def _resolve_config(args) -> dict:
    """Merge preset defaults, config file and flags into one run dict."""
    file_cfg: dict = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    preset = args.preset or file_cfg.get("preset") or "custom"
    if preset != "custom" and preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}")

    game: dict = {}
    if preset != "custom":
        game = spec_to_dict(preset_spec(preset))
    if "game" in file_cfg:
        game.update(file_cfg["game"])
    if not game:
        raise ConfigError("custom runs need a config file with a full 'game' section")

    flag_map = {"h": args.h, "tol": args.tol, "rho": args.rho,
                "P_max": args.pm, "U_max": args.um}
    for key, val in flag_map.items():
        if val is not None:
            game[key] = val
    if args.np is not None:
        game["Np"] = args.np if len(args.np) > 1 else args.np[0]
    if args.nu is not None:
        game["Nu"] = args.nu if len(args.nu) > 1 else args.nu[0]

    cfg = {
        "schema_version": SCHEMA_VERSION,
        "preset": preset,
        "game": game,
        "p0": file_cfg.get("p0", [0.0] * int(game.get("J", 0))),
        "sim_horizon": file_cfg.get("sim_horizon", 20.0),
    }
    if args.p0 is not None:
        cfg["p0"] = args.p0
    if args.sim_horizon is not None:
        cfg["sim_horizon"] = args.sim_horizon
    return cfg


def _spec_from_config(cfg: dict) -> GameSpec:
    """Validate cfg['game'] and normalise it back into the config echo."""
    try:
        spec = spec_from_dict(cfg["game"])
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid game parameters: {exc}") from exc
    cfg["game"] = spec_to_dict(spec)
    if len(cfg.get("p0", [])) != spec.J:
        raise ConfigError(f"p0 needs {spec.J} components")
    return spec


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_json(out: Path, cfg: dict):
    (out / "run.json").write_text(json.dumps(cfg, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Comma-separated, '.' decimals, one header row, LF endings."""
    int_cols = {i for i, c in enumerate(columns) if np.issubdtype(np.asarray(c).dtype, np.integer)}
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        n = len(np.asarray(columns[0]))
        for r in range(n):
            cells = [
                (str(int(np.asarray(c)[r])) if i in int_cols else _FLOAT_FMT % np.asarray(c)[r])
                for i, c in enumerate(columns)
            ]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    spec = _spec_from_config(cfg)
    out = _out_dir(args)
    grid = build_state_grid(spec)
    result = solve(spec)
    _write_run_json(out, cfg)

    idx = np.arange(grid.n_nodes)
    p_cols = [grid.nodes[:, d] for d in range(spec.J)]
    _write_csv(
        out / "policy.csv",
        ["node"] + [f"p_{d+1}" for d in range(spec.J)] + [f"u_{d+1}" for d in range(spec.J)],
        [idx] + p_cols + [result.policy.values[d] for d in range(spec.J)],
    )
    _write_csv(
        out / "value.csv",
        ["node"] + [f"p_{d+1}" for d in range(spec.J)] + [f"V_{d+1}" for d in range(spec.J)],
        [idx] + p_cols + [result.values.values[d] for d in range(spec.J)],
    )
    iters = np.arange(1, result.iterations + 1)
    _write_csv(
        out / "convergence.csv",
        ["iteration"] + [f"supdiff_{d+1}" for d in range(spec.J)],
        [iters] + [result.history[:, d] for d in range(spec.J)],
    )
    status = "converged" if result.converged else "not converged"
    print(f"{status} after {result.iterations} sweeps and "
          f"{result.evaluations} policy evaluations, {result.rejected} rejected "
          f"(final residual {result.history[-1].max():.3e}, "
          f"{result.timings['total']:.2f} s)")
    return 0 if result.converged else 3


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    run_file = out / "run.json"
    policy_file = out / "policy.csv"
    if not run_file.exists() or not policy_file.exists():
        raise ConfigError(f"no solved policy in {out}; run 'solve' first")
    try:
        cfg = json.loads(run_file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read {run_file}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{run_file} must hold a JSON object")
    if args.p0 is not None:
        cfg["p0"] = args.p0
    if args.sim_horizon is not None:
        cfg["sim_horizon"] = args.sim_horizon
    spec = _spec_from_config(cfg)
    grid = build_state_grid(spec)

    try:
        table = np.genfromtxt(policy_file, delimiter=",", names=True)
    except (ValueError, IndexError) as exc:     # IndexError: an empty file
        raise ConfigError(f"cannot read {policy_file}: {exc}") from exc
    missing = [f"u_{d+1}" for d in range(spec.J) if f"u_{d+1}" not in (table.dtype.names or ())]
    if missing:
        raise ConfigError(f"{policy_file} lacks column(s) {', '.join(missing)}")
    policy_values = np.stack(
        [np.atleast_1d(table[f"u_{d+1}"]) for d in range(spec.J)], axis=0
    )
    if policy_values.shape[1] != grid.n_nodes:
        raise ConfigError("policy.csv does not match the configured grid")
    from .solver import PolicyField

    policies = fit_policy(grid, PolicyField(values=policy_values))
    p0 = np.asarray(cfg["p0"], dtype=float)
    horizon = float(cfg["sim_horizon"])
    if not (np.isfinite(horizon) and horizon >= 0.0):
        raise ConfigError(f"sim_horizon must be finite and non-negative, got {horizon}")
    n_steps = int(round(horizon / spec.h))
    try:
        path = simulate(spec, policies, p0, n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_csv(
        out / "timepath.csv",
        ["t"] + [f"p_{d+1}" for d in range(spec.J)] + [f"u_{d+1}" for d in range(spec.J)],
        [path.t] + [path.states[:, d] for d in range(spec.J)]
        + [path.controls[:, d] for d in range(spec.J)],
    )
    print(f"wrote {out / 'timepath.csv'} ({n_steps + 1} rows)")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    spec = _spec_from_config(cfg)
    if spec.J != 2:
        print("no oracle: closed-form comparison needs a 2-player game", file=sys.stderr)
        return 2
    degrees = args.np_list if args.np_list is not None else [2, 4, 8]
    out = _out_dir(args)
    _write_run_json(out, cfg)
    errors = []
    times = []
    for deg in degrees:
        spec_d = spec_from_dict({**cfg["game"], "Np": deg})
        grid = build_state_grid(spec_d)
        feedback = lq_solve(spec_d, grid)
        t0 = time.perf_counter()
        result = solve(spec_d)
        times.append(time.perf_counter() - t0)
        if not result.converged:
            print(f"warning: Np={deg} did not converge", file=sys.stderr)
        errors.append(policy_error(result.policy, feedback, grid))
        print(f"Np={deg}: error {errors[-1]:.6e}  ({times[-1]:.2f} s)")
    _write_csv(
        out / "error.csv",
        ["np", "error", "wall_time"],
        [np.asarray(degrees, dtype=int), np.asarray(errors), np.asarray(times)],
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=list(PRESET_NAMES), help="named experiment preset")
    p.add_argument("--out", default="runs/latest", help="output directory")
    p.add_argument("--np", type=_parse_ints, help="state degrees (int or comma list)")
    p.add_argument("--nu", type=_parse_ints, help="control degrees (int or comma list)")
    p.add_argument("--h", type=float, help="time step")
    p.add_argument("--tol", type=float, help="convergence tolerance")
    p.add_argument("--rho", type=float, help="discount rate")
    p.add_argument("--pm", type=float, help="state upper bound P_max")
    p.add_argument("--um", type=float, help="control upper bound U_max")
    p.add_argument("--sim-horizon", type=float, dest="sim_horizon",
                   help="simulation horizon in time units")
    p.add_argument("--p0", type=_parse_floats, help="initial state, comma separated")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebnash",
        description="Chebyshev collocation solver for discrete-space pollution games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="compute the feedback equilibrium")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)
    p_sim = sub.add_parser("simulate", help="roll out a solved policy")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    p_cmp = sub.add_parser("compare", help="error vs the closed-form 2-player solution")
    _add_common(p_cmp)
    p_cmp.add_argument("--np-list", type=_parse_ints, dest="np_list",
                       help="state degrees to sweep (default 2,4,8)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
