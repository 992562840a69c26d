"""Command-line front end: solve, simulate and compare.

Each command takes only the flags it reads:

* ``solve``: ``--config --preset --out --np --h --tol --rho --pm --um --p0
  --sim-horizon``;
* ``simulate``: ``--out --p0 --sim-horizon``; the game and the solved
  policy come from ``<out>/run.json`` and ``<out>/policy.csv`` of a solve
  run;
* ``compare``: ``--config --preset --out --h --tol --rho --pm --um
  --np-list``; the policy error against the exact LQ oracle, for any
  number of players, at every listed state degree where the oracle's
  feedback stays inside [0, U_max] on the grid.

solve and compare resolve their run in three layers: preset defaults,
then an optional JSON config file, then flags.  simulate starts from
``<out>/run.json`` and applies its flags.  Every run is validated before
any work; the control degree is max(2, Np), and a ``Nu`` in an older
file must equal it at every degree.  solve writes ``run.json`` and
compare ``compare.json``, each echoing the resolved run (schema_version
1); compare's carries the degrees it ran as ``np_list``.  Re-running
either command with that file as ``--config`` reproduces its numeric
outputs bitwise (compare's ``wall_time`` column aside).

Exit codes: 0 success/converged, 2 usage or configuration error or an LQ
start that does not settle, 3 solver did not converge within max_iters
(for compare: at some degree, after ``error.csv`` is written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .game import GameSpec, build_state_grid
from .oracle import check_oracle, lq_solve, policy_error
from .presets import PRESET_NAMES, preset_spec, spec_to_dict
from .solver import PolicyField, fit_policy, simulate, solve

SCHEMA_VERSION = 1
_FLOAT_FMT = "%.16e"

# Game flags (solve and compare) and the GameSpec fields they set.
_GAME_FLAGS = {"np": "Np", "h": "h", "tol": "tol", "rho": "rho", "pm": "P_max", "um": "U_max"}
# Run keys besides the game.  A command reads, and its run.json echoes,
# exactly the keys it has a flag for.
_RUN_KEYS = ("p0", "sim_horizon", "np_list")
_TOO_LONG = "sim_horizon {!r} at h = {!r} is {:.6g} Euler steps, too many to hold in memory"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_list(text: str, kind: type, what: str) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty {what} list {text!r}")
    return values


def _parse_floats(text: str) -> list[float]:
    return _parse_list(text, float, "number")


def _parse_ints(text: str) -> list[int]:
    return _parse_list(text, int, "integer")


def _read_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:     # ValueError: bad JSON or encoding
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _new_run(args, keys: list[str]) -> dict:
    """solve's or compare's base run: preset defaults overlaid by --config."""
    file_cfg = _read_json(args.config) if args.config else {}
    preset = args.preset or file_cfg.get("preset") or "custom"
    if preset != "custom" and preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}")

    game: dict = {}
    if preset != "custom":
        game = spec_to_dict(preset_spec(preset))
    if "game" in file_cfg:
        if not isinstance(file_cfg["game"], dict):
            raise ConfigError("the config's 'game' section must be a JSON object")
        game.update(file_cfg["game"])
    if not game:
        raise ConfigError("custom runs need a config file with a full 'game' section")

    defaults = {"sim_horizon": 20.0, "np_list": [2, 4, 8]}
    if "p0" in keys and "p0" not in file_cfg:
        try:
            defaults["p0"] = [0.0] * int(game.get("J", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid game parameters: J must be an integer, "
                              f"got {game.get('J')!r}") from exc
    cfg = {"schema_version": SCHEMA_VERSION, "preset": preset, "game": game}
    for key in keys:
        cfg[key] = file_cfg[key] if key in file_cfg else defaults[key]
    return cfg


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _spec_from_config(cfg: dict, keys: list[str]) -> GameSpec:
    """Validate cfg's game and run `keys`; normalise the game into the echo."""
    game = cfg["game"]
    try:
        spec = GameSpec(**game)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid game parameters: {exc}") from exc
    cfg["game"] = spec_to_dict(spec)
    if "p0" in keys:
        p0 = cfg.get("p0")
        if not (isinstance(p0, list) and len(p0) == spec.J
                and all(_is_number(x) and 0.0 <= x <= spec.P_max for x in p0)):
            raise ConfigError(f"p0 needs {spec.J} numbers in [0, {spec.P_max}]")
    if "sim_horizon" in keys:
        horizon = cfg.get("sim_horizon")
        # The upper bound also refuses integers past the float range.
        if not (_is_number(horizon) and 0.0 <= horizon <= sys.float_info.max):
            raise ConfigError(f"sim_horizon must be a finite number >= 0, got {horizon!r}")
        steps = horizon / spec.h
        # The path's t, states and controls, 8 bytes each, past the 128 TiB address space.
        if 8 * (2 * spec.J + 1) * (steps + 1) > 2.0**47:
            raise ConfigError(_TOO_LONG.format(horizon, spec.h, steps))
    if "np_list" in keys:
        degrees = cfg.get("np_list")
        if not (isinstance(degrees, list) and degrees
                and all(isinstance(d, int) and not isinstance(d, bool) for d in degrees)):
            raise ConfigError(f"np_list must be a non-empty list of integers, got {degrees!r}")
        # An older file's Nu must fit every degree compare solves.
        for deg in degrees if "Nu" in game else ():
            try:
                GameSpec(**{**game, "Np": deg})
            except ValueError as exc:
                raise ConfigError(f"Np={deg}: invalid game parameters: {exc}") from exc
    return spec


def _resolve_run(args) -> tuple[dict, GameSpec]:
    """The validated run of `args.command`: its base run, then its flags.

    simulate continues the run in ``<out>/run.json``; solve and compare
    start from :func:`_new_run`.  A flag the command lacks is absent from
    `args`, so only the command's own flags apply.
    """
    keys = [key for key in _RUN_KEYS if hasattr(args, key)]
    if args.command == "simulate":
        cfg = _read_json(Path(args.out) / "run.json")
        if "np_list" in cfg:
            raise ConfigError(f"{Path(args.out) / 'run.json'} was written by 'compare'; "
                              "simulate needs a 'solve' run")
    else:
        cfg = _new_run(args, keys)
    for flag, field in _GAME_FLAGS.items():
        if getattr(args, flag, None) is not None:
            cfg["game"][field] = getattr(args, flag)
    for key in keys:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg, _spec_from_config(cfg, keys)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # e.g. a file where the directory or a parent should be
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
    return out


def _write_echo(path: Path, cfg: dict):
    path.write_text(json.dumps(cfg, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Comma-separated, '.' decimals, one header row, LF endings."""
    fmt = ["%d" if np.issubdtype(np.asarray(c).dtype, np.integer) else _FLOAT_FMT
           for c in columns]
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=fmt, delimiter=",",
                   header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg, spec = _resolve_run(args)
    grid = build_state_grid(spec)
    try:
        result = solve(spec)
    except (RuntimeError, FloatingPointError) as exc:
        raise ConfigError(f"LQ start failed: {exc}") from exc
    out = _out_dir(args)
    _write_echo(out / "run.json", cfg)

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
    t = result.timings
    print(f"{status} after {result.iterations} sweeps and "
          f"{result.evaluations} policy evaluations, {result.restarts} restarts "
          f"(final residual {result.history[-1].max():.3e}, "
          f"{t['total']:.3g} s: LQ start {t['start']:.3g} s, sweeps {t['sweeps']:.3g} s)")
    return 0 if result.converged else 3


def cmd_simulate(args) -> int:
    out = Path(args.out)
    policy_file = out / "policy.csv"
    if not (out / "run.json").exists() or not policy_file.exists():
        raise ConfigError(f"no solved policy in {out}; run 'solve' first")
    cfg, spec = _resolve_run(args)
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
    if not np.all(np.isfinite(policy_values)):
        raise ConfigError(f"{policy_file} holds a non-numeric or non-finite control")
    policies = fit_policy(grid, PolicyField(values=policy_values))
    n_steps = int(round(cfg["sim_horizon"] / spec.h))
    try:
        path = simulate(spec, policies, cfg["p0"], n_steps)
    except MemoryError as exc:
        raise ConfigError(_TOO_LONG.format(cfg["sim_horizon"], spec.h, n_steps)) from exc
    _write_csv(
        out / "timepath.csv",
        ["t"] + [f"p_{d+1}" for d in range(spec.J)] + [f"u_{d+1}" for d in range(spec.J)],
        [path.t] + [path.states[:, d] for d in range(spec.J)]
        + [path.controls[:, d] for d in range(spec.J)],
    )
    print(f"wrote {out / 'timepath.csv'} ({n_steps + 1} rows)")
    return 0


def cmd_compare(args) -> int:
    cfg, _ = _resolve_run(args)
    degrees = cfg["np_list"]
    oracles = []        # every degree's oracle is checked before the first solve
    for deg in degrees:
        try:
            spec_d = GameSpec(**{**cfg["game"], "Np": deg})
            grid = build_state_grid(spec_d)
            oracles.append((spec_d, grid, check_oracle(lq_solve(spec_d, grid))))
        except (ValueError, RuntimeError, FloatingPointError) as exc:
            raise ConfigError(f"Np={deg}: {exc}") from exc
    out = _out_dir(args)
    _write_echo(out / "compare.json", cfg)
    errors = []
    times = []
    converged = True
    for deg, (spec_d, grid, feedback) in zip(degrees, oracles):
        t0 = time.perf_counter()
        result = solve(spec_d)
        times.append(time.perf_counter() - t0)
        if not result.converged:
            converged = False
            print(f"warning: Np={deg} did not converge", file=sys.stderr)
        errors.append(policy_error(result.policy, feedback, grid))
        print(f"Np={deg}: error {errors[-1]:.6e}  ({times[-1]:.2f} s)")
    _write_csv(
        out / "error.csv",
        ["np", "error", "wall_time"],
        [np.asarray(degrees, dtype=int), np.asarray(errors), np.asarray(times)],
    )
    return 0 if converged else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_game_flags(p: argparse.ArgumentParser):
    """The flags solve and compare share; compare sweeps Np with --np-list."""
    p.add_argument("--config", help="JSON config file, e.g. an earlier run.json or compare.json")
    p.add_argument("--preset", choices=list(PRESET_NAMES), help="named experiment preset")
    p.add_argument("--out", default="runs/latest", help="output directory")
    p.add_argument("--h", type=float, help="time step")
    p.add_argument("--tol", type=float, help="convergence tolerance")
    p.add_argument("--rho", type=float, help="discount rate")
    p.add_argument("--pm", type=float, help="state upper bound P_max")
    p.add_argument("--um", type=float, help="control upper bound U_max")


def _add_start_flags(p: argparse.ArgumentParser):
    """The rollout flags solve records and simulate reads."""
    p.add_argument("--sim-horizon", type=float, dest="sim_horizon",
                   help="simulation horizon in time units")
    p.add_argument("--p0", type=_parse_floats, help="initial state, comma separated")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a removed flag must not prefix-match a kept one
    # (simulate's --h would become --help, compare's --np --np-list).
    parser = argparse.ArgumentParser(
        prog="chebnash",
        description="Chebyshev collocation solver for discrete-space pollution games",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="compute the feedback equilibrium",
                             allow_abbrev=False)
    _add_game_flags(p_solve)
    p_solve.add_argument("--np", type=_parse_ints, help="state degrees (int or comma list)")
    _add_start_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)
    p_sim = sub.add_parser("simulate", help="roll out the policy solved in --out",
                           allow_abbrev=False)
    p_sim.add_argument("--out", default="runs/latest", help="directory of a solve run")
    _add_start_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    p_cmp = sub.add_parser("compare", help="policy error vs the exact LQ oracle per degree",
                           allow_abbrev=False)
    _add_game_flags(p_cmp)
    p_cmp.add_argument("--np-list", type=_parse_ints, dest="np_list",
                       help="state degrees to sweep (default 2,4,8)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)   # the list parsers raise ConfigError
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
