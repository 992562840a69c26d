"""Time-to-equilibrium benchmark of chebnash.

Usage, from the repository root:

    python3 bench/run.py --workload ex1-degrees --seed 1 --seconds 30 --trace 0

One process runs one workload single-threaded.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs the workload
once untraced and once with call spans at every chebnash module boundary,
checks that both give bitwise equal outputs, and prints the per-layer
metrics.  Every output is checked; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details, including machine data and the spans, go to
``.bench_out/`` under the repository root.  See README.md.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 10           # before and again after the measured solves

PUBLIC = ("preset_spec", "solve", "build_state_grid", "lq_solve", "policy_error",
          "fit_policy", "simulate", "tensor_coeffs", "dynamics", "basis_matrix")

END_TO_END_UNITS = {
    "solve_s": "s", "setup_s": "s",
    "bellman_residual": "value", "peak_rss_mb": "MB",
}


def load_chebnash():
    """Import chebnash from this checkout's source tree, or return None."""
    src = ROOT / "src"
    if not (src / "chebnash" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import chebnash
    if Path(chebnash.__file__).resolve().parent != (src / "chebnash").resolve():
        return None
    return chebnash


def public_api(cn, tracer=None):
    """The public entry points the benchmark calls, wrapped in spans when traced."""
    fns = {name: getattr(cn, name) for name in PUBLIC}
    if tracer is not None:
        fns = {name: tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", fn)
               for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def machine() -> dict:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
    }


@dataclass
class Round:
    """Outputs of one pass over a workload, with its solve time."""

    specs: list
    grids: list
    results: list
    feedbacks: list
    paths: list
    solve_s: float
    warnings: list                # per solve, the messages of captured warnings


def _solve(api, spec):
    """One timed solve; its result, wall time and captured warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        res = api.solve(spec)
        dt = time.perf_counter() - t0
    return res, dt, [str(w.message) for w in caught]


def _rollouts(api, spec, grid, policy, inputs: Inputs):
    """Fit `policy` and roll it out from every start; paths and wall time."""
    t0 = time.perf_counter()
    policies = api.fit_policy(grid, policy)
    paths = [api.simulate(spec, policies, start * spec.P_max, inputs.rollout_steps)
             for start in inputs.starts]
    return paths, time.perf_counter() - t0


def measured_round(api, inputs: Inputs, phase=lambda name: nullcontext()) -> Round:
    """Solves, oracles and rollouts of one workload, once each."""
    specs = [api.preset_spec(inputs.preset, **o) for o in inputs.solves]
    grids = [api.build_state_grid(spec) for spec in specs]
    results, caught_all, solve_s = [], [], 0.0
    with phase("bench.solve"):
        for spec in specs:
            res, dt, caught = _solve(api, spec)
            results.append(res)
            caught_all.append(caught)
            solve_s += dt
    with phase("bench.simulate"):
        paths, _ = _rollouts(api, specs[-1], grids[-1], results[-1].policy, inputs)
    with phase("bench.oracle"):
        feedbacks = [api.lq_solve(spec, grid) for spec, grid in zip(specs, grids)]
    return Round(specs, grids, results, feedbacks, paths, solve_s, caught_all)


class ShortStages:
    """Timed samples of the short stages: every oracle, then the rollouts.

    On a shared machine, load from other processes slows a call by up to
    1.7x in phases lasting seconds.  A stage that takes a second, timed
    in one place, measures the phase it fell in; so the run places one
    sample of the short stages before the first solve and after every
    solve, and reports the mean over all of them.  Until the rollout
    spec is solved, the rollouts follow a one-sweep policy of it: a
    rollout's cost does not depend on the policy's values.
    """

    def __init__(self, api, specs, grids, inputs: Inputs):
        self.api, self.specs, self.grids, self.inputs = api, specs, grids, inputs
        self.feedbacks = [None] * len(specs)
        self.paths = None
        self.clear()

    def clear(self):
        """Forget the timings taken so far."""
        self.oracle_times = [[] for _ in self.specs]
        self.simulate_times = []

    def sample(self, policy) -> float:
        """One sample of every short stage; returns its wall time."""
        t_begin = time.perf_counter()
        for k, (spec, grid) in enumerate(zip(self.specs, self.grids)):
            t0 = time.perf_counter()
            self.feedbacks[k] = self.api.lq_solve(spec, grid)
            self.oracle_times[k].append(time.perf_counter() - t0)
        self.paths, dt = _rollouts(self.api, self.specs[-1], self.grids[-1], policy, self.inputs)
        self.simulate_times.append(dt)
        return time.perf_counter() - t_begin

    @property
    def oracle_s(self) -> float:
        return sum(statistics.mean(times) for times in self.oracle_times)

    @property
    def simulate_s(self) -> float:
        return statistics.mean(self.simulate_times)


def setup_probes(api, inputs: Inputs, repeats: int) -> list[list[float]]:
    """Set-up times of `repeats` one-sweep solves per solve spec, after one warm-up."""
    out = []
    for o in inputs.solves:
        spec = api.preset_spec(inputs.preset, **dict(o, max_iters=1))
        times = []
        for k in range(repeats + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                t = api.solve(spec).timings["setup"]
            if k:
                times.append(t)
        out.append(times)
    return out


def check_round(api, inputs: Inputs, rnd: Round) -> tuple[dict, dict]:
    """Named pass/fail checks and accuracy figures of one round."""
    passed, accuracy = {}, {}
    errors = []
    for spec, grid, res, fb in zip(rnd.specs, rnd.grids, rnd.results, rnd.feedbacks):
        tag = f"np{int(spec.Np[0])}"
        ok = checks.solve_checks(spec, grid, res, inputs.pair)
        passed.update({f"{tag}.{name}": v for name, v in ok.items()})
        residual = float("nan")
        if ok["policy_in_box"]:     # the checker's dynamics call rejects other controls
            residual = checks.bellman_residual(api, spec, grid, res.values.values, res.policy.values)
            accuracy[f"bellman_residual.{tag}"] = residual
        passed[f"{tag}.residual_finite"] = bool(np.isfinite(residual))
        accuracy[f"oracle.negative_frac.{tag}"] = fb.negative_fraction
        if fb.negative_fraction == 0.0 and fb.high_fraction == 0.0:
            errors.append(api.policy_error(res.policy, fb, grid))
            accuracy[f"policy_err.{tag}"] = errors[-1]
            if res is rnd.results[-1]:
                accuracy["value_err"] = float(np.max(np.abs(
                    fb.value(grid.nodes).T - res.values.values)))
        else:
            errors.append(float("nan"))
    if inputs.error_ladder:
        passed.update(checks.ladder_checks(errors))
    passed.update(checks.rollout_checks(rnd.specs[-1], rnd.paths))
    return passed, accuracy


def result_arrays(res) -> list[np.ndarray]:
    """Every numeric output of one solve, for bitwise comparison."""
    return [np.array([res.iterations, res.converged]), res.values.values,
            res.policy.values, res.history]


def round_arrays(rnd: Round) -> list[np.ndarray]:
    """Every numeric output of a round, for bitwise comparison."""
    out = []
    for res in rnd.results:
        out += result_arrays(res)
    for fb in rnd.feedbacks:
        out += [fb.Q, fb.b, fb.d, fb.e, fb.f, np.array([fb.iterations])]
    for path in rnd.paths:
        out += [path.states, path.controls]
    return out


def arrays_equal(xs: list, ys: list) -> bool:
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


def bitwise_equal(a: Round, b: Round) -> bool:
    return arrays_equal(round_arrays(a), round_arrays(b))


def run_plain(cn, inputs: Inputs, seconds: float) -> dict:
    """Solve the workload's specs in turn until `--seconds` is spent.

    Solves repeat, cycling over the specs, while the next solve and the
    short-stage sample after it are expected to end within `seconds`;
    every spec is solved at least once.  Short-stage samples then fill
    the time left.  Repeated solves must be bitwise equal to the first.
    """
    api = public_api(cn)
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    probes = setup_probes(api, inputs, SETUP_PROBES)
    specs = [api.preset_spec(inputs.preset, **o) for o in inputs.solves]
    grids = [api.build_state_grid(spec) for spec in specs]
    short = ShortStages(api, specs, grids, inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stand_in = api.solve(api.preset_spec(inputs.preset, **dict(inputs.solves[-1], max_iters=1)))
    short.sample(stand_in.policy)           # warm-up: the first sample ran 5-15% slow
    short.clear()
    short_s = short.sample(stand_in.policy)
    first = [None] * len(specs)
    solve_times = [[] for _ in specs]
    setup_times = [[] for _ in specs]
    caught_all = [[] for _ in specs]
    repeats_equal = [True] * len(specs)
    k = 0
    while True:
        s = k % len(specs)
        res, dt, caught = _solve(api, specs[s])
        solve_times[s].append(dt)
        setup_times[s].append(res.timings["setup"])
        caught_all[s].append(caught)
        if first[s] is None:
            first[s] = res
        else:
            repeats_equal[s] &= arrays_equal(result_arrays(res), result_arrays(first[s]))
        short_s = short.sample((first[-1] or stand_in).policy)
        k += 1
        s = k % len(specs)
        if k >= len(specs) and (time.perf_counter() + statistics.median(solve_times[s])
                                + short_s > deadline):
            break
    while time.perf_counter() + short_s <= deadline:
        short_s = short.sample(first[-1].policy)
    probes = [a + b for a, b in zip(probes, setup_probes(api, inputs, SETUP_PROBES))]

    rnd = Round(specs, grids, first, short.feedbacks, short.paths,
                sum(statistics.median(t) for t in solve_times), caught_all)
    passed, accuracy = check_round(api, inputs, rnd)
    for spec, ok in zip(specs, repeats_equal):
        passed[f"np{int(spec.Np[0])}.repeats_bitwise_equal"] = ok
    setup = [statistics.median(p + t) for p, t in zip(probes, setup_times)]
    metrics = {
        "solve_s": rnd.solve_s,
        "setup_s": sum(setup),
        "bellman_residual": max((v for k, v in accuracy.items() if k.startswith("bellman_residual.")),
                                default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    # Printed, not gated: see README.md, "End-to-end metrics".
    short_stages = {"oracle_s": short.oracle_s, "simulate_s": short.simulate_s}
    return {
        "metrics": metrics,
        "extra": short_stages | accuracy,
        "checks": passed,
        "solve_times_s": solve_times,
        "oracle_times_s": short.oracle_times,
        "simulate_times_s": short.simulate_times,
        "iterations": [r.iterations for r in first],
        "warnings": caught_all,
        "setup_probes_s": probes,
        "elapsed_s": time.perf_counter() - t_begin,
    }


def layer_metrics(tracer: Tracer, rnd: Round, plain: Round) -> dict:
    """Per-layer metrics of the traced round, with their units."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name, key="ns"):
        return spans.get(name, {}).get(key, 0) / 1e9

    iterations = sum(r.iterations for r in rnd.results)
    m = {
        "solver.iterations": (iterations, "count"),
        "solver.iter_ms": (1e3 * rnd.solve_s / iterations, "ms"),
        "solver.self_s": (secs("solver.solve", "self_ns"), "s"),
        "solver.clamp_frac": (max(r.clamp_fraction for r in rnd.results), "ratio"),
        "solver.fit_policy.s": (secs("solver.fit_policy"), "s"),
        "solver.simulate.s": (secs("solver.simulate"), "s"),
        "solver.simulate.steps": (sum(len(p.t) - 1 for p in rnd.paths), "count"),
    }
    for kernel in ("bind_diagonal", "bind_rows", "bind_shared", "row_basis"):
        m[f"chebnd.{kernel}.calls"] = (calls(f"chebnd._{kernel}"), "count")
        m[f"chebnd.{kernel}.s"] = (secs(f"chebnd._{kernel}"), "s")
    m["chebnd.bind.flops"] = (tracer.counts["chebnd.bind.flops"], "flop.computed")
    m["chebnd.bind.bytes"] = (tracer.counts["chebnd.bind.bytes"], "B.computed")
    for name in ("chebnd.tensor_coeffs", "cheb1d.derivative_array", "cheb1d.cheb_transform",
                 "game.dynamics"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["chebnd.stack_coeffs.s"] = (secs("chebnd.stack_coeffs"), "s")
    m["game.build_state_grid.s"] = (secs("game.build_state_grid"), "s")
    m["oracle.lq_solve.s"] = (secs("oracle.lq_solve"), "s")
    m["oracle.iterations"] = (sum(fb.iterations for fb in rnd.feedbacks), "count")
    m["oracle.lq_bellman_update.calls"] = (tracer.counts["oracle.lq_bellman_update.calls"], "count")
    m["trace.overhead_frac"] = (rnd.solve_s / plain.solve_s - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_traced(cn, inputs: Inputs, spans_path: Path) -> dict:
    api = public_api(cn)
    plain = measured_round(api, inputs)
    tracer = Tracer()
    with tracer.installed() as absent:
        traced = measured_round(public_api(cn, tracer), inputs, tracer.span)
    passed, accuracy = check_round(api, inputs, traced)
    passed["traced_bitwise_equal"] = bitwise_equal(plain, traced)
    tracer.write(spans_path)
    return {
        "metrics": layer_metrics(tracer, traced, plain),
        "extra": accuracy,
        "checks": passed,
        "absent_bindings": absent,
        "spans": dict(sorted(tracer.summary().items())),
        "warnings": traced.warnings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cn = load_chebnash()
    if cn is None:
        print(f"chebnash source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report = run_traced(cn, inputs, OUT_DIR / f"{stem}-spans.jsonl.gz")
    else:
        report = run_plain(cn, inputs, args.seconds)
    attempted = len(report["checks"])
    failed = sum(not ok for ok in report["checks"].values())
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine(),
                  failed_checks=[k for k, ok in report["checks"].items() if not ok])

    for key, val in report["machine"].items():
        print(f"machine {key} = {val}")
    for name in report.get("absent_bindings", []):
        print(f"absent binding {name}")
    for name in report["failed_checks"]:
        print(f"FAILED check {name}")
    for name, val in report["extra"].items():
        print(f"extra {name} = {val:.6g}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, m in report["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
