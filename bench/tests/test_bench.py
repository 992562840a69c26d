"""Tests of the benchmark's own machinery: generator, checker and tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import warnings

import numpy as np
import pytest

import chebnash as cn
import checks
import run
import spans
from workloads import WORKLOADS, Inputs, make_inputs

API = run.public_api(cn)


def _closed_form():
    """Criterion 05's decoupled game: u_i = A_i and constant values."""
    spec = cn.preset_spec("example1", phi=0.0, beta=0.0, rho=1.0, h=1e-2,
                          P_max=1.0, U_max=1.0, Np=3, Nu=3, tol=1e-11)
    grid = cn.build_state_grid(spec)
    v = spec.h * spec.delta * spec.A**2 / (2.0 * (1.0 - spec.delta))
    values = np.broadcast_to(v[:, None], (spec.J, grid.n_nodes)).copy()
    policy = np.broadcast_to(spec.A[:, None], (spec.J, grid.n_nodes)).copy()
    return spec, grid, values, policy


def test_residual_vanishes_on_closed_form():
    spec, grid, values, policy = _closed_form()
    assert checks.bellman_residual(API, spec, grid, values, policy) < 1e-14


@pytest.mark.parametrize("shift", [0.37, -1.5])
def test_residual_moves_by_undiscounted_share_of_a_shift(shift):
    spec, grid, values, policy = _closed_form()
    res = checks.bellman_residual(API, spec, grid, values + shift, policy)
    assert res == pytest.approx((1.0 - spec.delta) * abs(shift), abs=1e-14)


def test_same_seed_gives_identical_inputs():
    for name in WORKLOADS:
        a, b = make_inputs(name, 11), make_inputs(name, 11)
        assert a.solves == b.solves
        assert a.starts.tobytes() == b.starts.tobytes()
        assert not np.array_equal(a.starts, make_inputs(name, 12).starts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_give_identical_solver_work(name):
    rounds = [run.measured_round(API, make_inputs(name, seed)) for seed in (1, 2)]
    assert [r.iterations for r in rounds[0].results] == [r.iterations for r in rounds[1].results]
    assert [f.iterations for f in rounds[0].feedbacks] == [f.iterations for f in rounds[1].feedbacks]


def _small_inputs():
    return Inputs(workload="small", preset="example1",
                  solves=(dict(Np=3, Nu=3, h=1e-2, tol=1e-3),),
                  starts=np.random.default_rng(0).uniform(size=(2, 2)),
                  rollout_steps=50, pair=(0, 1), error_ladder=False)


def test_traced_outputs_are_bitwise_equal_and_self_times_add_up():
    inputs = _small_inputs()
    plain = run.measured_round(API, inputs)
    tracer = spans.Tracer()
    with tracer.installed() as absent:
        traced = run.measured_round(run.public_api(cn, tracer), inputs, tracer.span)
    assert absent == []
    assert run.bitwise_equal(plain, traced)
    assert tracer.counts["oracle.lq_bellman_update.calls"] == traced.feedbacks[0].iterations + 1

    children = [0] * len(tracer.spans)
    for name, parent, t0, t1 in tracer.spans:
        assert t1 >= t0
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[2] <= t0 and t1 <= p[3]
            children[parent] += t1 - t0
    summary = tracer.summary()
    for name, s in summary.items():
        own = [k for k, rec in enumerate(tracer.spans) if rec[0] == name]
        assert s["calls"] == len(own)
        assert s["self_ns"] + sum(children[k] for k in own) == s["ns"]
    assert summary["solver.solve"]["calls"] == 1
    assert summary["chebnd._bind_rows"]["calls"] == traced.results[0].iterations * 2


def test_missing_binding_is_reported_absent_and_bindings_are_restored(monkeypatch):
    import chebnash.solver as solver
    original = solver._bind_rows
    monkeypatch.setattr(spans, "EXPECTED_BINDINGS",
                        spans.EXPECTED_BINDINGS + (("solver", "_deleted_kernel"),))
    tracer = spans.Tracer()
    with tracer.installed() as absent:
        assert solver._bind_rows is not original
    assert absent == ["solver._deleted_kernel"]
    assert solver._bind_rows is original


def test_checks_flag_broken_outputs():
    inputs = _small_inputs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rnd = run.measured_round(API, inputs)
    passed, _ = run.check_round(API, inputs, rnd)
    assert all(passed.values())
    rnd.results[0].policy.values[0, 0] = -1.0
    passed, _ = run.check_round(API, inputs, rnd)
    assert not passed["np3.policy_in_box"]
    assert not passed["np3.exchange_symmetry"]
    assert checks.ladder_checks([3e-3, 1e-3, 2e-3]) == {
        "error_decreases": False, "error_below_ceiling": True}


def test_plain_run_repeats_solves_and_samples_short_stages():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run.run_plain(cn, _small_inputs(), seconds=4.0)
    assert all(report["checks"].values())
    assert "np3.repeats_bitwise_equal" in report["checks"]
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)
    assert len(report["solve_times_s"][0]) >= 2
    assert len(report["simulate_times_s"]) == len(report["oracle_times_s"][0])
    assert len(report["simulate_times_s"]) > len(report["solve_times_s"][0])
