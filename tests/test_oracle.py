"""Unit tests for the closed-form linear-feedback oracle."""

import numpy as np
import pytest

from chebnash.game import GameSpec, _euler_step, build_state_grid
from chebnash.oracle import lq_solve, policy_error
from chebnash.presets import preset_spec
from chebnash.solver import solve

# fast-converging settings for unit tests (larger rho*h)
FAST = dict(rho=0.5, h=0.01, P_max=0.5, U_max=1.0, tol=1e-6)


def _drift_matrix(spec):
    """D in the model's drift g(p, u) = D p + beta * u."""
    return (spec.K - np.diag(spec.K.sum(1))) / spec.m[:, None] - np.diag(spec.c)


def _bellman_update(spec, Q, b, d, e, f):
    """One exact best-response update of every player's quadratic data.

    Written from the model, independently of the oracle's policy
    iteration.  All players respond at once to u_j = e_j + f_j p.  With
    the others' feedback in place, player i's next state is
    p' = M p + w + z u, and it maximises
    delta * (h G_i(p_i, u) + V_i(p')) with V_i(p) = p'Q_i p + b_i'p + d_i,
    ignoring the control bounds: the maximiser is affine in p and the
    maximum is quadratic.
    """
    J, h, delta = spec.J, spec.h, spec.delta
    D = _drift_matrix(spec)
    Qn, bn, dn, en, fn = (np.empty_like(x) for x in (Q, b, d, e, f))
    for i in range(J):
        others = np.arange(J) != i
        M = np.eye(J) + h * (D + spec.beta[:, None] * np.where(others[:, None], f, 0.0))
        w = h * spec.beta * np.where(others, e, 0.0)
        z = np.zeros(J)
        z[i] = h * spec.beta[i]
        # The objective's u-derivative vanishes at u = en[i] + fn[i] @ p.
        curvature = h - 2.0 * (z @ Q[i] @ z)
        assert curvature > 0
        en[i] = (h * spec.A[i] + z @ (2.0 * Q[i] @ w + b[i])) / curvature
        fn[i] = 2.0 * (z @ Q[i] @ M) / curvature
        # The closed loop with player i at that response: p' = Mc p + wc.
        Mc = M + np.outer(z, fn[i])
        wc = w + en[i] * z
        # G_i = u (A_i - u/2) - (phi_i/2) p_i^2, split into its quadratic,
        # linear and constant parts in p.
        stage_quad = -0.5 * np.outer(fn[i], fn[i])
        stage_quad[i, i] -= 0.5 * spec.phi[i]
        stage_lin = (spec.A[i] - en[i]) * fn[i]
        stage_const = spec.A[i] * en[i] - 0.5 * en[i] ** 2
        Qn[i] = delta * (h * stage_quad + Mc.T @ Q[i] @ Mc)
        Qn[i] = 0.5 * (Qn[i] + Qn[i].T)
        bn[i] = delta * (h * stage_lin + Mc.T @ (2.0 * Q[i] @ wc + b[i]))
        dn[i] = delta * (h * stage_const + wc @ Q[i] @ wc + b[i] @ wc + d[i])
    return Qn, bn, dn, en, fn


def test_decoupled_game_closed_form():
    spec = preset_spec("example1", phi=0.0, beta=0.0, **FAST)
    fb = lq_solve(spec)
    delta = spec.delta
    np.testing.assert_allclose(fb.e, spec.A, atol=1e-12)
    np.testing.assert_allclose(fb.f, 0.0, atol=1e-12)
    np.testing.assert_allclose(fb.Q, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        fb.d, spec.h * delta * spec.A**2 / (2 * (1 - delta)), rtol=1e-12
    )


def test_two_player_symmetry_of_fixed_point():
    spec = preset_spec("example1", **FAST)
    fb = lq_solve(spec)
    assert fb.e[0] == pytest.approx(fb.e[1], abs=1e-11)
    np.testing.assert_allclose(fb.f[0], fb.f[1][::-1], atol=1e-11)
    np.testing.assert_allclose(fb.Q[0], fb.Q[1][::-1, ::-1], atol=1e-11)
    np.testing.assert_allclose(fb.b[0], fb.b[1][::-1], atol=1e-11)
    assert fb.d[0] == pytest.approx(fb.d[1], abs=1e-11)


def _asymmetric_game(J, seed):
    """J players whose beta, phi, A, c, m and coupling entries all differ.

    The presets give every player the same beta, phi, A, c and m, so a
    per-player factor applied along the wrong axis still passes them.
    """
    rng = np.random.default_rng(seed)
    K = rng.uniform(0.2, 1.0, (J, J))
    np.fill_diagonal(K, 0.0)
    draw = {name: rng.uniform(lo, hi, J) for name, lo, hi in [
        ("beta", 0.5, 1.5), ("phi", 0.5, 1.5), ("A", 0.3, 0.6), ("c", 0.3, 0.7), ("m", 0.5, 2.0)]}
    return GameSpec(J=J, K=K, **draw, rho=0.5, h=0.01, P_max=0.5, U_max=1.0, Np=2,
                    tol=1e-6)


@pytest.mark.parametrize("spec", [
    preset_spec("example1", **FAST), *(_asymmetric_game(J, seed=J) for J in (2, 3, 4)),
], ids=["example1", "asymmetric-2", "asymmetric-3", "asymmetric-4"])
def test_one_update_leaves_fixed_point_unchanged(spec):
    fb = lq_solve(spec)
    Qn, bn, dn, en, fn = _bellman_update(spec, fb.Q, fb.b, fb.d, fb.e, fb.f)
    assert np.max(np.abs(Qn - fb.Q)) < 1e-10
    assert np.max(np.abs(bn - fb.b)) < 1e-10
    assert np.max(np.abs(dn - fb.d)) < 1e-10
    assert np.max(np.abs(en - fb.e)) < 1e-10
    assert np.max(np.abs(fn - fb.f)) < 1e-10


def _fixed_point_by_updates(spec):
    """Iterate _bellman_update from zero values until (Q, b, e, f) settle; d in closed form."""
    J = spec.J
    Q, b, d = np.zeros((J, J, J)), np.zeros((J, J)), np.zeros(J)
    e, f = spec.A.copy(), np.zeros((J, J))
    for _ in range(100_000):
        Qn, bn, _, en, fn = _bellman_update(spec, Q, b, d, e, f)
        change = max(np.max(np.abs(x - y)) for x, y in [(Qn, Q), (bn, b), (en, e), (fn, f)])
        Q, b, e, f = Qn, bn, en, fn
        if change < 1e-13:
            break
    else:
        raise AssertionError("reference iteration did not settle")
    # The constant solves d = delta * (k + d), where one update from d = 0 gives delta * k.
    _, _, once, _, _ = _bellman_update(spec, Q, b, np.zeros(J), e, f)
    return Q, b, once / (1.0 - spec.delta), e, f


@pytest.mark.parametrize("name, overrides", [("example1", FAST), ("example4", dict(h=1e-2))])
def test_policy_iteration_matches_the_update_fixed_point(name, overrides):
    spec = preset_spec(name, **overrides)
    fb = lq_solve(spec)
    Q, b, d, e, f = _fixed_point_by_updates(spec)
    for got, ref in [(fb.Q, Q), (fb.b, b), (fb.e, e), (fb.f, f)]:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fb.d, d, rtol=0, atol=1e-8)


def _coupled_policy_iteration(spec):
    """Policy iteration on the whole profile (e, f), every profile evaluated exactly.

    Each step evaluates u = e + f p by one Stein equation per player
    (through np.kron) and linear and constant terms on its closed loop,
    then takes every player's best response by _bellman_update; it stops
    when (e, f) move by less than 1e-13.
    """
    J, h, delta = spec.J, spec.h, spec.delta
    D = _drift_matrix(spec)
    e, f = spec.A.copy(), np.zeros((J, J))
    for _ in range(100):
        M = np.eye(J) + h * (D + spec.beta[:, None] * f)
        w = h * spec.beta * e
        stein = np.eye(J * J) - delta * np.kron(M.T, M.T)
        Q, b, d = np.empty((J, J, J)), np.empty((J, J)), np.empty(J)
        for i in range(J):
            S = -0.5 * np.outer(f[i], f[i])
            S[i, i] -= 0.5 * spec.phi[i]
            Qi = np.linalg.solve(stein, delta * h * S.ravel()).reshape(J, J)
            Q[i] = 0.5 * (Qi + Qi.T)
            linear = h * (spec.A[i] - e[i]) * f[i] + 2.0 * M.T @ Q[i] @ w
            b[i] = np.linalg.solve(np.eye(J) - delta * M.T, delta * linear)
            const = h * (spec.A[i] * e[i] - 0.5 * e[i] ** 2) + w @ Q[i] @ w + b[i] @ w
            d[i] = delta * const / (1.0 - delta)
        _, _, _, en, fn = _bellman_update(spec, Q, b, d, e, f)
        if max(np.max(np.abs(en - e)), np.max(np.abs(fn - f))) < 1e-13:
            return Q, b, d, e, f
        e, f = en, fn
    raise AssertionError("reference policy iteration did not settle")


@pytest.mark.parametrize("name", ["example1", "example3", "example4"])
def test_gain_iteration_matches_coupled_policy_iteration(name):
    # Iterating the gains alone and solving for e once reaches the profile
    # that policy iteration on (e, f) together reaches.
    spec = preset_spec(name)
    fb = lq_solve(spec)
    Q, b, d, e, f = _coupled_policy_iteration(spec)
    for got, ref in [(fb.Q, Q), (fb.b, b), (fb.e, e), (fb.f, f)]:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    # d carries the factor 1 / (1 - delta) = 1e4.
    np.testing.assert_allclose(fb.d, d, rtol=0, atol=1e-10)


# Explicit Euler overshoots the fast exchange K / m: the loop is unstable.
UNSTABLE = dict(m=1e-6, h=0.01, Np=3)


@pytest.mark.parametrize("run", [lq_solve, solve], ids=["lq_solve", "solve"])
def test_unstable_closed_loop_is_refused_early(run, monkeypatch):
    spec = preset_spec("example1", **UNSTABLE)
    stein = []
    plain_solve = np.linalg.solve

    def counting_solve(a, b):
        stein.append(np.shape(a) == (spec.J**2, spec.J**2))
        return plain_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with pytest.raises(RuntimeError, match=r"^linear feedback not settled: delta rho\(M\)\^2 = "):
        run(spec)
    assert 0 < sum(stein) <= 20


@pytest.mark.parametrize("name", ["example1", "example3", "example4"])
def test_presets_settle_in_few_policy_iterations(name):
    # The update fixed point needs 19-21k updates at the preset step.
    assert lq_solve(preset_spec(name)).iterations <= 30


@pytest.mark.parametrize("name", ["example1", "example4"])
def test_value_satisfies_bellman_at_random_states(name):
    spec = preset_spec(name, **FAST)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    rng = np.random.default_rng(8)
    states = rng.uniform(0.05, spec.P_max * 0.9, (200, spec.J))
    u_star = fb.policy(states)
    v = fb.value(states)
    nxt = states + spec.h * (states @ _drift_matrix(spec).T + spec.beta * u_star)
    gain = u_star * (spec.A - 0.5 * u_star) - 0.5 * spec.phi * states**2
    rhs = spec.delta * (spec.h * gain + fb.value(nxt))
    np.testing.assert_allclose(v, rhs, rtol=1e-6, atol=1e-9)


def test_feedback_simulates_to_bounded_stationary_stock():
    spec = preset_spec("example1", **FAST)
    fb = lq_solve(spec)
    p = np.zeros(2)
    for _ in range(20_000):
        p = _euler_step(spec, p, np.clip(fb.policy(p), 0.0, spec.U_max))
        assert np.all(p <= spec.P_max) and np.all(p >= 0.0)
    drift = _euler_step(spec, p, np.clip(fb.policy(p), 0.0, spec.U_max)) - p
    np.testing.assert_allclose(drift, 0.0, atol=1e-8)


def test_policy_error_zero_for_identical_inputs():
    spec = preset_spec("example1", **FAST)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    values = fb.policy(grid.nodes).T
    assert policy_error(values, fb, grid) == 0.0


def test_policy_error_constant_offset_formula():
    spec = preset_spec("example1", **FAST)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    values = fb.policy(grid.nodes).T
    values = values + np.array([[1e-3], [0.0]])   # one player offset everywhere
    n = grid.n_nodes
    assert policy_error(values, fb, grid) == pytest.approx(np.sqrt(n) * 1e-3 / n, rel=1e-12)


def test_policy_error_invariant_under_node_reordering():
    spec = preset_spec("example1", **FAST)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    rng = np.random.default_rng(9)
    values = fb.policy(grid.nodes).T + rng.uniform(-1e-3, 1e-3, (2, grid.n_nodes))
    base = policy_error(values, fb, grid)
    # reordering nodes permutes both the numerical and reference policies
    perm = rng.permutation(grid.n_nodes)
    from chebnash.game import StateGrid

    grid_p = StateGrid(bases=grid.bases, nodes=grid.nodes[perm])
    assert policy_error(values[:, perm], fb, grid_p) == pytest.approx(base, rel=1e-12)


def test_policy_error_refuses_constrained_region():
    spec = preset_spec("example1", rho=0.5, h=0.01, P_max=3.0, U_max=1.0, tol=1e-6)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    assert fb.negative_fraction > 0.0
    with pytest.raises(ValueError, match="oracle invalid"):
        policy_error(np.zeros((2, grid.n_nodes)), fb, grid)


def test_policy_error_shape_mismatch():
    spec = preset_spec("example1", **FAST)
    grid = build_state_grid(spec)
    fb = lq_solve(spec, grid)
    with pytest.raises(ValueError):
        policy_error(np.zeros((2, 5)), fb, grid)
