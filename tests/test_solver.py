"""Unit tests for the collocation solver: the maximiser, sweeps, simulation."""

import warnings

import numpy as np
import pytest

from chebnash.cheb1d import (
    CoefVector,
    clenshaw,
    coeffs_from_samples,
    derivative_array,
    make_basis,
)
from chebnash.chebnd import basis_matrix, eval_full
from chebnash.game import GameSpec, build_state_grid, discounted_payoff, dynamics
from chebnash.presets import preset_spec
from chebnash.solver import (
    PolicyField,
    ValueField,
    _cardinal_rows,
    _colleague_roots,
    _evaluate_policy,
    _maximise_block,
    _successor_points,
    _successor_values,
    _Workspace,
    bellman_sweep,
    fit_policy,
    newton_maximize,
    simulate,
    solve,
)

# settings that converge in a couple thousand sweeps
FAST = dict(rho=0.5, h=0.01, P_max=0.5, U_max=0.5, tol=1e-6, max_iters=20_000)


def fast_spec(**kw):
    return preset_spec("example1", **{**FAST, **kw})


def solve_quiet(spec, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(spec, **kw)


# ---------------------------------------------------------------------------
# maximiser
# ---------------------------------------------------------------------------

def _fit_objective(fn, degree, hi):
    basis = make_basis(degree, 0.0, hi)
    return coeffs_from_samples(fn(basis.nodes), basis)


def test_newton_finds_parabola_vertex():
    c = _fit_objective(lambda u: u * (0.5 - u / 2), 4, 1.0)
    u, val = newton_maximize(c, 0.9)
    assert u == pytest.approx(0.5, abs=1e-10)
    assert val == pytest.approx(0.125, abs=1e-12)


def test_newton_boundary_maximiser():
    c = _fit_objective(lambda u: -2.0 * u + 0.1 * u**2, 3, 1.0)
    u, val = newton_maximize(c, 0.5)
    assert u == 0.0
    assert val == pytest.approx(0.0, abs=1e-12)


def test_newton_matches_dense_grid_scan():
    rng = np.random.default_rng(14)
    basis = make_basis(6, 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 100_001)
    for _ in range(20):
        coef = CoefVector(rng.standard_normal(7), basis)
        u, val = newton_maximize(coef, 0.5)
        ref = (2.0 * xs - 1.0)
        scan = clenshaw(coef.coefficients, ref)
        assert val >= scan.max() - 1e-6
        assert val == pytest.approx(scan.max(), abs=1e-6)


@pytest.mark.parametrize("degree", range(1, 9))
def test_sweep_maximiser_finds_global_maximum_of_multimodal_rows(degree):
    rng = np.random.default_rng(100 + degree)
    coef = rng.standard_normal((40, degree + 1))
    x, f = _maximise_block(coef)
    xs = np.linspace(-1.0, 1.0, 200_001)
    for row, xr, fr in zip(coef, x, f):
        assert -1.0 <= xr <= 1.0
        assert fr == clenshaw(row, xr)
        assert fr >= clenshaw(row, xs).max() - 1e-9


def test_parabola_with_zeroed_top_coefficients():
    c = _fit_objective(lambda u: u * (0.5 - u / 2), 8, 1.0)
    coef = c.coefficients.copy()
    coef[3:] = 0.0
    assert derivative_array(coef)[-1] == 0.0
    assert np.all(np.isfinite(_colleague_roots(derivative_array(coef)[None, :])))
    u, val = newton_maximize(CoefVector(coef, c.basis), 0.9)
    assert u == pytest.approx(0.5, abs=1e-12)
    assert val == pytest.approx(0.125, abs=1e-12)


def test_constant_row_returns_its_value():
    coef = np.zeros((3, 9))
    coef[:, 0] = [-1.5, 0.0, 2.0]
    x, f = _maximise_block(coef)
    assert np.all(np.abs(x) <= 1.0)
    np.testing.assert_array_equal(f, coef[:, 0])


def test_maximum_at_each_endpoint():
    # 2x^2 - 1 -/+ 0.3x: a minimum inside, the larger end on either side
    coef = np.array([[0.0, -0.3, 1.0, 0.0, 0.0], [0.0, 0.3, 1.0, 0.0, 0.0]])
    x, f = _maximise_block(coef)
    np.testing.assert_array_equal(x, [-1.0, 1.0])
    np.testing.assert_allclose(f, [1.3, 1.3], rtol=1e-15)


def test_linear_rows_take_the_higher_end():
    coef = np.array([[0.2, 0.5], [0.2, -0.5], [0.2, 0.0]])
    x, f = _maximise_block(coef)
    np.testing.assert_array_equal(x[:2], [1.0, -1.0])
    np.testing.assert_allclose(f, [0.7, 0.7, 0.2])


# ---------------------------------------------------------------------------
# bellman sweep
# ---------------------------------------------------------------------------

def _zero_fields(spec, grid):
    from chebnash.chebnd import tensor_coeffs

    shape = tuple(b.size for b in grid.bases)
    zeros = np.zeros((spec.J, grid.n_nodes))
    interp = [tensor_coeffs(np.zeros(shape), grid.bases) for _ in range(spec.J)]
    return ValueField(values=zeros.copy(), interpolants=interp), PolicyField(values=zeros.copy())


def test_first_sweep_from_zero_recovers_myopic_policy():
    spec = fast_spec(Np=2, Nu=3)
    grid = build_state_grid(spec)
    values, policy = _zero_fields(spec, grid)
    v1, u1 = bellman_sweep(spec, grid, values, policy)
    np.testing.assert_allclose(u1.values, 0.5, atol=1e-9)
    # value = delta * h * G_i(p_i, A_i)
    for i in range(2):
        expect = spec.delta * spec.h * (
            0.5 * (0.5 - 0.25) - 0.5 * spec.phi[i] * grid.nodes[:, i] ** 2
        )
        np.testing.assert_allclose(v1.values[i], expect, atol=1e-12)


def test_value_field_interpolants_reproduce_node_values():
    spec = fast_spec(Np=3, Nu=3)
    result = solve_quiet(spec)
    grid = build_state_grid(spec)
    from chebnash.cheb1d import to_reference

    refs = np.stack(
        [to_reference(grid.bases[d], grid.nodes[:, d]) for d in range(2)], axis=-1
    )
    for i in range(2):
        got = np.array([eval_full(result.values.interpolants[i], r) for r in refs])
        np.testing.assert_allclose(got, result.values.values[i], rtol=1e-10, atol=1e-12)


def test_policy_evaluation_is_the_sweeps_fixed_point_at_that_policy():
    # Three state axes, so the successor values run the diagonal bind too.
    spec = preset_spec("example3", Np=3, Nu=3)
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    u = np.random.default_rng(5).uniform(0.0, spec.U_max, (spec.J, grid.n_nodes))
    V = _evaluate_policy(ws, u)
    for i, pw in enumerate(ws.players):
        pts, _ = _successor_points(ws, i, u)
        succ = _successor_values(_cardinal_rows(ws, pts), V[i].reshape(grid.shape, order="F"))
        w = basis_matrix(u[i] * ws.u_scale - 1.0, pw.K - 1) @ pw.M0
        swept = spec.delta * np.einsum("nk,nk->n", w, pw.stage + succ.reshape(-1, pw.K))
        np.testing.assert_allclose(swept, V[i], rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_decoupled_game_closed_form_fields():
    spec = fast_spec(phi=0.0, beta=0.0, rho=1.0, tol=1e-11, max_iters=5000)
    result = solve_quiet(spec)
    assert result.converged
    delta = spec.delta
    v_expect = spec.h * delta * 0.5**2 / (2 * (1 - delta))
    np.testing.assert_allclose(result.policy.values, 0.5, atol=1e-8)
    np.testing.assert_allclose(result.values.values, v_expect, atol=1e-8)


def test_loose_tolerance_stops_after_one_sweep():
    spec = fast_spec(tol=10.0)
    result = solve_quiet(spec)
    assert result.converged and result.iterations == 1


def test_two_player_exchange_symmetry():
    spec = fast_spec(Np=4, Nu=4, tol=1e-8)
    result = solve_quiet(spec)
    assert result.converged
    n = 5
    u1 = result.policy.values[0].reshape(n, n, order="F")
    u2 = result.policy.values[1].reshape(n, n, order="F")
    np.testing.assert_allclose(u1, u2.T, atol=1e-8)


def test_three_player_chain_symmetry_at_nodes():
    # example3's layout is invariant under swapping players 1 and 3
    spec = preset_spec("example3", rho=0.5, h=0.01, P_max=0.5, U_max=0.5,
                       tol=1e-8, Np=2, Nu=2, max_iters=20_000)
    result = solve_quiet(spec)
    assert result.converged
    u0 = result.policy.values[0].reshape(3, 3, 3, order="F")
    u2 = result.policy.values[2].reshape(3, 3, 3, order="F")
    np.testing.assert_allclose(u0, u2.transpose(2, 1, 0), atol=1e-8)


def test_contraction_of_sup_differences():
    # The value-iteration step, which solve falls back to, contracts.
    spec = fast_spec(Np=3, Nu=3)
    grid = build_state_grid(spec)
    values, policy = _zero_fields(spec, grid)
    diffs = []
    for _ in range(200):
        new_values, policy = bellman_sweep(spec, grid, values, policy)
        diffs.append(np.max(np.abs(new_values.values - values.values)))
        values = new_values
    tail = np.array(diffs[-15:])
    ratios = tail[1:] / tail[:-1]
    assert np.all(ratios <= spec.delta + 0.05)


def test_fallback_keeps_policy_iteration_symmetric():
    # Accepting every proposal on this spec takes 588 sweeps and ends with
    # an exchange gap of 4.6e-4; the value-iteration fallback avoids both.
    spec = preset_spec("example1", Np=8, Nu=8, h=1e-2)
    result = solve_quiet(spec)
    assert result.converged
    n = 9
    u1 = result.policy.values[0].reshape(n, n, order="F")
    u2 = result.policy.values[1].reshape(n, n, order="F")
    assert np.max(np.abs(u1 - u2.T)) <= 1e-8
    assert result.rejected >= 1
    assert 1 <= result.evaluations <= result.iterations


def test_fallback_wait_grows_across_accepted_proposals():
    # A wait that resets after an accepted proposal cycles on this spec.
    spec = preset_spec("example1", rho=0.5, h=5e-3, tol=1e-7, Np=2, Nu=2,
                       max_iters=2000)
    result = solve_quiet(spec)
    assert result.converged


def test_converged_result_is_a_fixed_point_to_tolerance():
    spec = fast_spec(Np=3, Nu=3)
    result = solve_quiet(spec)
    assert result.converged
    grid = build_state_grid(spec)
    values, _ = bellman_sweep(spec, grid, result.values, result.policy)
    moved = np.max(np.abs(values.values - result.values.values))
    assert moved <= spec.tol * (1.0 - spec.delta)
    assert moved == result.history[-1].max()


def test_policy_feasible_within_box():
    spec = fast_spec(Np=3, Nu=3)
    result = solve_quiet(spec)
    assert np.all(result.policy.values >= 0.0)
    assert np.all(result.policy.values <= spec.U_max)


def test_restart_from_converged_fields_stops_immediately():
    spec = fast_spec(Np=2, Nu=2)
    first = solve_quiet(spec)
    assert first.converged
    again = solve_quiet(spec, init=(first.values, first.policy))
    assert again.converged and again.iterations <= 2


def test_repeated_solves_are_bitwise_equal():
    spec = preset_spec("example1", Np=4, Nu=4, h=1e-2)
    first, second = solve_quiet(spec), solve_quiet(spec)
    for a, b in [(first.values.values, second.values.values),
                 (first.policy.values, second.policy.values),
                 (first.history, second.history)]:
        np.testing.assert_array_equal(a, b)
    assert (first.iterations, first.evaluations, first.rejected) == (
        second.iterations, second.evaluations, second.rejected)


@pytest.mark.parametrize("field", ["values", "policy"])
def test_non_finite_initial_fields_rejected(field):
    spec = fast_spec(Np=2, Nu=2)
    fields = {"values": np.zeros((2, 9)), "policy": np.full((2, 9), 0.25)}
    fields[field][1, 4] = np.nan
    with pytest.raises(ValueError, match="initial fields"):
        solve(spec, init=(fields["values"], fields["policy"]))


def test_non_convergence_reported_not_raised():
    spec = fast_spec(Np=2, Nu=2, tol=1e-12, max_iters=5)
    result = solve_quiet(spec)
    assert not result.converged and result.iterations == 5


def test_clamp_warning_when_box_too_small():
    spec = fast_spec(Np=2, Nu=2, P_max=0.2, U_max=0.5, tol=1e-2, max_iters=50)
    with pytest.warns(RuntimeWarning, match="clamped"):
        solve(spec)


def test_no_clamps_when_no_successor_leaves_the_box():
    # With P_max = 50 every Euler successor of a node stays inside the box,
    # so a clamp could only come from rounding in the drift.
    spec = preset_spec("example1", Np=3, Nu=3, h=1e-2, P_max=50.0, max_iters=1)
    zeros = np.zeros((2, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve(spec, init=(zeros, zeros))
    assert result.iterations == 1
    assert result.clamp_fraction == 0.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_policy_from_origin_stays_zero():
    spec = fast_spec(Np=2, Nu=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    path = simulate(spec, policies, np.zeros(2), 50)
    np.testing.assert_allclose(path.states, 0.0, atol=1e-15)
    np.testing.assert_allclose(path.controls, 0.0, atol=1e-15)


def test_simulate_decoupled_matches_euler_closed_form():
    spec = fast_spec(phi=0.0, beta=0.0, rho=1.0, tol=1e-9, max_iters=5000)
    result = solve_quiet(spec)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, result.policy)
    p0 = np.array([0.3, 0.1])
    path = simulate(spec, policies, p0, 200)
    np.testing.assert_allclose(path.controls, 0.5, atol=1e-7)
    # with beta = 0 the stock decays by the exchange/decay dynamics only
    expect = p0.copy()
    for n in range(201):
        np.testing.assert_allclose(path.states[n], expect, atol=1e-7)
        expect = expect + spec.h * dynamics(spec, expect, np.zeros(2))
    assert path.t[-1] == pytest.approx(200 * spec.h)


def test_simulate_nine_players_matches_pointwise_evaluation():
    J = 9
    K = np.ones((J, J)) - J * np.eye(J)
    spec = GameSpec(J=J, K=K, beta=1.0, phi=1.0, A=0.5, c=0.5, rho=0.1, h=1e-2,
                    P_max=0.7, U_max=0.5, Np=1, Nu=1, tol=1e-6)
    grid = build_state_grid(spec)
    rng = np.random.default_rng(16)
    policies = fit_policy(grid, PolicyField(values=rng.uniform(0.0, 0.5, (J, grid.n_nodes))))
    path = simulate(spec, policies, rng.uniform(0.0, 0.7, J), 20)
    for state, controls in zip(path.states, path.controls):
        ref = 2.0 * state / spec.P_max - 1.0
        expect = [eval_full(policies[i], ref) for i in range(J)]
        np.testing.assert_allclose(controls, np.clip(expect, 0.0, spec.U_max), atol=1e-13)


def test_simulate_rejects_out_of_box_start():
    spec = fast_spec(Np=2, Nu=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError):
        simulate(spec, policies, [10.0, 0.0], 5)


@pytest.mark.parametrize("n_steps", [0, 5])
@pytest.mark.parametrize("p0", [[np.nan, 0.0], [0.1, np.nan]])
def test_simulate_rejects_non_finite_start(p0, n_steps):
    spec = fast_spec(Np=2, Nu=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError, match="p0"):
        simulate(spec, policies, p0, n_steps)


@pytest.mark.parametrize("n_steps", [-1, -5])
def test_simulate_rejects_negative_step_count(n_steps):
    spec = fast_spec(Np=2, Nu=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError, match="n_steps"):
        simulate(spec, policies, np.zeros(2), n_steps)


def test_value_matches_simulated_discounted_payoff():
    spec = fast_spec(h=2e-3, Np=3, Nu=3)
    result = solve_quiet(spec)
    assert result.converged
    grid = build_state_grid(spec)
    policies = fit_policy(grid, result.policy)
    horizon = int(np.ceil(np.log(1e-8) / np.log(spec.delta)))
    rng = np.random.default_rng(15)
    tol = max(1e-3, 10 * spec.tol)
    for j in rng.integers(0, grid.n_nodes, 3):
        path = simulate(spec, policies, grid.nodes[j], horizon)
        payoff = discounted_payoff(spec, path.states, path.controls, horizon)
        np.testing.assert_allclose(payoff, result.values.values[:, j], atol=tol)
