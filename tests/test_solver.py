"""Unit tests for the collocation solver: the maximiser, sweeps, simulation."""

import tracemalloc
import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

from chebnash.cheb1d import _transform_matrix, clenshaw, derivative_array, make_basis, to_reference
from chebnash.chebnd import CoefTensor, _row_basis, basis_matrix, eval_full, tensor_coeffs
from chebnash.game import GameSpec, build_state_grid, discounted_payoff, dynamics
from chebnash.oracle import LQFeedback, _lq_feedback, lq_solve
from chebnash.presets import preset_spec
from chebnash.solver import (
    PolicyField,
    _NEWTON_STEPS,
    _colleague_argmax,
    _colleague_roots,
    _derivative_stack,
    _evaluate_policy,
    _maximise_block,
    _run_sweep,
    _successor_operator,
    _Workspace,
    fit_policy,
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


def myopic_start(spec):
    """Zero values and the myopic policy u_i = A_i: the start that needs the fallback."""
    n = build_state_grid(spec).n_nodes
    return np.zeros((spec.J, n)), np.broadcast_to(spec.A[:, None], (spec.J, n))


# ---------------------------------------------------------------------------
# maximiser
# ---------------------------------------------------------------------------

def _fit_objective(fn, degree, hi):
    basis = make_basis(degree, 0.0, hi)
    return tensor_coeffs(fn(basis.nodes), (basis,))


def _maximise(c):
    """`_maximise_block` on one interpolant: (maximiser in interval units, maximum)."""
    x, f = _maximise_block(c.coefficients[None, :])
    (b,) = c.bases
    return 0.5 * (b.b - b.a) * float(x[0]) + 0.5 * (b.a + b.b), float(f[0])


def test_maximiser_finds_parabola_vertex():
    c = _fit_objective(lambda u: u * (0.5 - u / 2), 4, 1.0)
    u, val = _maximise(c)
    assert u == pytest.approx(0.5, abs=1e-10)
    assert val == pytest.approx(0.125, abs=1e-12)


def test_maximiser_boundary_maximum():
    c = _fit_objective(lambda u: -2.0 * u + 0.1 * u**2, 3, 1.0)
    u, val = _maximise(c)
    assert u == 0.0
    assert val == pytest.approx(0.0, abs=1e-12)


def test_maximiser_matches_dense_grid_scan():
    rng = np.random.default_rng(14)
    basis = make_basis(6, 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 100_001)
    for _ in range(20):
        coef = CoefTensor((basis,), rng.standard_normal(7))
        u, val = _maximise(coef)
        ref = (2.0 * xs - 1.0)
        scan = clenshaw(coef.coefficients, ref)
        assert val >= scan.max() - 1e-6
        assert val == pytest.approx(scan.max(), abs=1e-6)


@pytest.mark.parametrize("degree", range(1, 9))
def test_sweep_maximiser_finds_global_maximum_of_multimodal_rows(degree):
    rng = np.random.default_rng(100 + degree)
    coef = rng.standard_normal((40, degree + 1))
    if degree == 1:     # control fits have degree >= 2: a zero top coefficient
        coef = np.pad(coef, ((0, 0), (0, 1)))
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
    u, val = _maximise(CoefTensor(c.bases, coef))
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


def test_linear_rows_take_the_higher_end(monkeypatch):
    # Degree-2 fits of linear functions take the convex endpoint rule.
    coef = np.array([[0.2, 0.5, 0.0], [0.2, -0.5, 0.0], [0.2, 0.0, 0.0]])

    def no_eigensolve(*args):
        raise AssertionError("a linear row reached the eigensolve")

    monkeypatch.setattr("chebnash.solver._colleague_argmax", no_eigensolve)
    x, f = _maximise_block(coef)
    np.testing.assert_array_equal(x[:2], [1.0, -1.0])
    np.testing.assert_allclose(f, [0.7, 0.7, 0.2])


def _concave_rows(rng, L, roots, slopes=None):
    """Rows of L coefficients with q2_0 + sum |q2_l| < 0 and f'(roots) = slopes (default 0)."""
    slopes = np.zeros(len(roots)) if slopes is None else slopes
    rows = []
    for r, s in zip(roots, slopes):
        q2 = rng.standard_normal(L - 2) * 10.0 ** rng.uniform(-1, 1, L - 2)
        # margins from 1e-6 (f'' nearly vanishes somewhere) to 1
        q2[0] = -np.abs(q2[1:]).sum() - 10.0 ** rng.uniform(-6, 0)
        q1 = cheb.chebint(q2, lbnd=r, k=s)
        rows.append(cheb.chebint(q1, k=rng.standard_normal()))
    return np.array(rows)


def _certified(coef):
    q2 = derivative_array(derivative_array(coef))
    return q2[:, 0] + np.abs(q2[:, 1:]).sum(axis=1) < 0.0


def _count_clenshaw_calls(monkeypatch):
    calls = []

    def counting(c, x):
        calls.append(1)
        return clenshaw(c, x)

    monkeypatch.setattr("chebnash.solver.clenshaw", counting)
    return calls


@pytest.mark.parametrize("L", range(3, 10))
def test_concave_rows_reach_the_colleague_paths_maximum(L, monkeypatch):
    rng = np.random.default_rng(200 + L)
    near = 1.0 - rng.uniform(0.0, 1e-12, 10)
    # Roots inside, roots within 1e-12 of +-1, and f' > 0 at 1 or f' < 0 at
    # -1: f' decreases, so the last 20 rows' f' keeps one sign.
    roots = np.concatenate([rng.uniform(-1.0, 1.0, 40), near, -near, np.ones(10), -np.ones(10)])
    slopes = np.zeros(len(roots))
    slopes[-20:-10] = 10.0 ** rng.uniform(-12, 0, 10)
    slopes[-10:] = -(10.0 ** rng.uniform(-12, 0, 10))
    coef = _concave_rows(rng, L, roots, slopes)
    assert np.all(_certified(coef))
    calls = _count_clenshaw_calls(monkeypatch)
    x, f = _maximise_block(coef)
    # Every row stops well inside the cap: one pass per step plus the final value.
    assert len(calls) <= _NEWTON_STEPS // 2
    x_eig = _colleague_argmax(coef, _derivative_stack(coef))
    f_eig = clenshaw(coef.T, x_eig)
    assert np.all(np.abs(x) <= 1.0)
    assert np.all(f >= f_eig - 1e-15 * np.abs(coef).max(axis=1))
    assert np.all(x[-20:-10] == 1.0) and np.all(x[-10:] == -1.0)


@pytest.mark.parametrize("L", range(3, 11))
def test_derivative_stack_is_the_recurrence_row_by_row(L):
    rng = np.random.default_rng(400 + L)
    coef = rng.standard_normal((40, L))
    dq = _derivative_stack(coef)
    q1 = derivative_array(coef)
    q2 = derivative_array(q1)
    np.testing.assert_allclose(dq[:, 0].T, q1, rtol=0, atol=1e-14 * np.abs(q1).max())
    np.testing.assert_allclose(dq[:-1, 1].T, q2, rtol=0, atol=1e-14 * np.abs(q2).max())
    assert np.all(dq[-1, 1] == 0.0)
    for i, row in enumerate(coef):
        assert np.array_equal(_derivative_stack(row[None, :])[:, :, 0], dq[:, :, i])


def test_mixed_block_rows_equal_their_lone_results():
    rng = np.random.default_rng(31)
    L = 7
    concave = _concave_rows(rng, L, rng.uniform(-1.5, 1.5, 30))
    coef = np.concatenate([concave, rng.standard_normal((30, L))])[rng.permutation(60)]
    assert 0 < _certified(coef).sum() < len(coef)
    x, f = _maximise_block(coef)
    for row, xr, fr in zip(coef, x, f):
        x1, f1 = _maximise_block(row[None, :])
        assert (xr, fr) == (x1[0], f1[0])


def test_nearly_flat_concave_row_stops_within_the_cap(monkeypatch):
    # f' is about 1e-17 and f'' about -1e-14: each Newton step is at the
    # rounding level of f'.
    coef = np.array([[1.0, 3e-18, -2.5e-15, 1e-19, -1e-20, 0.0, 1e-21, 0.0, 0.0]])
    assert _certified(coef)[0]
    calls = _count_clenshaw_calls(monkeypatch)
    x, f = _maximise_block(coef)
    assert len(calls) <= _NEWTON_STEPS + 1        # the loop's passes and the final value
    assert -1.0 <= x[0] <= 1.0
    assert np.isfinite(f[0]) and f[0] >= clenshaw(coef[0], np.array([-1.0, 1.0])).max()


def _convex_rows(rng, L, roots):
    """Rows of L coefficients with q2_0 - sum |q2_l| >= 0 and f'(roots) = 0."""
    rows = []
    for r in roots:
        q2 = rng.standard_normal(L - 2) * 10.0 ** rng.uniform(-1, 1, L - 2)
        q2[0] = np.abs(q2[1:]).sum() + 10.0 ** rng.uniform(-6, 0)
        rows.append(cheb.chebint(cheb.chebint(q2, lbnd=r), k=rng.standard_normal()))
    return np.array(rows)


@pytest.mark.parametrize("L", range(3, 10))
def test_convex_rows_take_the_colleague_paths_endpoint(L, monkeypatch):
    rng = np.random.default_rng(300 + L)
    # Critical points inside and outside [-1, 1]; the even parts of the
    # same rows are convex too and tie at the endpoints.
    coef = _convex_rows(rng, L, rng.uniform(-1.5, 1.5, 60))
    even = coef.copy()
    even[:, 1::2] = 0.0
    coef = np.concatenate([coef, even])
    q2 = derivative_array(derivative_array(coef))
    assert np.all(q2[:, 0] - np.abs(q2[:, 1:]).sum(axis=1) >= 0.0)
    x_eig = _colleague_argmax(coef, _derivative_stack(coef))

    def no_eigensolve(*args):
        raise AssertionError("a certified-convex row reached the eigensolve")

    monkeypatch.setattr("chebnash.solver._colleague_argmax", no_eigensolve)
    x, f = _maximise_block(coef)
    assert np.array_equal(x, x_eig)
    assert np.all(np.abs(x) == 1.0)
    assert np.all(x[60:] == -1.0)
    assert np.array_equal(f, clenshaw(coef.T, x_eig))


# ---------------------------------------------------------------------------
# bellman sweep
# ---------------------------------------------------------------------------

def _sweep(spec, grid, values, policy):
    """One synchronous sweep of all players from node values and policy values."""
    ws = _Workspace(spec, grid)
    u_new, v_new = _run_sweep(ws, _successor_operator(ws, policy)[0], values)
    return v_new, u_new


def _zero_fields(spec, grid):
    return np.zeros((spec.J, grid.n_nodes)), np.zeros((spec.J, grid.n_nodes))


def test_first_sweep_from_zero_recovers_myopic_policy():
    spec = fast_spec(Np=2)
    grid = build_state_grid(spec)
    values, policy = _zero_fields(spec, grid)
    v1, u1 = _sweep(spec, grid, values, policy)
    np.testing.assert_allclose(u1, 0.5, atol=1e-9)
    # value = delta * h * G_i(p_i, A_i)
    for i in range(2):
        expect = spec.delta * spec.h * (
            0.5 * (0.5 - 0.25) - 0.5 * spec.phi[i] * grid.nodes[:, i] ** 2
        )
        np.testing.assert_allclose(v1[i], expect, atol=1e-12)


def test_value_field_interpolants_reproduce_node_values():
    spec = fast_spec(Np=3)
    result = solve_quiet(spec)
    grid = build_state_grid(spec)
    interpolants = fit_policy(grid, result.values)
    refs = np.stack(
        [to_reference(grid.bases[d], grid.nodes[:, d]) for d in range(2)], axis=-1
    )
    for i in range(2):
        got = np.array([eval_full(interpolants[i], r) for r in refs])
        np.testing.assert_allclose(got, result.values.values[i], rtol=1e-10, atol=1e-12)


def _successors(spec, grid, i, policy_values, own):
    """(N_P, K, J) clamped Euler successors of every node, player i at its (N_P, K)
    own controls and the rest at their policy."""
    controls = np.repeat(policy_values.T[:, None, :], own.shape[1], axis=1)
    controls[:, :, i] = own
    nodes = grid.nodes[:, None, :]
    return np.clip(nodes + spec.h * dynamics(spec, nodes, controls), 0.0, spec.P_max)


def _gain(spec, i, p_i, u_i):
    """Player i's stage gain u (A_i - u/2) - (phi_i/2) p^2."""
    return u_i * (spec.A[i] - 0.5 * u_i) - 0.5 * spec.phi[i] * p_i**2


def _pointwise_successor_values(spec, grid, i, node_values, policy_values, own):
    """(N_P, K) interpolant of node_values at player i's successors, point by point."""
    tensor = tensor_coeffs(node_values.reshape(grid.shape, order="F"), grid.bases)
    refs = 2.0 * _successors(spec, grid, i, policy_values, own) / spec.P_max - 1.0
    return np.array([[eval_full(tensor, r) for r in node] for node in refs])


def _exact_objective(spec, grid, i, node_values, policy_values, own):
    """(N_P, K) objective delta (h G_i + V_i(successor)) at player i's own controls.

    The interpolant is evaluated axis by axis at all successors at once.
    """
    coef = tensor_coeffs(node_values.reshape(grid.shape, order="F"), grid.bases).coefficients
    refs = (2.0 * _successors(spec, grid, i, policy_values, own) / spec.P_max - 1.0)
    refs = refs.reshape(-1, spec.J)
    r = basis_matrix(refs[:, 0], coef.shape[0] - 1) @ coef.reshape(coef.shape[0], -1)
    for d in range(1, spec.J):
        B = basis_matrix(refs[:, d], coef.shape[d] - 1)
        r = np.einsum("pk,pkr->pr", B, r.reshape(len(refs), coef.shape[d], -1))
    gain = _gain(spec, i, grid.nodes[:, i, None], own)
    return spec.delta * (spec.h * gain + r[:, 0].reshape(own.shape))


def test_policy_evaluation_is_the_sweeps_fixed_point_at_that_policy():
    # Distinct per-axis degrees, so a slip in the axis order or in the
    # Fortran order of the node values changes the answer.  At a fixed
    # policy the sweep's value is the exact objective at that policy.
    spec = preset_spec("example3", Np=(2, 3, 4))
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    u = np.random.default_rng(5).uniform(0.0, spec.U_max, (spec.J, grid.n_nodes))
    V = _evaluate_policy(ws, _successor_operator(ws, u)[0], u)
    for i in range(spec.J):
        succ = _pointwise_successor_values(spec, grid, i, V[i], u, u[i, :, None])[:, 0]
        swept = spec.delta * (spec.h * _gain(spec, i, grid.nodes[:, i], u[i]) + succ)
        np.testing.assert_allclose(swept, V[i], rtol=0, atol=1e-10)


def _cardinal_matrix(rows):
    """Row-wise Kronecker product of per-axis rows (P, s_d), in C order: (P, prod s_d)."""
    card = np.ones((len(rows[0]), 1))
    for C in reversed(rows):
        card = (card[:, :, None] * C[:, None, :]).reshape(len(card), -1)
    return card


def _c_order_evaluation(spec, grid, policy):
    """Exact evaluation with each player's own I - delta E_i built as a fresh C-order matrix
    from the successors of the policy."""
    n = grid.n_nodes
    out = np.empty((spec.J, n))
    for i in range(spec.J):
        refs = 2.0 * _successors(spec, grid, i, policy, policy[i, :, None])[:, 0] / spec.P_max - 1.0
        rows = [basis_matrix(refs[:, d], b.degree) @ _transform_matrix(b.degree)
                for d, b in enumerate(grid.bases)]
        A = _cardinal_matrix(rows)
        A *= -spec.delta
        A.flat[:: n + 1] += 1.0
        gain = _gain(spec, i, grid.nodes[:, i], policy[i])
        out[i] = np.linalg.solve(A, spec.delta * spec.h * gain)
    return out


CHAIN5 = GameSpec(J=5, K=[[-1, 1, 0, 0, 0], [1, -2, 1, 0, 0], [0, 1, -2, 1, 0],
                          [0, 0, 1, -2, 1], [0, 0, 0, 1, -1]],
                  beta=1.0, phi=1.0, A=0.5, c=0.5, rho=0.1, h=1e-2, P_max=0.7, U_max=0.5,
                  Np=3, tol=1e-6)
EVALUATED = {
    "example1": preset_spec("example1", Np=4),
    "example3": preset_spec("example3", Np=(2, 3, 4)),
    "example4": preset_spec("example4", h=1e-2),
    "chain5": CHAIN5,
}
# No own successor can clamp on this grid (ex1-bound's).
UNCLAMPED = preset_spec("example1", Np=8, P_max=1.2, h=1e-2)


def _operator_at_random_policy(spec, seed):
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    u = np.random.default_rng(seed).uniform(0.0, spec.U_max, (spec.J, grid.n_nodes))
    return ws, _successor_operator(ws, u)[0], u


@pytest.mark.parametrize("spec", [*EVALUATED.values(), UNCLAMPED],
                         ids=[*EVALUATED, "example1-unclamped"])
def test_evaluation_matches_the_per_player_dense_reference(spec):
    # One LU of the shared matrix gives each player's own system's solution.
    ws, ops, u = _operator_at_random_policy(spec, 7)
    np.testing.assert_allclose(_evaluate_policy(ws, ops, u), _c_order_evaluation(spec, ws.grid, u),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("spec", EVALUATED.values(), ids=EVALUATED.keys())
def test_one_node_by_node_solve_per_evaluation(spec, monkeypatch):
    ws, ops, u = _operator_at_random_policy(spec, 23)
    n = ws.grid.n_nodes
    shapes = []
    solve_ = np.linalg.solve

    def counted(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return solve_(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    _evaluate_policy(ws, ops, u)
    # One N_P x N_P solve with one right-hand side per player, and no other.
    assert shapes == [((n, n), (n, spec.J))]


def test_evaluation_buffer_carries_no_state_between_calls():
    spec = preset_spec("example3", Np=(2, 3, 4))
    ws, ops, u = _operator_at_random_policy(spec, 8)
    first = _evaluate_policy(ws, ops, u)
    buffer = ws.buffer
    again = _evaluate_policy(ws, ops, u)
    assert ws.buffer is buffer
    assert np.array_equal(first, again)
    # A sweep and an evaluation at another policy, both through the same
    # buffer, leave the next result unchanged.
    other = np.random.default_rng(9).uniform(0.0, spec.U_max, u.shape)
    other_ops = _successor_operator(ws, other)[0]
    _run_sweep(ws, other_ops, first)
    _evaluate_policy(ws, other_ops, other)
    assert ws.buffer is buffer
    assert np.array_equal(_evaluate_policy(ws, ops, u), first)


def test_own_rows_are_built_once_outside_the_set_up():
    # They depend on the node only, so every operator of a solve reads the
    # same rows; the workspace leaves them to the first sweep.
    spec = preset_spec("example3", Np=(2, 3, 4), h=1e-2)
    ws, ops, u = _operator_at_random_policy(spec, 12)
    assert ws.own is None
    v = np.random.default_rng(13).standard_normal(u.shape)
    first = _run_sweep(ws, ops, v)
    own = ws.own
    _run_sweep(ws, _successor_operator(ws, u[:, ::-1].copy())[0], v)
    _evaluate_policy(ws, ops, u)
    assert ws.own is own
    assert np.array_equal(_run_sweep(ws, ops, v), first)


def test_second_evaluation_allocates_no_node_by_node_array():
    spec = preset_spec("example4", Np=4, h=1e-2)
    ws, ops, u = _operator_at_random_policy(spec, 10)
    n = ws.grid.n_nodes
    tracemalloc.start()
    try:
        _evaluate_policy(ws, ops, u)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _evaluate_policy(ws, ops, u)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grown < 8 * n * n


def test_sweep_values_match_pointwise_successor_evaluation():
    # The sweep binds the other players' axes once per node; here every
    # successor is evaluated on its own, on a grid of distinct degrees.  The
    # sweep's value is the exact objective at its control, and no control of
    # a dense grid does better.
    spec = preset_spec("example3", Np=(2, 3, 4))
    grid = build_state_grid(spec)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((spec.J, grid.n_nodes))
    u = rng.uniform(0.0, spec.U_max, (spec.J, grid.n_nodes))
    swept, u_new = _sweep(spec, grid, v, u)
    dense = np.broadcast_to(np.linspace(0.0, spec.U_max, 2001), (grid.n_nodes, 2001))
    for i in range(spec.J):
        succ = _pointwise_successor_values(spec, grid, i, v[i], u, u_new[i, :, None])[:, 0]
        gain = _gain(spec, i, grid.nodes[:, i], u_new[i])
        np.testing.assert_allclose(swept[i], spec.delta * (spec.h * gain + succ),
                                   rtol=0, atol=1e-10)
        scan = _exact_objective(spec, grid, i, v[i], u, dense).max(axis=1)
        assert np.all(swept[i] >= scan - 1e-10)


MIXED_DEGREES = {
    "example3-Np": preset_spec("example3", Np=(2, 3, 4), h=1e-2),
    "example1-both": preset_spec("example1", Np=(4, 6), h=1e-2),
}


def _unclamped_interval(spec, nodes, i):
    """Per node, the interval [lo, hi] of player i's control on which its own
    successor coordinate p_i + h (g_i(p, 0) + beta_i u) stays in [0, P_max]."""
    if spec.beta[i] == 0.0:
        return np.zeros(len(nodes)), np.full(len(nodes), spec.U_max)
    still = nodes[:, i] + spec.h * dynamics(spec, nodes, np.zeros_like(nodes))[:, i]
    ends = (np.array([0.0, spec.P_max]) - still[:, None]) / (spec.h * spec.beta[i])
    lo, hi = np.clip(np.sort(ends, axis=1), 0.0, spec.U_max).T
    return lo, hi


def _player_by_player_sweep(ws, values, policy):
    """Best responses and clamp count with one successor operator and one maximiser block per player."""
    spec, grid = ws.spec, ws.grid
    u_best, v_best = np.empty((2, spec.J, grid.n_nodes))
    for i in range(spec.J):
        degree = max(2, int(spec.Np[i]))
        lo, hi = _unclamped_interval(spec, grid.nodes, i)
        x = make_basis(degree, -1.0, 1.0).nodes
        own = lo[:, None] + (x + 1.0) * (0.5 * (hi - lo))[:, None]          # (N_P, K)
        ref = _successors(spec, grid, i, policy, own) * ws.p_scale - 1.0    # (N_P, K, J)
        rows = [_row_basis(ref[:, 0, d], M.shape[0]) @ M for d, M in enumerate(ws.transforms)]
        M = ws.transforms[i]
        own_rows = (_row_basis(ref[:, :, i].ravel(), M.shape[0]) @ M).reshape(
            grid.n_nodes, degree + 1, -1)
        tensor = np.moveaxis(values[i].reshape(grid.shape, order="F"), i, -1)
        partial = _cardinal_matrix(rows[:i] + rows[i + 1:]) @ tensor.reshape(
            -1, own_rows.shape[2], order="F")
        stage = spec.h * _gain(spec, i, grid.nodes[:, i, None], own)
        objective = spec.delta * (stage + np.einsum("nka,na->nk", own_rows, partial))
        fit = np.matmul(_transform_matrix(degree), objective[:, :, None])[:, :, 0]
        x, v_best[i] = _maximise_block(fit)
        u_best[i] = lo + (x + 1.0) * (0.5 * (hi - lo))
        # Beyond the interval the own successor is clamped, so the objective
        # is the stage gain plus its value at the interval's end.
        A = spec.A[i]
        end = np.clip(A, lo, hi)
        piece = np.where(A < lo, objective[:, -1], objective[:, 0])
        piece += (0.5 * spec.delta * spec.h) * (A - end) ** 2
        better = (end != A) & (piece > v_best[i])
        u_best[i, better] = A
        v_best[i, better] = piece[better]
    # The clamp count runs over the components of the policy's successors.
    nxt = grid.nodes + spec.h * dynamics(spec, grid.nodes, policy.T)
    return u_best, v_best, np.count_nonzero(np.clip(nxt, 0.0, spec.P_max) != nxt)


@pytest.mark.parametrize("spec", MIXED_DEGREES.values(), ids=MIXED_DEGREES.keys())
def test_sweep_matches_player_by_player_reference(spec):
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    rng = np.random.default_rng(17)
    v = rng.standard_normal((spec.J, grid.n_nodes))
    u = rng.uniform(0.0, spec.U_max, (spec.J, grid.n_nodes))
    ops, clamped = _successor_operator(ws, u)
    u_new, v_new = _run_sweep(ws, ops, v)
    u_ref, v_ref, clamped_ref = _player_by_player_sweep(ws, v, u)
    assert np.array_equal(u_new, u_ref)
    assert np.array_equal(v_new, v_ref)
    assert clamped == clamped_ref > 0
    assert solve_quiet(spec).converged


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
    spec = fast_spec(Np=4, tol=1e-8)
    result = solve_quiet(spec)
    assert result.converged
    n = 5
    u1 = result.policy.values[0].reshape(n, n, order="F")
    u2 = result.policy.values[1].reshape(n, n, order="F")
    np.testing.assert_allclose(u1, u2.T, atol=1e-8)


def test_three_player_chain_symmetry_at_nodes():
    # example3's layout is invariant under swapping players 1 and 3
    spec = preset_spec("example3", rho=0.5, h=0.01, P_max=0.5, U_max=0.5,
                       tol=1e-8, Np=2, max_iters=20_000)
    result = solve_quiet(spec)
    assert result.converged
    u0 = result.policy.values[0].reshape(3, 3, 3, order="F")
    u2 = result.policy.values[2].reshape(3, 3, 3, order="F")
    np.testing.assert_allclose(u0, u2.transpose(2, 1, 0), atol=1e-8)


def _relabelled_games(seed):
    """A random game with symmetric K, the same game with its players relabelled, and
    the relabelling: player k of the second game is player perm[k] of the first."""
    rng = np.random.default_rng(seed)
    J = int(rng.integers(2, 4))
    upper = np.triu(rng.uniform(0.0, 2.0, (J, J)), 1)
    off = upper + upper.T
    K = off - np.diag(off.sum(axis=1) + rng.uniform(0.0, 1.0, J))
    players = dict(beta=rng.uniform(0.5, 1.5, J), phi=rng.uniform(0.5, 1.5, J),
                   A=rng.uniform(0.3, 0.6, J), c=rng.uniform(0.2, 0.8, J),
                   m=rng.uniform(0.5, 2.0, J), Np=rng.integers(1, 5, J))
    common = dict(J=J, rho=rng.uniform(0.1, 1.0), h=1e-2, P_max=rng.uniform(0.5, 1.5),
                  U_max=0.7, tol=1e-6, max_iters=2000)
    perm = rng.permutation(J)
    if np.all(perm == np.arange(J)):
        perm = perm[::-1]
    relabelled = GameSpec(K=K[np.ix_(perm, perm)], **{k: v[perm] for k, v in players.items()},
                          **common)
    return GameSpec(K=K, **players, **common), relabelled, perm


@pytest.mark.parametrize("seed", range(6))
def test_solve_is_equivariant_under_player_relabelling(seed):
    spec, relabelled, perm = _relabelled_games(seed)
    a, b = solve_quiet(spec), solve_quiet(relabelled)
    assert a.converged and b.converged
    # Axis k of the relabelled grid is axis perm[k] of the original one.
    shape = tuple(int(n) + 1 for n in spec.Np)
    for fa, fb in ((a.values.values, b.values.values), (a.policy.values, b.policy.values)):
        for k in range(spec.J):
            moved = fa[perm[k]].reshape(shape, order="F").transpose(perm)
            got = fb[k].reshape(moved.shape, order="F")
            np.testing.assert_allclose(got, moved, rtol=0, atol=1e-9)


def test_contraction_of_sup_differences():
    # The value-iteration step, which solve falls back to, contracts.
    spec = fast_spec(Np=3)
    grid = build_state_grid(spec)
    values, policy = _zero_fields(spec, grid)
    diffs = []
    for _ in range(200):
        new_values, policy = _sweep(spec, grid, values, policy)
        diffs.append(np.max(np.abs(new_values - values)))
        values = new_values
    tail = np.array(diffs[-15:])
    ratios = tail[1:] / tail[:-1]
    assert np.all(ratios <= spec.delta + 0.05)


def test_fallback_keeps_policy_iteration_symmetric():
    # From the myopic start, accepting every proposal on this spec takes
    # 588 sweeps and ends with an exchange gap of 4.6e-4; the
    # value-iteration fallback avoids both.
    spec = preset_spec("example1", Np=8, h=1e-2)
    result = solve_quiet(spec, init=myopic_start(spec))
    assert result.converged
    n = 9
    u1 = result.policy.values[0].reshape(n, n, order="F")
    u2 = result.policy.values[1].reshape(n, n, order="F")
    assert np.max(np.abs(u1 - u2.T)) <= 1e-8
    assert result.rejected >= 1
    assert 1 <= result.evaluations <= result.iterations


def test_lq_start_needs_no_fallback():
    # From the myopic start this spec takes 86 sweeps, 16 evaluations and
    # 6 rejected proposals.
    spec = preset_spec("example1", Np=8, h=1e-2)
    result = solve_quiet(spec)
    assert result.converged
    assert result.rejected == 0
    assert result.iterations <= 10


def test_default_start_is_the_clipped_lq_oracle():
    # The start settles the LQ gains to spec.tol, the oracle to 1e-13.
    spec = preset_spec("example1", Np=8, h=1e-2, P_max=1.2, max_iters=1)
    grid = build_state_grid(spec)
    Q, b, d, e, f, _ = _lq_feedback(spec, spec.tol)
    fb = LQFeedback(Q=Q, b=b, d=d, e=e, f=f, iterations=0, negative_fraction=0.0,
                    high_fraction=0.0)
    start = (fb.value(grid.nodes).T, np.clip(fb.policy(grid.nodes).T, 0.0, spec.U_max))
    oracle = lq_solve(spec, grid)
    assert oracle.negative_fraction > 0.0       # the clip is exercised
    exact = (oracle.value(grid.nodes).T, np.clip(oracle.policy(grid.nodes).T, 0.0, spec.U_max))
    for got, ref in zip(start, exact):
        assert np.max(np.abs(got - ref)) <= 10.0 * spec.tol
    default, given = solve_quiet(spec), solve_quiet(spec, init=start)
    for a, b in [(default.values.values, given.values.values),
                 (default.policy.values, given.policy.values),
                 (default.history, given.history)]:
        np.testing.assert_array_equal(a, b)
    assert (default.iterations, default.evaluations, default.rejected) == (
        given.iterations, given.evaluations, given.rejected)


def test_timings_cover_setup_start_and_sweeps():
    result = solve_quiet(fast_spec(Np=3))
    assert set(result.timings) == {"setup", "start", "sweeps", "total"}
    assert all(t >= 0.0 for t in result.timings.values())
    assert result.timings["total"] >= result.timings["setup"] + result.timings["start"]


def test_fallback_wait_grows_across_accepted_proposals():
    # A wait that resets after an accepted proposal cycles on this spec
    # from the myopic start.
    spec = preset_spec("example1", rho=0.5, h=5e-3, tol=1e-7, Np=2,
                       max_iters=2000)
    result = solve_quiet(spec, init=myopic_start(spec))
    assert result.converged


# From the LQ start this spec stops after one sweep; from the myopic start
# the iteration rejects proposals, so it runs the revert path: 18 sweeps,
# 7 evaluations and 3 rejected proposals.
REJECTING = dict(rho=0.5, h=0.01, tol=1e-4, Np=2)


def test_rejecting_spec_keeps_its_counts():
    spec = preset_spec("example1", **REJECTING)
    result = solve_quiet(spec, init=myopic_start(spec))
    assert result.converged
    assert (result.iterations, result.evaluations, result.rejected) == (18, 7, 3)


@pytest.mark.parametrize("spec, rejects", [
    (fast_spec(Np=3), False),
    (preset_spec("example1", **REJECTING), True),
], ids=["fast", "rejecting"])
def test_converged_result_is_a_fixed_point_to_tolerance(spec, rejects):
    result = solve_quiet(spec, init=myopic_start(spec) if rejects else None)
    assert result.converged
    if rejects:
        assert result.rejected >= 1
    grid = build_state_grid(spec)
    values, _ = _sweep(spec, grid, result.values.values, result.policy.values)
    moved = np.max(np.abs(values - result.values.values))
    assert moved <= spec.tol * (1.0 - spec.delta)
    assert moved == result.history[-1].max()


# Each spec's converged answer, from either start, must be a fixed point of
# the discrete game, not only of the solver's own sweep.
FIXED_POINT_SPECS = {
    "example1": preset_spec("example1", h=1e-2),
    "example3": preset_spec("example3", h=1e-2),
    "example4": preset_spec("example4", h=1e-2),
    "fallback": preset_spec("example1", rho=0.5, h=5e-3, tol=1e-7, Np=2, max_iters=2000),
    "rejecting": preset_spec("example1", **REJECTING),
    "ex1-bound": preset_spec("example1", Np=8, P_max=1.2, h=1e-2, tol=1e-5),
    # A control that lowers the own stock, and one that leaves it alone.
    "signed-beta": preset_spec("example1", Np=4, h=1e-2, beta=[-1.0, 1.0], P_max=0.3),
    "zero-beta": preset_spec("example1", Np=4, h=1e-2, beta=[1.0, 0.0]),
}


@pytest.mark.parametrize("start", ["lq", "myopic"])
@pytest.mark.parametrize("name", FIXED_POINT_SPECS)
def test_converged_answer_is_a_fixed_point_of_the_discrete_game(name, start):
    # Each player's own control runs over a dense grid of [0, U_max] and the
    # returned control, the others held at theirs; the successors are the
    # clamped Euler steps, and the objective is the exact one.
    spec = FIXED_POINT_SPECS[name]
    result = solve_quiet(spec, init=myopic_start(spec) if start == "myopic" else None)
    assert result.converged
    grid = build_state_grid(spec)
    v, u = result.values.values, result.policy.values
    dense = np.broadcast_to(np.linspace(0.0, spec.U_max, 401), (grid.n_nodes, 401))
    worst = 0.0
    for i in range(spec.J):
        own = np.concatenate([dense, u[i, :, None]], axis=1)
        best = _exact_objective(spec, grid, i, v[i], u, own).max(axis=1)
        worst = max(worst, float(np.max(np.abs(best - v[i]))))
    assert worst <= spec.tol * (1.0 - spec.delta)


def test_policy_feasible_within_box():
    spec = fast_spec(Np=3)
    result = solve_quiet(spec)
    assert np.all(result.policy.values >= 0.0)
    assert np.all(result.policy.values <= spec.U_max)


def test_restart_from_converged_fields_stops_immediately():
    spec = fast_spec(Np=2)
    first = solve_quiet(spec)
    assert first.converged
    again = solve_quiet(spec, init=(first.values, first.policy))
    assert again.converged and again.iterations <= 2


def test_repeated_solves_are_bitwise_equal():
    spec = preset_spec("example1", Np=4, h=1e-2)
    first, second = solve_quiet(spec), solve_quiet(spec)
    for a, b in [(first.values.values, second.values.values),
                 (first.policy.values, second.policy.values),
                 (first.history, second.history)]:
        np.testing.assert_array_equal(a, b)
    assert (first.iterations, first.evaluations, first.rejected) == (
        second.iterations, second.evaluations, second.rejected)


@pytest.mark.parametrize("field", ["values", "policy"])
def test_non_finite_initial_fields_rejected(field):
    spec = fast_spec(Np=2)
    fields = {"values": np.zeros((2, 9)), "policy": np.full((2, 9), 0.25)}
    fields[field][1, 4] = np.nan
    with pytest.raises(ValueError, match="initial fields"):
        solve(spec, init=(fields["values"], fields["policy"]))


def test_non_convergence_reported_not_raised():
    spec = fast_spec(Np=2, tol=1e-12, max_iters=5)
    result = solve_quiet(spec)
    assert not result.converged and result.iterations == 5


def test_clamp_warning_when_box_too_small():
    spec = fast_spec(Np=2, P_max=0.2, U_max=0.5, tol=1e-2, max_iters=50)
    with pytest.warns(RuntimeWarning, match="clamped"):
        solve(spec)


def test_clamp_heavy_game_reports_non_convergence():
    # The policy's successors clamp at 2.2% of their components, and the
    # iteration does not settle: it is reported as not converged, with the
    # warning, rather than stopped early at a point that is no fixed point.
    spec = preset_spec("example4", Np=2, rho=0.5, h=0.01, tol=1e-4, max_iters=30)
    with pytest.warns(RuntimeWarning, match="2.2% of successor-state components clamped"):
        result = solve(spec)
    assert result.converged is False
    assert result.iterations == 30


def test_no_clamps_when_no_successor_leaves_the_box():
    # With P_max = 50 every Euler successor of a node stays inside the box,
    # so a clamp could only come from rounding in the drift.
    spec = preset_spec("example1", Np=3, h=1e-2, P_max=50.0, max_iters=1)
    zeros = np.zeros((2, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve(spec, init=(zeros, zeros))
    assert result.iterations == 1
    assert result.clamp_fraction == 0.0


def test_clamp_fraction_counts_every_successor_component():
    # P_max = 0.3 lets the successors of the top nodes under the myopic
    # policy leave the box in every player's coordinate; the fraction counts
    # each of the N_P * J components once.
    spec = preset_spec("example3", Np=(2, 3, 4), h=1e-1, P_max=0.3, max_iters=1)
    start = myopic_start(spec)
    nodes = build_state_grid(spec).nodes
    nxt = nodes + spec.h * dynamics(spec, nodes, start[1].T)
    hit = np.clip(nxt, 0.0, spec.P_max) != nxt
    assert np.all(hit.any(axis=0)) and not np.all(hit)
    result = solve_quiet(spec, init=start)
    assert result.iterations == 1
    assert result.clamp_fraction == np.count_nonzero(hit) / hit.size


def test_no_clamp_warning_when_the_policy_stays_in_the_box():
    # Some own controls in [0, U_max] send the successor out of the box
    # here, but the solved policy's successors stay in: no warning.
    spec = preset_spec("example1", Np=2, h=1e-2, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve(spec)
    assert result.converged
    assert result.clamp_fraction == 0.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_policy_from_origin_stays_zero():
    spec = fast_spec(Np=2)
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
                    P_max=0.7, U_max=0.5, Np=1, tol=1e-6)
    grid = build_state_grid(spec)
    rng = np.random.default_rng(16)
    policies = fit_policy(grid, PolicyField(values=rng.uniform(0.0, 0.5, (J, grid.n_nodes))))
    path = simulate(spec, policies, rng.uniform(0.0, 0.7, J), 20)
    for state, controls in zip(path.states, path.controls):
        ref = 2.0 * state / spec.P_max - 1.0
        expect = [eval_full(policies[i], ref) for i in range(J)]
        np.testing.assert_allclose(controls, np.clip(expect, 0.0, spec.U_max), atol=1e-13)


def test_simulate_rejects_out_of_box_start():
    spec = fast_spec(Np=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError):
        simulate(spec, policies, [10.0, 0.0], 5)


@pytest.mark.parametrize("n_steps", [0, 5])
@pytest.mark.parametrize("p0", [[np.nan, 0.0], [0.1, np.nan]])
def test_simulate_rejects_non_finite_start(p0, n_steps):
    spec = fast_spec(Np=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError, match="p0"):
        simulate(spec, policies, p0, n_steps)


@pytest.mark.parametrize("n_steps", [0, 5])
def test_simulate_rejects_non_finite_policy_coefficient(n_steps):
    spec = fast_spec(Np=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.full((2, grid.n_nodes), 0.25)))
    coef = policies[1].coefficients.copy()
    coef[1, 2] = np.nan
    policies[1] = CoefTensor(grid.bases, coef)
    with pytest.raises(ValueError, match="policies"):
        simulate(spec, policies, np.full(2, 0.1), n_steps)


def test_simulate_rejects_policies_of_another_dimension():
    spec = fast_spec(Np=2)
    line = CoefTensor(build_state_grid(spec).bases[:1], np.full(3, 0.25))
    with pytest.raises(ValueError, match="policies"):
        simulate(spec, [line, line], np.full(2, 0.1), 5)


@pytest.mark.parametrize("n_steps", [-1, -5])
def test_simulate_rejects_negative_step_count(n_steps):
    spec = fast_spec(Np=2)
    grid = build_state_grid(spec)
    policies = fit_policy(grid, PolicyField(values=np.zeros((2, grid.n_nodes))))
    with pytest.raises(ValueError, match="n_steps"):
        simulate(spec, policies, np.zeros(2), n_steps)


def test_value_matches_simulated_discounted_payoff():
    spec = fast_spec(h=2e-3, Np=3)
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
