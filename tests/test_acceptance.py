"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavier criteria share one converged reference solution of
the two-player benchmark configuration (module-scoped fixture).
"""

import time
import warnings

import numpy as np
import pytest

import chebnash as cn
from chebnash.cheb1d import derivative_array, to_reference
from chebnash.chebnd import eval_full
from chebnash.solver import _Workspace, _cardinal_rows, _kron_rows

RNG_SEED = 20240801


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: PASS {detail}")


def _solve_quiet(spec, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return cn.solve(spec, **kw)


@pytest.fixture(scope="module")
def example1_reference():
    """Deeply converged example1 run (h=1e-3, tol=1e-8, degree 8).

    The solver stops when the Bellman residual is at most tol*(1-delta):
    one more sweep moves no value by more than that.  The policies can
    still lie about sqrt(rho*tol) = 3e-5 from the fixed point, and each
    value moves with the other players' policies; criterion 09 checks
    the values against simulated payoffs at 1e-3.
    """
    spec = cn.preset_spec("example1", tol=1e-8)
    result = _solve_quiet(spec)
    assert result.converged
    return spec, cn.build_state_grid(spec), result


# ---------------------------------------------------------------------------
# 1. multidimensional interpolation exactness on low-degree polynomials
# ---------------------------------------------------------------------------

def test_criterion_01_chebyshev_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    letters = "abcd"
    for trial in range(12):
        n = int(rng.integers(1, 5))
        degrees = rng.integers(1, 7, size=n)
        mono = rng.standard_normal(tuple(degrees + 1))
        bases = tuple(cn.make_basis(int(d), -1.0, 1.0) for d in degrees)
        grids = np.meshgrid(*(b.nodes for b in bases), indexing="ij")
        vander = [g[..., None] ** np.arange(degrees[d] + 1)
                  for d, g in enumerate(grids)]
        sub_in = ",".join(f"...{letters[d]}" for d in range(n))
        samples = np.einsum(f"{letters[:n]},{sub_in}->...", mono, *vander)
        tensor = cn.tensor_coeffs(samples, bases)
        pts = rng.uniform(-1.0, 1.0, (100, n))
        van_p = [pts[:, d, None] ** np.arange(degrees[d] + 1) for d in range(n)]
        sub_p = ",".join(f"p{letters[d]}" for d in range(n))
        expect = np.einsum(f"{letters[:n]},{sub_p}->p", mono, *van_p)
        got = np.array([eval_full(tensor, p) for p in pts])
        np.testing.assert_allclose(got, expect, atol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, "tensor interpolation exact on low-degree polynomials",
            f"({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 2. the matrix transform equals the direct cosine summation
# ---------------------------------------------------------------------------

def test_criterion_02_transform_equivalence():
    rng = np.random.default_rng(RNG_SEED + 1)
    for trial in range(50):
        n = int(rng.integers(1, 65))
        samples = rng.standard_normal(n + 1)
        basis = cn.make_basis(n, -1.0, 1.0)
        matrix_path = cn.tensor_coeffs(samples, (basis,)).coefficients
        k = np.arange(n + 1)
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        direct = np.empty(n + 1)
        for l in range(n + 1):
            scale = (1.0 if l in (0, n) else 2.0) / n
            direct[l] = scale * np.sum(w * samples * np.cos(np.pi * l * k / n))
        np.testing.assert_allclose(matrix_path, direct, atol=1e-12)
    _report(2, "matrix-transform coefficients equal direct halved-end summation")


# ---------------------------------------------------------------------------
# 3. batched successor-value evaluation equals per-point naive evaluation
# ---------------------------------------------------------------------------

def test_criterion_03_batched_evaluation_oracle():
    rng = np.random.default_rng(RNG_SEED + 2)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(1, 33))
        bases = tuple(cn.make_basis(int(rng.integers(1, 7)), -1.0, 1.0)
                      for _ in range(n))
        tensor = cn.CoefTensor(bases, rng.standard_normal(tuple(b.size for b in bases)))
        pts = rng.uniform(-1.0, 1.0, (count, n))
        rows = [cn.basis_matrix(pts[:, d], b.degree) for d, b in enumerate(bases)]
        out = np.empty((tensor.coefficients.size, count))
        batched = _kron_rows([r.T for r in rows], out).T @ tensor.coefficients.ravel(order="F")
        naive = np.array([eval_full(tensor, p) for p in pts])
        np.testing.assert_allclose(batched, naive, atol=1e-11)
    # The sweep's form: cardinal rows of a state grid against node values.
    presets = {2: "example1", 3: "example3", 4: "example4"}
    for trial in range(20):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(1, 33))
        spec = cn.preset_spec(presets[n], Np=rng.integers(1, 7, size=n))
        grid = cn.build_state_grid(spec)
        node_tensor = rng.standard_normal(grid.n_nodes).reshape(grid.shape, order="F")
        pts = rng.uniform(-1.0, 1.0, (count, n))
        rows = _cardinal_rows(_Workspace(spec, grid), list(pts.T))
        out = np.empty((grid.n_nodes, count))
        batched = _kron_rows([r.T for r in rows], out).T @ node_tensor.ravel(order="F")
        tensor = cn.tensor_coeffs(node_tensor, grid.bases)
        naive = np.array([eval_full(tensor, p) for p in pts])
        np.testing.assert_allclose(batched, naive, atol=1e-11)
    _report(3, "batched successor-value evaluation matches per-point loop")


# ---------------------------------------------------------------------------
# 4. derivative coefficients against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_04_derivative_check():
    rng = np.random.default_rng(RNG_SEED + 3)
    fd_step = 1e-5
    for trial in range(20):
        a = rng.uniform(-3.0, 1.0)
        b = a + rng.uniform(0.5, 4.0)
        basis = cn.make_basis(12, a, b)
        coef = rng.standard_normal(13)
        deriv = derivative_array(coef)
        scale = 2.0 / (b - a)
        xs = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 11)
        got = scale * (cn.basis_matrix(to_reference(basis, xs), 11) @ deriv)
        fd = (
            cn.basis_matrix(to_reference(basis, xs + fd_step), 12) @ coef
            - cn.basis_matrix(to_reference(basis, xs - fd_step), 12) @ coef
        ) / (2 * fd_step)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)
    _report(4, "coefficient-space derivative matches finite differences")


# ---------------------------------------------------------------------------
# 5. decoupled game recovers the static optimum and geometric-series value
# ---------------------------------------------------------------------------

def test_criterion_05_decoupled_closed_form():
    t0 = time.perf_counter()
    spec = cn.preset_spec("example1", phi=0.0, beta=0.0, rho=1.0, h=1e-2,
                          P_max=1.0, U_max=1.0, Np=3, tol=1e-11,
                          max_iters=20_000)
    result = _solve_quiet(spec)
    assert result.converged
    delta = spec.delta
    v_expect = spec.h * delta * spec.A**2 / (2.0 * (1.0 - delta))
    shape = result.policy.values.shape
    np.testing.assert_allclose(
        result.policy.values, np.broadcast_to(spec.A[:, None], shape), atol=1e-8
    )
    np.testing.assert_allclose(
        result.values.values, np.broadcast_to(v_expect[:, None], shape), atol=1e-8
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, "decoupled game matches closed forms", f"({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 6. policy error against the closed-form solution decreases with degree
# ---------------------------------------------------------------------------

def test_criterion_06_oracle_agreement_envelope():
    t0 = time.perf_counter()
    errors = {}
    for degree in (2, 4, 8):
        spec = cn.preset_spec("example1", Np=degree)
        grid = cn.build_state_grid(spec)
        feedback = cn.lq_solve(spec, grid)
        assert feedback.negative_fraction == 0.0
        result = _solve_quiet(spec)
        assert result.converged
        errors[degree] = cn.policy_error(result.policy, feedback, grid)
    elapsed = time.perf_counter() - t0
    assert errors[2] > errors[4] > errors[8]
    assert errors[8] < 1e-2
    assert elapsed < 300.0
    _report(6, "policy error strictly decreases over degrees 2/4/8",
            f"(errors {errors[2]:.2e} > {errors[4]:.2e} > {errors[8]:.2e}, "
            f"{elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 7. symmetry reproductions across the three layouts
# ---------------------------------------------------------------------------

def test_criterion_07_symmetries(example1_reference):
    t0 = time.perf_counter()
    spec1, grid1, result1 = example1_reference
    n = spec1.Np[0] + 1
    u1 = result1.policy.values[0].reshape(n, n, order="F")
    u2 = result1.policy.values[1].reshape(n, n, order="F")
    np.testing.assert_allclose(u1, u2.T, atol=1e-8)

    sym_pairs = {"example3": (0, 2), "example4": (2, 3)}
    for preset, (i, j) in sym_pairs.items():
        spec = cn.preset_spec(preset)
        result = _solve_quiet(spec)
        assert result.converged
        grid = cn.build_state_grid(spec)
        policies = cn.fit_policy(grid, result.policy)
        path = cn.simulate(spec, policies, np.zeros(spec.J), 10_000)
        np.testing.assert_allclose(path.controls[:, i], path.controls[:, j],
                                   atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(7, "player-exchange symmetries reproduced", f"({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 9. converged values match simulated discounted payoffs
# ---------------------------------------------------------------------------

def test_criterion_09_value_consistency(example1_reference):
    spec, grid, result = example1_reference
    policies = cn.fit_policy(grid, result.policy)
    horizon = int(np.ceil(np.log(1e-8) / np.log(spec.delta)))
    tol = max(1e-3, 10 * spec.tol)
    rng = np.random.default_rng(RNG_SEED + 4)
    nodes = rng.choice(grid.n_nodes, size=10, replace=False)
    worst = 0.0
    for j in nodes:
        path = cn.simulate(spec, policies, grid.nodes[j], horizon)
        payoff = cn.discounted_payoff(spec, path.states, path.controls, horizon)
        worst = max(worst, float(np.max(np.abs(payoff - result.values.values[:, j]))))
    assert worst < tol
    _report(9, "values match truncated simulated payoffs",
            f"(worst gap {worst:.2e} < {tol:.0e})")


# ---------------------------------------------------------------------------
# 10. explicitly excluded comparisons
# ---------------------------------------------------------------------------

def test_criterion_10_excluded_wall_clock_comparisons():
    pytest.skip(
        "wall-clock speedups against the competing spline implementation are "
        "hardware- and competitor-dependent; the benchmark under bench/ "
        "records this package's timings without judging them"
    )
