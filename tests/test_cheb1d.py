"""Unit tests for the 1-D Chebyshev machinery: the one-axis tensor interpolant."""

import numpy as np
import pytest

from chebnash.cheb1d import cheb_transform, derivative_array, make_basis, to_reference
from chebnash.chebnd import CoefTensor, basis_matrix, eval_full, tensor_coeffs


def fit(samples, basis):
    """Coefficients of the 1-D interpolant through samples at the basis nodes."""
    return tensor_coeffs(samples, (basis,)).coefficients


def evaluate(coef, x):
    """sum_l coef_l T_l(x) at the reference points x."""
    return basis_matrix(x, len(coef) - 1) @ coef


def eval_at(coef, x):
    """One 1-D interpolant at one reference point, by Clenshaw."""
    return eval_full(CoefTensor((make_basis(len(coef) - 1, -1.0, 1.0),), coef), [x])


def direct_coeffs(samples):
    """O(N^2) cosine-sum transform with halved first/last samples."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size - 1
    k = np.arange(n + 1)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    out = np.empty(n + 1)
    for l in range(n + 1):
        scale = (1.0 if l in (0, n) else 2.0) / n
        out[l] = scale * np.sum(w * samples * np.cos(np.pi * l * k / n))
    return out


def trig_eval(coeffs, x):
    """Evaluate sum c_l T_l(x) through the trigonometric definition."""
    l = np.arange(len(coeffs))
    return float(np.sum(coeffs * np.cos(l * np.arccos(x))))


# ---------------------------------------------------------------------------
# make_basis
# ---------------------------------------------------------------------------

def test_nodes_reference_interval():
    b = make_basis(2, -1.0, 1.0)
    np.testing.assert_allclose(b.nodes, [1.0, 0.0, -1.0], atol=1e-15)


def test_nodes_affine_map_endpoints():
    b = make_basis(1, 0.0, 2.0)
    np.testing.assert_allclose(b.nodes, [2.0, 0.0], atol=1e-15)


def test_nodes_degree_four():
    b = make_basis(4, -1.0, 1.0)
    r = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(b.nodes, [1.0, r, 0.0, -r, -1.0], atol=1e-15)


def test_nodes_strictly_decreasing_and_pinned():
    b = make_basis(9, 0.3, 4.7)
    assert b.nodes[0] == 4.7 and b.nodes[-1] == 0.3
    assert np.all(np.diff(b.nodes) < 0)


def test_degree_zero_single_midpoint():
    b = make_basis(0, 2.0, 4.0)
    np.testing.assert_allclose(b.nodes, [3.0])


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -1.0), (np.nan, 1.0), (0.0, np.inf)])
def test_make_basis_rejects_bad_interval(a, b):
    with pytest.raises(ValueError):
        make_basis(3, a, b)


def test_make_basis_rejects_negative_degree():
    with pytest.raises(ValueError):
        make_basis(-1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# fitting: tensor_coeffs on one axis
# ---------------------------------------------------------------------------

def test_constant_function_coefficients():
    for n in (1, 2, 5, 8):
        b = make_basis(n, -1.0, 1.0)
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        np.testing.assert_allclose(fit(np.ones(n + 1), b), expect, atol=1e-15)


def test_identity_function_is_t1():
    b = make_basis(2, -1.0, 1.0)
    np.testing.assert_allclose(fit([1.0, 0.0, -1.0], b), [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("n", [3, 8, 17])
def test_transform_matches_direct_summation(n):
    rng = np.random.default_rng(100 + n)
    samples = rng.standard_normal(n + 1)
    b = make_basis(n, -1.0, 1.0)
    np.testing.assert_allclose(fit(samples, b), direct_coeffs(samples), atol=1e-12)


def test_degree_zero_transform_returns_sample():
    b = make_basis(0, 0.0, 1.0)
    np.testing.assert_allclose(fit([3.25], b), [3.25])


def test_sample_length_mismatch_rejected():
    b = make_basis(4, -1.0, 1.0)
    with pytest.raises(ValueError):
        tensor_coeffs(np.ones(4), (b,))


def test_non_finite_samples_rejected():
    b = make_basis(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        tensor_coeffs([1.0, np.nan, 0.0], (b,))


def test_cheb_transform_along_axis_matches_columns():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((9, 5))
    out = cheb_transform(block)
    for j in range(5):
        np.testing.assert_allclose(out[:, j], direct_coeffs(block[:, j]), atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation: eval_full and basis_matrix on one axis
# ---------------------------------------------------------------------------

def test_eval_t1():
    assert eval_at(np.array([0.0, 1.0]), 0.3) == pytest.approx(0.3, abs=1e-15)


def test_eval_t2():
    assert eval_at(np.array([0.0, 0.0, 1.0]), 0.5) == pytest.approx(-0.5, abs=1e-15)


def test_eval_matches_trigonometric_definition():
    rng = np.random.default_rng(9)
    coef = rng.standard_normal(10)
    assert eval_at(coef, 0.7) == pytest.approx(trig_eval(coef, 0.7), abs=1e-13)


def test_eval_clamps_marginal_and_rejects_far_points():
    coef = np.array([1.0, 2.0])
    assert eval_at(coef, 1.0 + 1e-13) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        eval_at(coef, 1.0 + 1e-9)


def test_eval_vectorised_over_points():
    rng = np.random.default_rng(11)
    coef = rng.standard_normal(6)
    xs = np.linspace(-1.0, 1.0, 21)
    np.testing.assert_allclose(evaluate(coef, xs), [trig_eval(coef, x) for x in xs], atol=1e-13)


# ---------------------------------------------------------------------------
# derivative_array
# ---------------------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    np.testing.assert_allclose(derivative_array([4.2, 0.0, 0.0, 0.0]), np.zeros(3), atol=1e-15)


def test_derivative_of_t2_is_4_t1():
    basis = make_basis(2, -1.0, 1.0)
    c = np.array([0.0, 0.0, 1.0])
    d = derivative_array(c)
    scale = 2.0 / (basis.b - basis.a)
    assert d[1] * scale == pytest.approx(4.0, abs=1e-14)
    # cross-check against central finite differences at interior points
    xs = np.linspace(-0.8, 0.8, 5)
    fd = (evaluate(c, xs + 1e-6) - evaluate(c, xs - 1e-6)) / 2e-6
    assert scale * evaluate(d, xs) == pytest.approx(fd, abs=1e-6)


def test_derivative_matches_finite_differences_on_interval():
    rng = np.random.default_rng(12)
    basis = make_basis(12, 0.0, 3.0)
    coef = rng.standard_normal(13)
    d = derivative_array(coef)
    scale = 2.0 / (basis.b - basis.a)
    h = 1e-5
    xs = np.linspace(0.3, 2.7, 11)
    fd = (evaluate(coef, to_reference(basis, xs + h))
          - evaluate(coef, to_reference(basis, xs - h))) / (2 * h)
    got = scale * evaluate(d, to_reference(basis, xs))
    assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_derivative_requires_degree_one():
    with pytest.raises(ValueError):
        derivative_array([1.0])


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

def test_interpolation_exactness_for_low_degree_polynomials():
    rng = np.random.default_rng(21)
    for n in (1, 3, 6, 10):
        poly = np.polynomial.Polynomial(rng.standard_normal(n + 1))
        b = make_basis(n, -1.0, 1.0)
        c = fit(poly(b.nodes), b)
        xs = rng.uniform(-1.0, 1.0, 100)
        np.testing.assert_allclose(evaluate(c, xs), poly(xs), atol=1e-12)


def test_transform_round_trip_at_nodes():
    rng = np.random.default_rng(22)
    b = make_basis(14, -2.0, 5.0)
    samples = rng.standard_normal(15)
    c = fit(samples, b)
    np.testing.assert_allclose(evaluate(c, to_reference(b, b.nodes)), samples, atol=1e-12)


def test_spectral_convergence_for_exp():
    # each +2 in degree must cut the max error by 10x until the error sits
    # on the float64 floor (the N=14 interpolant of exp is already there)
    xs = np.linspace(-1.0, 1.0, 1000)
    errors = {}
    for n in range(4, 17, 2):
        b = make_basis(n, -1.0, 1.0)
        c = fit(np.exp(b.nodes), b)
        errors[n] = np.max(np.abs(evaluate(c, xs) - np.exp(xs)))
    floor = 1e-14
    for n in range(4, 15, 2):
        assert errors[n] / errors[n + 2] >= 10.0 or errors[n + 2] < floor, (n, errors)
    assert errors[16] < floor


def test_transform_equals_direct_for_all_degrees_to_64():
    rng = np.random.default_rng(23)
    for n in range(1, 65):
        samples = rng.standard_normal(n + 1)
        b = make_basis(n, -1.0, 1.0)
        np.testing.assert_allclose(fit(samples, b), direct_coeffs(samples), atol=1e-12)
