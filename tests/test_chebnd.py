"""Unit tests for tensor-product interpolation and its evaluation."""

import numpy as np
import pytest

from chebnash.cheb1d import make_basis, to_reference
from chebnash.chebnd import CoefTensor, basis_matrix, eval_full, tensor_coeffs


def grid_samples(fn, bases):
    """Sample fn (vectorised over the last axis) on the node product grid."""
    grids = np.meshgrid(*(b.nodes for b in bases), indexing="ij")
    return fn(*grids)


def trig_eval_nd(coefs, point):
    """Direct multi-sum through the trigonometric definition of T_l."""
    vecs = [np.cos(np.arange(n) * np.arccos(x)) for n, x in zip(coefs.shape, point)]
    out = coefs
    for v in vecs:
        out = np.tensordot(v, out, axes=([0], [0]))
    return float(out)


# ---------------------------------------------------------------------------
# tensor_coeffs
# ---------------------------------------------------------------------------

def test_constant_surface_single_coefficient():
    bases = (make_basis(3, -1.0, 1.0), make_basis(2, -1.0, 1.0))
    t = tensor_coeffs(np.ones((4, 3)), bases)
    expect = np.zeros((4, 3))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(t.coefficients, expect, atol=1e-15)


def test_bilinear_surface_is_t1_t1():
    bases = (make_basis(2, -1.0, 1.0), make_basis(2, -1.0, 1.0))
    t = tensor_coeffs(grid_samples(lambda x, y: x * y, bases), bases)
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    np.testing.assert_allclose(t.coefficients, expect, atol=1e-15)


def test_separable_function_gives_outer_product():
    rng = np.random.default_rng(31)
    bx = make_basis(5, -1.0, 1.0)
    by = make_basis(7, -1.0, 1.0)
    fx = rng.standard_normal(bx.size)
    gy = rng.standard_normal(by.size)
    t = tensor_coeffs(np.outer(fx, gy), (bx, by))
    cx = tensor_coeffs(fx, (bx,)).coefficients
    cy = tensor_coeffs(gy, (by,)).coefficients
    np.testing.assert_allclose(t.coefficients, np.outer(cx, cy), atol=1e-12)


def test_tensor_coeffs_shape_mismatch():
    bases = (make_basis(2, -1.0, 1.0), make_basis(2, -1.0, 1.0))
    with pytest.raises(ValueError):
        tensor_coeffs(np.ones((3, 4)), bases)


def test_tensor_coeffs_rejects_nan():
    bases = (make_basis(1, -1.0, 1.0),)
    with pytest.raises(ValueError):
        tensor_coeffs(np.array([1.0, np.nan]), bases)


def test_interpolation_invariant_at_node_tuples():
    rng = np.random.default_rng(32)
    bases = tuple(make_basis(n, 0.0, 2.0) for n in (4, 3, 2))
    samples = rng.standard_normal(tuple(b.size for b in bases))
    t = tensor_coeffs(samples, bases)
    refs = [to_reference(b, b.nodes) for b in bases]
    for idx in np.ndindex(samples.shape):
        point = [refs[d][idx[d]] for d in range(3)]
        assert eval_full(t, point) == pytest.approx(samples[idx], rel=1e-10, abs=1e-12)


def test_basis_matrix_matches_trig():
    pts = np.linspace(-1, 1, 9)
    B = basis_matrix(pts, 6)
    expect = np.cos(np.arange(7)[None, :] * np.arccos(pts)[:, None])
    np.testing.assert_allclose(B, expect, atol=1e-13)


@pytest.mark.parametrize("points", [[], [1.5], [[0.1, 0.2]], [np.nan]])
def test_basis_matrix_rejects_empty_out_of_range_and_nested_points(points):
    with pytest.raises(ValueError):
        basis_matrix(points, 3)


# ---------------------------------------------------------------------------
# eval_full
# ---------------------------------------------------------------------------

def test_eval_full_constant():
    bases = (make_basis(2, -1, 1), make_basis(2, -1, 1))
    coefs = np.zeros((3, 3))
    coefs[0, 0] = 1.0
    t = CoefTensor(bases, coefs)
    for pt in ([0.0, 0.0], [0.9, -0.9], [1.0, 1.0]):
        assert eval_full(t, pt) == pytest.approx(1.0, abs=1e-14)


def test_eval_full_t1_t1():
    bases = (make_basis(1, -1, 1), make_basis(1, -1, 1))
    coefs = np.zeros((2, 2))
    coefs[1, 1] = 1.0
    t = CoefTensor(bases, coefs)
    assert eval_full(t, [0.2, -0.5]) == pytest.approx(-0.1, abs=1e-15)


def test_eval_full_matches_direct_summation():
    rng = np.random.default_rng(43)
    bases = tuple(make_basis(n, -1, 1) for n in (3, 4, 2))
    coefs = rng.standard_normal((4, 5, 3))
    t = CoefTensor(bases, coefs)
    pt = rng.uniform(-1, 1, 3)
    assert eval_full(t, pt) == pytest.approx(trig_eval_nd(coefs, pt), abs=1e-12)


def test_eval_full_dimension_mismatch():
    t = CoefTensor((make_basis(2, -1, 1),), np.ones(3))
    with pytest.raises(ValueError):
        eval_full(t, [0.1, 0.2])


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

def test_axis_order_consistency():
    rng = np.random.default_rng(45)
    bases = tuple(make_basis(n, -1, 1) for n in (4, 3, 5))
    coefs = rng.standard_normal((5, 4, 6))
    t = CoefTensor(bases, coefs)
    pt = rng.uniform(-1, 1, 3)
    # bind in natural order via eval_full, and in reversed order manually
    rev = CoefTensor(bases[::-1], np.ascontiguousarray(coefs.transpose(2, 1, 0)))
    assert eval_full(rev, pt[::-1]) == pytest.approx(eval_full(t, pt), abs=1e-11)


def test_multidimensional_polynomial_exactness():
    rng = np.random.default_rng(46)
    degrees = (3, 2, 4)
    bases = tuple(make_basis(n, -1.0, 1.0) for n in degrees)
    mono = rng.standard_normal(tuple(d + 1 for d in degrees))

    def poly(x, y, z):
        return np.polynomial.polynomial.polyval3d(x, y, z, mono)

    samples = grid_samples(poly, bases)
    t = tensor_coeffs(samples, bases)
    pts = rng.uniform(-1, 1, (100, 3))
    got = np.array([eval_full(t, p) for p in pts])
    np.testing.assert_allclose(got, poly(*pts.T), atol=1e-10)
