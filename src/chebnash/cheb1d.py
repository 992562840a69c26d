"""One-dimensional Chebyshev building blocks of the tensor-product interpolant.

Nodes are the extrema of the degree-N Chebyshev polynomial mapped affinely
to an interval [a, b] and stored in descending order (node 0 is b, node N
is a).  Coefficients are the classical discrete cosine-transform sums
with halved first and last summands, applied as one matrix
(:func:`_transform_matrix`).  Evaluation uses the Clenshaw backward
recurrence and derivatives are taken in coefficient space.

A 1-D interpolant is the one-axis case of :mod:`chebnash.chebnd`:
``tensor_coeffs(samples, (basis,))`` fits it, ``basis_matrix(x, degree)
@ coefficients`` or ``eval_full`` evaluates it, and
:func:`derivative_array` differentiates it.  All functions here work in
the reference variable x in [-1, 1]; use :func:`to_reference` to map
interval points to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Points this far outside [-1, 1] are clamped; farther out is an error.
CLAMP_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChebBasis1D:
    """Degree, interval and node set of one Chebyshev direction.

    Attributes
    ----------
    degree : int
        Polynomial degree N; the basis has N + 1 nodes.
    a, b : float
        Interval endpoints, a < b.
    nodes : ndarray
        The N + 1 mapped extrema in strictly descending order,
        ``nodes[0] == b`` and ``nodes[-1] == a``.
    """

    degree: int
    a: float
    b: float
    nodes: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.degree + 1


def make_basis(degree: int, a: float, b: float) -> ChebBasis1D:
    """Build the Chebyshev extrema basis of a given degree on [a, b].

    Parameters
    ----------
    degree : int
        Non-negative polynomial degree.
    a, b : float
        Finite interval endpoints with a < b.

    Returns
    -------
    ChebBasis1D
        Basis with nodes (b-a)/2 * cos(pi*k/N) + (b+a)/2, k = 0..N, in
        descending order.  For degree 0 the single node is the midpoint.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    if degree == 0:
        nodes = np.array([0.5 * (a + b)])
    else:
        k = np.arange(degree + 1)
        nodes = 0.5 * (b - a) * np.cos(np.pi * k / degree) + 0.5 * (a + b)
        nodes[0] = b
        nodes[-1] = a
    return ChebBasis1D(degree=int(degree), a=a, b=b, nodes=_freeze(nodes))


def to_reference(basis: ChebBasis1D, x):
    """Map points of [a, b] to the reference interval [-1, 1]."""
    return (2.0 * np.asarray(x, dtype=float) - (basis.a + basis.b)) / (basis.b - basis.a)


def clamp_reference(x):
    """Clip reference points to [-1, 1]; reject points farther than `CLAMP_TOL` out."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    if np.any(np.abs(x) > 1.0 + CLAMP_TOL):
        worst = float(np.max(np.abs(x)))
        raise ValueError(f"evaluation point outside [-1, 1] beyond tolerance: |x| = {worst}")
    return np.clip(x, -1.0, 1.0)


def _transform_matrix(n: int) -> np.ndarray:
    """Samples -> coefficients matrix of degree n, shape (n+1, n+1).

    Entry (l, k) is s_l w_k cos(pi l k / n), where w halves the first and
    last samples and s_l = 2 w_l / n.  Reducing l k modulo 2n keeps each
    entry within about one rounding of its exact value.
    """
    if n == 0:
        return np.ones((1, 1))
    k = np.arange(n + 1)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    s = 2.0 * w / n
    return s[:, None] * w[None, :] * np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n)


def cheb_transform(values: np.ndarray) -> np.ndarray:
    """Samples at Chebyshev nodes -> interpolation coefficients, along axis 0.

    Applies the matrix of :func:`_transform_matrix` along the leading axis:
    entry l of the result is the coefficient of T_l, the direct cosine sum
    that halves the first and last samples and uses weight 1/N for l in
    {0, N} and 2/N otherwise.

    Parameters
    ----------
    values : ndarray
        Samples ordered by node index k = 0..N along axis 0 (node 0 is the
        right endpoint); trailing axes are carried along.

    Returns
    -------
    ndarray
        Same shape as `values`, with coefficients along axis 0.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0] - 1
    if n < 0:
        raise ValueError("need at least one sample")
    return np.tensordot(_transform_matrix(n), v, axes=(1, 0))


def clenshaw(coefficients: np.ndarray, x) -> np.ndarray:
    """Evaluate sum_l c_l T_l(x) by the backward Clenshaw recurrence.

    `coefficients` may carry trailing batch axes (shape (L, ...)); `x` must
    broadcast against those axes.  No domain checks are performed here.
    """
    c = np.asarray(coefficients, dtype=float)
    x = np.asarray(x, dtype=float)
    n = c.shape[0] - 1
    if n == 0:
        return np.broadcast_to(c[0], np.broadcast_shapes(c[0].shape, x.shape)).copy()
    x2 = 2.0 * x
    b1 = np.zeros(np.broadcast_shapes(c.shape[1:], x.shape))
    b2 = np.zeros_like(b1)
    for k in range(n, 0, -1):
        b1, b2 = c[k] + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def derivative_array(coefficients: np.ndarray) -> np.ndarray:
    """Reference-variable derivative coefficients, along the last axis.

    Input (..., N+1) coefficients of sum p_l T_l(x); output (..., N) holds
    q_0..q_{N-1} with sum q_l T_l(x) = d/dx of the input polynomial.  For a
    polynomial on [a, b] the derivative with respect to the interval
    variable needs the extra chain-rule factor 2/(b-a).
    """
    p = np.asarray(coefficients, dtype=float)
    n = p.shape[-1] - 1
    if n < 1:
        raise ValueError("need degree >= 1 to differentiate")
    q = np.zeros(p.shape[:-1] + (n,))
    q[..., n - 1] = 2.0 * n * p[..., n]
    if n >= 2:
        q[..., n - 2] = 2.0 * (n - 1) * p[..., n - 1]
    for l in range(n - 3, -1, -1):
        q[..., l] = q[..., l + 2] + 2.0 * (l + 1) * p[..., l + 1]
    q[..., 0] *= 0.5
    return q

