"""One-dimensional Chebyshev interpolation on arbitrary intervals.

Nodes are the extrema of the degree-N Chebyshev polynomial mapped affinely
to an interval [a, b] and stored in descending order (node 0 is b, node N
is a).  Coefficients are the classical discrete cosine-transform sums
with halved first and last summands, applied as one matrix
(:func:`_transform_matrix`).  Evaluation uses the Clenshaw backward
recurrence and derivatives are taken in coefficient space.

All functions here work in the reference variable x in [-1, 1]; use
:func:`to_reference` / :func:`from_reference` to move between an interval
and the reference variable.
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


@dataclass(frozen=True)
class CoefVector:
    """Chebyshev coefficients of a 1-D interpolant on a source basis."""

    coefficients: np.ndarray
    basis: ChebBasis1D

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 1 or coef.size != self.basis.size:
            raise ValueError(
                f"expected {self.basis.size} coefficients, got shape {coef.shape}"
            )
        if not np.all(np.isfinite(coef)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", _freeze(coef))


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


def reference_nodes(degree: int) -> np.ndarray:
    """Chebyshev extrema cos(pi*k/N) on [-1, 1], descending."""
    if degree == 0:
        return np.array([0.0])
    x = np.cos(np.pi * np.arange(degree + 1) / degree)
    x[0] = 1.0
    x[-1] = -1.0
    return x


def to_reference(basis: ChebBasis1D, x):
    """Map points of [a, b] to the reference interval [-1, 1]."""
    return (2.0 * np.asarray(x, dtype=float) - (basis.a + basis.b)) / (basis.b - basis.a)


def from_reference(basis: ChebBasis1D, t):
    """Map reference points of [-1, 1] to [a, b]."""
    return 0.5 * (basis.b - basis.a) * np.asarray(t, dtype=float) + 0.5 * (basis.a + basis.b)


def clamp_reference(x, tol: float = CLAMP_TOL):
    """Clip reference points to [-1, 1]; reject points farther than `tol` out."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    if np.any(np.abs(x) > 1.0 + tol):
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


def cheb_transform(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Samples at Chebyshev nodes -> interpolation coefficients, along one axis.

    Applies the matrix of :func:`_transform_matrix` along `axis`: entry l
    of the result is the coefficient of T_l, the direct cosine sum that
    halves the first and last samples and uses weight 1/N for l in {0, N}
    and 2/N otherwise.

    Parameters
    ----------
    values : ndarray
        Samples ordered by node index k = 0..N along `axis` (node 0 is the
        right endpoint).
    axis : int
        Axis holding the node index.

    Returns
    -------
    ndarray
        Same shape as `values`, with coefficients along `axis`.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[axis] - 1
    if n < 0:
        raise ValueError("need at least one sample")
    return np.moveaxis(np.tensordot(_transform_matrix(n), v, axes=(1, axis)), 0, axis)


def coeffs_from_samples(samples, basis: ChebBasis1D) -> CoefVector:
    """Interpolation coefficients from samples at the basis nodes.

    Parameters
    ----------
    samples : array_like
        N + 1 values of the target function at ``basis.nodes`` (node order,
        i.e. descending abscissae).
    basis : ChebBasis1D
        Basis whose nodes produced the samples.

    Returns
    -------
    CoefVector
        Coefficients p_0..p_N of sum_l p_l T_l(x) with x the reference
        variable; the polynomial reproduces every sample at its node.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size != basis.size:
        raise ValueError(f"expected {basis.size} samples, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    return CoefVector(cheb_transform(s), basis)


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


def eval_1d(coeffs: CoefVector, x):
    """Evaluate a 1-D interpolant at reference points x in [-1, 1].

    Points up to 1e-12 outside the interval are clamped; farther out raises
    ValueError.  Returns a scalar for scalar input, an array otherwise.
    """
    xc = clamp_reference(x)
    out = clenshaw(coeffs.coefficients, xc)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


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


def derivative_coeffs(coeffs: CoefVector) -> CoefVector:
    """Coefficient-space derivative of a 1-D interpolant.

    Returns q_0..q_{N-1} such that (2/(b-a)) * sum_l q_l T_l(x) is the
    derivative of the input polynomial with respect to the interval
    variable.  The chain-rule factor is left to the caller so that the
    coefficients are reusable on any rescaling of the same interval.
    """
    if coeffs.coefficients.size == 0:
        raise ValueError("empty coefficient vector")
    basis = coeffs.basis
    if basis.degree < 1:
        raise ValueError("derivative needs a basis of degree >= 1")
    q = derivative_array(coeffs.coefficients)
    return CoefVector(q, make_basis(basis.degree - 1, basis.a, basis.b))
