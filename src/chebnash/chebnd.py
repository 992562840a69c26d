"""Tensor-product Chebyshev interpolation in n dimensions.

Coefficient tensors are built by applying the 1-D transform along the
leading axis and cyclically rotating the axes until every dimension has
been processed.  Evaluation proceeds axis by axis: a basis matrix
B[j, l] = T_l(x_j) is contracted against the leading coefficient axis and
the axes rotate so the next dimension becomes leading.

:func:`eval_axis` binds the leading variable of one tensor at a shared
list of points.  The private kernels below it are the building blocks of
the solver's batched evaluation of one interpolant at many points, from
coefficients or from node values: :func:`_bind_rows` binds the leading
axis at every point against a shared tensor, and :func:`_bind_diagonal`
binds, for M partially bound tensors, the leading axis of tensor j with
its own row j.  Both perform a fixed arithmetic sequence per point, so a
result does not depend on how many points share a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cheb1d import ChebBasis1D, cheb_transform, clamp_reference, clenshaw, _freeze


@dataclass(frozen=True)
class CoefTensor:
    """Coefficients of one n-dimensional tensor-product interpolant.

    ``coefficients[l1, ..., ln]`` multiplies T_l1(x_1) * ... * T_ln(x_n);
    `bases` carries the per-dimension degree and interval.
    """

    bases: tuple[ChebBasis1D, ...]
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        coef = np.ascontiguousarray(self.coefficients, dtype=float)
        shape = tuple(b.size for b in self.bases)
        if coef.shape != shape:
            raise ValueError(f"coefficient shape {coef.shape} does not match bases {shape}")
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "coefficients", _freeze(coef))

    @property
    def ndim(self) -> int:
        return len(self.bases)


def basis_matrix(points, degree: int) -> np.ndarray:
    """Rows of Chebyshev values: B[j, l] = T_l(points[j]), l = 0..degree.

    Points up to `CLAMP_TOL` outside [-1, 1] are clamped; farther out, or
    a list that is empty or not one-dimensional, raises ValueError.
    """
    x = clamp_reference(points)
    if x.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if x.size == 0:
        raise ValueError("empty point list")
    return _row_basis(x, degree + 1)


def _row_basis(points: np.ndarray, size: int) -> np.ndarray:
    """Chebyshev values T_0..T_{size-1} at pre-clamped reference points.

    Built column by column with the three-term recurrence
    T_{l+1} = 2 x T_l - T_{l-1}; no trigonometric calls.
    """
    out = np.empty((points.size, size))
    out[:, 0] = 1.0
    if size > 1:
        out[:, 1] = points
    x2 = 2.0 * points
    for l in range(2, size):
        out[:, l] = x2 * out[:, l - 1] - out[:, l - 2]
    return out


def _bind_rows(B: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Contract each row of (k, d) against (d, rest) -> (k, rest), row by row."""
    return np.matmul(B[:, None, :], flat)[:, 0, :]


def _bind_diagonal(B: np.ndarray, member_first: np.ndarray) -> np.ndarray:
    """Contract row j of (M, d) against member j of (M, d, rest) -> (M, rest)."""
    return np.matmul(B[:, None, :], member_first)[:, 0, :]


def tensor_coeffs(samples, bases) -> CoefTensor:
    """Coefficient tensor of the interpolant through samples at all node tuples.

    Parameters
    ----------
    samples : array_like
        Function values with shape (N_1+1, ..., N_n+1); entry (k1, ..., kn)
        is the value at the tuple of per-dimension nodes of those indices.
    bases : sequence of ChebBasis1D
        One basis per dimension.

    Returns
    -------
    CoefTensor
        The 1-D transform is applied along dimension 1, the axes rotate
        cyclically, and the step repeats n times.
    """
    bases = tuple(bases)
    s = np.asarray(samples, dtype=float)
    shape = tuple(b.size for b in bases)
    if s.shape != shape:
        raise ValueError(f"sample shape {s.shape} does not match bases {shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    n = len(bases)
    for _ in range(n):
        s = cheb_transform(s, axis=0)
        s = np.moveaxis(s, 0, n - 1)
    return CoefTensor(bases, s)


def eval_axis(tensor: CoefTensor, points) -> np.ndarray:
    """Bind the leading variable at a shared list of reference points.

    The basis matrix B[j, l] = T_l(points[j]) is contracted against the
    leading coefficient axis and the remaining axes rotate so the next
    dimension becomes leading.

    Returns
    -------
    ndarray
        Shape (N_2+1, ..., N_n+1, k): column j holds the coefficients of
        the tensor with its leading variable bound to points[j].  Equals
        per-point 1-D evaluation along the bound axis.
    """
    x = clamp_reference(points)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("points must be a non-empty one-dimensional list")
    d1 = tensor.bases[0].size
    B = _row_basis(x, d1)
    A = tensor.coefficients
    rest = A.shape[1:]
    out = _bind_rows(B, A.reshape(d1, -1))                      # (k, prod(rest))
    return np.moveaxis(out.reshape((x.size,) + rest), 0, -1)


def eval_full(tensor: CoefTensor, point) -> float:
    """Evaluate one tensor interpolant at a reference point tuple.

    Nested Clenshaw contraction over all axes; the reference scalar
    evaluator used by tests and the trajectory simulator.
    """
    x = clamp_reference(point)
    if x.ndim != 1 or x.size != tensor.ndim:
        raise ValueError(f"expected a {tensor.ndim}-tuple, got shape {x.shape}")
    c = tensor.coefficients
    for xi in x:
        c = clenshaw(c, xi)
    return float(c)
