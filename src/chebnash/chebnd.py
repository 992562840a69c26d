"""Tensor-product Chebyshev interpolation in n >= 1 dimensions.

:class:`CoefTensor` is the one coefficient container; a 1-D interpolant
is the tensor with a single basis.  Coefficient tensors are built by
applying the 1-D transform along the leading axis and cyclically
rotating the axes until every dimension has been processed.
:func:`eval_full` evaluates one tensor at one point by nested Clenshaw
contractions, and :func:`basis_matrix` gives the rows B[j, l] = T_l(x_j)
that bind an axis at many points in one contraction.  The solver
evaluates its interpolants from node values instead, through the
per-axis Chebyshev rows of :func:`_row_basis`.
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
        s = cheb_transform(s)
        s = np.moveaxis(s, 0, n - 1)
    return CoefTensor(bases, s)


def eval_full(tensor: CoefTensor, point) -> float:
    """Evaluate one tensor interpolant at a reference point tuple.

    Nested Clenshaw contraction over all axes; the scalar reference
    against which the batched evaluations are tested.
    """
    x = clamp_reference(point)
    if x.ndim != 1 or x.size != tensor.ndim:
        raise ValueError(f"expected a {tensor.ndim}-tuple, got shape {x.shape}")
    c = tensor.coefficients
    for xi in x:
        c = clenshaw(c, xi)
    return float(c)
