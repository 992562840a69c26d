"""Closed-form linear-feedback equilibrium for validation.

For the linear-quadratic game the discounted Bellman operator maps
quadratic value functions and affine feedback policies to the same family
as long as the non-negativity constraint on emissions stays inactive.
Iterating that exact update in coefficient space therefore converges to
the equilibrium without any interpolation, giving an oracle that is fully
independent of the collocation machinery.

The value ansatz is V_i(p) = p' Q_i p + b_i' p + d_i with feedback
u_i(p) = max(0, e_i + f_i' p).  The oracle records the fraction of grid
nodes on which the unconstrained feedback goes negative; a comparison
against it is refused whenever that fraction is positive, because the
quadratic ansatz is invalid there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb1d import _freeze
from .game import GameSpec, StateGrid, build_state_grid

_COEF_TOL = 1e-13
_MAX_ITERS = 1_000_000


@dataclass(frozen=True)
class LQFeedback:
    """Quadratic value coefficients and affine feedback, one set per player."""

    Q: np.ndarray            # (J, J, J): Q[i] is player i's quadratic form
    b: np.ndarray            # (J, J)
    d: np.ndarray            # (J,)
    e: np.ndarray            # (J,)
    f: np.ndarray            # (J, J): u_i(p) = max(0, e[i] + f[i] @ p)
    iterations: int
    negative_fraction: float # share of grid nodes with unconstrained u_i < 0
    high_fraction: float     # share of grid nodes with unconstrained u_i > U_max

    def __post_init__(self):
        for name in ("Q", "b", "d", "e", "f"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))

    def policy(self, states) -> np.ndarray:
        """Feedback controls max(0, e_i + f_i p) at states of shape (..., J)."""
        p = np.asarray(states, dtype=float)
        return np.maximum(0.0, self.e + p @ self.f.T)

    def value(self, states) -> np.ndarray:
        """Quadratic values p'Q_i p + b_i'p + d_i at states of shape (..., J)."""
        p = np.asarray(states, dtype=float)
        quad = np.einsum("...a,iab,...b->...i", p, self.Q, p)
        return quad + p @ self.b.T + self.d


def _drift_matrix(spec: GameSpec) -> np.ndarray:
    """Linear part of the stock drift: g(p, u) = D p + diag(beta) u."""
    rowsum = spec.K.sum(axis=1)
    return (spec.K - np.diag(rowsum)) / spec.m[:, None] - np.diag(spec.c)


def lq_bellman_update(
    spec: GameSpec, Q: np.ndarray, b: np.ndarray, d: np.ndarray,
    e: np.ndarray, f: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One exact best-response update of every player's quadratic data.

    All players respond simultaneously to the current feedback profile.
    The update assumes the control constraints are inactive; it performs
    the interior maximisation in closed form and recomposes the value as
    V_i'(p) = delta * (h G_i(p_i, u_i*(p)) + V_i(next state)).
    """
    J = spec.J
    h, delta = spec.h, spec.delta
    D = _drift_matrix(spec)
    eye = np.eye(J)
    Qn = np.empty_like(Q)
    bn = np.empty_like(b)
    dn = np.empty_like(d)
    en = np.empty_like(e)
    fn = np.empty_like(f)
    for i in range(J):
        others = np.arange(J) != i
        E = np.where(others, e, 0.0)
        F = np.where(others[:, None], f, 0.0)
        M = eye + h * (D + spec.beta[:, None] * F)
        w = h * spec.beta * E
        z = np.zeros(J)
        z[i] = h * spec.beta[i]
        Qi, bi = Q[i], b[i]
        denom = h - 2.0 * (z @ Qi @ z)
        if denom <= 0:
            raise FloatingPointError("interior maximisation is not concave")
        e_new = (h * spec.A[i] + z @ (2.0 * Qi @ w + bi)) / denom
        f_new = (2.0 * (z @ Qi) @ M) / denom
        Mt = M + np.outer(z, f_new)
        wt = w + e_new * z
        stage_quad = -0.5 * np.outer(f_new, f_new)
        stage_quad[i, i] -= 0.5 * spec.phi[i]
        Qn[i] = delta * (h * stage_quad + Mt.T @ Qi @ Mt)
        Qn[i] = 0.5 * (Qn[i] + Qn[i].T)
        bn[i] = delta * (h * (spec.A[i] - e_new) * f_new + Mt.T @ (2.0 * Qi @ wt + bi))
        dn[i] = delta * (h * (spec.A[i] * e_new - 0.5 * e_new**2) + wt @ Qi @ wt + bi @ wt + d[i])
        en[i] = e_new
        fn[i] = f_new
    return Qn, bn, dn, en, fn


def lq_solve(spec: GameSpec, grid: StateGrid | None = None) -> LQFeedback:
    """Equilibrium of the unconstrained linear-quadratic game.

    Iterates :func:`lq_bellman_update` from the zero value function until
    the (Q, b, e, f) coefficients are stationary, then closes the constant
    term of each value function in one step from its scalar fixed-point
    equation (the constant decouples from every other coefficient).

    Parameters
    ----------
    spec : GameSpec
        Model parameters; the functional forms are fixed by the game
        module.
    grid : StateGrid, optional
        Grid used to assess constraint activity; built from the spec when
        omitted.

    Raises
    ------
    RuntimeError
        If the coefficient iteration has not settled after 10^6 updates.
    """
    J = spec.J
    Q = np.zeros((J, J, J))
    b = np.zeros((J, J))
    d = np.zeros(J)
    e = spec.A.copy()
    f = np.zeros((J, J))
    for it in range(1, _MAX_ITERS + 1):
        Qn, bn, dn, en, fn = lq_bellman_update(spec, Q, b, d, e, f)
        change = max(
            np.max(np.abs(Qn - Q)), np.max(np.abs(bn - b)),
            np.max(np.abs(en - e)), np.max(np.abs(fn - f)),
        )
        Q, b, e, f = Qn, bn, en, fn
        if change < _COEF_TOL:
            break
    else:
        raise RuntimeError(f"quadratic fixed point not reached in {_MAX_ITERS} iterations")
    # constant term: d_i = delta * (k_i + d_i) has the explicit solution below
    _, _, d_once, _, _ = lq_bellman_update(spec, Q, b, np.zeros(J), e, f)
    d = d_once / (1.0 - spec.delta)

    if grid is None:
        grid = build_state_grid(spec)
    raw = e + grid.nodes @ f.T
    negative = float(np.mean(np.any(raw < 0.0, axis=1)))
    high = float(np.mean(np.any(raw > spec.U_max, axis=1)))
    return LQFeedback(
        Q=Q, b=b, d=d, e=e, f=f, iterations=it,
        negative_fraction=negative, high_fraction=high,
    )


def policy_error(policy_values, feedback: LQFeedback, grid: StateGrid) -> float:
    """Aggregate policy discrepancy (1/N) * sqrt(sum over nodes and players).

    The sum of squares runs over every grid node and every player, and the
    square root is divided by the node count N (not by sqrt(N)), matching
    the scaling used by the benchmark figures this mirrors.

    Raises
    ------
    ValueError
        If the oracle's unconstrained feedback leaves [0, U_max] anywhere
        on the grid (the quadratic ansatz is invalid there) or if shapes
        do not match the grid.
    """
    values = np.asarray(getattr(policy_values, "values", policy_values), dtype=float)
    J = feedback.e.size
    if values.shape != (J, grid.n_nodes):
        raise ValueError(f"expected policy of shape {(J, grid.n_nodes)}, got {values.shape}")
    check_oracle(feedback)
    reference = feedback.policy(grid.nodes).T   # (J, N)
    return float(np.sqrt(np.sum((values - reference) ** 2)) / grid.n_nodes)


def check_oracle(feedback: LQFeedback) -> LQFeedback:
    """`feedback`, or ValueError if its unconstrained form leaves [0, U_max] on its grid."""
    if feedback.negative_fraction > 0.0:
        raise ValueError(
            "oracle invalid: unconstrained feedback is negative on "
            f"{feedback.negative_fraction:.1%} of grid nodes"
        )
    if feedback.high_fraction > 0.0:
        raise ValueError(
            "oracle invalid: unconstrained feedback exceeds U_max on "
            f"{feedback.high_fraction:.1%} of grid nodes"
        )
    return feedback
