"""Closed-form linear-feedback equilibrium for validation and as a start.

For the linear-quadratic game the discounted Bellman operator maps
quadratic value functions and affine feedback policies to the same family
as long as the control constraints stay inactive.  The equilibrium of
that unconstrained game is therefore found in coefficient space without
any interpolation, by policy iteration (Newton-Kleinman; Kleinman 1968,
Li & Gajic 1995): each affine profile's closed loop p' = M p + w is built
once, the profile is evaluated exactly on it (one Stein equation for all
players' quadratic forms), and one vectorised step reads every player's
best response from the same loop, with no collocation machinery.

The value ansatz is V_i(p) = p' Q_i p + b_i' p + d_i with feedback
u_i(p) = max(0, e_i + f_i' p).  The oracle records the fraction of grid
nodes on which the unconstrained feedback leaves [0, U_max]; a comparison
against it is refused whenever that fraction is positive, because the
quadratic ansatz is invalid there.  The solver starts from its values and
its policy clipped to [0, U_max].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb1d import _freeze
from .game import GameSpec, StateGrid, build_state_grid

_COEF_TOL = 1e-13
_MAX_ITERS = 100


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


def _evaluate_profile(
    spec: GameSpec, M: np.ndarray, w: np.ndarray, e: np.ndarray, f: np.ndarray,
    eye: np.ndarray, eye2: np.ndarray, half_phi: np.ndarray, dh: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact quadratic and linear value terms (Q, b) of every player under u = e + f p.

    All players share the closed loop p' = M p + w, so the quadratic
    forms solve one discrete Stein equation Q_i = delta (h S_i + M' Q_i M),
    a J^2 x J^2 system with one right-hand side per player; the linear
    terms take one J x J solve.  `eye` and `eye2` are the identities of
    size J and J^2, `half_phi` is phi / 2 and `dh` is delta h.
    """
    J = spec.J
    h, delta = spec.h, spec.delta
    S = -0.5 * f[:, :, None] * f[:, None, :]            # (J, J, J): S[i] quadratic stage
    S.reshape(-1)[:: J * J + J + 1] -= half_phi         # the entries S[i, i, i]
    # kron(M', M') as a broadcast product: entry (aJ + c, bJ + d) is M'[a, b] M'[c, d].
    Mt = M.T
    stein = eye2 - delta * (Mt[:, None, :, None] * Mt[None, :, None, :]).reshape(J * J, J * J)
    Q = np.linalg.solve(stein, dh * S.reshape(J, J * J).T).T.reshape(J, J, J)
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    linear = h * (spec.A - e)[:, None] * f + 2.0 * (Q @ w) @ M
    b = np.linalg.solve(eye - delta * M.T, delta * linear.T).T
    return Q, b


def _best_responses(
    spec: GameSpec, open_loop: np.ndarray, others: np.ndarray, z: np.ndarray,
    M: np.ndarray, w: np.ndarray, Q: np.ndarray, b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every player's interior best response (e, f) to values (Q, b) on the loop p' = M p + w.

    Player i moves only coordinate i, by z_i = h beta_i per unit of
    control, so it reads only q_i = Q_i[i, :] and faces the loop without
    its own feedback: row i of M loses h beta_i f_i (it is that of
    `open_loop` = I + h D) and entry i of w drops out.  `others` is the
    J x J boolean complement of the identity.
    """
    h = spec.h
    own = np.arange(spec.J)
    q = Q[own, own]                                                   # (J, J)
    denom = h - 2.0 * (z * q[own, own] * z)
    if np.any(denom <= 0):
        raise FloatingPointError("interior maximisation is not concave")
    M_i = np.where(others[:, :, None], M, open_loop)                  # (J, J, J)
    e_new = (h * spec.A + z * (2.0 * np.einsum("ia,ia->i", q, w * others) + b[own, own])) / denom
    f_new = ((2.0 * (z[:, None] * q))[:, None, :] @ M_i)[:, 0] / denom[:, None]
    return e_new, f_new


def lq_solve(spec: GameSpec, grid: StateGrid | None = None) -> LQFeedback:
    """Equilibrium of the unconstrained linear-quadratic game.

    Policy iteration in coefficient space from the myopic profile
    u_i = A_i: each profile's closed loop M = I + h(D + diag(beta) f),
    w = h beta e is built once, the profile is evaluated exactly on it (one
    Stein equation for all quadratic forms, then the linear and constant
    terms), and every player's best response is read from the same loop.
    It stops when the response moves (e, f) by less than 1e-13; the
    returned values are those of the returned feedback.  `iterations`
    counts evaluations.

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
        If the feedback has not settled after 100 evaluations.
    """
    J, h, delta = spec.J, spec.h, spec.delta
    D = _drift_matrix(spec)
    # Per-solve constants.
    eye, eye2 = np.eye(J), np.eye(J * J)
    open_loop = eye + h * D
    others = ~np.eye(J, dtype=bool)
    half_phi, dh, z = 0.5 * spec.phi, delta * h, h * spec.beta
    e = spec.A.copy()
    f = np.zeros((J, J))
    for it in range(1, _MAX_ITERS + 1):
        M = eye + h * (D + spec.beta[:, None] * f)
        w = z * e
        Q, b = _evaluate_profile(spec, M, w, e, f, eye, eye2, half_phi, dh)
        en, fn = _best_responses(spec, open_loop, others, z, M, w, Q, b)
        change = max(np.max(np.abs(en - e)), np.max(np.abs(fn - f)))
        if change < _COEF_TOL:
            break
        e, f = en, fn
    else:
        raise RuntimeError(f"linear feedback not settled in {_MAX_ITERS} policy iterations")
    # The constant terms, explicit; no iteration reads them.
    const = h * (spec.A * e - 0.5 * e**2) + np.einsum("a,iab,b->i", w, Q, w) + b @ w
    d = delta * const / (1.0 - delta)

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
