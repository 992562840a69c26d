"""Closed-form linear-feedback equilibrium for validation and as a start.

For the linear-quadratic game the discounted Bellman operator maps
quadratic value functions and affine feedback policies to the same family
as long as the control constraints stay inactive.  The equilibrium of
that unconstrained game is therefore found in coefficient space without
any interpolation (:func:`_lq_feedback`).  The quadratic value terms and
the best-response gains depend on the feedback gains alone, so only the
gains are iterated: each step evaluates the closed loop's quadratic forms
exactly (one Stein equation for all players) and reads every player's
best-response gain from them, a best-response iteration that contracts
by about 0.1 per step on the presets.  The intercepts then solve one
affine J x J system, and the linear and constant value terms follow in
closed form.  A closed loop that discounting does not make stable,
delta rho(M)^2 >= 1, is refused: its Stein solution is not a value.

The value ansatz is V_i(p) = p' Q_i p + b_i' p + d_i with feedback
u_i(p) = max(0, e_i + f_i' p).  The oracle records the fraction of grid
nodes on which the unconstrained feedback leaves [0, U_max]; a comparison
against it is refused whenever that fraction is positive, because the
quadratic ansatz is invalid there.  The solver starts from the same
construction with the gains settled only to its own tolerance: its values
and its policy clipped to [0, U_max].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb1d import _freeze
from .game import GameSpec, StateGrid, build_state_grid

_COEF_TOL = 1e-13
_MAX_STEPS = 100


@dataclass(frozen=True)
class LQFeedback:
    """Quadratic value coefficients and affine feedback, one set per player."""

    Q: np.ndarray            # (J, J, J): Q[i] is player i's quadratic form
    b: np.ndarray            # (J, J)
    d: np.ndarray            # (J,)
    e: np.ndarray            # (J,)
    f: np.ndarray            # (J, J): u_i(p) = max(0, e[i] + f[i] @ p)
    iterations: int          # best-response steps on the gains f
    negative_fraction: float # share of grid nodes with unconstrained u_i < 0
    high_fraction: float     # share of grid nodes with unconstrained u_i > U_max

    def __post_init__(self):
        for name in ("Q", "b", "d", "e", "f"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))

    def policy(self, states) -> np.ndarray:
        """Feedback controls max(0, e_i + f_i p) at states of shape (..., J)."""
        return _controls(self.e, self.f, np.asarray(states, dtype=float))

    def value(self, states) -> np.ndarray:
        """Quadratic values p'Q_i p + b_i'p + d_i at states of shape (..., J)."""
        return _values(self.Q, self.b, self.d, np.asarray(states, dtype=float))


def _controls(e: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max(0, e_i + f_i p) at float states p of shape (..., J)."""
    return np.maximum(0.0, e + p @ f.T)


def _values(Q: np.ndarray, b: np.ndarray, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p'Q_i p + b_i'p + d_i at float states p of shape (..., J)."""
    return np.einsum("...a,iab,...b->...i", p, Q, p) + p @ b.T + d


def _drift_matrix(spec: GameSpec) -> np.ndarray:
    """Linear part of the stock drift: g(p, u) = D p + diag(beta) u."""
    rowsum = spec.K.sum(axis=1)
    return (spec.K - np.diag(rowsum)) / spec.m[:, None] - np.diag(spec.c)


def _lq_feedback(spec: GameSpec, tol: float) -> tuple[np.ndarray, ...]:
    """(Q, b, d, e, f, steps) of the unconstrained game's linear-feedback equilibrium.

    The quadratic forms Q_i and every best-response gain f_i depend on the
    feedback gains f alone, so only those are iterated, from f = 0: a
    step builds the closed loop's linear part M = I + h(D + diag(beta) f),
    evaluates every player's quadratic form on it by one discrete Stein
    equation Q_i = delta (h S_i + M' Q_i M) (a J^2 x J^2 system with one
    right-hand side per player), and reads each player's best-response
    gain from Q_i and M with its own feedback row taken out.  The first
    step that moves f by less than `tol` is the last (`steps` counts the
    steps); its gains are returned, with their own Q.

    The Stein solution is the value only while the discounted series
    sum_k delta^k M'^k S_i M^k converges, that is while delta rho(M)^2 < 1.
    That is checked on the settled loop, and after any step that moved f
    more than the step before, where an unstable loop shows first.

    Given f, the intercepts e solve the best-response condition, which is
    affine in e, as one J x J system; the linear terms b and the
    constants d then follow in closed form on the loop p' = M p + h beta e.

    Raises
    ------
    RuntimeError
        If a checked loop has delta rho(M)^2 >= 1, or if the gains have
        not settled after 100 steps; the message starts "linear feedback
        not settled".
    FloatingPointError
        If a player's best response is not a maximum.
    """
    J, h, delta = spec.J, spec.h, spec.delta
    D = _drift_matrix(spec)
    eye, eye2 = np.eye(J), np.eye(J * J)
    own = np.arange(J)
    others = ~np.eye(J, dtype=bool)
    open_loop = eye + h * D
    z = h * spec.beta
    half_phi, dh = 0.5 * spec.phi, delta * h
    f = np.zeros((J, J))
    last = change = np.inf
    for steps in range(_MAX_STEPS + 1):
        # The closed loop of the gains f and every player's quadratic form on it.
        M = open_loop + z[:, None] * f
        S = -0.5 * f[:, :, None] * f[:, None, :]            # (J, J, J): S[i] quadratic stage
        S.reshape(-1)[:: J * J + J + 1] -= half_phi         # the entries S[i, i, i]
        # kron(M', M') as a broadcast product: entry (aJ + c, bJ + d) is M'[a, b] M'[c, d].
        Mt = M.T
        stein = eye2 - delta * (Mt[:, None, :, None] * Mt[None, :, None, :]).reshape(J * J, J * J)
        Q = np.linalg.solve(stein, dh * S.reshape(J, J * J).T).T.reshape(J, J, J)
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        # Player i moves only coordinate i, by z_i per unit of control, so it
        # reads q_i = Q_i[i, :] and faces M with its own feedback row taken out.
        q = Q[own, own]                                                   # (J, J)
        denom = h - 2.0 * z * q[own, own] * z
        if np.any(denom <= 0):
            raise FloatingPointError("interior maximisation is not concave")
        if change < tol or change > last:
            # Settled, or no longer contracting: the loop must be stable.
            stability = delta * np.max(np.abs(np.linalg.eigvals(M))) ** 2
            if stability >= 1.0:
                raise RuntimeError(
                    f"linear feedback not settled: delta rho(M)^2 = {stability:.6g} >= 1, "
                    "so the discounted value series of its closed loop diverges")
            if change < tol:
                break
        M_i = np.where(others[:, :, None], M, open_loop)                  # (J, J, J)
        f_new = ((2.0 * (z[:, None] * q))[:, None, :] @ M_i)[:, 0] / denom[:, None]
        last, change = change, np.max(np.abs(f_new - f))
        f = f_new
    else:
        raise RuntimeError(f"linear feedback not settled in {_MAX_STEPS} gain steps")
    # With b_i = delta (h (A_i - e_i) f_i + 2 M' Q_i w) (I - delta M)^-1 and
    # w = z e, player i's best-response intercept
    # e_i denom_i = h A_i + z_i (2 sum_{a != i} q_i[a] w_a + b_i[i]) is affine in e.
    R = np.linalg.inv(eye - delta * M)                  # column i: row i of (I - delta M')^-1
    g = np.einsum("ai,ia->i", R, f)
    k = np.einsum("iab,bi->ia", Q, (R - eye) / delta)   # M R = (R - I) / delta
    G = np.diag(denom + delta * h * z * g) - 2.0 * z[:, None] * (q * others + delta * k) * z
    e = np.linalg.solve(G, h * spec.A * (1.0 + delta * z * g))
    w = z * e
    b = delta * (h * (spec.A - e)[:, None] * f + 2.0 * (Q @ w) @ M) @ R
    const = h * (spec.A * e - 0.5 * e**2) + np.einsum("a,iab,b->i", w, Q, w) + b @ w
    d = delta * const / (1.0 - delta)
    return Q, b, d, e, f, steps


def lq_solve(spec: GameSpec, grid: StateGrid | None = None) -> LQFeedback:
    """Equilibrium of the unconstrained linear-quadratic game.

    The feedback gains settle to 1e-13 by best-response steps on the gains
    alone, and the intercepts, linear and constant value terms follow in
    closed form (:func:`_lq_feedback`); the returned values are those of
    the returned feedback.  `iterations` counts the gain steps.

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
        If the gains have not settled after 100 steps, or if their closed
        loop M has delta rho(M)^2 >= 1 (the message starts "linear
        feedback not settled").
    FloatingPointError
        If a player's interior best response is not a maximum.
    """
    Q, b, d, e, f, steps = _lq_feedback(spec, _COEF_TOL)
    if grid is None:
        grid = build_state_grid(spec)
    raw = e + grid.nodes @ f.T
    negative = float(np.mean(np.any(raw < 0.0, axis=1)))
    high = float(np.mean(np.any(raw > spec.U_max, axis=1)))
    return LQFeedback(
        Q=Q, b=b, d=d, e=e, f=f, iterations=steps,
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
