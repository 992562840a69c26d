"""Collocation solver for the feedback equilibrium of the pollution game.

The iteration keeps, for every player, the node values of the value
function and the current policy values.  Each joint policy has one
successor operator (:func:`_successor_operator`): the per-axis cardinal
rows of the clamped Euler successors under the affine drift g(p, u) in
closed form.  Coordinate d moves with player d's control only, so its
rows are shared by every other player; for player d it is affine in that
control, so at each node it is clamped only outside one interval, whose
Chebyshev points and rows are fixed for a solve (:func:`_own_rows`).
One sweep (:func:`_run_sweep`) reads them and performs, at all state nodes:

1. for each player, evaluate its value interpolant at all successor
   states from its node values, binding the other players' axes once per
   node through their row-wise Kronecker product (:func:`_kron_rows`)
   and the own axis once per sample, form the objective, stage gain plus
   discounted successor value, at the max(2, Np_i) + 1 points, and fit
   its interpolant on the interval, where the fit is exact;
2. for all players at once (one block per distinct fit degree), maximise
   those interpolants over the interval (:func:`_maximise_block`).  A row
   whose second-derivative series certifies f'' < 0 on the interval has
   at most one critical point: an endpoint when f' keeps one sign there,
   otherwise the root of f' found by Newton steps kept inside a sign
   bracket.  A row certified f'' >= 0 takes the better endpoint.  Every
   other row compares both endpoints with all roots of its derivative,
   found at once as the eigenvalues of the rows' colleague matrices and
   polished by two Newton steps;
3. compare each maximum with the best point of the clamped rest, where
   the objective is the stage gain plus a constant.

The driver (:func:`solve`) runs safeguarded policy iteration.  It starts
from the linear-feedback equilibrium of the unconstrained
linear-quadratic game, its gains settled to the solve's own tolerance
(the construction of :func:`chebnash.oracle.lq_solve`, which settles them
to 1e-13): its values at the nodes and its policy clipped to [0, U_max].
A sweep's best responses are the improvement step; solve builds the
operator at the joint policy they form, evaluates that policy exactly
with it (:func:`_evaluate_policy`: one LU of the N_P x N_P matrix that
all players share, built in one buffer per solve), and the next sweep
starts from those values and reads the same operator.  A proposal whose
sweep does not lower the Bellman residual is rejected: the driver resumes
from the sweep that made it, at the same policy and operator, and takes
1, 2, 4, ... plain value-iteration steps before the next proposal.

Successor states are clamped to the state box before interpolation; the
solver warns when more than 1% of a sweep's policy successor components
clamp, which signals that P_max is too small for the chosen control bound.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cheb1d import _freeze, _transform_matrix, clenshaw, derivative_array, make_basis
from .chebnd import CoefTensor, _row_basis, tensor_coeffs
from .game import (
    GameSpec,
    StateGrid,
    _drift,
    _euler_step,
    _stage_gain,
    build_state_grid,
)
from .oracle import _controls, _lq_feedback, _values

_CLAMP_WARN_FRACTION = 0.01


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class ValueField:
    """Per-player value node values, shape (J, N_P).

    :func:`fit_policy` fits their state-space interpolants.
    """

    values: np.ndarray


@dataclass
class PolicyField:
    """Per-player control values on the state grid, shape (J, N_P)."""

    values: np.ndarray


@dataclass
class TimePath:
    """Simulated trajectory: times (T+1,), states and controls (T+1, J)."""

    t: np.ndarray
    states: np.ndarray
    controls: np.ndarray


@dataclass
class EquilibriumResult:
    """Outcome of the policy iteration.

    `history` holds one row per sweep with the per-player Bellman residual
    sup |T v - v| of the sweep's input values; `iterations` counts sweeps.
    `evaluations` counts exact policy evaluations and `rejected` the
    proposals that fell back to value iteration (a proposal whose sweep
    did not lower the residual, or a singular or non-finite evaluation).
    `clamp_fraction` is the worst per-sweep share of the N_P * J successor
    components of the sweep's joint policy that hit the state box.
    `timings` holds wall seconds: "setup" (grid, workspace and validation
    of `init`), "start" (the LQ feedback when `init` is omitted), "sweeps"
    (the iteration) and "total" (all three).
    """

    converged: bool
    iterations: int
    values: ValueField
    policy: PolicyField
    history: np.ndarray
    timings: dict[str, float]
    clamp_fraction: float
    evaluations: int
    rejected: int


# ---------------------------------------------------------------------------
# per-solve constants
# ---------------------------------------------------------------------------

class _OwnSamples(NamedTuple):
    """Player d's own-control samples at every node, fixed for a solve.

    Outside [lo, lo + 2 half] (N_P,) of the own control the own successor
    coordinate is clamped.  `rows` (N_P, K, s_d) are its cardinal rows at
    the K = max(2, Np_d) + 1 Chebyshev points of that interval, and `stage`
    (N_P, K) is h times the stage gain there.  At the nodes `beyond`, A_d
    lies outside the interval; the objective at A_d is the sample at the
    nearer end (flat index `at_end` into (N_P, K)) plus `gain`.
    """

    lo: np.ndarray
    half: np.ndarray
    rows: np.ndarray
    stage: np.ndarray
    beyond: np.ndarray
    at_end: np.ndarray
    gain: np.ndarray


class _Workspace:
    __slots__ = ("spec", "grid", "p_scale", "fits", "transforms", "groups", "buffer", "own")

    def __init__(self, spec: GameSpec, grid: StateGrid):
        self.spec = spec
        self.grid = grid
        self.p_scale = 2.0 / spec.P_max
        # One samples -> coefficients matrix per distinct degree, shared by
        # the own-control fits, of degree max(2, Np_i), and the state axes.
        degrees = spec.Nu.tolist()
        matrices = {d: _transform_matrix(d) for d in {*spec.Np.tolist(), *degrees}}
        self.fits = [matrices[d] for d in degrees]
        self.transforms = [matrices[int(d)] for d in spec.Np]
        # The players of each distinct fit degree, maximised in one block.
        self.groups = [[i for i, e in enumerate(degrees) if e == d]
                       for d in dict.fromkeys(degrees)]
        # Built at first use, by :func:`_buffer` and :func:`_own_rows`.
        self.buffer = self.own = None


# ---------------------------------------------------------------------------
# maximisation at the critical points (reference variable)
# ---------------------------------------------------------------------------

def _colleague_roots(q: np.ndarray) -> np.ndarray:
    """Real parts of the roots of rows of (m, n+1) Chebyshev series, n >= 1.

    The roots are the eigenvalues of each row's n x n colleague matrix
    (Good 1961), in the scaled upper Hessenberg form of numpy's
    `chebcompanion`, all found by one batched eigensolve.  A leading
    coefficient within rounding of zero is replaced by that rounding
    level, which keeps every entry finite; the extra roots this adds are
    large and only add candidates.
    """
    m, n = q.shape[0], q.shape[1] - 1
    floor = np.finfo(float).eps * np.abs(q).max(axis=1) + np.finfo(float).tiny
    lead = np.where(np.abs(q[:, -1]) > floor, q[:, -1], floor)
    C = np.zeros((m, n, n))
    k = np.arange(n - 1)
    C[:, k, k + 1] = C[:, k + 1, k] = 0.5
    C[:, 0, 1:2] = C[:, 1:2, 0] = np.sqrt(0.5)
    weight = np.full(n, 0.5)
    # x T_0 = T_1 carries no factor 1/2, so a linear series needs 1.
    weight[0] = np.sqrt(0.5) if n > 1 else 1.0
    C[:, :, -1] -= weight * q[:, :-1] / lead[:, None]
    return np.linalg.eigvals(C).real


@functools.cache
def _differentiation_matrix(L: int) -> np.ndarray:
    """(L, 2L-2) map from L coefficients to the interleaved series of f' and f''.

    Column 2l + j holds coefficient l of the j-th derivative; the top
    coefficient of f'' is zero.
    """
    q1 = derivative_array(np.eye(L))                    # row k: T_k'
    W = np.zeros((L, L - 1, 2))
    W[:, :, 0] = q1
    W[:, :-1, 1] = derivative_array(q1)
    return _freeze(W.reshape(L, -1))


def _derivative_stack(coef: np.ndarray) -> np.ndarray:
    """(L-1, 2, m) series of f' and f'' of each row of (m, L) coefficients, L >= 3.

    f'' gets a zero top coefficient, so one Clenshaw pass evaluates both.
    The product is an einsum, not a BLAS call: a lone row would take
    BLAS's vector kernel, whose sums run in another order than a block's.
    """
    L = coef.shape[1]
    return np.einsum("lm,lk->km", np.ascontiguousarray(coef.T),
                     _differentiation_matrix(L)).reshape(L - 1, 2, -1)


def _colleague_argmax(coef: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Best point in [-1, 1] of each row of (m, L) interpolants, L >= 3, whatever their shape.

    `dq` holds the rows' derivative series (:func:`_derivative_stack`).
    The candidates are the real parts of all roots of the derivative,
    clipped to [-1, 1] and polished by two Newton steps on the derivative,
    and both endpoints; the interpolant picks the best.
    """
    x = np.clip(_colleague_roots(dq[:, 0].T), -1.0, 1.0)
    for _ in range(2):
        f1, f2 = clenshaw(dq[:, :, :, None], x)
        # A step longer than the interval could only reach an endpoint.
        short = np.abs(f1) < 2.0 * np.abs(f2)
        step = np.divide(f1, f2, out=np.zeros_like(f1), where=short)
        x = np.clip(x - step, -1.0, 1.0)
    x = np.concatenate([np.broadcast_to([-1.0, 1.0], (len(coef), 2)), x], axis=1)
    best = np.argmax(clenshaw(coef.T[:, :, None], x), axis=1)[:, None]
    return np.take_along_axis(x, best, 1)[:, 0]


# Bisection alone shrinks the bracket [-1, 1] below _NEWTON_STOP in 51 steps.
_NEWTON_STEPS = 60
_NEWTON_STOP = 4.0 * np.finfo(float).eps


def _concave_argmax(dq: np.ndarray) -> np.ndarray:
    """Maximiser over [-1, 1] of each row whose second derivative is negative there.

    `dq` holds the rows' derivative series (:func:`_derivative_stack`).
    f' then decreases strictly, so the maximum is at -1 when f'(-1) <= 0,
    at 1 when f'(1) >= 0, and otherwise at the one root of f'.  That root
    is found by Newton steps from the regula-falsi point of [-1, 1], kept
    inside the sign bracket that every step shrinks: a step that would
    leave it bisects instead.  A row stops at a step of at most
    _NEWTON_STOP; the loop ends after _NEWTON_STEPS steps at most.  When
    f' is linear (L = 3) the regula-falsi point is the root.
    """
    q1 = dq[:, 0]
    hi = q1.sum(axis=0)                                             # f'(1)
    lo = 2.0 * q1[::2].sum(axis=0) - hi                             # f'(-1)
    x = np.where(lo <= 0.0, -1.0, 1.0)
    active = (lo > 0.0) & (hi < 0.0)
    np.divide(lo + hi, lo - hi, out=x, where=active)
    if len(dq) == 2:
        return x
    a, b = np.full_like(x, -1.0), np.ones_like(x)
    # f'' = 0 within rounding gives a non-finite step, which bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not active.any():
                break
            g, d = clenshaw(dq, x)
            right = g > 0.0
            a = np.where(right, x, a)
            b = np.where(right, b, x)
            xn = x - g / d
            # At the rounding level of f' Newton can jump back to the far
            # end of the bracket; that bisects too.
            xn = np.where((a < xn) & (xn < b) | (xn == x), xn, 0.5 * (a + b))
            # A row that stopped keeps its point, so its result does not
            # depend on the other rows of the block.
            xn = np.where(active, xn, x)
            active = np.abs(xn - x) > _NEWTON_STOP
            x = xn
    return x


def _convex_argmax(coef: np.ndarray) -> np.ndarray:
    """Better endpoint of each row of (m, L) interpolants that are convex on [-1, 1].

    A critical point of a convex row is a minimum, so the maximum is at an
    endpoint; a tie takes -1, as the argmax of :func:`_colleague_argmax`
    does, whose candidates start with -1 and 1.
    """
    # T_l(1) = 1 and T_l(-1) = (-1)^l, so f(1) - f(-1) is twice the odd coefficients' sum.
    return np.where(coef[:, 1::2].sum(axis=1) > 0.0, 1.0, -1.0)


def _maximise_block(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global maximum of each row of (m, L) interpolants over [-1, 1], L >= 3.

    The control degree is at least 2, so the second-derivative series q2
    of each row certifies its shape on [-1, 1], since |T_l| <= 1 there.  A
    row with q2_0 + sum_{l>=1} |q2_l| < 0 is concave: it has at most one
    critical point, found by bracketed Newton (:func:`_concave_argmax`).  A
    row with q2_0 - sum_{l>=1} |q2_l| >= 0, a linear one included, is
    convex: its maximum is the better endpoint (:func:`_convex_argmax`).
    Every other row compares both endpoints with all real roots of its
    derivative, found by one batched colleague-matrix eigensolve
    (:func:`_colleague_argmax`).  Each row's result depends on that row
    alone.  Returns the best point of each row and the interpolant there.
    """
    dq = _derivative_stack(coef)
    q2 = dq[:-1, 1]
    spread = np.abs(q2[1:]).sum(axis=0)
    concave = q2[0] + spread < 0.0
    if concave.all():
        x = _concave_argmax(dq)
    else:
        x = np.empty(len(coef))
        if concave.any():
            x[concave] = _concave_argmax(dq[:, :, concave])
        convex = q2[0] - spread >= 0.0
        if convex.any():
            x[convex] = _convex_argmax(coef[convex])
        rest = ~(concave | convex)
        if rest.any():
            x[rest] = _colleague_argmax(coef[rest], dq[:, :, rest])
    return x, clenshaw(coef.T, x)


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------

def _cardinal_rows(ws: _Workspace, coords: list[np.ndarray]) -> list[np.ndarray]:
    """Per-axis cardinal functions of the state grid at per-axis reference points.

    Entry d is (len(coords[d]), Np_d + 1): Chebyshev values times the
    samples -> coefficients matrix of axis d.
    """
    return [_row_basis(x, M.shape[0]) @ M for x, M in zip(coords, ws.transforms)]


def _kron_rows(rows: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of per-axis rows (s_d, P), transposed: (prod s_d, P).

    Entry (a, n) is the product over d of rows[d][a_d, n], taken as
    (((r_{J-1} r_{J-2}) ...) r_0), where a = a_0 + s_0 (a_1 + s_1 (...)):
    axis 0 varies fastest, as in the Fortran order of the node values, so
    `_kron_rows(rows, out).T @ values` is the interpolant at the P points.
    The point axis is innermost, so every step is one broadcast product
    over contiguous rows; the last one writes into the leading entries of
    the C-contiguous array `out`, and the result is a view of them.
    """
    card = np.ones((1, rows[0].shape[1]))
    for r in rows[:0:-1]:
        card = (card[:, None] * r).reshape(-1, card.shape[1])
    last = out.reshape(-1)[: card.size * len(rows[0])].reshape(len(card), *rows[0].shape)
    return np.multiply(card[:, None], rows[0], out=last).reshape(-1, card.shape[1])


def _buffer(ws: _Workspace) -> np.ndarray:
    """The workspace's N_P x N_P scratch matrix, allocated at its first use.

    That is in the first sweep, outside the timed set-up of :func:`solve`.
    """
    if ws.buffer is None:
        ws.buffer = np.empty((ws.grid.n_nodes, ws.grid.n_nodes))
    return ws.buffer


def _own_rows(ws: _Workspace) -> list[_OwnSamples]:
    """Every player's own-control samples (:class:`_OwnSamples`), built once per solve.

    Coordinate d of the successor, p_d + h (g_d(p, 0) + beta_d u), is
    affine in player d's control u: it lies in [0, P_max] on one interval
    [lo, hi] of [0, U_max] (all of it when beta_d = 0, one end when it is
    clamped at every control) and is clamped to a constant on the rest.
    The interval depends on the node alone, so the samples are built at
    their first use, outside the timed set-up of :func:`solve`.
    """
    if ws.own is None:
        spec, nodes = ws.spec, ws.grid.nodes
        drift = _drift(spec, nodes, np.zeros_like(nodes))
        slope = spec.h * spec.beta
        still = nodes + spec.h * drift                              # successors at u = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = (np.array([0.0, spec.P_max]) - still[:, :, None]) / slope[:, None]
        lo, hi = np.where(slope[:, None] == 0.0, [0.0, spec.U_max],
                          np.clip(np.sort(ends, axis=2), 0.0, spec.U_max)).T   # (J, N_P) each
        own = []
        for d, (M, T) in enumerate(zip(ws.fits, ws.transforms)):
            K, A = M.shape[0], spec.A[d]
            half = 0.5 * (hi[d] - lo[d])
            u = lo[d, :, None] + (make_basis(K - 1, -1.0, 1.0).nodes + 1.0) * half[:, None]
            mine = nodes[:, d, None] + spec.h * (drift[:, d, None] + spec.beta[d] * u)
            x = np.clip(mine, 0.0, spec.P_max).ravel() * ws.p_scale - 1.0
            # On a clamped piece the objective is the stage gain plus the
            # sample at the interval's end, so its best point is A_d.
            end = np.clip(A, lo[d], hi[d])
            beyond = np.flatnonzero(end != A)
            own.append(_OwnSamples(
                lo[d], half, (_row_basis(x, T.shape[0]) @ T).reshape(len(nodes), K, -1),
                spec.h * _stage_gain(spec, d, nodes[:, d, None], u), beyond,
                beyond * K + np.where(A < lo[d, beyond], K - 1, 0),
                (0.5 * spec.delta * spec.h) * (A - end[beyond]) ** 2))
        ws.own = own
    return ws.own


def _successor_operator(ws: _Workspace, policy_values: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The successor operator at a joint policy, and its clamp count.

    The operator holds the per-axis cardinal rows (:func:`_cardinal_rows`)
    of the clamped Euler successors at `policy_values`, entry d (s_d, N_P).
    The drift is diagonal in u, so coordinate d is the same for every
    player j != d; player d reads its own axis from :func:`_own_rows`.
    The count runs over the N_P*J successor components.
    """
    spec, nodes = ws.spec, ws.grid.nodes
    nxt = nodes + spec.h * _drift(spec, nodes, policy_values.T)
    clipped = np.clip(nxt, 0.0, spec.P_max)
    rows = _cardinal_rows(ws, list(clipped.T * ws.p_scale - 1.0))
    return [np.ascontiguousarray(r.T) for r in rows], int(np.count_nonzero(clipped != nxt))


def _run_sweep(
    ws: _Workspace, shared: list[np.ndarray], node_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best responses (controls, values), each (J, N_P), at the policy of operator `shared`.

    Each player's objective is sampled on its unclamped interval and
    fitted on its own; the fitted rows of all players that share a fit
    degree are then maximised in one block, since each row's result
    depends on that row alone.  Where A_i lies beyond the interval, the
    clamped piece on that side competes with its best point, A_i.
    """
    spec = ws.spec
    owns = _own_rows(ws)
    pieces, coefs = [], []
    for i, (M, own) in enumerate(zip(ws.fits, owns)):
        # Discounted objective at the player's samples: the other axes bound
        # once per node, then the own axis once per sample.
        tensor = np.moveaxis(node_values[i].reshape(ws.grid.shape, order="F"), i, -1)
        card = _kron_rows(shared[:i] + shared[i + 1:], _buffer(ws))
        partial = np.ascontiguousarray(card.T) @ tensor.reshape(-1, own.rows.shape[2], order="F")
        objective = spec.delta * (own.stage + np.einsum("nka,na->nk", own.rows, partial))
        if not np.all(np.isfinite(objective)):
            raise FloatingPointError("non-finite objective sample in sweep")
        pieces.append(objective.ravel()[own.at_end] + own.gain)
        coefs.append(np.matmul(M, objective[:, :, None])[:, :, 0])
    u_best, v_best = np.empty((2, spec.J, ws.grid.n_nodes))
    for group in ws.groups:
        x, v = _maximise_block(np.concatenate([coefs[i] for i in group]))
        u_best[group] = x.reshape(len(group), -1)
        v_best[group] = v.reshape(len(group), -1)
    for i, (own, piece) in enumerate(zip(owns, pieces)):
        u_best[i] = own.lo + (u_best[i] + 1.0) * own.half
        wins = piece > v_best[i, own.beyond]
        u_best[i, own.beyond[wins]] = spec.A[i]
        v_best[i, own.beyond[wins]] = piece[wins]
    return u_best, v_best


# ---------------------------------------------------------------------------
# exact policy evaluation
# ---------------------------------------------------------------------------

def _evaluate_policy(
    ws: _Workspace, shared: list[np.ndarray], policy_values: np.ndarray
) -> np.ndarray:
    """Node values (J, N_P) of the fixed point of the sweep at a fixed policy.

    With every player's control held at `policy_values`, whose successor
    operator is `shared`, the sweep's value at node n is player i's exact
    objective there, delta (h G_i(p_i, u_i) + V_i(successor)).  The
    successor value is linear in the node values through the operator's
    rows, the same for every player, so E, their row-wise Kronecker
    product, gives each player's fixed point as
    (I - delta E) V_i = delta h G_i(p_i, u_i).  One LU of I - delta E,
    built transposed in the workspace's buffer (the matrix in the Fortran
    order LAPACK reads), takes all J right-hand sides.  Raises
    LinAlgError when I - delta E is singular.
    """
    spec = ws.spec
    nodes = ws.grid.nodes
    rhs = [spec.delta * spec.h * _stage_gain(spec, i, nodes[:, i], u)
           for i, u in enumerate(policy_values)]
    # (I - delta E)^T, built in place.
    At = _kron_rows(shared, _buffer(ws))
    At *= -spec.delta
    At.flat[:: ws.grid.n_nodes + 1] += 1.0
    return np.ascontiguousarray(np.linalg.solve(At.T, np.stack(rhs, axis=1)).T)


# ---------------------------------------------------------------------------
# policy-iteration driver
# ---------------------------------------------------------------------------

def _initial_fields(spec: GameSpec, grid: StateGrid, init) -> tuple[np.ndarray, np.ndarray]:
    """Validated copies of the caller's (values, policy) start."""
    n = grid.n_nodes
    values, policy = init
    v = np.array(getattr(values, "values", values), dtype=float)
    u = np.array(getattr(policy, "values", policy), dtype=float)
    if v.shape != (spec.J, n) or u.shape != (spec.J, n):
        raise ValueError(f"initial fields must have shape {(spec.J, n)}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(u))):
        raise ValueError("initial fields must be finite")
    if np.any(u < 0.0) or np.any(u > spec.U_max):
        raise ValueError("initial policy outside [0, U_max]")
    return v, u


def solve(spec: GameSpec, init=None) -> EquilibriumResult:
    """Safeguarded policy iteration to a Bellman residual of tol * (1 - delta).

    Each pass runs one best-response sweep from the current (values,
    policy) pair; its residual r = sup |T v - v| is one `history` row.
    When max r <= tol * (1 - delta) the sweep's input pair is returned:
    one more sweep moves no value by more than tol * (1 - delta).  That
    is not a bound of about tol on the distance to the fixed point: the
    residual is quadratic in a policy gap, so the policies can still lie
    about sqrt(rho * tol) from it, and each player's value moves with the
    others' policies.  Otherwise the sweep's policy is evaluated
    exactly and the next sweep starts from the evaluated values.  The
    proposal is kept if that sweep's residual is below r; if not, the
    driver resumes from the earlier sweep's output and takes 1, 2, 4, ...
    value-iteration steps (the wait doubles after every rejection) before
    proposing again.

    Parameters
    ----------
    spec : GameSpec
        Model and numerical parameters.
    init : pair, optional
        Initial (values, policy) as (J, N_P) arrays or field objects;
        defaults to the linear-feedback equilibrium of the unconstrained
        game with its gains settled to `spec.tol`, not to the 1e-13 of
        :func:`chebnash.oracle.lq_solve`: its values at the nodes and its
        policy clipped to [0, U_max].  The stop rule above certifies the
        result, so the start only has to lie where policy iteration
        converges, and it lies within about tol of the oracle's.  Pass
        ``(zeros, spec.A broadcast to (J, N_P))`` to start from the myopic
        corner instead.

    Returns
    -------
    EquilibriumResult
        Non-convergence within max_iters sweeps is reported via the
        `converged` flag rather than an exception, so partial runs can be
        recorded; such a result holds the output of the last sweep, or of
        the sweep before it when the last one rejected a proposal.

    Raises
    ------
    RuntimeError, FloatingPointError
        When `init` is omitted and the LQ start does not settle, its closed
        loop has delta rho(M)^2 >= 1 included (the RuntimeError's message
        starts "linear feedback not settled").
    """
    t_begin = time.perf_counter()
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    fields = None if init is None else _initial_fields(spec, grid, init)
    t_setup = time.perf_counter()
    if fields is None:      # the LQ feedback's node values and clipped policy, to tol
        Q, b, d, e, f, _ = _lq_feedback(spec, spec.tol)
        fields = (_values(Q, b, d, grid.nodes).T,
                  np.clip(_controls(e, f, grid.nodes).T, 0.0, spec.U_max))
    v_values, u_values = fields
    t_start = time.perf_counter()

    history = []
    clamp_fraction = 0.0
    converged = False
    iterations = evaluations = rejected = 0
    stop_at = spec.tol * (1.0 - spec.delta)
    wait = 1            # value-iteration steps after the next rejection
    vi_left = 0         # value-iteration steps before the next proposal
    fallback = None     # (Tv, u', residual) of the sweep before a proposal
    # The operator at u_values; a rejection returns to the policy it was built at.
    ops, clamped = _successor_operator(ws, u_values)
    for iterations in range(1, spec.max_iters + 1):
        u_new, v_new = _run_sweep(ws, ops, v_values)
        clamp_fraction = max(clamp_fraction, clamped / u_values.size)
        diffs = np.max(np.abs(v_new - v_values), axis=1)
        history.append(diffs)
        residual = float(diffs.max())
        if residual <= stop_at:
            converged = True
            break
        if fallback is not None and residual >= fallback[2]:
            # The proposal did not lower the residual: resume from the
            # sweep that made it and wait longer before the next one.
            v_values, u_values = fallback[0], fallback[1]
            rejected += 1
            vi_left, wait = wait, 2 * wait
            fallback = None
        else:
            fallback = None
            v_values, u_values = v_new, u_new
            ops, clamped = _successor_operator(ws, u_values)
            if vi_left:
                vi_left -= 1
            else:
                evaluations += 1
                try:
                    proposal = _evaluate_policy(ws, ops, u_values)
                except np.linalg.LinAlgError:
                    proposal = None
                if proposal is not None and np.all(np.isfinite(proposal)):
                    fallback = (v_values, u_values, residual)
                    v_values = proposal
                else:
                    rejected += 1
                    vi_left, wait = wait, 2 * wait
    if fallback is not None and not converged:
        # Report the last sweep's output, not the untested proposal.
        v_values, u_values = fallback[0], fallback[1]
    if clamp_fraction > _CLAMP_WARN_FRACTION:
        warnings.warn(
            f"{clamp_fraction:.1%} of successor-state components clamped to the state box; "
            "P_max is probably too small",
            RuntimeWarning,
            stacklevel=2,
        )
    t_end = time.perf_counter()
    return EquilibriumResult(
        converged=converged,
        iterations=iterations,
        values=ValueField(values=v_values),
        policy=PolicyField(values=u_values),
        history=np.array(history).reshape(-1, spec.J),
        timings={"setup": t_setup - t_begin, "start": t_start - t_setup,
                 "sweeps": t_end - t_start, "total": t_end - t_begin},
        clamp_fraction=clamp_fraction,
        evaluations=evaluations,
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

def fit_policy(grid: StateGrid, field: PolicyField | ValueField) -> list[CoefTensor]:
    """State-space interpolants of a per-player (J, N_P) node field.

    `field` is a :class:`PolicyField` or a :class:`ValueField`.
    """
    return [tensor_coeffs(v.reshape(grid.shape, order="F"), grid.bases) for v in field.values]


def simulate(
    spec: GameSpec,
    policies: list[CoefTensor],
    p0,
    n_steps: int,
) -> TimePath:
    """Roll the closed loop forward: u_n = policy(p_n), Euler step, repeat.

    Controls are clipped to [0, U_max] and states to [0, P_max]; the
    returned path has n_steps + 1 rows including the initial state.
    """
    J = spec.J
    if len(policies) != J:
        raise ValueError("need one policy interpolant per player")
    p = np.asarray(p0, dtype=float).copy()
    if p.shape != (J,) or not np.all((p >= 0.0) & (p <= spec.P_max)):
        raise ValueError(f"p0 must be finite and lie in [0, {spec.P_max}]^{J}")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    coefs = np.stack([pt.coefficients for pt in policies], axis=-1)
    if coefs.ndim != J + 1 or not np.all(np.isfinite(coefs)):
        raise ValueError(f"policies must be finite interpolants on the {J}-D state box")
    sizes = [b.size for b in policies[0].bases]
    t = np.arange(n_steps + 1) * spec.h
    states = np.empty((n_steps + 1, J))
    controls = np.empty((n_steps + 1, J))
    scale = 2.0 / spec.P_max
    for nstep in range(n_steps + 1):
        states[nstep] = p
        c = coefs
        for x, size in zip((scale * p - 1.0).tolist(), sizes):
            cheb = [1.0, x]
            for _ in range(size - 2):
                cheb.append(2.0 * x * cheb[-1] - cheb[-2])
            c = np.array(cheb[:size]) @ c.reshape(size, -1)
        u = np.clip(c, 0.0, spec.U_max)
        controls[nstep] = u
        if nstep < n_steps:
            p = _euler_step(spec, p, u)
    return TimePath(t=t, states=states, controls=controls)
