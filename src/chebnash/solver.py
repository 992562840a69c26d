"""Collocation solver for the feedback equilibrium of the pollution game.

The iteration keeps, for every player, the node values of the value
function and the current policy values.  One sweep performs, at every
state node and for every player:

1. evaluate the affine drift g(p, u) in closed form at the player's
   control nodes, the other players held at their current policy values,
   and take the Euler successor states;
2. evaluate the player's value interpolant at all successor states in one
   batched, axis-by-axis contraction of the grid's cardinal functions
   (:func:`_cardinal_rows`) with the node values, and form the candidate
   objective: stage gain plus discounted successor value;
3. fit the one-dimensional Chebyshev interpolant of those samples and
   maximise it over the control interval at its critical points: the
   roots of its derivative, all rows' at once as the eigenvalues of
   their colleague matrices, polished by two Newton steps and compared
   with both endpoints (:func:`_maximise_block`).

The driver (:func:`solve`) runs safeguarded policy iteration.  A sweep's
best responses are the improvement step; the joint policy they form is
then evaluated exactly (:func:`_evaluate_policy`, one dense linear solve
per player), and the next sweep starts from those values.  A proposal
whose sweep does not lower the Bellman residual is rejected: the driver
resumes from the sweep that made it and takes 1, 2, 4, ... plain
value-iteration steps before the next proposal.

Every sweep and every policy evaluation handles all nodes of a player in
one pass.

Successor states are clamped to the state box before interpolation; the
solver warns when more than 1% of the sampled successor components clamp,
which signals that P_max is too small for the chosen control bound.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .cheb1d import CoefVector, _transform_matrix, clenshaw, derivative_array, make_basis
from .chebnd import CoefTensor, _bind_diagonal, _bind_rows, _row_basis, tensor_coeffs
from .game import GameSpec, StateGrid, build_state_grid, dynamics, step

_CLAMP_WARN_FRACTION = 0.01


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class ValueField:
    """Per-player value node values (J, N_P) and state-space interpolants.

    The solver reads only `values`; it fits `interpolants` for its results.
    """

    values: np.ndarray
    interpolants: list[CoefTensor]


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
    `clamp_fraction` is the worst per-sweep share of sampled
    successor-state components that hit the state box.
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
# per-player constants
# ---------------------------------------------------------------------------

class _PlayerWork:
    """Per-player constants: own control nodes, fit matrix and stage table."""

    __slots__ = ("K", "u_nodes", "M0", "stage")

    def __init__(self, spec: GameSpec, grid: StateGrid, i: int, M0: np.ndarray):
        self.K = int(spec.Nu[i]) + 1
        self.u_nodes = make_basis(int(spec.Nu[i]), 0.0, spec.U_max).nodes
        self.M0 = M0
        gain = self.u_nodes * (spec.A[i] - 0.5 * self.u_nodes)
        damage = 0.5 * spec.phi[i] * grid.nodes[:, i] ** 2
        self.stage = spec.h * (gain[None, :] - damage[:, None])


class _Workspace:
    __slots__ = ("spec", "grid", "u_scale", "p_scale", "players", "transforms")

    def __init__(self, spec: GameSpec, grid: StateGrid):
        self.spec = spec
        self.grid = grid
        self.u_scale = 2.0 / spec.U_max
        self.p_scale = 2.0 / spec.P_max
        # One samples -> coefficients matrix per distinct degree, shared by
        # the control fits and the state axes.
        matrices = {d: _transform_matrix(d) for d in {*spec.Np.tolist(), *spec.Nu.tolist()}}
        self.players = [
            _PlayerWork(spec, grid, i, matrices[int(spec.Nu[i])]) for i in range(spec.J)
        ]
        self.transforms = [matrices[int(d)] for d in spec.Np]


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


def _maximise_block(
    coef: np.ndarray, extra: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Global maximum of each row of (m, L) interpolants over [-1, 1].

    The candidates are the real parts of all roots of the derivative,
    clipped to [-1, 1] and polished by two Newton steps on the derivative,
    both endpoints and the optional (m, k) `extra` points.  Returns the
    best candidate of each row and the interpolant there.
    """
    m, L = coef.shape
    ends = np.broadcast_to([-1.0, 1.0], (m, 2))
    cands = [ends] if extra is None else [ends, extra]
    if L > 2:
        q1 = derivative_array(coef)
        q2 = derivative_array(q1)
        x = np.clip(_colleague_roots(q1), -1.0, 1.0)
        for _ in range(2):
            f1 = clenshaw(q1.T[:, :, None], x)
            f2 = clenshaw(q2.T[:, :, None], x)
            # A step longer than the interval could only reach an endpoint.
            short = np.abs(f1) < 2.0 * np.abs(f2)
            step = np.divide(f1, f2, out=np.zeros_like(f1), where=short)
            x = np.clip(x - step, -1.0, 1.0)
        cands.append(x)
    x = np.concatenate(cands, axis=1)
    f = clenshaw(coef.T[:, :, None], x)
    best = np.argmax(f, axis=1)[:, None]
    return np.take_along_axis(x, best, 1)[:, 0], np.take_along_axis(f, best, 1)[:, 0]


def newton_maximize(coeffs: CoefVector, u0: float) -> tuple[float, float]:
    """Global maximiser of a 1-D interpolant over its interval.

    Parameters
    ----------
    coeffs : CoefVector
        Objective interpolant on an interval [a, b] (the control interval
        [0, U_max] in the solver).
    u0 : float
        A point in interval units, taken as one more candidate.

    Returns
    -------
    (u_star, value)
        Maximising abscissa in interval units and the interpolant value
        there: the global maximum up to rounding, found among the
        polished critical points, both endpoints and `u0`.
    """
    basis = coeffs.basis
    x0 = (2.0 * float(u0) - (basis.a + basis.b)) / (basis.b - basis.a)
    coef = coeffs.coefficients[None, :]
    x, f = _maximise_block(coef, np.array([[np.clip(x0, -1.0, 1.0)]]))
    u = 0.5 * (basis.b - basis.a) * float(x[0]) + 0.5 * (basis.a + basis.b)
    return u, float(f[0])


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------

def _cardinal_rows(ws: _Workspace, pts: np.ndarray) -> list[np.ndarray]:
    """Per-axis cardinal functions of the state grid at (P, J) reference points.

    Entry d is (P, Np_d + 1): Chebyshev values times the samples ->
    coefficients matrix of axis d.
    """
    return [_row_basis(pts[:, d], M.shape[0]) @ M for d, M in enumerate(ws.transforms)]


def _successor_values(rows: list[np.ndarray], tensor: np.ndarray) -> np.ndarray:
    """Contract per-axis rows (P, tensor.shape[d]) with a tensor: (P,) values.

    Chebyshev rows with coefficients, or cardinal rows with the node
    values, give an interpolant at P points.  The leading axis is bound at
    all points at once against the shared tensor, every further axis row
    by row (point q binds its own row in its own partially bound tensor),
    and the last one collapses to one value per point.
    """
    sizes = tensor.shape
    n = len(sizes)
    cur = _bind_rows(rows[0], tensor.reshape(sizes[0], -1))
    for d in range(1, n - 1):
        cur = _bind_diagonal(rows[d], cur.reshape(-1, sizes[d], cur.shape[1] // sizes[d]))
    return np.einsum("ql,ql->q", rows[n - 1], cur.reshape(-1, sizes[n - 1]))


def _successor_points(
    ws: _Workspace, i: int, policy_values: np.ndarray
) -> tuple[np.ndarray, int]:
    """Clamped Euler successors of player i's control nodes at every node.

    The other players are held at `policy_values`.  Returns the successors
    as (N_P*K, J) reference points, node-major, and the clamp count.  The
    nodes keep a per-node axis, so `dynamics` forms the exchange term of
    each node once for all K controls.
    """
    spec = ws.spec
    pw = ws.players[i]
    nodes = ws.grid.nodes[:, None, :]                          # (N_P, 1, J)
    u = np.repeat(policy_values.T[:, None, :], pw.K, axis=1)
    u[:, :, i] = pw.u_nodes                                    # (N_P, K, J)
    nxt = nodes + spec.h * dynamics(spec, nodes, u)
    clipped = np.clip(nxt, 0.0, spec.P_max)
    n_clamped = int(np.count_nonzero(clipped != nxt))
    return clipped.reshape(-1, spec.J) * ws.p_scale - 1.0, n_clamped


def _best_response_block(
    ws: _Workspace,
    i: int,
    node_values: np.ndarray,
    policy_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Best response of player i at every node: (controls, values, clamp count)."""
    spec = ws.spec
    pw = ws.players[i]

    # Step 1: drift at the player's own control nodes, the others at their
    # current controls, and the Euler successor states.
    pts, n_clamped = _successor_points(ws, i, policy_values)

    # Step 2: discounted objective at the player's control nodes.
    tensor = node_values[i].reshape(ws.grid.shape, order="F")
    v_next = _successor_values(_cardinal_rows(ws, pts), tensor)
    objective = spec.delta * (pw.stage + v_next.reshape(-1, pw.K))
    if not np.all(np.isfinite(objective)):
        raise FloatingPointError("non-finite objective sample in sweep")

    # Step 3: fit in the own control and maximise.
    coef = np.matmul(pw.M0, objective[:, :, None])[:, :, 0]
    x_best, f_best = _maximise_block(coef)
    return (x_best + 1.0) * (0.5 * spec.U_max), f_best, n_clamped


def _run_sweep(
    ws: _Workspace,
    node_values: np.ndarray,
    policy_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    us, vs, clamps = zip(*(
        _best_response_block(ws, i, node_values, policy_values) for i in range(ws.spec.J)
    ))
    return np.stack(us), np.stack(vs), sum(clamps)


def bellman_sweep(
    spec: GameSpec,
    grid: StateGrid,
    values: ValueField,
    policy: PolicyField,
) -> tuple[ValueField, PolicyField]:
    """One synchronous best-response sweep over all players and nodes.

    All players respond to the iteration-r fields; of `values` the sweep
    reads only the node values `values.values`.
    """
    ws = _Workspace(spec, grid)
    u_new, v_new, _ = _run_sweep(ws, values.values, policy.values)
    values = ValueField(values=v_new, interpolants=_interpolants(grid, v_new))
    return values, PolicyField(values=u_new)


# ---------------------------------------------------------------------------
# exact policy evaluation
# ---------------------------------------------------------------------------

def _evaluate_policy(ws: _Workspace, policy_values: np.ndarray) -> np.ndarray:
    """Node values (J, N_P) of the fixed point of the sweep at a fixed policy.

    With every player's control held at `policy_values`, the sweep's value
    at node n is the fitted objective at the player's own control,
    delta * sum_k w_k (stage_k + V_i(successor_k)), where w holds the
    control-interpolation weights of that control.  The successor value is
    linear in the node values through the state cardinal functions, so
    the fixed point solves (I - delta E_i) V_i = delta sum_k w_k stage_k,
    one dense system per player over the whole grid.  Raises LinAlgError
    when a system is singular.
    """
    spec = ws.spec
    n = ws.grid.n_nodes
    out = np.empty((spec.J, n))
    for i, pw in enumerate(ws.players):
        pts, _ = _successor_points(ws, i, policy_values)
        # Cardinal functions of the state grid at every successor: the
        # row-wise Kronecker product of the sweep's per-axis rows, axis 1
        # fastest to match the Fortran order of the node values.
        card = np.ones((len(pts), 1))
        for C in reversed(_cardinal_rows(ws, pts)):
            card = (card[:, :, None] * C[:, None, :]).reshape(len(pts), -1)
        w = _row_basis(policy_values[i] * ws.u_scale - 1.0, pw.K) @ pw.M0   # (n, K)
        E = np.matmul(w[:, None, :], card.reshape(n, pw.K, n))[:, 0, :]
        rhs = spec.delta * np.einsum("nk,nk->n", w, pw.stage)
        out[i] = np.linalg.solve(np.eye(n) - spec.delta * E, rhs)
    return out


# ---------------------------------------------------------------------------
# policy-iteration driver
# ---------------------------------------------------------------------------

def _initial_fields(spec: GameSpec, grid: StateGrid, init) -> tuple[np.ndarray, np.ndarray]:
    n = grid.n_nodes
    if init is None:
        v = np.zeros((spec.J, n))
        u = np.broadcast_to(spec.A[:, None], (spec.J, n)).copy()
        return v, u
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
    When max r <= tol * (1 - delta) the sweep's input pair is returned, so
    its values lie within about tol of the collocation fixed point.  Otherwise
    the sweep's policy is evaluated exactly and the next sweep starts from
    the evaluated values.  The proposal is kept if that sweep's residual
    is below r; if not, the driver resumes from the earlier sweep's output
    and takes 1, 2, 4, ... value-iteration steps (the wait doubles after
    every rejection) before proposing again.

    Parameters
    ----------
    spec : GameSpec
        Model and numerical parameters.
    init : pair, optional
        Initial (values, policy) as (J, N_P) arrays or field objects;
        defaults to zero values and the myopic policy u_i = A_i.

    Returns
    -------
    EquilibriumResult
        Non-convergence within max_iters sweeps is reported via the
        `converged` flag rather than an exception, so partial runs can be
        recorded; such a result holds the output of the last sweep, or of
        the sweep before it when the last one rejected a proposal.
    """
    t_start = time.perf_counter()
    grid = build_state_grid(spec)
    ws = _Workspace(spec, grid)
    n = grid.n_nodes
    v_values, u_values = _initial_fields(spec, grid, init)
    targets_per_sweep = n * sum(pw.K for pw in ws.players) * spec.J
    t_setup = time.perf_counter() - t_start

    history = []
    clamp_fraction = 0.0
    converged = False
    iterations = evaluations = rejected = 0
    stop_at = spec.tol * (1.0 - spec.delta)
    wait = 1            # value-iteration steps after the next rejection
    vi_left = 0         # value-iteration steps before the next proposal
    fallback = None     # (Tv, u', residual) of the sweep before a proposal
    for iterations in range(1, spec.max_iters + 1):
        u_new, v_new, clamped = _run_sweep(ws, v_values, u_values)
        clamp_fraction = max(clamp_fraction, clamped / targets_per_sweep)
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
            if vi_left:
                vi_left -= 1
            else:
                evaluations += 1
                try:
                    proposal = _evaluate_policy(ws, u_values)
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
    values = ValueField(values=v_values, interpolants=_interpolants(grid, v_values))
    if clamp_fraction > _CLAMP_WARN_FRACTION:
        warnings.warn(
            f"{clamp_fraction:.1%} of successor-state samples clamped to the state box; "
            "P_max is probably too small",
            RuntimeWarning,
            stacklevel=2,
        )
    t_total = time.perf_counter() - t_start
    return EquilibriumResult(
        converged=converged,
        iterations=iterations,
        values=values,
        policy=PolicyField(values=u_values),
        history=np.array(history).reshape(-1, spec.J),
        timings={"setup": t_setup, "sweeps": t_total - t_setup, "total": t_total},
        clamp_fraction=clamp_fraction,
        evaluations=evaluations,
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

def _interpolants(grid: StateGrid, node_values: np.ndarray) -> list[CoefTensor]:
    """State-space interpolants of per-player (J, N_P) node values."""
    return [tensor_coeffs(v.reshape(grid.shape, order="F"), grid.bases) for v in node_values]


def fit_policy(grid: StateGrid, policy: PolicyField) -> list[CoefTensor]:
    """State-space interpolants of the per-player policy node values."""
    return _interpolants(grid, policy.values)


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
            p = step(spec, p, u)
    return TimePath(t=t, states=states, controls=controls)
