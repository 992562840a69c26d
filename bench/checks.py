"""Output checks of the benchmark, independent of the solver's code.

:func:`bellman_residual` uses only the public interpolation and dynamics
entry points (``tensor_coeffs``, ``basis_matrix``, ``dynamics``), so a
change to the solver cannot change the checker.
"""

from __future__ import annotations

import numpy as np

CONTROL_GRID = 401          # dense own-control grid of the residual check
CHUNK_POINTS = 32_768       # successor states evaluated per batch
SYMMETRY_ATOL = 1e-8
ERROR_CEILING = 1e-2        # policy error bound at the top degree (criterion 06)


def _value_at(api, coef: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Tensor interpolant with coefficients `coef` at reference points (P, J)."""
    P, J = points.shape
    B = api.basis_matrix(points[:, 0], coef.shape[0] - 1)
    r = B @ coef.reshape(coef.shape[0], -1)                     # (P, rest)
    for d in range(1, J):
        B = api.basis_matrix(points[:, d], coef.shape[d] - 1)
        r = np.einsum("pk,pkr->pr", B, r.reshape(P, coef.shape[d], -1))
    return r[:, 0]


def bellman_residual(api, spec, grid, values: np.ndarray, policy: np.ndarray) -> float:
    """Sup-norm over nodes and players of max_u T_i(u) - V_i at the nodes.

    The node values are refitted, and for every node and player the
    objective delta * (h * G_i + V_i(clamped Euler successor)) is
    maximised over a dense grid of the player's own control plus the
    returned control, the other players held at their returned controls.
    """
    J, n = values.shape
    shape = grid.shape
    nodes = grid.nodes
    own = np.linspace(0.0, spec.U_max, CONTROL_GRID)
    per_chunk = max(1, CHUNK_POINTS // (own.size + 1))
    worst = 0.0
    for i in range(J):
        coef = api.tensor_coeffs(values[i].reshape(shape, order="F"), grid.bases).coefficients
        for lo in range(0, n, per_chunk):
            sl = slice(lo, min(n, lo + per_chunk))
            m = sl.stop - sl.start
            cand = np.concatenate([np.broadcast_to(own, (m, own.size)), policy[i, sl, None]], axis=1)
            u = np.repeat(policy[:, sl].T[:, None, :], cand.shape[1], axis=1)   # (m, K, J)
            u[:, :, i] = cand
            p = np.broadcast_to(nodes[sl, None, :], u.shape)
            nxt = np.clip(p + spec.h * api.dynamics(spec, p, u), 0.0, spec.P_max)
            ref = (nxt * (2.0 / spec.P_max) - 1.0).reshape(-1, J)
            v_next = _value_at(api, coef, ref).reshape(m, -1)
            gain = cand * (spec.A[i] - 0.5 * cand) - 0.5 * spec.phi[i] * nodes[sl, i, None] ** 2
            best = np.max(spec.delta * (spec.h * gain + v_next), axis=1)
            worst = max(worst, float(np.max(np.abs(best - values[i, sl]))))
    return worst


def exchange_gap(grid, field: np.ndarray, pair: tuple[int, int]) -> float:
    """Largest node gap between player a's field and player b's, axes a and b swapped."""
    a, b = pair
    fa = field[a].reshape(grid.shape, order="F")
    fb = np.swapaxes(field[b].reshape(grid.shape, order="F"), a, b)
    return float(np.max(np.abs(fa - fb)))


def solve_checks(spec, grid, result, pair) -> dict[str, bool]:
    """Pass/fail of each per-solve check, by name."""
    u = result.policy.values
    v = result.values.values
    finite = bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v)))
    return {
        "converged": bool(result.converged),
        "finite": finite,
        "policy_in_box": finite and bool(np.all((u >= 0.0) & (u <= spec.U_max))),
        "exchange_symmetry": finite and exchange_gap(grid, u, pair) <= SYMMETRY_ATOL,
    }


def ladder_checks(errors: list[float]) -> dict[str, bool]:
    """Policy error falls strictly over the degrees and ends below the ceiling."""
    return {
        "error_decreases": all(a > b for a, b in zip(errors, errors[1:])),
        "error_below_ceiling": errors[-1] < ERROR_CEILING,
    }


def rollout_checks(spec, paths) -> dict[str, bool]:
    """Rollouts stay finite, in the state box and in the control box."""
    ok = True
    for path in paths:
        s, c = path.states, path.controls
        ok &= bool(np.all(np.isfinite(s)) and np.all(np.isfinite(c)))
        ok &= bool(np.all((s >= 0.0) & (s <= spec.P_max)) and np.all((c >= 0.0) & (c <= spec.U_max)))
    return {"rollouts_in_box": ok}
