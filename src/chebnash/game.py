"""Discrete-space J-player pollution game: parameters, dynamics and payoffs.

Stocks p_i live on [0, P_max], emissions u_i on [0, U_max].  The stock of
player i evolves with diffusive exchange across shared boundaries (matrix
K with non-negative off-diagonal entries), natural decay and its own
emissions:

    g_i(p, u) = (1/m_i) * sum_{j != i} k_ij (p_j - p_i) - c_i p_i + beta_i u_i

and the stage payoff is u_i (A_i - u_i/2) - (phi_i/2) p_i^2.  Time is
discretised with an explicit Euler step of size h and the per-step
discount factor is delta = 1 - rho * h.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .cheb1d import ChebBasis1D, make_basis, _freeze


def _vector(x, n: int, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(x, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return _freeze(arr)


def _integral(x, name: str) -> np.ndarray:
    """`x` as an int array; bools, strings and non-integral values fail."""
    arr = np.asarray(x)
    whole = arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.trunc(arr)))
    if not (arr.dtype.kind in "iu" or whole):
        raise ValueError(f"{name} must be integral, got {x!r}")
    return arr.astype(int)


@dataclass(frozen=True)
class GameSpec:
    """All model and numerical parameters of one game instance.

    Scalar entries passed for the per-player vectors are broadcast to all
    J players.  Validation enforces the usual sanity conditions, notably
    h < 1/rho (so the discrete discount factor lies in (0, 1)) and
    U_max >= max_i A_i (the myopic optimum is inside the control box).
    The control degrees `Nu` are max(2, Np_i).  On each node's unclamped
    interval of the own control, where the own successor stays in the
    state box, the sweep's objective, u(A - u/2) plus the degree-Np value
    at the successor, is a polynomial of that degree, so its fit there is
    exact; a keyword `Nu` must equal them.  `max_iters` bounds the
    solver's sweeps; the default 1,000 is well above the few hundred the
    presets take from the myopic corner at h = 1e-3.
    """

    J: int
    K: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    A: np.ndarray
    c: np.ndarray
    rho: float
    h: float
    P_max: float
    U_max: float
    Np: np.ndarray
    tol: float
    max_iters: int = 1_000
    m: np.ndarray = 1.0  # type: ignore[assignment]
    Nu: InitVar[object] = None

    def __post_init__(self, Nu):
        J = _integral(self.J, "J")
        if J.ndim or J < 2:
            raise ValueError("need at least two players")
        J = int(J)
        object.__setattr__(self, "J", J)
        K = np.asarray(self.K, dtype=float)
        if K.shape != (J, J) or not np.all(np.isfinite(K)):
            raise ValueError(f"K must be a finite {J}x{J} matrix")
        off = K[~np.eye(J, dtype=bool)]
        if np.any(off < 0):
            raise ValueError("off-diagonal boundary coefficients must be non-negative")
        object.__setattr__(self, "K", _freeze(K.copy()))
        for name in ("beta", "phi", "A", "c", "m"):
            object.__setattr__(self, name, _vector(getattr(self, name), J, name))
        if np.any(self.m <= 0):
            raise ValueError("masses must be positive")
        if np.any(self.phi < 0) or np.any(self.c < 0):
            raise ValueError("phi and c must be non-negative")
        if np.any(self.A <= 0):
            raise ValueError("benefit peaks A must be positive")
        for name in ("rho", "h", "P_max", "U_max", "tol"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be a positive finite number")
            object.__setattr__(self, name, val)
        if self.h >= 1.0 / self.rho:
            raise ValueError("need h < 1/rho so that delta = 1 - rho*h is in (0, 1)")
        if self.U_max < float(np.max(self.A)):
            raise ValueError("U_max must be at least max_i A_i")
        Np = np.broadcast_to(_integral(self.Np, "Np"), (J,))
        if np.any(Np < 1):
            raise ValueError("Np degrees must be >= 1")
        object.__setattr__(self, "Np", _freeze(Np.copy()))
        if Nu is not None and np.any(np.broadcast_to(_integral(Nu, "Nu"), (J,)) != self.Nu):
            raise ValueError(f"Nu must be max(2, Np) = {self.Nu.tolist()}, got {Nu!r}")
        max_iters = _integral(self.max_iters, "max_iters")
        if max_iters.ndim or max_iters < 1:
            raise ValueError("max_iters must be positive")
        object.__setattr__(self, "max_iters", int(max_iters))

    @property
    def delta(self) -> float:
        """Discrete discount factor 1 - rho*h."""
        return 1.0 - self.rho * self.h


# Set after the class body, where `Nu` is the init-only keyword.
GameSpec.Nu = property(lambda self: _freeze(np.maximum(self.Np, 2)))  # type: ignore


@dataclass(frozen=True)
class StateGrid:
    """Tensor-product collocation grid over the state box [0, P_max]^J.

    `nodes` enumerates all node tuples with dimension 1 fastest-varying,
    so node values reshape to the grid shape in Fortran order.
    """

    bases: tuple[ChebBasis1D, ...]
    nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.bases)


def build_state_grid(spec: GameSpec) -> StateGrid:
    """Collocation grid with per-player degrees spec.Np on [0, P_max]."""
    by_degree = {n: make_basis(n, 0.0, spec.P_max) for n in set(spec.Np.tolist())}
    bases = tuple(by_degree[n] for n in spec.Np.tolist())
    grids = np.meshgrid(*(b.nodes for b in bases), indexing="ij")
    nodes = np.stack([g.ravel(order="F") for g in grids], axis=-1)
    return StateGrid(bases=bases, nodes=_freeze(nodes))


def _check_state_control(p, u, J: int):
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.shape[-1] != J or u.shape[-1] != J:
        raise ValueError(f"state and control must have {J} trailing components")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(u))):
        raise ValueError("state and control must be finite")
    if np.any(u < 0):
        raise ValueError("controls must be non-negative")
    return p, u


def dynamics(spec: GameSpec, p, u) -> np.ndarray:
    """Drift g(p, u) of the stock vector; broadcasts over leading axes.

    Component i is (1/m_i) sum_{j != i} k_ij (p_j - p_i) - c_i p_i
    + beta_i u_i.  For a matrix K with zero row sums the exchange term
    reduces to (K p)_i / m_i.
    """
    p, u = _check_state_control(p, u, spec.J)
    return _drift(spec, p, u)


def _drift(spec: GameSpec, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`dynamics` without input checks, for valid float arrays."""
    rowsum = spec.K.sum(axis=1)
    exchange = p @ spec.K.T - p * rowsum
    return exchange / spec.m - spec.c * p + spec.beta * u


def _stage_gain(spec: GameSpec, i: int, p_i: np.ndarray, u_i: np.ndarray) -> np.ndarray:
    """Instant welfare of player i, u(A_i - u/2) - (phi_i/2) p^2; no input checks."""
    return u_i * (spec.A[i] - 0.5 * u_i) - 0.5 * spec.phi[i] * p_i**2


def _euler_step(spec: GameSpec, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One explicit Euler step p + h*g(p, u), clamped to [0, P_max]; no input checks."""
    return np.clip(p + spec.h * _drift(spec, p, u), 0.0, spec.P_max)


def discounted_payoff(spec: GameSpec, states, controls, horizon: int) -> np.ndarray:
    """Truncated discounted payoff h * sum_{n=1}^{horizon} delta^n G_i(u_n, p_n).

    `states` and `controls` are path arrays of shape (length, J) indexed by
    time step from n = 0; the sum starts at n = 1, so the path must have at
    least horizon + 1 entries.  Returns one value per player.
    """
    p = np.asarray(states, dtype=float)
    u = np.asarray(controls, dtype=float)
    if p.ndim != 2 or u.ndim != 2 or p.shape != u.shape or p.shape[1] != spec.J:
        raise ValueError("expected matching (length, J) path arrays")
    horizon = int(horizon)
    if horizon < 0 or horizon + 1 > p.shape[0]:
        raise ValueError(f"horizon {horizon} exceeds path of length {p.shape[0]}")
    if horizon == 0:
        return np.zeros(spec.J)
    ps = p[1 : horizon + 1]
    us = u[1 : horizon + 1]
    gains = np.stack([_stage_gain(spec, i, ps[:, i], us[:, i]) for i in range(spec.J)], axis=1)
    weights = spec.delta ** np.arange(1, horizon + 1)
    return spec.h * (weights @ gains)
