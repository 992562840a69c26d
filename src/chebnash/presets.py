"""Ready-made experiment configurations.

Three standard spatial layouts are provided, all isolated from the
outside (zero row sums) and sharing the parameter set beta = phi = 1,
A = c = 0.5:

* ``example1`` - two players with one common boundary;
* ``example3`` - three players in a chain (player 2 borders 1 and 3);
* ``example4`` - four players, player 2 bordering everyone, players 3
  and 4 symmetric.

The discount rate, state/control bounds and initial state are not part
of the layouts; the defaults below keep the equilibrium stocks well
inside the state box and the equilibrium feedback positive across it,
so the closed-form benchmark stays applicable on the whole grid.
"""

from __future__ import annotations

import numpy as np

from .game import GameSpec

PRESET_NAMES = ("example1", "example3", "example4")

_K1 = [[-1.0, 1.0], [1.0, -1.0]]
_K3 = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
_K4 = [
    [-1.0, 1.0, 0.0, 0.0],
    [1.0, -3.0, 1.0, 1.0],
    [0.0, 1.0, -2.0, 1.0],
    [0.0, 1.0, 1.0, -2.0],
]

_COMMON = dict(beta=1.0, phi=1.0, A=0.5, c=0.5, rho=0.1, h=1e-3,
               P_max=0.7, U_max=0.5, tol=1e-6)

_PRESET_TABLE = {
    "example1": dict(J=2, K=_K1, Np=8),
    "example3": dict(J=3, K=_K3, Np=3),
    "example4": dict(J=4, K=_K4, Np=3),
}


def preset_spec(name: str, **overrides) -> GameSpec:
    """GameSpec for a named preset, with keyword overrides applied.

    Overrides use GameSpec field names (e.g. ``Np=4``, ``h=1e-2``).
    """
    if name not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    params = dict(_COMMON)
    params.update(_PRESET_TABLE[name])
    params.update(overrides)
    return GameSpec(**params)


def spec_to_dict(spec: GameSpec) -> dict:
    """JSON-ready dictionary of every GameSpec field; ``GameSpec(**data)`` rebuilds the spec."""
    return {
        "J": spec.J,
        "K": np.asarray(spec.K).tolist(),
        "beta": spec.beta.tolist(),
        "phi": spec.phi.tolist(),
        "A": spec.A.tolist(),
        "c": spec.c.tolist(),
        "m": spec.m.tolist(),
        "rho": spec.rho,
        "h": spec.h,
        "P_max": spec.P_max,
        "U_max": spec.U_max,
        "Np": spec.Np.tolist(),
        "tol": spec.tol,
        "max_iters": spec.max_iters,
    }
