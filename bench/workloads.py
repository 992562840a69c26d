"""Seeded inputs of the benchmark workloads.

Every workload fixes its solver inputs: a random draw of model parameters
can move a solve's cost by an order of magnitude (one draw of example1's
A and phi turned 406 scan-fallback rows into 83,594), which would swamp
any code change.  The seed therefore draws only the start states of the
closed-loop rollouts.  README.md explains why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEP = 1e-2           # Euler step of every solve: thousands of sweeps, not 20-30k
ROLLOUTS = 16
ROLLOUT_STEPS = 2000


@dataclass(frozen=True)
class Workload:
    """Fixed description of one workload."""

    preset: str
    J: int
    solves: tuple[dict, ...]       # preset_spec overrides, one dict per solve
    pair: tuple[int, int]          # players whose exchange is a symmetry of the game
    error_ladder: bool = False     # policy error must fall strictly over the solves


WORKLOADS = {
    "ex1-degrees": Workload(
        preset="example1", J=2,
        solves=tuple(dict(Np=d, Nu=d, tol=1e-6) for d in (2, 4, 8)),
        pair=(0, 1), error_ladder=True,
    ),
    "ex4-players": Workload(
        preset="example4", J=4, solves=(dict(tol=1e-5),), pair=(2, 3),
    ),
    "ex1-bound": Workload(
        preset="example1", J=2,
        solves=(dict(Np=8, Nu=8, P_max=1.2, tol=1e-5),), pair=(0, 1),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run hands to chebnash."""

    workload: str
    preset: str
    solves: tuple[dict, ...]       # full preset_spec overrides, step included
    starts: np.ndarray             # (ROLLOUTS, J) rollout start states as fractions of P_max
    rollout_steps: int
    pair: tuple[int, int]
    error_ladder: bool


def make_inputs(workload: str, seed: int) -> Inputs:
    """Inputs of `workload` for `seed`; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    return Inputs(
        workload=workload,
        preset=w.preset,
        solves=tuple(dict(o, h=STEP) for o in w.solves),
        starts=rng.uniform(0.0, 1.0, size=(ROLLOUTS, w.J)),
        rollout_steps=ROLLOUT_STEPS,
        pair=w.pair,
        error_ladder=w.error_ladder,
    )
