"""Tensorized Chebyshev collocation solver for discrete-space pollution games.

The package computes Markov-perfect (feedback) Nash equilibria of a
J-player linear-quadratic pollution game by safeguarded policy iteration
on a tensor-product Chebyshev collocation grid.  Each sweep evaluates the
affine drift in closed form and every player's value interpolant at all
successor states of all nodes in one batched contraction, and maximises
each player's exact objective in its own control: a polynomial fit,
exact on the interval where the own successor stays in the state box,
against the best point of the clamped rest.  Between sweeps the current
joint policy is evaluated exactly: one dense LU of the matrix all
players share, with one right-hand side per player.  The iteration starts from the
equilibrium of the unconstrained linear-quadratic game, computed exactly
in coefficient space; where its feedback stays inside the control box it
also serves as an exact oracle.
"""

from .cheb1d import ChebBasis1D, make_basis, to_reference
from .chebnd import (
    CoefTensor,
    basis_matrix,
    eval_full,
    tensor_coeffs,
)
from .game import (
    GameSpec,
    StateGrid,
    build_state_grid,
    discounted_payoff,
    dynamics,
)
from .oracle import LQFeedback, lq_solve, policy_error
from .presets import preset_spec, spec_to_dict
from .solver import (
    EquilibriumResult,
    PolicyField,
    TimePath,
    ValueField,
    fit_policy,
    simulate,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ChebBasis1D",
    "CoefTensor",
    "EquilibriumResult",
    "GameSpec",
    "LQFeedback",
    "PolicyField",
    "StateGrid",
    "TimePath",
    "ValueField",
    "basis_matrix",
    "build_state_grid",
    "discounted_payoff",
    "dynamics",
    "eval_full",
    "fit_policy",
    "lq_solve",
    "make_basis",
    "policy_error",
    "preset_spec",
    "simulate",
    "solve",
    "spec_to_dict",
    "tensor_coeffs",
    "to_reference",
]
