"""The package's public names; the test fails whenever one is added or removed."""

import types

import chebnash

PUBLIC = {
    # 1-D and tensor-product Chebyshev interpolation
    "ChebBasis1D", "make_basis", "to_reference", "CoefTensor", "basis_matrix",
    "tensor_coeffs", "eval_full",
    # the game
    "GameSpec", "StateGrid", "build_state_grid", "dynamics", "discounted_payoff",
    "preset_spec", "spec_to_dict",
    # the solver and its results
    "solve", "fit_policy", "simulate", "EquilibriumResult",
    "ValueField", "PolicyField", "TimePath",
    # the LQ oracle
    "LQFeedback", "lq_solve", "policy_error",
}


def test_all_lists_exactly_the_public_names():
    exported = {
        name for name, value in vars(chebnash).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(chebnash.__all__) == len(set(chebnash.__all__))
    assert set(chebnash.__all__) == exported == PUBLIC
