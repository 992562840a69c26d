"""Unit tests for the game model: spec validation, dynamics, payoffs."""

import re

import numpy as np
import pytest

from chebnash.game import (
    GameSpec,
    _euler_step,
    _stage_gain,
    build_state_grid,
    discounted_payoff,
    dynamics,
)
from chebnash.presets import preset_spec, spec_to_dict


def example1(**kw):
    return preset_spec("example1", **kw)


# ---------------------------------------------------------------------------
# GameSpec validation
# ---------------------------------------------------------------------------

def test_delta_in_unit_interval():
    spec = example1()
    assert 0.0 < spec.delta < 1.0


def test_rejects_h_at_least_one_over_rho():
    with pytest.raises(ValueError):
        example1(rho=2.0, h=0.5)


def test_rejects_small_control_bound():
    with pytest.raises(ValueError):
        example1(U_max=0.25)   # below A = 0.5


def test_rejects_negative_offdiagonal_coupling():
    with pytest.raises(ValueError):
        GameSpec(J=2, K=[[1.0, -1.0], [-1.0, 1.0]], beta=1, phi=1, A=0.5,
                 c=0.5, rho=0.1, h=1e-3, P_max=1.0, U_max=1.0, Np=2, tol=1e-6)


def test_rejects_single_player():
    with pytest.raises(ValueError):
        GameSpec(J=1, K=[[0.0]], beta=1, phi=1, A=0.5, c=0.5, rho=0.1,
                 h=1e-3, P_max=1.0, U_max=1.0, Np=2, tol=1e-6)


def test_scalar_parameters_broadcast():
    spec = example1()
    assert spec.beta.shape == (2,) and spec.m.shape == (2,)
    np.testing.assert_array_equal(spec.m, [1.0, 1.0])


@pytest.mark.parametrize("field, value", [
    ("Np", 2.7), ("Nu", 3.9), ("Nu", [2, 3.5]), ("max_iters", 2.5),
    ("Np", True), ("max_iters", True), ("J", True), ("Np", "3"),
])
def test_rejects_non_integral_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be integral"):
        example1(**{field: value})


def test_integral_sizes_of_any_integer_type_accepted():
    spec = example1(Np=np.int64(3), Nu=3.0, max_iters=np.uint16(40))
    np.testing.assert_array_equal(spec.Np, [3, 3])
    np.testing.assert_array_equal(spec.Nu, [3, 3])
    assert spec.max_iters == 40 and type(spec.max_iters) is int


@pytest.mark.parametrize("overrides", [
    dict(Np=2), dict(Np=4), dict(Np=8), dict(Np=8, P_max=1.2),
], ids=["Np2", "Np4", "Np8", "Np8-Pmax1.2"])
def test_matching_control_degree_keyword_changes_nothing(overrides):
    # The benchmark's solves still pass Nu = Np.
    spec = example1(**overrides)
    assert spec_to_dict(example1(**overrides, Nu=overrides["Np"])) == spec_to_dict(spec)
    assert "Nu" not in spec_to_dict(spec)
    np.testing.assert_array_equal(spec.Nu, np.maximum(spec.Np, 2))


@pytest.mark.parametrize("preset, overrides, degree", [
    ("example1", dict(Np=4, Nu=5), [4, 4]),
    ("example3", dict(Np=3, Nu=(2, 3, 4)), [3, 3, 3]),
    ("example1", dict(Np=1, Nu=1), [2, 2]),
], ids=["Np4-Nu5", "Np3-Nu234", "Np1-Nu1"])
def test_control_degree_other_than_max_2_np_rejected(preset, overrides, degree):
    with pytest.raises(ValueError, match=re.escape(f"Nu must be max(2, Np) = {degree}")):
        preset_spec(preset, **overrides)


# ---------------------------------------------------------------------------
# state grid
# ---------------------------------------------------------------------------

def test_grid_enumeration_dimension_one_fastest():
    spec = example1(Np=[2, 1])
    grid = build_state_grid(spec)
    assert grid.n_nodes == 6
    n1 = grid.bases[0].nodes
    n2 = grid.bases[1].nodes
    expect = [(n1[i], n2[j]) for j in range(2) for i in range(3)]
    np.testing.assert_allclose(grid.nodes, expect)


def test_grid_nodes_inside_box():
    spec = example1(Np=5)
    grid = build_state_grid(spec)
    assert np.all(grid.nodes >= 0.0) and np.all(grid.nodes <= spec.P_max)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_zero_state_zero_control():
    spec = example1()
    np.testing.assert_allclose(dynamics(spec, [0.0, 0.0], [0.0, 0.0]), [0.0, 0.0])


def test_dynamics_symmetric_stocks_leave_only_decay():
    spec = example1()
    np.testing.assert_allclose(dynamics(spec, [1.0, 1.0], [0.0, 0.0]), [-0.5, -0.5])


def test_dynamics_hand_evaluated_asymmetric_state():
    spec = example1()
    np.testing.assert_allclose(dynamics(spec, [1.0, 0.0], [0.0, 0.0]), [-1.5, 1.0])


def test_dynamics_rejects_negative_control():
    spec = example1()
    with pytest.raises(ValueError):
        dynamics(spec, [0.0, 0.0], [-0.1, 0.0])


def test_dynamics_rejects_non_finite():
    spec = example1()
    with pytest.raises(ValueError):
        dynamics(spec, [np.inf, 0.0], [0.0, 0.0])


def test_dynamics_affine_in_control():
    spec = example1()
    rng = np.random.default_rng(5)
    p = rng.uniform(0, 1, 2)
    u = rng.uniform(0, 1, 2)
    lam = 0.37
    for i in range(2):
        bump = np.zeros(2)
        bump[i] = lam
        diff = dynamics(spec, p, u + bump) - dynamics(spec, p, u)
        expect = np.zeros(2)
        expect[i] = lam * spec.beta[i] / spec.m[i]
        np.testing.assert_allclose(diff, expect, atol=1e-15)


def test_mass_conservation_without_decay_or_emission():
    spec = preset_spec("example3", c=0.0)
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = rng.uniform(0, 1, 3)
        g = dynamics(spec, p, np.zeros(3))
        assert np.sum(spec.m * g) == pytest.approx(0.0, abs=1e-14)


def test_decay_keeps_total_stock_non_increasing():
    spec = example1()
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.uniform(0, spec.P_max, 2)
        nxt = _euler_step(spec, p, np.zeros(2))
        assert np.sum(spec.m * nxt) <= np.sum(spec.m * p) + 1e-15


# ---------------------------------------------------------------------------
# stage payoff
# ---------------------------------------------------------------------------

def test_stage_payoff_zero():
    assert _stage_gain(example1(), 0, 0.0, 0.0) == 0.0


def test_stage_payoff_myopic_optimum():
    assert _stage_gain(example1(), 0, 0.0, 0.5) == pytest.approx(0.125)


def test_stage_payoff_pure_damage():
    assert _stage_gain(example1(), 1, 1.0, 0.0) == pytest.approx(-0.5)


def test_stage_payoff_concave_in_control():
    spec = example1()
    u = np.linspace(0.0, 1.0, 11)
    vals = _stage_gain(spec, 0, 0.3, u)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second < 0)


def test_stage_payoff_non_increasing_in_stock():
    spec = example1()
    p = np.linspace(0.0, 1.0, 11)
    vals = _stage_gain(spec, 0, p, 0.2)
    assert np.all(np.diff(vals) <= 0)


# ---------------------------------------------------------------------------
# Euler step
# ---------------------------------------------------------------------------

def test_step_fixed_point_at_origin():
    spec = example1()
    np.testing.assert_allclose(_euler_step(spec, np.zeros(2), np.zeros(2)), [0.0, 0.0])


def test_step_hand_evaluated():
    spec = example1(h=0.01, P_max=2.0)
    np.testing.assert_allclose(_euler_step(spec, np.ones(2), np.zeros(2)), [0.995, 0.995])


def test_step_clamps_to_box():
    spec = example1(P_max=0.6, U_max=1.0, h=0.01)
    nxt = _euler_step(spec, np.full(2, 0.6), np.ones(2))
    assert np.all(nxt <= spec.P_max)


# ---------------------------------------------------------------------------
# discounted payoff
# ---------------------------------------------------------------------------

def test_zero_path_zero_payoff():
    spec = example1()
    path = np.zeros((11, 2))
    np.testing.assert_allclose(discounted_payoff(spec, path, path, 10), [0.0, 0.0])


def test_constant_myopic_path_approaches_geometric_series():
    spec = example1(h=0.01, rho=1.0, phi=0.0)
    n = 5000
    p = np.zeros((n + 1, 2))
    u = np.full((n + 1, 2), 0.5)
    got = discounted_payoff(spec, p, u, n)
    delta = spec.delta
    bound = spec.h * delta / (1 - delta) * 0.5**2 / 2
    assert np.all(got < bound)
    np.testing.assert_allclose(got, bound, rtol=1e-6)


def test_single_step_payoff():
    spec = example1()
    p = np.array([[0.0, 0.0], [0.2, 0.3]])
    u = np.array([[0.0, 0.0], [0.4, 0.1]])
    got = discounted_payoff(spec, p, u, 1)
    expect = [
        spec.h * spec.delta * (0.4 * (0.5 - 0.2) - 0.5 * 0.2**2),
        spec.h * spec.delta * (0.1 * (0.5 - 0.05) - 0.5 * 0.3**2),
    ]
    np.testing.assert_allclose(got, expect)


def test_horizon_beyond_path_rejected():
    spec = example1()
    path = np.zeros((5, 2))
    with pytest.raises(ValueError):
        discounted_payoff(spec, path, path, 5)
