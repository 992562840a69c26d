"""Property tests: the sweep maximiser and the GameSpec dictionary round trip."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from chebnash.cheb1d import clenshaw  # noqa: E402
from chebnash.game import GameSpec  # noqa: E402
from chebnash.presets import spec_to_dict  # noqa: E402
from chebnash.solver import _maximise_block  # noqa: E402

GRID = np.linspace(-1.0, 1.0, 2001)
coefficient = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 9).flatmap(lambda L: arrays(float, (3, L), elements=coefficient)))
def test_maximiser_never_below_a_grid_point(coef):
    x, f = _maximise_block(coef)
    assert np.all(np.abs(x) <= 1.0)
    for row, fr in zip(coef, f):
        slack = 1e-12 * (1.0 + np.abs(row).sum())
        assert fr >= clenshaw(row, GRID).max() - slack


positive = st.floats(0.01, 10.0)


@st.composite
def game_specs(draw):
    J = draw(st.integers(2, 4))
    off = draw(arrays(float, (J, J), elements=st.floats(0.0, 5.0)))
    K = off - np.diag(np.diag(off)) - np.diag(draw(arrays(float, J, elements=positive)))
    rho = draw(positive)
    A = draw(arrays(float, J, elements=positive))
    return GameSpec(
        J=J, K=K,
        beta=draw(arrays(float, J, elements=positive)),
        phi=draw(arrays(float, J, elements=st.floats(0.0, 10.0))),
        A=A,
        c=draw(arrays(float, J, elements=st.floats(0.0, 10.0))),
        m=draw(arrays(float, J, elements=positive)),
        rho=rho,
        h=draw(st.floats(1e-4, 0.99)) / rho,
        P_max=draw(positive),
        U_max=float(A.max()) * draw(st.floats(1.0, 3.0)),
        Np=draw(st.lists(st.integers(1, 8), min_size=J, max_size=J)),
        tol=draw(st.floats(1e-12, 1.0)),
        max_iters=draw(st.integers(1, 10**6)),
    )


@settings(max_examples=100, deadline=None)
@given(game_specs())
def test_spec_dictionary_round_trips_through_json(spec):
    data = spec_to_dict(spec)
    back = GameSpec(**json.loads(json.dumps(data)))
    assert spec_to_dict(back) == data
    for name in ("K", "beta", "phi", "A", "c", "m", "Np", "Nu"):
        np.testing.assert_array_equal(getattr(back, name), getattr(spec, name))
    assert (back.J, back.rho, back.h, back.P_max, back.U_max, back.tol, back.max_iters) == (
        spec.J, spec.rho, spec.h, spec.P_max, spec.U_max, spec.tol, spec.max_iters)
