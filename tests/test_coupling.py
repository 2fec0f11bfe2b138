import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirl.coupling import (Key, S_GAIN_BOUND, eta, eta_inv, expand,
                           expand_batch, make_keys, reduce, reduce_backward,
                           s_fn, t_fn)
from rirl.errors import ConfigError, ShapeError

HAND_KEY = Key(key_id=0, seed=0, a_s=0.5, g_s=1.5, a_t=-0.7, g_t=0.9)

finite_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2,
    max_size=24).map(lambda v: np.asarray(v, dtype=float))


def test_eta_matches_hand_arithmetic():
    x_i, x_j = 0.8, 2.0
    expected = x_j * math.exp(1.5 * math.tanh(0.5 * x_i)) \
        + 0.9 * math.tanh(-0.7 * x_i)
    got = eta(x_i, x_j, HAND_KEY)
    assert got == pytest.approx(expected, abs=0.0)
    assert got == pytest.approx(3.0790836785353672, abs=1e-15)


def test_s_and_t_are_bounded_by_their_gains():
    x = np.linspace(-50, 50, 1001)
    assert np.all(np.abs(s_fn(x, HAND_KEY)) <= abs(HAND_KEY.g_s))
    assert np.all(np.abs(t_fn(x, HAND_KEY)) <= abs(HAND_KEY.g_t))


@given(x_i=st.floats(-100, 100), x_j=st.floats(-100, 100))
def test_eta_inv_inverts_eta_pointwise(x_i, x_j):
    y_j = eta(x_i, x_j, HAND_KEY)
    back = eta_inv(x_i, y_j, HAND_KEY)
    assert abs(back - x_j) <= 1e-12 * max(1.0, abs(x_j))


def test_make_keys_deterministic_and_bounded():
    keys = make_keys(123, 50)
    again = make_keys(123, 50)
    assert keys == again
    assert [k.key_id for k in keys] == list(range(50))
    g_s = np.array([k.g_s for k in keys])
    assert np.all(np.abs(g_s) <= S_GAIN_BOUND)
    # the outer gain is rescaled to fill the bound, not clipped at 1
    assert np.abs(g_s).max() > 1.5
    assert make_keys(124, 50) != keys
    with pytest.raises(ConfigError):
        make_keys(1, 0)


def test_expansion_counts():
    keys = make_keys(5, 1)
    x = np.arange(24, dtype=float)
    assert expand(x, keys).shape == (576,)
    assert expand(x, make_keys(5, 4)).shape == (2304,)
    assert expand_batch(np.tile(x, (3, 1)), keys).shape == (3, 576)


def test_expansion_grid_layout():
    keys = make_keys(9, 2)
    x = np.linspace(-1.0, 2.0, 5)
    grids = expand(x, keys).reshape(2, 5, 5)
    for k, key in enumerate(keys):
        for i in range(5):
            for j in range(5):
                want = x[i] if i == j else eta(x[i], x[j], key)
                assert grids[k, i, j] == pytest.approx(want, abs=1e-15)


def test_expand_rejects_bad_shapes():
    keys = make_keys(1, 1)
    with pytest.raises(ShapeError):
        expand_batch(np.zeros((2, 2, 2)), keys)
    with pytest.raises(ShapeError):
        expand(np.zeros(1), keys)
    with pytest.raises(ShapeError):
        reduce(np.zeros(577), keys)
    with pytest.raises(ShapeError):
        reduce(np.zeros((2, 10)), keys)  # 10 is not a square grid
    with pytest.raises(ConfigError):
        reduce(np.zeros(576), [])


@settings(max_examples=60)
@given(x=finite_vectors, seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 4))
def test_roundtrip_recovers_input(x, seed, count):
    keys = make_keys(seed, count)
    back = reduce(expand(x, keys), keys)
    # relative for O(1)-and-larger entries, absolute floor below that:
    # the additive shift t(x_i) cancels in the inverse, leaving float64
    # noise that a pure relative bound near zero cannot absorb
    assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))


def test_roundtrip_batch_matches_per_row():
    rng = np.random.default_rng(3)
    keys = make_keys(17, 3)
    X = rng.normal(size=(8, 24))
    batch = reduce(expand_batch(X, keys), keys)
    rows = np.stack([reduce(expand(row, keys), keys) for row in X])
    np.testing.assert_array_equal(batch, rows)


def test_reduce_averaging_beats_single_under_noise():
    rng = np.random.default_rng(4)
    keys = make_keys(21, 4)
    x = rng.normal(size=16)
    e = expand(x, keys) + rng.normal(0.0, 1e-3, size=4 * 256)
    err_mean = np.abs(reduce(e, keys) - x).mean()
    # one estimate per coordinate: key 0, conditioner row 0 (row 1 for
    # column 0), no averaging
    key = min(keys, key=lambda k: k.key_id)
    g = e[:256].reshape(16, 16)
    single = np.empty(16)
    single[1:] = eta_inv(g[0, 0], g[0, 1:], key)
    single[0] = eta_inv(g[1, 1], g[1, 0], key)
    err_single = np.abs(single - x).mean()
    assert err_mean < err_single


def test_reduce_backward_matches_central_differences():
    rng = np.random.default_rng(8)
    keys = make_keys(31, 2)
    L0 = 5
    x = rng.normal(size=L0)
    e = expand(x, keys)
    w = rng.normal(size=L0)

    def loss(vec):
        return float(w @ reduce(vec, keys))

    analytic = reduce_backward(w, e, keys)
    eps = 1e-6
    for idx in rng.choice(e.size, size=40, replace=False):
        probe = e.copy()
        probe[idx] += eps
        hi = loss(probe)
        probe[idx] -= 2 * eps
        lo = loss(probe)
        cd = (hi - lo) / (2 * eps)
        assert abs(analytic[idx] - cd) <= 1e-6 * max(1.0, abs(cd))


def test_reduce_backward_shape_guard():
    keys = make_keys(1, 1)
    e = expand(np.arange(4.0), keys)
    with pytest.raises(ShapeError):
        reduce_backward(np.zeros(5), e, keys)
