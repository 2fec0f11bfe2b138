import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rirl.errors import ConfigError, ShapeError, TrainingError
from rirl.nn import (ACTIVATIONS, Adam, DenseLayer, LossReport,
                     OptimizerState, PROB_CLAMP, adam_step, bce_grad,
                     bce_loss, clamp_prob, grad_check, mse_grad, mse_loss)
from rirl.relation import RelationModel


def small_mlp(seed=5):
    """6 -> 8 tanh -> 3 identity."""
    return RelationModel(("x",), "y", window_n=1, latent_dim=3, hidden=8,
                         rng=np.random.default_rng(seed), in_dim=6)


def test_dense_forward_matches_hand_matmul():
    layer = DenseLayer(2, 2, "tanh", name="t")
    layer.W = np.array([[1.0, -0.5], [0.25, 2.0]])
    layer.b = np.array([0.1, -0.2])
    x = np.array([0.3, 0.7])
    want = np.tanh(layer.W @ x + layer.b)
    np.testing.assert_allclose(layer.forward(x), want, rtol=0, atol=0)
    # batch promotion keeps rows independent
    batch = layer.forward(np.stack([x, 2 * x]))
    np.testing.assert_allclose(batch[0], want, rtol=0, atol=0)


def test_dense_rejects_wrong_width_and_unknown_activation():
    layer = DenseLayer(3, 2, name="w")
    with pytest.raises(ShapeError):
        layer.forward(np.zeros(4))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 2, 3)))
    with pytest.raises(ConfigError):
        DenseLayer(2, 2, activation="softmax")
    with pytest.raises(ShapeError):
        DenseLayer(2, 2, name="fresh").backward(np.zeros(2))


def test_backward_accumulates_until_zeroed():
    rng = np.random.default_rng(0)
    layer = DenseLayer(4, 2, "identity", rng, name="acc")
    x = rng.normal(size=(3, 4))
    layer.forward(x)
    layer.backward(np.ones((3, 2)))
    once = layer.gW.copy()
    layer.forward(x)
    layer.backward(np.ones((3, 2)))
    np.testing.assert_allclose(layer.gW, 2 * once, rtol=0, atol=1e-15)
    layer.zero_grads()
    assert not layer.gW.any() and not layer.gb.any()


def test_grad_check_passes_on_mlp_with_mse():
    model = small_mlp()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 3))

    def loss_fn(m, inp):
        m.zero_grads()
        out = m.forward(inp, cache=True)
        m.backward(mse_grad(out, target))
        return mse_loss(out, target), m.gradients()

    assert grad_check(model, loss_fn, x) <= 1e-6


def test_grad_check_flags_a_wrong_backward():
    model = small_mlp()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 3))

    def broken_loss_fn(m, inp):
        m.zero_grads()
        out = m.forward(inp, cache=True)
        m.backward(mse_grad(out, target))
        grads = [g * 1.02 for g in m.gradients()]
        return mse_loss(out, target), grads

    assert grad_check(model, broken_loss_fn, x) > 1e-3


def test_adam_first_step_moves_by_lr_over_one_plus_eps():
    p = np.array([1.0])
    state = OptimizerState([p], lr=1e-3)
    adam_step([p], [np.array([1.0])], state)
    assert p[0] == pytest.approx(1.0 - 1e-3 * (1.0 / (1.0 + 1e-8)), abs=0.0)


def test_adam_two_steps_match_scalar_unroll():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p_ref, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        g = 0.5
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    p = np.array([1.0])
    state = OptimizerState([p], lr=lr)
    for _ in range(2):
        adam_step([p], [np.array([0.5])], state)
    assert p[0] == pytest.approx(p_ref, abs=1e-16)


def test_adam_rejects_nonfinite_gradient_by_name():
    p = np.zeros(2)
    adam = Adam([("w", p)])
    with pytest.raises(TrainingError, match="w"):
        adam.step([np.array([1.0, np.nan])])


def test_adam_snapshot_restore_roundtrip():
    rng = np.random.default_rng(6)
    p = rng.normal(size=(3, 3))
    adam = Adam([("p", p)], lr=0.05)
    adam.step([rng.normal(size=(3, 3))])
    snap = adam.snapshot()
    before = p.copy()
    t_before = adam.state.t
    adam.step([rng.normal(size=(3, 3))])
    assert not np.array_equal(p, before)
    adam.restore(snap)
    np.testing.assert_array_equal(p, before)
    assert adam.state.t == t_before


def test_adam_step_length_mismatch():
    p = np.zeros(2)
    state = OptimizerState([p])
    with pytest.raises(ShapeError):
        adam_step([p], [], state)


def test_bce_clamp_keeps_confident_mistake_finite():
    assert bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(
        -math.log(PROB_CLAMP), abs=1e-12)
    assert bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(
        16.11809565095832, abs=1e-10)
    # gradient is zeroed exactly where the clamp is active
    g = bce_grad(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0]))
    assert g[0] == 0.0 and g[2] == 0.0 and g[1] != 0.0


def test_bce_matches_hand_value_inside_clamp():
    p, b = 0.8, 1.0
    assert bce_loss(np.array([p]), np.array([b])) == pytest.approx(
        -math.log(p), abs=1e-15)
    eps = 1e-7
    num = (bce_loss(np.array([p + eps]), np.array([b]))
           - bce_loss(np.array([p - eps]), np.array([b]))) / (2 * eps)
    assert bce_grad(np.array([p]), np.array([b]))[0] == pytest.approx(num, rel=1e-6)


def test_mse_and_bce_shape_guards():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        mse_grad(np.zeros((1, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        bce_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        bce_grad(np.zeros(2), np.zeros(3))


def test_mse_grad_is_gradient_of_mse():
    rng = np.random.default_rng(9)
    pred = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 3))
    g = mse_grad(pred, target)
    eps = 1e-6
    probe = pred.copy()
    probe[1, 2] += eps
    hi = mse_loss(probe, target)
    probe[1, 2] -= 2 * eps
    lo = mse_loss(probe, target)
    assert g[1, 2] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6)


def test_loss_report_total_arithmetic():
    rep = LossReport.build(1.0, 2.0, 3.0, lambda_mask=0.5, lambda_kld=0.1)
    assert rep.total == pytest.approx(1.0 + 0.5 * 2.0 + 0.1 * 3.0, abs=0.0)


@given(z=st.lists(st.floats(-700, 700, allow_nan=False), min_size=1,
                  max_size=16).map(np.asarray))
def test_activations_stay_finite_and_in_range(z):
    for name in ACTIVATIONS:
        layer = DenseLayer(z.size, z.size, name)
        layer.W = np.eye(z.size)
        out = layer.forward(z, cache=False)
        assert np.all(np.isfinite(out))
        if name == "sigmoid":
            # saturates to exactly 0.0 / 1.0 in float64 for |z| beyond ~37;
            # the closed interval is the real contract, the bce clamp does
            # the rest
            assert np.all((out >= 0) & (out <= 1))
        if name == "tanh":
            assert np.all(np.abs(out) <= 1)


@given(p=st.lists(st.floats(-2, 3, allow_nan=False), min_size=1,
                  max_size=8).map(np.asarray))
def test_clamp_prob_range(p):
    c = clamp_prob(p)
    assert np.all((c >= PROB_CLAMP) & (c <= 1 - PROB_CLAMP))
