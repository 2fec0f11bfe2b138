import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rirl.errors import EstimationError, ShapeError
from rirl.stats import (GaussianStats, VAR_FLOOR, _mean_var, gaussian_kld,
                        gaussian_kld_from_batches, gaussian_stats,
                        kld_batch_grad)


def test_gaussian_stats_mean_var_and_floor():
    batch = np.array([[1.0, 5.0], [3.0, 5.0]])
    stats = gaussian_stats(batch)
    np.testing.assert_array_equal(stats.mean, [2.0, 5.0])
    # population variance, and the constant column lands on the floor
    np.testing.assert_array_equal(stats.var, [1.0, VAR_FLOOR])


@given(st.integers(2, 200), st.integers(1, 32), st.integers(0, 2**32 - 1),
       st.floats(-1e3, 1e3), st.floats(1e-4, 1e3))
def test_mean_var_equals_numpy_bit_for_bit(n, d, seed, loc, scale):
    arr = np.random.default_rng(seed).normal(loc, scale, size=(n, d))
    mean, centred, var = _mean_var(arr)
    assert np.array_equal(mean, arr.mean(axis=0))
    assert np.array_equal(centred, arr - arr.mean(axis=0))
    assert np.array_equal(var, arr.var(axis=0))


def test_gaussian_stats_rejects_bad_batches():
    with pytest.raises(ShapeError):
        gaussian_stats(np.zeros(4))
    with pytest.raises(ShapeError):
        gaussian_stats(np.zeros((2, 2, 2)))
    with pytest.raises(EstimationError):
        gaussian_stats(np.zeros((1, 3)))


def test_kld_of_identical_stats_is_zero():
    stats = GaussianStats(mean=np.array([0.3, -1.2]), var=np.array([0.7, 2.0]))
    assert gaussian_kld(stats, stats) == 0.0


def test_kld_unit_mean_shift_is_half_per_dimension():
    # KL(N(0,1) || N(1,1)) = 1/2 exactly, summed over three dimensions
    p = GaussianStats(mean=np.zeros(3), var=np.ones(3))
    q = GaussianStats(mean=np.ones(3), var=np.ones(3))
    assert gaussian_kld(p, q) == 1.5


def test_kld_dimension_mismatch():
    p = GaussianStats(mean=np.zeros(2), var=np.ones(2))
    q = GaussianStats(mean=np.zeros(3), var=np.ones(3))
    with pytest.raises(ShapeError):
        gaussian_kld(p, q)


def test_kld_hand_value_single_dimension():
    p = GaussianStats(mean=np.array([1.0]), var=np.array([2.0]))
    q = GaussianStats(mean=np.array([0.0]), var=np.array([0.5]))
    want = 0.5 * (np.log(0.5 / 2.0) + (2.0 + 1.0) / 0.5 - 1.0)
    assert gaussian_kld(p, q) == pytest.approx(want, rel=0, abs=1e-15)


@given(st.data())
def test_kld_is_nonnegative(data):
    dim = data.draw(st.integers(1, 6))
    finite = st.floats(-50, 50, allow_nan=False)
    pos = st.floats(1e-3, 50, allow_nan=False)
    vecs = st.lists(finite, min_size=dim, max_size=dim).map(np.asarray)
    vars_ = st.lists(pos, min_size=dim, max_size=dim).map(np.asarray)
    p = GaussianStats(mean=data.draw(vecs), var=data.draw(vars_))
    q = GaussianStats(mean=data.draw(vecs), var=data.draw(vars_))
    assert gaussian_kld(p, q) >= -1e-12


def test_from_batches_matches_two_step_call():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 5))
    b = rng.normal(loc=0.4, size=(60, 5))
    direct = gaussian_kld_from_batches(a, b)
    two_step = gaussian_kld(gaussian_stats(a), gaussian_stats(b))
    assert direct == two_step
    assert np.isfinite(direct) and direct > 0


def test_kld_batch_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(12, 4))
    q = GaussianStats(mean=rng.normal(size=4), var=rng.uniform(0.5, 2.0, size=4))
    value, grad = kld_batch_grad(batch, q)
    assert value == gaussian_kld(gaussian_stats(batch), q)
    eps = 1e-6
    for i, j in [(0, 0), (3, 2), (11, 3), (7, 1)]:
        probe = batch.copy()
        probe[i, j] += eps
        up = gaussian_kld(gaussian_stats(probe), q)
        probe[i, j] -= 2 * eps
        down = gaussian_kld(gaussian_stats(probe), q)
        central = (up - down) / (2 * eps)
        assert grad[i, j] == pytest.approx(central, rel=1e-6, abs=1e-9)


def test_kld_batch_grad_is_flat_below_variance_floor():
    # a nearly constant column sits on the floor: its variance gradient
    # must vanish, only the mean term survives
    base = np.full((6, 1), 2.0)
    base[0, 0] += 1e-9
    q = GaussianStats(mean=np.array([0.0]), var=np.array([1.0]))
    _, grad = kld_batch_grad(base, q)
    mean_term = (base.mean(axis=0) - q.mean) / q.var / base.shape[0]
    np.testing.assert_allclose(grad, np.broadcast_to(mean_term, grad.shape),
                               rtol=0, atol=1e-15)


def test_kld_batch_grad_rejects_small_batches():
    q = GaussianStats(mean=np.zeros(2), var=np.ones(2))
    with pytest.raises(EstimationError):
        kld_batch_grad(np.zeros((1, 2)), q)
    with pytest.raises(EstimationError):
        kld_batch_grad(np.zeros(5), q)
