import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rirl.config import substream
from rirl.dataio import DagSpec, NodeDef, Scaler, synth_generate
from rirl.errors import ConfigError, ShapeError, TrainingError
from rirl.nn import grad_check
from rirl.noderepr import (FEATURE_LEN, NodeAutoencoder, decode_node,
                           featurize, featurize_series,
                           scaled_attrs_from_features, train_node_autoencoder)


def tiny_ae(name="N", dim=3, seed=21):
    rng = substream(seed, "test-ae", name)
    return NodeAutoencoder(name, dim, latent_dim=4, num_keys=1, hidden=16,
                           rng=rng)


# ------------------------------------------------------------ features

def test_featurize_tiles_attributes_and_one_hots_the_month():
    feat = featurize(np.array([1.0, 2.0]), month=3)
    assert feat.shape == (FEATURE_LEN,)
    # two attributes tile the twelve slots alternately
    np.testing.assert_array_equal(feat[:12], [1, 2] * 6)
    onehot = feat[12:]
    assert onehot[2] == 1.0 and onehot.sum() == 1.0


def test_featurize_applies_the_scaler():
    scaler = Scaler(mean=np.array([1.0]), std=np.array([2.0]))
    feat = featurize(np.array([5.0]), month=1, scaler=scaler)
    np.testing.assert_array_equal(feat[:12], np.full(12, 2.0))


def test_featurize_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        featurize(np.zeros((2, 2)), month=1)
    with pytest.raises(ConfigError, match="month"):
        featurize(np.zeros(2), month=0)
    with pytest.raises(ConfigError, match="month"):
        featurize(np.zeros(2), month=13)
    with pytest.raises(ConfigError, match="dimension"):
        featurize(np.zeros(13), month=1)
    # a batch needs one month per row, each in 1..12
    with pytest.raises(ShapeError):
        featurize(np.zeros((3, 2)), month=[1, 2])
    with pytest.raises(ConfigError, match="month"):
        featurize(np.zeros((2, 2)), month=[1, 13])


@given(st.data())
def test_featurize_tiles_every_dimension_exactly(data):
    d = data.draw(st.integers(1, 12))
    month = data.draw(st.integers(1, 12))
    attrs = np.asarray(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=d, max_size=d)))
    feat = featurize(attrs, month)
    np.testing.assert_array_equal(feat[:12], attrs[np.arange(12) % d])
    np.testing.assert_array_equal(feat[12:], np.eye(12)[month - 1])


def test_featurize_series_matches_per_row_calls(chain_dataset):
    series = chain_dataset["A"]
    feats = featurize_series(series)
    rows = np.stack([featurize(series.values[t], series.months[t], series.scaler)
                     for t in range(series.steps)])
    np.testing.assert_array_equal(feats, rows)
    np.testing.assert_array_equal(
        feats, featurize(series.values, series.months, series.scaler))


def test_scaled_attrs_inverts_the_tiling():
    feat = featurize(np.array([0.25, -1.5, 3.0]), month=7)
    np.testing.assert_allclose(scaled_attrs_from_features(feat, 3),
                               [0.25, -1.5, 3.0], rtol=0, atol=1e-15)


# ------------------------------------------------------- encode/decode

def test_encode_decode_shapes_and_width_guards():
    model = tiny_ae()
    feat = featurize(np.array([0.1, 0.2, 0.3]), month=5)
    z = model.encode(feat, cache=False)
    assert z.shape == (4,)
    values, mask_prob = decode_node(model, z)
    assert values.shape == (3,) and mask_prob.shape == (3,)
    batch_z = model.encode(np.stack([feat, feat]), cache=False)
    assert batch_z.shape == (2, 4)
    # batched and single matmuls take different BLAS paths, agree to an ulp
    np.testing.assert_allclose(batch_z[0], z, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError, match="input width"):
        model.encode(feat[:-1], cache=False)
    with pytest.raises(ShapeError, match="latent width"):
        decode_node(model, z[:-1])


def test_decode_node_gates_values_by_mask_probability():
    model = tiny_ae()
    z = model.encode(featurize(np.array([1.0, -1.0, 0.5]), month=2), cache=False)
    values, mask_prob = decode_node(model, z)
    gated = mask_prob <= 0.5
    assert np.all(values[gated] == 0.0)


def test_decode_node_applies_stored_scaler():
    model = tiny_ae(dim=1)
    model.scaler = Scaler(mean=np.array([100.0]), std=np.array([1.0]))
    z = model.encode(featurize(np.array([0.0]), month=1, scaler=None), cache=False)
    values, mask_prob = decode_node(model, z)
    # any surviving value sits in the scaler's range, not near zero
    if mask_prob[0] > 0.5:
        assert abs(values[0] - 100.0) < 10.0


def test_autoencoder_gradients_check_out_at_small_width():
    model = tiny_ae()
    rng = substream(3, "test-ae-grad")
    vals = rng.normal(size=(6, 3))
    feats = np.stack([featurize(v, m) for v, m in
                      zip(vals, rng.integers(1, 13, size=6))])
    target_mask = (np.abs(vals) > 0.4).astype(float)

    def loss_fn(m, inp):
        report, grads = m.loss_and_grads(inp, target_mask, lambda_mask=1.0)
        return report.total, grads

    assert grad_check(model, loss_fn, feats, eps=1e-5) <= 1e-4


def test_key_seed_depends_on_node_name_not_construction_order():
    one = NodeAutoencoder("A", 2, latent_dim=4, num_keys=1, hidden=8)
    two = NodeAutoencoder("A", 2, latent_dim=4, num_keys=1, hidden=8)
    other = NodeAutoencoder("B", 2, latent_dim=4, num_keys=1, hidden=8)
    assert one.key_seed == two.key_seed != other.key_seed
    for ka, kb in zip(one.keys, two.keys):
        np.testing.assert_array_equal(ka.a_s, kb.a_s)
        np.testing.assert_array_equal(ka.g_s, kb.g_s)


# ------------------------------------------------------------ training

def test_training_rejects_degenerate_series(chain_dataset, tiny_config):
    short = chain_dataset["A"]
    clipped = type(short)(name="A", values=short.values[:80],
                          mask=short.mask[:80], months=short.months[:80],
                          dates=short.dates[:80], scaler=short.scaler)
    cfg = tiny_config
    with pytest.raises(TrainingError, match="100 steps"):
        train_node_autoencoder(clipped, cfg)
    dead = type(short)(name="A", values=np.zeros_like(short.values),
                       mask=np.zeros_like(short.mask), months=short.months,
                       dates=short.dates, scaler=None)
    with pytest.raises(TrainingError, match="degenerate"):
        train_node_autoencoder(dead, cfg)


def test_training_improves_loss_and_reports_metrics(chain_dataset, tiny_config):
    cfg = tiny_config.override(epochs=6)
    model, metrics = train_node_autoencoder(chain_dataset["A"], cfg)
    assert metrics["node"] == "A"
    for key in ("rmse_scaled", "rmse_unscaled", "mask_bce", "nse"):
        assert np.isfinite(metrics[key])
    history = metrics["loss_history"]
    assert len(history) == 6
    assert history[-1] < history[0]
    assert model.scaler is not None


def test_training_is_deterministic(chain_dataset, tiny_config):
    cfg = tiny_config
    m1, r1 = train_node_autoencoder(chain_dataset["B"], cfg)
    m2, r2 = train_node_autoencoder(chain_dataset["B"], cfg)
    assert r1 == r2
    np.testing.assert_array_equal(m1.enc1.W, m2.enc1.W)
    np.testing.assert_array_equal(m1.mask_head.b, m2.mask_head.b)
