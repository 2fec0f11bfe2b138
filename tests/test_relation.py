import dataclasses

import numpy as np
import pytest
from conftest import TINY_CONFIG, tiny_chain_spec

from rirl.config import RunConfig, substream
from rirl.dataio import Scaler, synth_generate
from rirl.errors import TrainingError
from rirl.metrics import MetricRow
from rirl.nn import Adam, grad_check, mse_grad, mse_loss
from rirl.noderepr import train_node_autoencoder
from rirl.relation import (MicroCausalModel, RelationModel, micro_causal_nse,
                           train_micro_causal, train_relation_frozen)
from rirl.stats import gaussian_stats, kld_batch_grad


@pytest.fixture(scope="module")
def chain_models(chain_dataset, tiny_config_module):
    return {name: train_node_autoencoder(series, tiny_config_module)[0]
            for name, series in chain_dataset.items()}


@pytest.fixture(scope="module")
def tiny_config_module():
    return RunConfig(**TINY_CONFIG)


@pytest.fixture(scope="module")
def micro_model(chain_dataset, tiny_config_module, chain_models):
    return train_micro_causal(["A"], "B", chain_dataset, tiny_config_module,
                              chain_models)


# ------------------------------------------------------- relation core

def test_relation_model_shapes_and_grad_check():
    rng = substream(1, "rel-test")
    rel = RelationModel(("A",), "B", window_n=3, latent_dim=4, hidden=8, rng=rng)
    x = rng.normal(size=(5, 12))
    out = rel.forward(x, cache=False)
    assert out.shape == (5, 4)

    target = rng.normal(size=(5, 4))

    def loss_fn(m, inp):
        m.zero_grads()
        got = m.forward(inp, cache=True)
        m.backward(mse_grad(got, target))
        return mse_loss(got, target), m.gradients()

    assert grad_check(rel, loss_fn, x) <= 1e-4


def test_relation_model_accepts_explicit_input_width():
    rel = RelationModel(("A", "B"), "C", window_n=2, latent_dim=3, hidden=8,
                        rng=substream(2, "rel-wide"), in_dim=7)
    assert rel.forward(np.zeros((4, 7)), cache=False).shape == (4, 3)


# ---------------------------------------------------- bridge training

def test_micro_causal_training_returns_a_complete_model(micro_model,
                                                        tiny_config_module):
    assert isinstance(micro_model, MicroCausalModel)
    assert micro_model.causes == ("A",)
    assert micro_model.relation.effect == "B"
    assert isinstance(micro_model.metrics, MetricRow)
    assert micro_model.metrics.effect == "B"
    assert micro_model.metrics.causes == "A"
    assert np.isfinite(micro_model.metrics.rmse_scaled)
    assert np.isfinite(micro_model.metrics.latent_kld)
    log = micro_model.training_log
    assert len(log["epoch_loss"]) == tiny_config_module.epochs
    assert all(np.isfinite(v) for v in log["epoch_loss"])


def test_guarded_steps_never_leave_a_batch_worse(micro_model):
    log = micro_model.training_log
    for pre, post in log["step2"] + log["step3"]:
        assert post <= pre + 1e-12
    assert log["step2_reverts"] + log["step3_reverts"] >= 0


def test_training_does_not_touch_the_registry_models(chain_dataset,
                                                     tiny_config_module,
                                                     chain_models):
    before = {n: m.enc1.W.copy() for n, m in chain_models.items()}
    train_micro_causal(["A"], "B", chain_dataset, tiny_config_module,
                       chain_models)
    for name, model in chain_models.items():
        np.testing.assert_array_equal(model.enc1.W, before[name])


def test_micro_causal_rejects_bad_cause_sets(chain_dataset, tiny_config_module,
                                             chain_models):
    with pytest.raises(TrainingError, match="duplicate cause"):
        train_micro_causal(["A", "A"], "B", chain_dataset, tiny_config_module,
                           chain_models)
    with pytest.raises(TrainingError, match="own cause"):
        train_micro_causal(["B"], "B", chain_dataset, tiny_config_module,
                           chain_models)
    with pytest.raises(TrainingError, match="missing from dataset"):
        train_micro_causal(["Z"], "B", chain_dataset, tiny_config_module,
                           chain_models)
    with pytest.raises(TrainingError, match="no initialized autoencoder"):
        train_micro_causal(["A"], "B", chain_dataset, tiny_config_module,
                           {"A": chain_models["A"]})


def test_micro_causal_requires_enough_training_windows(tiny_config_module,
                                                       chain_models):
    short = synth_generate(tiny_chain_spec(), 75, 7)
    with pytest.raises(TrainingError, match="insufficient pairs"):
        train_micro_causal(["A"], "B", short, tiny_config_module, chain_models)


def test_micro_causal_nse_is_finite(micro_model, chain_dataset):
    test_ts = np.arange(200, 260)
    score = micro_causal_nse(micro_model, chain_dataset, test_ts)
    assert np.isfinite(score)


def test_training_and_scoring_use_the_models_stored_scalers(
        micro_model, chain_dataset, tiny_config_module, chain_models):
    # a dataset whose own scalers disagree with the models' must change
    # nothing: every featurization goes through model.scaler
    skewed = {name: dataclasses.replace(
                  series, scaler=Scaler(mean=series.scaler.mean + 1.0,
                                        std=series.scaler.std * 2.0))
              for name, series in chain_dataset.items()}
    again = train_micro_causal(["A"], "B", skewed, tiny_config_module,
                               chain_models)
    np.testing.assert_array_equal(again.relation.l1.W, micro_model.relation.l1.W)
    np.testing.assert_array_equal(again.relation.l2.b, micro_model.relation.l2.b)
    np.testing.assert_array_equal(again.effect_model.enc1.W,
                                  micro_model.effect_model.enc1.W)
    assert again.metrics == micro_model.metrics
    test_ts = np.arange(200, 260)
    assert micro_causal_nse(again, skewed, test_ts) == \
        micro_causal_nse(micro_model, chain_dataset, test_ts)


# ------------------------------------------------------- frozen fits

def test_frozen_relation_fits_a_linear_latent_map():
    rng = substream(5, "frozen-fit")
    W = rng.normal(size=(8, 4)) * 0.5
    x = rng.normal(size=(300, 8))
    v = x @ W
    cfg = RunConfig(**dict(TINY_CONFIG, explore_epochs=40, lambda_kld=0.0,
                           lr=3e-3))
    rel = train_relation_frozen(x, v, cfg, substream(5, "frozen-rng"))
    v_hat = rel.forward(x, cache=False)
    assert mse_loss(v_hat, v) < 0.05 * mse_loss(np.zeros_like(v), v)


def test_frozen_relation_is_deterministic(tiny_config_module):
    rng = substream(6, "frozen-data")
    x = rng.normal(size=(120, 8))
    v = rng.normal(size=(120, 4))
    one = train_relation_frozen(x, v, tiny_config_module,
                                substream(6, "frozen-a"))
    two = train_relation_frozen(x, v, tiny_config_module,
                                substream(6, "frozen-a"))
    np.testing.assert_array_equal(one.l1.W, two.l1.W)
    np.testing.assert_array_equal(one.l2.W, two.l2.W)


def _reference_frozen_fit(x_train, v_train, config, rng):
    """The frozen fit written with the layers themselves: forward and
    backward through RelationModel, the MSE and KLD gradients, and Adam
    over the four parameter arrays."""
    relation = RelationModel(("x",), "y", config.window_n, config.latent_dim,
                             config.hidden_width, rng, in_dim=x_train.shape[1])
    adam = Adam(relation.parameters(), lr=config.lr)
    lam_k = config.lambda_kld
    for _epoch in range(config.explore_epochs):
        perm = rng.permutation(x_train.shape[0])
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            relation.zero_grads()
            v_hat = relation.forward(x_train[idx], cache=True)
            grad = mse_grad(v_hat, v_train[idx])
            if lam_k > 0.0 and idx.size >= 2:
                _, kg = kld_batch_grad(v_hat, gaussian_stats(v_train[idx]))
                grad = grad + lam_k * kg
            relation.backward(grad)
            adam.step(relation.gradients())
    return relation


@pytest.mark.parametrize("rows,causes,lambda_kld", [
    (97, 1, 0.1),     # 3 full batches of 32 and a last batch of 1 row
    (97, 2, 0.0),
    (130, 3, 0.02),
    (64, 1, 0.1),
])
def test_frozen_fit_matches_the_layer_by_layer_fit_bit_for_bit(rows, causes,
                                                               lambda_kld):
    cfg = RunConfig(**dict(TINY_CONFIG, window_n=3, explore_epochs=3,
                           lambda_kld=lambda_kld, lr=3e-3))
    data_rng = substream(rows, "frozen-windows", causes)
    x = data_rng.normal(size=(rows, causes * cfg.window_n * cfg.latent_dim))
    v = data_rng.normal(size=(rows, cfg.latent_dim)) * 0.5 + 0.2
    fused = train_relation_frozen(x, v, cfg, substream(8, "frozen-eq", rows))
    reference = _reference_frozen_fit(x, v, cfg, substream(8, "frozen-eq", rows))
    for layer in ("l1", "l2"):
        for arr in ("W", "b"):
            got = getattr(getattr(fused, layer), arr)
            want = getattr(getattr(reference, layer), arr)
            assert np.array_equal(got, want), f"{layer}.{arr}"
    assert np.array_equal(fused.forward(x, cache=False),
                          reference.forward(x, cache=False))


def test_frozen_fit_refuses_non_finite_gradients_and_losses(tiny_config_module):
    rng = substream(9, "frozen-bad")
    x = rng.normal(size=(80, 8))
    v = rng.normal(size=(80, 4))
    # an infinite input saturates tanh: the loss stays finite, but the
    # first layer's weight gradient is 0 * inf
    x_inf = x.copy()
    x_inf[3, 2] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingError, match="non-finite gradient"):
        train_relation_frozen(x_inf, v, tiny_config_module, substream(9, "a"))
    v_nan = v.copy()
    v_nan[5, 1] = np.nan
    with pytest.raises(TrainingError, match="diverged"):
        train_relation_frozen(x, v_nan, tiny_config_module, substream(9, "b"))
