"""Relation bridges between cause and effect latents.

A relation maps the concatenation of windowed cause latents (the
window_n steps before t, per cause) to the effect node's latent at t.
predict_latent is the one path from data to that prediction: each
cause featurized with its own model's stored scaler, its windows
encoded, and the bridge run. Training interleaves three moves per epoch:

  1. end-to-end: cause encoders + relation + effect decoder fit the
     decoded effect observation, with a Gaussian KLD penalty pulling
     the predicted latent batch toward the true latent batch,
  2. the effect autoencoder fine-tunes on its own reconstruction,
  3. each cause autoencoder fine-tunes on its own reconstruction.

Steps 2 and 3 carry a snapshot-and-revert guard so a batch update that
would worsen that batch's self-reconstruction is rolled back; reverts
are counted, not hidden.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .config import substream
from .dataio import kfold_split
from .errors import ShapeError, TrainingError
from .metrics import MetricRow
from .nn import (Adam, DenseLayer, LossReport, OptimizerState, adam_step,
                 bce_grad, bce_loss, mse_grad, mse_loss)
from .noderepr import (_mean_nse, _reconstruction_scores, decode_node,
                       featurize_series)
from .stats import gaussian_kld, gaussian_stats, kld_batch_grad


class RelationModel:
    """Dense stack from concatenated cause windows to the effect latent."""

    def __init__(self, causes, effect, window_n, latent_dim, hidden, rng=None):
        self.causes = tuple(causes)
        self.effect = effect
        self.window_n = int(window_n)
        self.latent_dim = int(latent_dim)
        self.hidden = int(hidden)
        self.in_dim = len(self.causes) * self.window_n * self.latent_dim
        label = f"rel[{'+'.join(self.causes)}->{effect}]"
        self.l1 = DenseLayer(self.in_dim, hidden, "tanh", rng, name=f"{label}.l1")
        self.l2 = DenseLayer(hidden, latent_dim, "identity", rng, name=f"{label}.l2")

    def forward(self, x, cache=True):
        return self.l2.forward(self.l1.forward(x, cache=cache), cache=cache)

    def backward(self, grad_out):
        return self.l1.backward(self.l2.backward(grad_out))

    def zero_grads(self):
        self.l1.zero_grads()
        self.l2.zero_grads()

    def parameters(self):
        return self.l1.parameters() + self.l2.parameters()

    def gradients(self):
        return self.l1.gradients() + self.l2.gradients()


@dataclass
class MicroCausalModel:
    causes: tuple
    cause_models: dict
    relation: RelationModel
    effect_model: object
    window_n: int
    metrics: MetricRow = None
    training_log: dict | None = None


def _window_offsets(ts, n):
    return (np.asarray(ts)[:, None] - n + np.arange(n)[None, :]).ravel()


def _encode_windows(model, feats, ts, n, cache):
    lat = model.encode(feats[_window_offsets(ts, n)], cache=cache)
    return lat.reshape(len(ts), n * model.latent_dim)


def predict_latent(model, dataset, ts):
    """The bridge's effect latent at each step in ts, from the window_n
    steps before it of every cause, featurized with that cause model's
    stored scaler."""
    xs = []
    for c in model.causes:
        cm = model.cause_models[c]
        feats = featurize_series(dataset[c], cm.scaler)
        xs.append(_encode_windows(cm, feats, ts, model.window_n, cache=False))
    return model.relation.forward(np.concatenate(xs, axis=1), cache=False)


def _self_loss(model, feats, mask_t, lambda_mask):
    latent = model.encode(feats, cache=False)
    feat_hat, mask_prob = model.decode_latent(latent, cache=False)
    return mse_loss(feat_hat, feats) + lambda_mask * bce_loss(mask_prob, mask_t)


def _guarded_step(adam, grads, loss_pre, recompute):
    """Adam update that never leaves the batch worse than it found it."""
    snap = adam.snapshot()
    adam.step(grads)
    loss_post = recompute()
    if loss_post > loss_pre:
        adam.restore(snap)
        return loss_pre, True
    return loss_post, False


def train_micro_causal(causes, effect, dataset, config, models):
    """Fit one (cause set -> effect) micro-causal model.

    models maps node name to a trained NodeAutoencoder; the entries are
    deep-copied so the registry's models stay untouched. Metrics come
    from the last contiguous fold, which training never fits.
    """
    causes = list(causes)
    if len(set(causes)) != len(causes):
        raise TrainingError("duplicate cause node in cause set")
    if effect in causes:
        raise TrainingError("effect node cannot be its own cause")
    for name in causes + [effect]:
        if name not in dataset:
            raise TrainingError(f"node {name!r} missing from dataset")
        if name not in models:
            raise TrainingError(f"node {name!r} has no initialized autoencoder")
    n = config.window_n
    eff_series = dataset[effect]
    T = eff_series.steps
    plan = kfold_split(T, config.folds)
    hold_lo, hold_hi = plan.bounds[-1]
    all_ts = np.arange(n, T)
    train_ts = all_ts[all_ts < hold_lo]
    test_ts = all_ts[(all_ts >= hold_lo) & (all_ts < hold_hi)]
    if train_ts.size < 50:
        raise TrainingError(
            f"insufficient pairs: {train_ts.size} training windows (< 50)")

    cause_models = {c: copy.deepcopy(models[c]) for c in causes}
    effect_model = copy.deepcopy(models[effect])
    feats = {name: featurize_series(dataset[name], models[name].scaler)
             for name in causes + [effect]}
    eff_feats = feats[effect]
    eff_mask = eff_series.mask.astype(float)

    rng = substream(config.seed, "relation-init", ",".join(causes), effect)
    relation = RelationModel(causes, effect, n, config.latent_dim,
                             config.hidden_width, rng)

    # step 1 updates the cause encoders, the relation and the effect
    # decoder; parameters and gradients are listed in this one order
    step1 = [layer for c in causes for layer in cause_models[c].encoder_layers()]
    step1 += [relation] + effect_model.decoder_layers()
    adam1 = Adam([p for layer in step1 for p in layer.parameters()], lr=config.lr)
    adam2 = Adam(effect_model.parameters(), lr=config.lr)
    adam3 = {c: Adam(cause_models[c].parameters(), lr=config.lr) for c in causes}

    log = {"epoch_loss": [], "step2": [], "step3": [],
           "step2_reverts": 0, "step3_reverts": 0}
    order_rng = substream(config.seed, "relation-batches", ",".join(causes), effect)
    lam_m, lam_k = config.lambda_mask, config.lambda_kld

    for epoch in range(config.epochs):
        perm = order_rng.permutation(train_ts)
        epoch_total = []
        for start in range(0, perm.size, config.batch_size):
            ts = perm[start:start + config.batch_size]
            # step 1: cause encoders + relation + effect decoder
            for c in causes:
                cause_models[c].zero_grads()
            relation.zero_grads()
            effect_model.zero_grads()
            xs = [_encode_windows(cause_models[c], feats[c], ts, n, cache=True)
                  for c in causes]
            x = np.concatenate(xs, axis=1)
            v_hat = relation.forward(x, cache=True)
            v_true = effect_model.encode(eff_feats[ts], cache=False)
            feat_hat, mask_prob = effect_model.decode_latent(v_hat, cache=True)
            value_loss = mse_loss(feat_hat, eff_feats[ts])
            mask_loss = bce_loss(mask_prob, eff_mask[ts])
            grad_vhat = effect_model.backward_decode(
                mse_grad(feat_hat, eff_feats[ts]),
                lam_m * bce_grad(mask_prob, eff_mask[ts]))
            kld_loss = 0.0
            if lam_k > 0.0 and ts.size >= 2:
                kld_loss, kld_g = kld_batch_grad(v_hat, gaussian_stats(v_true))
                grad_vhat = grad_vhat + lam_k * kld_g
            report = LossReport.build(value_loss, mask_loss, kld_loss, lam_m, lam_k)
            if not np.isfinite(report.total):
                raise TrainingError(
                    f"relation {causes}->{effect}: loss diverged")
            grad_x = relation.backward(grad_vhat)
            pos = 0
            for c in causes:
                span = n * config.latent_dim
                g = grad_x[:, pos:pos + span].reshape(ts.size * n, config.latent_dim)
                cause_models[c].backward_encode(g)
                pos += span
            adam1.step([g for layer in step1 for g in layer.gradients()])
            epoch_total.append(report.total)

            # step 2: effect self-reconstruction, never made worse
            rep2, grads2 = effect_model.loss_and_grads(eff_feats[ts], eff_mask[ts], lam_m)
            post, reverted = _guarded_step(
                adam2, grads2, rep2.total,
                lambda: _self_loss(effect_model, eff_feats[ts], eff_mask[ts], lam_m))
            log["step2"].append((rep2.total, post))
            log["step2_reverts"] += int(reverted)

            # step 3: cause self-reconstruction, same guard
            for c in causes:
                cm = cause_models[c]
                c_mask = dataset[c].mask.astype(float)
                rep3, grads3 = cm.loss_and_grads(feats[c][ts], c_mask[ts], lam_m)
                post, reverted = _guarded_step(
                    adam3[c], grads3, rep3.total,
                    lambda: _self_loss(cm, feats[c][ts], c_mask[ts], lam_m))
                log["step3"].append((rep3.total, post))
                log["step3_reverts"] += int(reverted)
        log["epoch_loss"].append(float(np.mean(epoch_total)))

    model = MicroCausalModel(causes=tuple(causes), cause_models=cause_models,
                             relation=relation, effect_model=effect_model,
                             window_n=n, training_log=log)
    model.metrics = evaluate_micro_causal(model, dataset, eff_feats, test_ts)
    return model


def evaluate_micro_causal(model, dataset, eff_feats, test_ts):
    effect = model.relation.effect
    em = model.effect_model
    v_hat = predict_latent(model, dataset, test_ts)
    v_true = em.encode(eff_feats[test_ts], cache=False)
    latent_kld = gaussian_kld(gaussian_stats(v_hat), gaussian_stats(v_true))
    feat_hat, mask_prob = em.decode_latent(v_hat, cache=False)
    eff_series = dataset[effect]
    rmse_scaled, rmse_unscaled, mask_bce, _ = _reconstruction_scores(
        em, feat_hat, mask_prob, eff_series.values[test_ts], eff_series.mask[test_ts])
    return MetricRow(effect=effect, causes=",".join(model.causes),
                     rmse_scaled=rmse_scaled, rmse_unscaled=rmse_unscaled,
                     mask_bce=mask_bce, latent_kld=float(latent_kld))


def micro_causal_nse(model, dataset, test_ts):
    """Mean held-out NSE of the decoded effect prediction, unscaled."""
    values_hat, _ = decode_node(model.effect_model,
                                predict_latent(model, dataset, test_ts))
    return _mean_nse(values_hat, dataset[model.relation.effect].values[test_ts])


def _flat_views(buf, arrays):
    """Views into the flat vector buf, one per array, shaped like it."""
    views, pos = [], 0
    for arr in arrays:
        views.append(buf[pos:pos + arr.size].reshape(arr.shape))
        pos += arr.size
    return views


def train_relation_frozen(x_train, v_train, config, rng, causes=("x",), effect="y"):
    """Relation-only training on precomputed latents.

    Exploration evaluates many candidate relations; with the node
    encoders frozen this reduces to a small supervised fit in latent
    space (MSE plus the KLD batch penalty), which keeps strength
    evaluation cheap without touching the scoring semantics. Each row
    of x_train holds len(causes) * window_n * latent_dim cause latents.

    Each batch is one inline forward and backward pass over a single
    flat parameter vector and a single flat gradient, of which the
    layers hold views, so one adam_step call updates all four arrays.
    The weights are bit for bit those of RelationModel.forward and
    backward with Adam over the four arrays.
    """
    x_train = np.asarray(x_train, dtype=float)
    v_train = np.asarray(v_train, dtype=float)
    relation = RelationModel(causes, effect, config.window_n, config.latent_dim,
                             config.hidden_width, rng)
    if x_train.shape[1] != relation.in_dim:
        raise ShapeError(f"frozen fit: input width {x_train.shape[1]} != {relation.in_dim}")
    l1, l2 = relation.l1, relation.l2
    arrays = [l1.W, l1.b, l2.W, l2.b]
    theta = np.concatenate([arr.ravel() for arr in arrays])
    grad = np.empty_like(theta)
    l1.W, l1.b, l2.W, l2.b = W1, b1, W2, b2 = _flat_views(theta, arrays)
    gW1, gb1, gW2, gb2 = _flat_views(grad, arrays)
    state = OptimizerState([theta], lr=config.lr)
    lam_k = config.lambda_kld
    for _epoch in range(config.explore_epochs):
        perm = rng.permutation(x_train.shape[0])
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            x, v = x_train[idx], v_train[idx]
            a1 = np.tanh(x @ W1.T + b1)
            v_hat = a1 @ W2.T + b2
            loss = mse_loss(v_hat, v)
            g_out = mse_grad(v_hat, v)
            if lam_k > 0.0 and idx.size >= 2:
                kval, kg = kld_batch_grad(v_hat, gaussian_stats(v))
                loss += lam_k * kval
                g_out = g_out + lam_k * kg
            if not np.isfinite(loss):
                raise TrainingError("frozen relation training diverged")
            np.matmul(g_out.T, a1, out=gW2)
            np.sum(g_out, axis=0, out=gb2)
            gz1 = (g_out @ W2) * (1.0 - a1 * a1)
            np.matmul(gz1.T, x, out=gW1)
            np.sum(gz1, axis=0, out=gb1)
            adam_step([theta], [grad], state, names=["frozen relation parameters"])
    return relation
