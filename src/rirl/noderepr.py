"""Per-node featurization and the invertible node autoencoder.

A node's raw attributes (1 to 12 of them) are z-scored, cyclically
tiled into 12 slots, and joined with a 12-long month one-hot, giving
the fixed 24-long feature vector every encoder consumes. The
autoencoder expands that vector through the coupling grids, compresses
it with two dense layers to the latent, and decodes back through a
value head (grid estimate collapsed by the Reducer) plus a mask head
scoring per-attribute non-zero probability.
"""

import zlib

import numpy as np

from .config import substream
from .coupling import expand_batch, make_keys, reduce, reduce_backward
from .dataio import kfold_split, scale_fit
from .errors import ConfigError, ShapeError, TrainingError
from .metrics import nse
from .nn import (Adam, DenseLayer, LossReport, bce_grad, bce_loss, mse_grad,
                 mse_loss)

FEATURE_LEN = 24
SLOTS = 12


def _slot_map(d):
    if d < 1 or d > SLOTS:
        raise ConfigError(f"node dimension must be in 1..{SLOTS}, got {d}")
    return np.arange(SLOTS) % d


def featurize(raw, month, scaler=None):
    """(T, 24) feature rows of a (T, d) attribute batch and its T months:
    scaled attributes tiled into 12 slots, then the month one-hot."""
    raw = np.asarray(raw, dtype=float)
    months = np.asarray(month, dtype=int)
    if raw.ndim != 2 or months.shape != raw.shape[:1]:
        raise ShapeError(f"featurize: shapes {raw.shape}, {months.shape} are not (T, d), (T,)")
    sel = _slot_map(raw.shape[1])
    if np.any((months < 1) | (months > 12)):
        raise ConfigError(f"month must be 1..12, got {months.min()}..{months.max()}")
    scaled = scaler.apply(raw) if scaler is not None else raw
    return np.concatenate([scaled[:, sel], np.eye(SLOTS)[months - 1]], axis=1)


def featurize_series(series, scaler=None):
    """(T, 24) feature matrix for a whole NodeSeries; scaler defaults to
    the series' own."""
    return featurize(series.values, series.months,
                     scaler if scaler is not None else series.scaler)


def scaled_attrs_from_features(features, d):
    """(B, d) tile-averaged scaled attributes of (B, 24) feature rows."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ShapeError(f"scaled_attrs_from_features: shape {features.shape} is not (B, 24)")
    sel = _slot_map(d)
    return np.stack([features[:, :SLOTS][:, sel == a].mean(axis=1) for a in range(d)], axis=1)


class NodeAutoencoder:
    """Expander -> dense encoder -> latent -> dense decoder -> Reducer."""

    def __init__(self, name, dim, latent_dim=16, num_keys=4, hidden=128,
                 scaler=None, rng=None, key_seed=None):
        if key_seed is None:
            key_seed = zlib.crc32(f"keys:{name}".encode("utf-8"))
        self.name = name
        self.dim = int(dim)
        self.latent_dim = int(latent_dim)
        self.num_keys = int(num_keys)
        self.hidden = int(hidden)
        self.key_seed = int(key_seed)
        self.keys = make_keys(self.key_seed, self.num_keys)
        self.scaler = scaler
        grid_len = self.num_keys * FEATURE_LEN * FEATURE_LEN
        self.enc1 = DenseLayer(grid_len, hidden, "tanh", rng, name=f"{name}.enc1")
        self.enc2 = DenseLayer(hidden, latent_dim, "identity", rng, name=f"{name}.enc2")
        self.dec1 = DenseLayer(latent_dim, hidden, "tanh", rng, name=f"{name}.dec1")
        self.value_head = DenseLayer(hidden, grid_len, "identity", rng,
                                     name=f"{name}.value")
        self.mask_head = DenseLayer(hidden, self.dim, "sigmoid", rng,
                                    name=f"{name}.mask")
        self._grid = None

    def layers(self):
        return [self.enc1, self.enc2, self.dec1, self.value_head, self.mask_head]

    def named_layers(self):
        return [("enc1", self.enc1), ("enc2", self.enc2), ("dec1", self.dec1),
                ("value_head", self.value_head), ("mask_head", self.mask_head)]

    def encoder_layers(self):
        return [self.enc1, self.enc2]

    def decoder_layers(self):
        return [self.dec1, self.value_head, self.mask_head]

    def parameters(self):
        out = []
        for layer in self.layers():
            out.extend(layer.parameters())
        return out

    def gradients(self):
        out = []
        for layer in self.layers():
            out.extend(layer.gradients())
        return out

    def zero_grads(self):
        for layer in self.layers():
            layer.zero_grads()

    def encode(self, features, cache=True):
        """(B, latent_dim) latents of (B, 24) feature rows."""
        grid = expand_batch(features, self.keys)
        return self.enc2.forward(self.enc1.forward(grid, cache=cache), cache=cache)

    def decode_latent(self, latent, cache=True):
        """(feature estimate, mask probabilities) of (B, L) latents; caches for backward."""
        h = self.dec1.forward(latent, cache=cache)
        grid = self.value_head.forward(h, cache=cache)
        mask_prob = self.mask_head.forward(h, cache=cache)
        feat_hat = reduce(grid, self.keys)
        if cache:
            self._grid = grid
        return feat_hat, mask_prob

    def backward_decode(self, grad_feat_hat, grad_mask_prob=None):
        grad_grid = reduce_backward(grad_feat_hat, self._grid, self.keys)
        grad_h = self.value_head.backward(grad_grid)
        if grad_mask_prob is not None:
            grad_h = grad_h + self.mask_head.backward(grad_mask_prob)
        return self.dec1.backward(grad_h)

    def backward_encode(self, grad_latent):
        self.enc1.backward(self.enc2.backward(grad_latent))

    def loss_and_grads(self, features, mask_target, lambda_mask=1.0):
        """Self-reconstruction loss and gradients of (B, 24) feature rows."""
        self.zero_grads()
        latent = self.encode(features, cache=True)
        feat_hat, mask_prob = self.decode_latent(latent, cache=True)
        value_loss = mse_loss(feat_hat, features)
        mask_loss = bce_loss(mask_prob, mask_target)
        grad_latent = self.backward_decode(
            mse_grad(feat_hat, features),
            lambda_mask * bce_grad(mask_prob, mask_target))
        self.backward_encode(grad_latent)
        report = LossReport.build(value_loss, mask_loss, 0.0, lambda_mask, 0.0)
        return report, self.gradients()


def decode_node(model, latent):
    """Decode (B, latent_dim) latents to engineering units: (values with
    sub-threshold attributes zeroed, mask probabilities)."""
    feat_hat, mask_prob = model.decode_latent(latent, cache=False)
    attrs = scaled_attrs_from_features(feat_hat, model.dim)
    if model.scaler is not None:
        attrs = model.scaler.invert(attrs)
    values = attrs * (mask_prob > 0.5)
    return values, mask_prob


def train_node_autoencoder(series, config):
    """Fit one node's autoencoder; returns (model, metrics dict).

    Metrics come from a held-out contiguous fold: scaled and unscaled
    RMSE over the attributes, mask BCE, mean NSE, plus the per-epoch
    training loss history.
    """
    if series.steps < 100:
        raise TrainingError(f"node {series.name}: need >= 100 steps, got {series.steps}")
    if not series.mask.any():
        raise TrainingError(f"node {series.name}: series is degenerate (all zero)")
    if np.all(series.values.std(axis=0) < 1e-12) and np.all(np.abs(series.values) < 1e-12):
        raise TrainingError(f"node {series.name}: series is degenerate (zero variance)")
    scaler = series.scaler if series.scaler is not None else scale_fit(series)
    feats = featurize_series(series, scaler)
    T = series.steps
    plan = kfold_split(T, config.folds)
    train_idx = plan.train_indices(plan.k - 1)
    test_idx = plan.test_indices(plan.k - 1)

    rng = substream(config.seed, "node-init", series.name)
    model = NodeAutoencoder(series.name, series.dim,
                            latent_dim=config.latent_dim,
                            num_keys=config.num_keys,
                            hidden=config.hidden_width,
                            scaler=scaler, rng=rng,
                            key_seed=_node_key_seed(config.seed, series.name))
    adam = Adam([p for p in model.parameters()], lr=config.lr)
    mask_target = series.mask.astype(float)
    history = []
    order_rng = substream(config.seed, "node-batches", series.name)
    for epoch in range(config.epochs):
        perm = order_rng.permutation(train_idx)
        epoch_losses = []
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            report, grads = model.loss_and_grads(feats[idx], mask_target[idx],
                                                 config.lambda_mask)
            if not np.isfinite(report.total):
                raise TrainingError(f"node {series.name}: loss diverged")
            adam.step(grads)
            epoch_losses.append(report.total)
        history.append(float(np.mean(epoch_losses)))
    metrics = evaluate_node_model(model, series, feats, test_idx)
    metrics["loss_history"] = history
    return model, metrics


def evaluate_node_model(model, series, feats, test_idx):
    latent = model.encode(feats[test_idx], cache=False)
    feat_hat, mask_prob = model.decode_latent(latent, cache=False)
    true_vals = series.values[test_idx]
    rmse_scaled, rmse_unscaled, mask_bce, values_hat = _reconstruction_scores(
        model, feat_hat, mask_prob, true_vals, series.mask[test_idx])
    return {
        "node": series.name,
        "rmse_scaled": rmse_scaled,
        "rmse_unscaled": rmse_unscaled,
        "mask_bce": mask_bce,
        "nse": _mean_nse(values_hat, true_vals),
    }


def _reconstruction_scores(model, feat_hat, mask_prob, values, mask):
    """(scaled RMSE, unscaled RMSE, mask BCE, decoded values) of a decoded
    feature estimate against the observed values and mask; decoded
    values are zeroed where the mask probability is at most 0.5."""
    scaled_true = model.scaler.apply(values)
    scaled_hat = scaled_attrs_from_features(feat_hat, model.dim)
    rmse_scaled = float(np.sqrt(np.mean((scaled_hat - scaled_true) ** 2)))
    values_hat = model.scaler.invert(scaled_hat) * (mask_prob > 0.5)
    rmse_unscaled = float(np.sqrt(np.mean((values_hat - values) ** 2)))
    mask_bce = bce_loss(mask_prob, mask.astype(float))
    return rmse_scaled, rmse_unscaled, mask_bce, values_hat


def _mean_nse(values_hat, obs):
    """Mean NSE over the attributes whose observations vary; NaN when
    none does."""
    scores = [nse(values_hat[:, a], obs[:, a])
              for a in range(obs.shape[1]) if obs[:, a].std() > 1e-12]
    return float(np.mean(scores)) if scores else float("nan")


def _node_key_seed(seed, name):
    return (int(seed) ^ zlib.crc32(f"keys:{name}".encode("utf-8"))) & 0x7FFFFFFF
