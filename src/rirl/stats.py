"""Diagonal Gaussian batch statistics and closed-form KL divergence.

These back two things at once: the latent-distribution term inside
relation training and the causal-strength score K used by exploration.
Variances use the n denominator and are floored at 1e-6 so a collapsed
batch produces a large but finite divergence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ShapeError

VAR_FLOOR = 1e-6


@dataclass
class GaussianStats:
    mean: np.ndarray
    var: np.ndarray


def _mean_var(arr):
    """Column means, the centred batch and column variances of a 2-D
    batch, bit for bit arr.mean(0), arr - mean and arr.var(0) without
    numpy's Python-level wrappers around the reductions."""
    n = arr.shape[0]
    mean = np.add.reduce(arr, 0) / n
    centred = arr - mean
    return mean, centred, np.add.reduce(centred * centred, 0) / n


def gaussian_stats(batch):
    arr = np.asarray(batch, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"gaussian_stats: expected 2-D batch, got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise EstimationError(f"gaussian_stats: need >= 2 samples, got {arr.shape[0]}")
    mean, _, raw_var = _mean_var(arr)
    return GaussianStats(mean=mean, var=np.maximum(raw_var, VAR_FLOOR))


def gaussian_kld(p, q):
    """KL(p || q) for diagonal Gaussians, summed over dimensions.

    0.5 * sum[ ln(vq/vp) + (vp + (mp - mq)^2) / vq - 1 ]
    """
    if p.mean.shape != q.mean.shape:
        raise ShapeError(
            f"gaussian_kld: dimension mismatch {p.mean.shape} vs {q.mean.shape}")
    dm = p.mean - q.mean
    terms = np.log(q.var / p.var) + (p.var + dm * dm) / q.var - 1.0
    return float(0.5 * np.sum(terms))


def gaussian_kld_from_batches(batch_p, batch_q):
    return gaussian_kld(gaussian_stats(batch_p), gaussian_stats(batch_q))


def kld_batch_grad(batch_p, q):
    """Value and gradient of KL(stats(batch_p) || q) w.r.t. batch_p.

    Used by the relation trainer, where q is the (detached) statistics
    of the true effect latents. Coordinates whose raw variance sits
    below the floor get no variance gradient (the floor is flat there).
    """
    arr = np.asarray(batch_p, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise EstimationError("kld_batch_grad: need a 2-D batch with >= 2 samples")
    n = arr.shape[0]
    mean, centred, raw_var = _mean_var(arr)
    var = np.maximum(raw_var, VAR_FLOOR)
    p = GaussianStats(mean=mean, var=var)
    value = gaussian_kld(p, q)
    d_mean = (mean - q.mean) / q.var                     # dKLD/d mu_p
    d_var = 0.5 * (1.0 / q.var - 1.0 / var)              # dKLD/d var_p
    d_var = np.where(raw_var > VAR_FLOOR, d_var, 0.0)
    grad = d_mean[None, :] / n + d_var[None, :] * 2.0 * centred / n
    return value, grad
