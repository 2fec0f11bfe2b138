"""The invertible Expander/Reducer pair.

A Key holds four fixed random scalars defining two bounded feature maps,

    s(x) = g_s * tanh(a_s * x)        t(x) = g_t * tanh(a_t * x)

and the coupling transform conditioned on x_i,

    eta(x_i, x_j)     = x_j * exp(s(x_i)) + t(x_i)
    eta_inv(y_i, y_j) = (y_j - t(y_i)) * exp(-s(y_i))

Expansion writes, for every key, the full ordered L0 x L0 grid
grid[i, j] = eta(x_j conditioned on x_i) with the diagonal passed
through untouched (grid[i, i] = x_i). The untouched diagonal is what
lets the Reducer recover the conditioner values exactly, making the
pair bijective in exact arithmetic and to ~1e-12 in float64.

|g_s| <= 2 by construction, so exp(s) stays inside [e^-2, e^2] and the
inverse amplifies additive noise by at most e^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

S_GAIN_BOUND = 2.0


@dataclass(frozen=True)
class Key:
    key_id: int
    seed: int
    a_s: float
    g_s: float
    a_t: float
    g_t: float


def make_keys(seed, count):
    """Deterministic Key sequence for one root seed.

    Inner gains are uniform in [-1, 1]; outer gains are uniform in
    [-1, 1] rescaled by 2, which saturates the conditioning bound
    |g_s| <= 2 without ever crossing it.
    """
    if count < 1:
        raise ConfigError("make_keys: count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0x6B65]))
    keys = []
    for k in range(count):
        a_s, g_s, a_t, g_t = rng.uniform(-1.0, 1.0, size=4)
        keys.append(Key(key_id=k, seed=int(seed),
                        a_s=float(a_s), g_s=float(2.0 * g_s),
                        a_t=float(a_t), g_t=float(2.0 * g_t)))
    return keys


def s_fn(x, key):
    return key.g_s * np.tanh(key.a_s * np.asarray(x, dtype=float))


def t_fn(x, key):
    return key.g_t * np.tanh(key.a_t * np.asarray(x, dtype=float))


def eta(x_i, x_j, key):
    return np.asarray(x_j, dtype=float) * np.exp(s_fn(x_i, key)) + t_fn(x_i, key)


def eta_inv(y_i, y_j, key):
    return (np.asarray(y_j, dtype=float) - t_fn(y_i, key)) * np.exp(-s_fn(y_i, key))


def _sorted_keys(keys):
    if not keys:
        raise ConfigError("at least one Key is required")
    return sorted(keys, key=lambda k: k.key_id)


def expand_batch(X, keys):
    """Expand each row of a (B, L0) batch to K * L0^2 values (row-major
    grids, keys in ascending key_id order)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expand_batch: expected 2-D batch, got ndim={X.ndim}")
    B, L0 = X.shape
    if L0 < 2:
        raise ShapeError("expand: input length must be >= 2")
    ks = _sorted_keys(keys)
    K = len(ks)
    grids = np.empty((B, K, L0, L0))
    diag = np.arange(L0)
    for k, key in enumerate(ks):
        es = np.exp(s_fn(X, key))          # (B, L0) over conditioner i
        tv = t_fn(X, key)
        grids[:, k] = X[:, None, :] * es[:, :, None] + tv[:, :, None]
        grids[:, k, diag, diag] = X
    return grids.reshape(B, K * L0 * L0)


def _grid_view(e, keys):
    e = np.asarray(e, dtype=float)
    if e.ndim != 2:
        raise ShapeError(f"reduce: expected a 2-D batch, got ndim={e.ndim}")
    ks = _sorted_keys(keys)
    K = len(ks)
    if e.shape[1] % K != 0:
        raise ShapeError(f"reduce: length {e.shape[1]} not divisible by {K} keys")
    per_key = e.shape[1] // K
    L0 = int(round(np.sqrt(per_key)))
    if L0 * L0 != per_key or L0 < 2:
        raise ShapeError(f"reduce: per-key length {per_key} is not a square grid")
    return e.reshape(e.shape[0], K, L0, L0), ks, L0


def reduce(e, keys):
    """Invert an expansion, averaging over every conditioner and key.

    x_hat_j is the mean of K*L0 estimates: for each key the diagonal
    copy grid[j, j] plus, for every i != j, eta_inv applied with the
    diagonal entry grid[i, i] as the conditioner.
    """
    grids, ks, L0 = _grid_view(e, keys)
    B, K = grids.shape[0], grids.shape[1]
    diag_idx = np.arange(L0)
    acc = np.zeros((B, L0))
    for k, key in enumerate(ks):
        g = grids[:, k]                      # (B, L0, L0)
        d = g[:, diag_idx, diag_idx]         # conditioners y_ii, (B, L0)
        inv = (g - t_fn(d, key)[:, :, None]) * np.exp(-s_fn(d, key))[:, :, None]
        col_sum = inv.sum(axis=1) - inv[:, diag_idx, diag_idx]
        acc += col_sum + d
    return acc / (K * L0)


def reduce_backward(grad_out, e, keys):
    """Gradient of reduce() with respect to its expanded input.

    Off-diagonal entries receive the plain exp(-s_i) chain. Diagonal
    entries collect three contributions: the direct diagonal copy and,
    through s and t, the conditioning of every other column in the row.
    """
    grids, ks, L0 = _grid_view(e, keys)
    B, K = grids.shape[0], grids.shape[1]
    g_out = np.asarray(grad_out, dtype=float)
    if g_out.shape != (B, L0):
        raise ShapeError(f"reduce_backward: grad shape {g_out.shape} != {(B, L0)}")
    scale = 1.0 / (K * L0)
    diag_idx = np.arange(L0)
    grad = np.zeros_like(grids)
    for k, key in enumerate(ks):
        g = grids[:, k]
        d = g[:, diag_idx, diag_idx]                       # (B, L0)
        th_s = np.tanh(key.a_s * d)
        th_t = np.tanh(key.a_t * d)
        es = np.exp(-key.g_s * th_s)                       # exp(-s(d))
        tv = key.g_t * th_t
        ds = key.g_s * key.a_s * (1.0 - th_s * th_s)       # s'(d)
        dt = key.g_t * key.a_t * (1.0 - th_t * th_t)       # t'(d)
        # off-diagonal chain: d xhat_j / d y_ij = exp(-s_i) / (K L0)
        gk = scale * es[:, :, None] * g_out[:, None, :]    # (B, i, j)
        # conditioner chain, summed over the row's other columns
        resid = g - tv[:, :, None]                          # y_ij - t_i
        row_sum_g = g_out.sum(axis=1)[:, None] - g_out      # sum_{j != i} g_j (index i)
        weighted = (g_out[:, None, :] * resid).sum(axis=2) - \
            resid[:, diag_idx, diag_idx] * g_out
        cond = scale * es * (-dt * row_sum_g - ds * weighted)
        gk[:, diag_idx, diag_idx] = scale * g_out + cond
        grad[:, k] = gk
    return grad.reshape(B, K * L0 * L0)
