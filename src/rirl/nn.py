"""Dense layers, losses, the Adam optimizer, and gradient verification.

All math runs in float64 on plain numpy arrays. Layers take 2-D batches
only, one sample per row; a single sample is a one-row batch.
Backward passes are hand-derived, so grad_check below is the safety net
every layered model in the package is tested against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CheckError, ConfigError, ShapeError, TrainingError

PROB_CLAMP = 1e-7

ACTIVATIONS = ("identity", "tanh", "sigmoid")


def _activate(name, z):
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        # sign-split form stays finite for large |z|
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    raise ConfigError(f"unknown activation {name!r}")


def _activate_grad(name, z, a):
    """Derivative of the activation, expressed through pre-activation z
    and output a (whichever is cheaper)."""
    if name == "identity":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ConfigError(f"unknown activation {name!r}")


class DenseLayer:
    """One fully connected layer, out = act(W x + b).

    W has shape (out_dim, in_dim). The layer caches its last forward
    inputs so that backward() can run without re-passing them; training
    of one layer instance is single threaded by contract.
    """

    def __init__(self, in_dim, out_dim, activation="identity", rng=None, name="dense"):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.name = name
        if rng is None:
            self.W = np.zeros((out_dim, in_dim))
        else:
            scale = 1.0 / np.sqrt(in_dim)
            self.W = rng.uniform(-scale, scale, size=(out_dim, in_dim))
        self.b = np.zeros(out_dim)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x = None
        self._z = None
        self._a = None

    def forward(self, x, cache=True):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"{self.name}: input shape {x.shape} is not (B, {self.in_dim})")
        z = x @ self.W.T + self.b
        a = _activate(self.activation, z)
        if cache:
            self._x, self._z, self._a = x, z, a
        return a

    def backward(self, grad_out):
        """Accumulate parameter gradients and return the input gradient.

        grad_out must match the shape of the last cached forward output.
        Gradients accumulate across calls until zero_grads().
        """
        if self._x is None:
            raise ShapeError(f"{self.name}: backward before forward")
        if np.shape(grad_out) != self._z.shape:
            raise ShapeError(f"{self.name}: grad shape {np.shape(grad_out)} != {self._z.shape}")
        gz = grad_out * _activate_grad(self.activation, self._z, self._a)
        self.gW += gz.T @ self._x
        self.gb += gz.sum(axis=0)
        return gz @ self.W

    def zero_grads(self):
        self.gW.fill(0.0)
        self.gb.fill(0.0)

    def parameters(self):
        return [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]

    def gradients(self):
        return [self.gW, self.gb]


def mse_loss(pred, target):
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ShapeError(f"mse_loss: shapes {p.shape} vs {t.shape}")
    d = p - t
    return float(np.mean(d * d))


def mse_grad(pred, target):
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ShapeError(f"mse_grad: shapes {p.shape} vs {t.shape}")
    return 2.0 * (p - t) / p.size


def clamp_prob(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(pred_prob, target_bit):
    p = np.asarray(pred_prob, dtype=float)
    b = np.asarray(target_bit, dtype=float)
    if p.shape != b.shape:
        raise ShapeError(f"bce_loss: shapes {p.shape} vs {b.shape}")
    pc = clamp_prob(p)
    return float(np.mean(-(b * np.log(pc) + (1.0 - b) * np.log(1.0 - pc))))


def bce_grad(pred_prob, target_bit):
    """d loss / d pred_prob, zero where the clamp is active."""
    p = np.asarray(pred_prob, dtype=float)
    b = np.asarray(target_bit, dtype=float)
    if p.shape != b.shape:
        raise ShapeError(f"bce_grad: shapes {p.shape} vs {b.shape}")
    pc = clamp_prob(p)
    grad = (-b / pc + (1.0 - b) / (1.0 - pc)) / p.size
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    return np.where(inside, grad, 0.0)


@dataclass
class LossReport:
    value_loss: float
    mask_loss: float
    kld_loss: float
    lambda_mask: float
    lambda_kld: float
    total: float

    @classmethod
    def build(cls, value_loss, mask_loss, kld_loss, lambda_mask, lambda_kld):
        total = value_loss + lambda_mask * mask_loss + lambda_kld * kld_loss
        return cls(float(value_loss), float(mask_loss), float(kld_loss),
                   float(lambda_mask), float(lambda_kld), float(total))


class OptimizerState:
    """Adam accumulators for one fixed list of parameter arrays."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def snapshot(self):
        return (self.t, [m.copy() for m in self.m], [v.copy() for v in self.v])

    def restore(self, snap):
        self.t = snap[0]
        for m, saved in zip(self.m, snap[1]):
            m[...] = saved
        for v, saved in zip(self.v, snap[2]):
            v[...] = saved


def adam_step(params, grads, state, names=None):
    """One bias-corrected Adam update, in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). With fresh state
    and any nonzero gradient the first step moves each coordinate by
    exactly lr / (1 + eps) in the direction opposite the gradient.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("adam_step: params/grads/state lengths disagree")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            label = names[i] if names else f"param[{i}]"
            raise TrainingError(f"non-finite gradient in {label}")
        m = state.m[i]
        v = state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


class Adam:
    """Convenience wrapper binding arrays + names to an OptimizerState."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.names = [name for name, _ in named_params]
        self.params = [arr for _, arr in named_params]
        self.state = OptimizerState(self.params, lr, beta1, beta2, eps)

    def step(self, grads):
        adam_step(self.params, grads, self.state, names=self.names)

    def snapshot(self):
        return ([p.copy() for p in self.params], self.state.snapshot())

    def restore(self, snap):
        for p, saved in zip(self.params, snap[0]):
            p[...] = saved
        self.state.restore(snap[1])


def grad_check(model, loss_fn, x, eps=1e-5, coords_per_param=16, seed=1234):
    """Max relative error between analytic and central-difference gradients.

    loss_fn(model, x) must return (loss, grads) with grads aligned to
    model.parameters(). Large tensors are subsampled: a deterministic
    coordinate set per parameter, always including the largest-magnitude
    analytic entry, which is where transposition bugs show first.
    """
    loss0, grads = loss_fn(model, x)
    if not np.isfinite(loss0):
        raise CheckError(f"non-finite loss {loss0!r} in grad_check")
    # snapshot: models hand back live gradient buffers, and the probing
    # calls below overwrite them
    grads = [np.array(g, dtype=float) for g in grads]
    named = model.parameters()
    if len(named) != len(grads):
        raise ShapeError("grad_check: gradient list does not match parameters")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for (name, param), grad in zip(named, grads):
        flat_p = param.reshape(-1)
        flat_g = np.asarray(grad).reshape(-1)
        size = flat_p.size
        if size <= coords_per_param:
            idxs = np.arange(size)
        else:
            idxs = rng.choice(size, size=coords_per_param, replace=False)
            top = int(np.argmax(np.abs(flat_g)))
            if top not in idxs:
                idxs = np.append(idxs, top)
        for idx in idxs:
            saved = flat_p[idx]
            flat_p[idx] = saved + eps
            lo_plus, _ = loss_fn(model, x)
            flat_p[idx] = saved - eps
            lo_minus, _ = loss_fn(model, x)
            flat_p[idx] = saved
            if not (np.isfinite(lo_plus) and np.isfinite(lo_minus)):
                raise CheckError(f"non-finite loss while perturbing {name}")
            cd = (lo_plus - lo_minus) / (2.0 * eps)
            an = flat_g[idx]
            rel = abs(an - cd) / max(abs(an), abs(cd), 1e-8)
            worst = max(worst, rel)
    return worst
