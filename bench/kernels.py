"""Warm timings of rirl's training kernels at two widths.

    python3 bench/kernels.py [--out bench/out/BENCH_kernels.json]

Times expand_batch, reduce, reduce_backward, the DenseLayer forward and
backward passes, adam_step, kld_batch_grad, one frozen relation fit and
one strength evaluation, at the demo widths (K=1, H=64, L=6) and the
default widths (K=4, H=128, L=16), on batches of 64 rows. The first
call of each kernel is reported apart from the warm calls, whose
median and quartiles are given. The CPU count, Python, numpy and BLAS
versions and the BLAS thread environment go with the results.
"""

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rirl.config import RunConfig, substream  # noqa: E402
from rirl.coupling import expand_batch, make_keys, reduce, reduce_backward  # noqa: E402
from rirl.dataio import DagSpec, EdgeDef, NodeDef, synth_generate  # noqa: E402
from rirl.explore import StrengthContext, causal_strength  # noqa: E402
from rirl.nn import DenseLayer, OptimizerState, adam_step  # noqa: E402
from rirl.noderepr import NodeAutoencoder  # noqa: E402
from rirl.relation import train_relation_frozen  # noqa: E402
from rirl.stats import gaussian_stats, kld_batch_grad  # noqa: E402

from run import environment  # noqa: E402

WIDTHS = {"demo": dict(num_keys=1, hidden_width=64, latent_dim=6),
          "default": dict(num_keys=4, hidden_width=128, latent_dim=16)}
BATCH = 64
FIT_ROWS = 792          # training windows of one fold at 1000 days, 5 folds
FIT_EPOCHS = 20
REPEATS = 200           # warm calls of each small kernel
FEW = 5                 # warm calls of a relation fit or a strength evaluation


def measure(fn, repeats):
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    warm = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - t0)
    q = statistics.quantiles(warm, n=4)
    return {"first_s": first, "median_s": statistics.median(warm),
            "q1_s": q[0], "q3_s": q[2], "warm_calls": repeats}


def kernels(widths):
    K, H, L = widths["num_keys"], widths["hidden_width"], widths["latent_dim"]
    rng = substream(0, "kernels", K, H, L)
    cfg = RunConfig(batch_size=BATCH, explore_epochs=FIT_EPOCHS, folds=5, **widths)
    keys = make_keys(7, K)
    x = rng.normal(size=(BATCH, 24))
    grid = expand_batch(x, keys)
    g_rows = rng.normal(size=(BATCH, 24))
    node = NodeAutoencoder("N", 2, latent_dim=L, num_keys=K, hidden=H, rng=rng)
    node_params = [p for _, p in node.parameters()]
    node_grads = [rng.normal(size=p.shape) for p in node_params]
    adam_state = OptimizerState(node_params)
    rel_layer = DenseLayer(cfg.window_n * L, H, "tanh", rng)
    windows = rng.normal(size=(BATCH, cfg.window_n * L))
    latents = rng.normal(size=(BATCH, L))
    q = gaussian_stats(rng.normal(size=(BATCH, L)))
    x_fit = rng.normal(size=(FIT_ROWS, cfg.window_n * L))
    v_fit = rng.normal(size=(FIT_ROWS, L))

    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4)],
                   edges=[EdgeDef("A", "B", 1, lag=2)], seed=0)
    data = synth_generate(spec, 1000, 0)
    models = {n: NodeAutoencoder(n, 2, latent_dim=L, num_keys=K, hidden=H, rng=rng,
                                 scaler=s.scaler) for n, s in data.items()}
    ctx = StrengthContext(data, models, cfg)

    def dense(layer, inp, grad):
        layer.forward(inp)
        return (lambda: layer.forward(inp)), (lambda: layer.backward(grad))

    enc1_fwd, enc1_bwd = dense(node.enc1, grid, rng.normal(size=(BATCH, H)))
    rel_fwd, rel_bwd = dense(rel_layer, windows, rng.normal(size=(BATCH, H)))
    table = [
        ("expand_batch", lambda: expand_batch(x, keys), REPEATS),
        ("reduce", lambda: reduce(grid, keys), REPEATS),
        ("reduce_backward", lambda: reduce_backward(g_rows, grid, keys), REPEATS),
        ("dense_forward.enc1", enc1_fwd, REPEATS),
        ("dense_backward.enc1", enc1_bwd, REPEATS),
        ("dense_forward.relation", rel_fwd, REPEATS),
        ("dense_backward.relation", rel_bwd, REPEATS),
        ("adam_step.node", lambda: adam_step(node_params, node_grads, adam_state), REPEATS),
        ("kld_batch_grad", lambda: kld_batch_grad(latents, q), REPEATS),
        ("frozen_relation_fit", lambda: train_relation_frozen(
            x_fit, v_fit, cfg, substream(0, "fit")), FEW),
        ("strength_eval", lambda: causal_strength(frozenset({"A"}), "B", ctx=ctx), FEW),
    ]
    return {name: measure(fn, n) for name, fn, n in table}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "out", "BENCH_kernels.json"))
    args = ap.parse_args(argv)
    results = {"env": environment(), "batch_rows": BATCH,
               "fit": {"rows": FIT_ROWS, "explore_epochs": FIT_EPOCHS, "folds": 5},
               "widths": {}}
    for label, widths in WIDTHS.items():
        results["widths"][label] = {"config": widths, "kernels": kernels(widths)}
        for name, r in results["widths"][label]["kernels"].items():
            print(f"{label:8s} {name:26s} first {r['first_s'] * 1e3:9.3f} ms   "
                  f"warm median {r['median_s'] * 1e3:9.3f} ms "
                  f"[{r['q1_s'] * 1e3:.3f}, {r['q3_s'] * 1e3:.3f}]")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
