"""Acceptance gate: eleven pinned behaviors, one test per criterion.

Every test appends a one-line verdict (with the measured numbers) to the
terminal summary before asserting, so a red criterion still reports what
it saw. Tolerances are frozen here, not tuned to runs. The slow
structure-recovery and determinism checks sit at the end of the module.
"""

import json
import time

import numpy as np
import replay_table as table
from conftest import ACCEPTANCE_LINES

from rirl.cli import main
from rirl.config import RunConfig, substream
from rirl.coupling import expand_batch, make_keys, reduce
from rirl.dataio import DagSpec, EdgeDef, NodeDef, kfold_split, synth_generate
from rirl.explore import StrengthContext, causal_strength, explore, kld_gain
from rirl.nn import grad_check, mse_grad, mse_loss
from rirl.noderepr import NodeAutoencoder, featurize, train_node_autoencoder
from rirl.relation import RelationModel, micro_causal_nse, train_micro_causal
from rirl.stats import GaussianStats, gaussian_kld


def record(ok, num, name, detail):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_coupling_roundtrip_exact_and_fast():
    rng = substream(4242, "acc-coupling")
    keys = make_keys(17, 4)
    X = rng.normal(size=(10_000, 24))
    t0 = time.perf_counter()
    Xhat = reduce(expand_batch(X, keys), keys)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(Xhat - X) / np.maximum(1.0, np.abs(X))))
    record(err <= 1e-12 and elapsed <= 5.0, 1, "coupling bijectivity",
           f"max unit-floored err {err:.2e}, {elapsed:.2f}s for 1e4 vectors")


def test_criterion_02_expansion_width():
    x = substream(4242, "acc-grid").normal(size=(1, 24))
    one = expand_batch(x, make_keys(5, 1)).size
    four = expand_batch(x, make_keys(5, 4)).size
    record(one == 576 and four == 2304, 2, "expansion arithmetic",
           f"24 -> {one} with one key, {four} with four")


def test_criterion_03_gradients_at_full_width():
    model = NodeAutoencoder("P", 3, rng=substream(4242, "acc-grad-node"))
    rng = substream(4242, "acc-grad-data")
    vals = rng.normal(size=(6, 3))
    months = rng.integers(1, 13, size=6)
    feats = featurize(vals, months)
    target_mask = (np.abs(vals) > 0.4).astype(float)

    def node_loss(m, inp):
        report, grads = m.loss_and_grads(inp, target_mask, lambda_mask=1.0)
        return report.total, grads

    node_err = grad_check(model, node_loss, feats, eps=1e-5)

    rel = RelationModel(("A",), "B", window_n=10, latent_dim=16, hidden=128,
                        rng=substream(4242, "acc-grad-rel"))
    x = rng.normal(size=(5, 160))
    target = rng.normal(size=(5, 16))

    def rel_loss(m, inp):
        m.zero_grads()
        got = m.forward(inp, cache=True)
        m.backward(mse_grad(got, target))
        return mse_loss(got, target), m.gradients()

    rel_err = grad_check(rel, rel_loss, x, eps=1e-5)
    record(node_err <= 1e-4 and rel_err <= 1e-4, 3, "gradient verification",
           f"node {node_err:.2e}, relation {rel_err:.2e} vs 1e-4")


def test_criterion_04_kld_against_monte_carlo():
    worst = 0.0
    last_p = None
    for trial in range(10):
        rng = substream(4242, "kld-mc", trial)
        dim = int(rng.integers(2, 9))
        p = GaussianStats(rng.normal(size=dim), rng.uniform(0.5, 2.5, size=dim))
        q = GaussianStats(rng.normal(size=dim), rng.uniform(0.5, 2.5, size=dim))
        closed = gaussian_kld(p, q)
        z = rng.normal(size=(1_000_000, dim)) * np.sqrt(p.var) + p.mean
        log_ratio = 0.5 * ((z - q.mean) ** 2 / q.var - (z - p.mean) ** 2 / p.var
                           + np.log(q.var) - np.log(p.var))
        mc = float(log_ratio.sum(axis=1).mean())
        worst = max(worst, abs(closed - mc) / max(closed, 1e-12))
        last_p = p
    self_kld = gaussian_kld(last_p, last_p)
    shift = gaussian_kld(GaussianStats(np.zeros(3), np.ones(3)),
                         GaussianStats(np.ones(3), np.ones(3)))
    record(worst < 0.01 and self_kld <= 1e-12 and shift == 1.5,
           4, "gaussian kld",
           f"worst MC rel err {worst:.2e}; self {self_kld:.1e}; "
           f"3-dim unit shift {shift}")


def test_criterion_05_gain_arithmetic_anchor():
    anchor = {(("B",), "D"): 8.5147, (("B", "C"), "D"): 9.6502}

    def strength(beta, n):
        return 0.0 if not beta else anchor[(tuple(sorted(beta)), n)]

    gain = kld_gain(frozenset({"B"}), "C", "D", strength)
    off = abs(gain - 1.1355)
    record(gain == 9.6502 - 8.5147 and off <= 5e-16,
           5, "gain arithmetic anchor",
           f"gain {gain!r}, |gain - 1.1355| = {off:.1e}")


def test_criterion_06_first_selection_anchor():
    edges, state = explore(table.NODES, table.CANDIDATES,
                           config=RunConfig(max_rounds=1),
                           strength_fn=table.strength_fn)
    r1 = state.rounds[0]
    entries = {e.edge: e for e in r1.entries}
    ac, bc = entries[("A", "C")], entries[("B", "C")]
    ok = (r1.selected == ("A", "C") and edges == [("A", "C")]
          and ac.k_with == 7.6354 and bc.k_with == 8.4753 and bc.trimmed
          and all(ac.delta <= e.delta for e in r1.entries))
    record(ok, 6, "selection anchor",
           f"picked A->C ({ac.k_with}) over B->C ({bc.k_with}, "
           f"trimmed={bc.trimmed}) and {len(r1.entries) - 2} others")


def _train_registry(data, cfg):
    return {name: train_node_autoencoder(series, cfg)[0]
            for name, series in data.items()}


def test_criterion_07_greedy_matches_oracle():
    cfg = RunConfig(latent_dim=6, num_keys=1, hidden_width=64, epochs=14,
                    explore_epochs=24, batch_size=64, folds=4, max_rounds=1,
                    workers=2, lambda_kld=0.02, lr=3e-3)
    candidates = {"B": ["A", "C"], "C": ["A", "B"]}
    wins = 0
    for i in range(10):
        spec = DagSpec(nodes=[NodeDef("A", 2),
                              NodeDef("B", 2, amplitude=0.15),
                              NodeDef("C", 2, amplitude=0.9)],
                       edges=[EdgeDef("A", "B", 1, lag=8),
                              EdgeDef("B", "C", 2, lag=8)],
                       seed=300 + i)
        data = synth_generate(spec, 1600, 300 + i)
        models = _train_registry(data, cfg)
        ctx = StrengthContext(data, models, cfg)
        oracle = min((causal_strength(frozenset({p}), n, ctx=ctx), (p, n))
                     for p, n in [("A", "B"), ("A", "C")])[1]
        edges, _ = explore(list(data), candidates, data=data, config=cfg,
                           models=models)
        wins += edges[:1] == [oracle]
    record(wins == 10, 7, "greedy vs oracle",
           f"first selection matched exhaustive argmin on {wins}/10 seeds")


def test_criterion_08_structure_recovery_at_desk_scale():
    candidates = {"C": ["A", "B", "D", "E"], "D": ["A", "B", "C", "E"],
                  "E": ["A", "B", "C", "D"]}
    true_edges = {("A", "C"), ("B", "D"), ("C", "D"), ("D", "E"), ("C", "E")}
    tier1, tier3 = [("A", "C"), ("B", "D")], ("C", "E")
    wins = 0
    t0 = time.perf_counter()
    for i in range(10):
        spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2),
                              NodeDef("C", 2, amplitude=0.35),
                              NodeDef("D", 2, amplitude=0.3),
                              NodeDef("E", 2, amplitude=0.2)],
                       edges=[EdgeDef("A", "C", 1, lag=8),
                              EdgeDef("B", "D", 1, lag=8),
                              EdgeDef("C", "D", 2, lag=6),
                              EdgeDef("D", "E", 2, lag=6),
                              EdgeDef("C", "E", 3, lag=6)],
                       seed=100 + i)
        cfg = RunConfig(latent_dim=6, num_keys=1, hidden_width=64, epochs=20,
                        explore_epochs=40, batch_size=64, folds=5,
                        max_rounds=7, workers=4, lambda_kld=0.02, lr=3e-3,
                        seed=i)
        data = synth_generate(spec, 4000, i)
        models = _train_registry(data, cfg)
        edges, _ = explore(list(data), candidates, data=data, config=cfg,
                           models=models)
        picked = edges[:7]
        if true_edges <= set(picked):
            pos = {e: picked.index(e) for e in true_edges}
            wins += max(pos[e] for e in tier1) < pos[tier3]
    elapsed = time.perf_counter() - t0
    record(wins >= 8 and elapsed <= 600.0, 8, "structure recovery",
           f"{wins}/10 seeds recovered all 5 edges in 7 picks with tier-1 "
           f"before tier-3; {elapsed:.0f}s wall, 4 workers")


def test_criterion_09_reconstruction_quality():
    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.3)],
                   edges=[EdgeDef("A", "B", 1, lag=2)], seed=11)
    data = synth_generate(spec, 2000, 11)
    cfg = RunConfig(latent_dim=8, num_keys=2, hidden_width=64, epochs=30,
                    batch_size=64, folds=4, seed=11)
    models, metrics = {}, {}
    for name, series in data.items():
        models[name], metrics[name] = train_node_autoencoder(series, cfg)
    rmse, nse = metrics["B"]["rmse_scaled"], metrics["B"]["nse"]

    micro = train_micro_causal(("A",), "B", data, cfg, models)
    lo, hi = kfold_split(2000, cfg.folds).bounds[-1]
    rel_nse = micro_causal_nse(micro, data,
                               np.arange(max(lo, cfg.window_n), hi))
    record(rmse <= 0.1 and nse >= 0.8 and rel_nse > 0.0,
           9, "reconstruction quality",
           f"held-out rmse_scaled {rmse:.4f} (<=0.1), nse {nse:.4f} (>=0.8), "
           f"relation NSE {rel_nse:.4f} (>0)")


def test_criterion_10_exploration_is_deterministic(tmp_path):
    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4),
                          NodeDef("C", 2, amplitude=0.5)],
                   edges=[EdgeDef("A", "B", 1, lag=2),
                          EdgeDef("B", "C", 2, lag=3)], seed=9)
    spec_path = tmp_path / "dag.json"
    spec.to_json(str(spec_path))
    data = str(tmp_path / "data.csv")
    models = str(tmp_path / "models")
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"B": ["A", "C"], "C": ["A", "B"]}))
    flags = ["--latent_dim", "4", "--num_keys", "1", "--hidden_width", "16",
             "--epochs", "2", "--explore_epochs", "4", "--batch_size", "32",
             "--folds", "4", "--seed", "9", "--max_rounds", "3",
             "--workers", "2"]
    assert main(["synth", str(spec_path), "--days", "400", "--out", data,
                 "--seed", "9"]) == 0
    assert main(["init", "--data", data, "--out", models] + flags) == 0
    for rep in ("rep1", "rep2"):
        assert main(["explore", "--candidates", str(cands), "--data", data,
                     "--models", models, "--out", str(tmp_path / rep)]
                    + flags) == 0
    edges = [json.loads((tmp_path / rep / "explore_edges.json").read_text())
             for rep in ("rep1", "rep2")]
    logs = [(tmp_path / rep / "explore_rounds.csv").read_bytes()
            for rep in ("rep1", "rep2")]
    record(edges[0] == edges[1] and logs[0] == logs[1],
           10, "determinism",
           f"two runs: edge lists equal ({len(edges[0])} edges), round log "
           f"byte-identical ({len(logs[0])} bytes)")


def test_criterion_11_generator_mask_calibration():
    targets = {"full": 1.0, "half": 0.5, "quarter": 0.25, "sparse": 0.114}
    spec = DagSpec(nodes=[NodeDef(name, 2, nonzero_rate=rate)
                          for name, rate in targets.items()],
                   edges=[], seed=2)
    data = synth_generate(spec, 3000, 2)
    gaps = {name: abs(float(data[name].mask.mean()) - rate)
            for name, rate in targets.items()}
    worst = max(gaps.values())
    record(worst <= 0.05, 11, "generator calibration",
           f"worst nonzero-rate gap {worst:.4f} over targets "
           f"{sorted(targets.values())}")
