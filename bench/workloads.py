"""The benchmark's three workloads.

A workload builds its inputs from the seed, names the stages one round
runs in order, and checks the outputs of a round. Every round repeats
the same stages on the same inputs. Sizes are chosen so that the work
of a round does not depend on the seed: both explore workloads stop
after two greedy rounds, and from the candidate maps below the second
round always needs the same number of strength keys (see README.md).
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import shutil

import numpy as np

import rirl
import rirl.cli
from rirl.config import RunConfig
from rirl.coupling import expand_batch, reduce
from rirl.dataio import DagSpec, EdgeDef, NodeDef
from rirl.explore import emit_round_log
from rirl.nn import grad_check, mse_grad, mse_loss
from rirl.noderepr import decode_node, featurize_series

import checks
from checks import require

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Central-difference step for gradient checks of trained models. Their
# gradients are small, and at grad_check's default step of 1e-5 the
# rounding error of the loss difference dominates: on one trained
# default-width node model the reported error went 1e-5, 3e-4, 3.5e-3
# for steps 1e-4, 1e-5, 1e-6, falling as the step grows, which is
# rounding, not a wrong backward pass.
GRAD_EPS = 1e-4


class StageFailed(Exception):
    """A stage of the program ended with an error."""


def node_fit_steps(steps, config):
    """Adam steps of one train_node_autoencoder: every fold but the last
    is trained on, batch_size rows at a time."""
    rows = steps - steps // config.folds
    return config.epochs * math.ceil(rows / config.batch_size)


def micro_causal_steps(steps, config, n_causes):
    """Adam steps of one train_micro_causal: per batch, one joint step,
    one effect step and one step per cause (guarded steps count even
    when they are reverted)."""
    lo = checks.fold_bounds(steps, config.folds)[-1][0]
    pairs = max(0, lo - config.window_n)
    return config.epochs * math.ceil(pairs / config.batch_size) * (2 + n_causes)


def strength_eval_steps(steps, config):
    """Adam steps of one strength evaluation: a frozen relation fit per
    fold on the windows outside that fold."""
    n = config.window_n
    total = 0
    for lo, hi in checks.fold_bounds(steps, config.folds):
        test = max(0, hi - max(lo, n))
        total += math.ceil((steps - n - test) / config.batch_size)
    return config.explore_epochs * total


class Workload:
    name = ""
    stage_names = ()

    def stages(self):
        return [(s, getattr(self, "stage_" + s)) for s in self.stage_names]

    def reset(self):
        """Runs before each round, outside the timed part."""

    def models_bytes(self):
        return 0


class PipelineDag10(Workload):
    """The five CLI stages on scripts/dag10.json at the demo config."""

    name = "pipeline-dag10"
    stage_names = ("synth", "init", "edge", "explore", "report")
    days = 400
    epochs = 6
    explore_epochs = 10
    max_rounds = 2

    def __init__(self, seed, work):
        demo = _load_demo()
        self.seed = seed
        self.spec_path = os.path.join(ROOT, "scripts", "dag10.json")
        self.spec = DagSpec.from_json(self.spec_path)
        self.nodes = [n.name for n in self.spec.nodes]
        self.candidates = demo.candidate_map(self.spec)
        self.flags = demo.CONFIG_FLAGS + [
            "--epochs", str(self.epochs), "--explore_epochs", str(self.explore_epochs),
            "--max_rounds", str(self.max_rounds), "--seed", str(seed),
            "--workers", "1"]
        self.config = RunConfig.from_strings(
            {k[2:]: v for k, v in zip(self.flags[::2], self.flags[1::2])})
        first = self.spec.edges[0]
        self.edge = (first.cause, first.effect)
        self.work = work
        self.data = os.path.join(work, "data.csv")
        self.models = os.path.join(work, "models")
        self.reports = os.path.join(work, "reports")
        self.cands = os.path.join(work, "candidates.json")

    def reset(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(self.cands, "w", encoding="utf-8") as fh:
            json.dump(self.candidates, fh)

    def stage_synth(self):
        _cli(["synth", self.spec_path, "--days", str(self.days), "--out", self.data,
              "--seed", str(self.seed)])

    def stage_init(self):
        _cli(["init", "--data", self.data, "--out", self.models] + self.flags)

    def stage_edge(self):
        _cli(["edge", "--causes", self.edge[0], "--effect", self.edge[1],
              "--data", self.data, "--models", self.models] + self.flags)

    def stage_explore(self):
        _cli(["explore", "--candidates", self.cands, "--data", self.data,
              "--models", self.models, "--out", self.reports] + self.flags)

    def stage_report(self):
        for fmt in ("csv", "svg"):
            _cli(["report", self.reports, "--format", fmt, "--data", self.data,
                  "--models", self.models])

    def _read(self, *parts):
        with open(os.path.join(*parts), encoding="utf-8") as fh:
            return fh.read()

    def fingerprint(self):
        return (self._read(self.reports, "explore_rounds.csv"),
                self._read(self.reports, "explore_edges.json"),
                self._read(self.models, "node_metrics.csv"),
                self._read(self.reports, "report_relations.csv"))

    def picks(self):
        return [tuple(e) for e in json.loads(self._read(self.reports, "explore_edges.json"))]

    def check(self):
        edges = self.picks()
        checks.check_edges(edges, self.candidates)
        picks = checks.round_picks(self._read(self.reports, "explore_rounds.csv"))
        require(picks == edges, f"round log picks {picks} != explore_edges.json {edges}")
        summary = self._read(self.reports, "explore_summary.csv").splitlines()
        kld = next(line for line in summary if line.startswith("KLD,"))
        checks.check_k_values(float(v) for v in kld.split(",")[1:])
        effect = self.edge[1]
        checks.check_sidecar_truth(os.path.join(self.reports, f"plot_{effect}.csv"),
                                   self.data, effect, self.config.folds,
                                   self.config.window_n)
        checks.check_node_table(os.path.join(self.models, "node_metrics.csv"), self.nodes)

    def strength_keys(self):
        return checks.strength_keys(self.nodes, self.candidates, self.picks())

    def expected_adam_steps(self):
        cfg = self.config
        return (len(self.nodes) * node_fit_steps(self.days, cfg)
                + micro_causal_steps(self.days, cfg, 1)
                + len(self.strength_keys()) * strength_eval_steps(self.days, cfg))

    def models_bytes(self):
        return sum(os.path.getsize(os.path.join(self.models, f))
                   for f in os.listdir(self.models))


class ExploreSerial(Workload):
    """One seed of the structure-recovery workload, in process, serial."""

    name = "explore-serial"
    stage_names = ("synth", "init", "explore")
    days = 1000

    def __init__(self, seed, work):
        self.seed = seed
        self.spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2),
                                   NodeDef("C", 2, amplitude=0.35),
                                   NodeDef("D", 2, amplitude=0.3),
                                   NodeDef("E", 2, amplitude=0.2)],
                            edges=[EdgeDef("A", "C", 1, lag=8),
                                   EdgeDef("B", "D", 1, lag=8),
                                   EdgeDef("C", "D", 2, lag=6),
                                   EdgeDef("D", "E", 2, lag=6),
                                   EdgeDef("C", "E", 3, lag=6)],
                            seed=seed)
        self.nodes = [n.name for n in self.spec.nodes]
        self.candidates = {"C": ["A", "B", "D", "E"], "D": ["A", "B", "C", "E"],
                           "E": ["A", "B", "C", "D"]}
        self.config = RunConfig(latent_dim=6, num_keys=1, hidden_width=64, epochs=6,
                                explore_epochs=20, batch_size=64, folds=5, max_rounds=2,
                                workers=1, lambda_kld=0.02, lr=3e-3, seed=seed)

    def stage_synth(self):
        self.data = rirl.synth_generate(self.spec, self.days, self.seed)

    def stage_init(self):
        self.models = {name: rirl.train_node_autoencoder(series, self.config)[0]
                       for name, series in self.data.items()}

    def stage_explore(self):
        self.edges, self.state = rirl.explore(self.nodes, self.candidates, data=self.data,
                                              config=self.config, models=self.models)

    def fingerprint(self):
        return (emit_round_log(self.state).csv_text, sorted(self.state.k_cache.items()))

    def picks(self):
        return list(self.edges)

    def check(self):
        state = self.state
        checks.check_edges(self.edges, self.candidates)
        picks = checks.round_picks(emit_round_log(state).csv_text)
        require(picks == self.edges, f"round log picks {picks} != edges {self.edges}")
        checks.check_state_minima(state)
        checks.check_k_values(state.k_cache.values())
        keys = self.strength_keys()
        require(set(state.k_cache) == keys,
                f"strength keys {sorted(state.k_cache)} != needed keys {sorted(keys)}")
        # one K again from scratch: a fresh fit must give the cached value
        causes, effect = min(keys)
        again = rirl.causal_strength(frozenset(causes), effect, data=self.data,
                                     models=self.models, config=self.config)
        require(again == state.k_cache[(causes, effect)],
                f"K{(causes, effect)} recomputed as {again!r}, "
                f"cached {state.k_cache[(causes, effect)]!r}")

    def strength_keys(self):
        return checks.strength_keys(self.nodes, self.candidates, self.picks())

    def expected_adam_steps(self):
        cfg = self.config
        return (len(self.nodes) * node_fit_steps(self.days, cfg)
                + len(self.strength_keys()) * strength_eval_steps(self.days, cfg))


class TrainWide(Workload):
    """Node autoencoders and one micro-causal model at the default widths."""

    name = "train-wide"
    stage_names = ("synth", "init", "edge")
    days = 1000

    def __init__(self, seed, work):
        self.seed = seed
        self.spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4)],
                            edges=[EdgeDef("A", "B", 1, lag=2)], seed=seed)
        self.config = RunConfig(epochs=4, seed=seed)

    def stage_synth(self):
        self.data = rirl.synth_generate(self.spec, self.days, self.seed)

    def stage_init(self):
        self.fits = {name: rirl.train_node_autoencoder(series, self.config)
                     for name, series in self.data.items()}

    def stage_edge(self):
        models = {name: fit[0] for name, fit in self.fits.items()}
        self.micro = rirl.train_micro_causal(["A"], "B", self.data, self.config, models)

    def fingerprint(self):
        return (repr(sorted((name, sorted(m.items())) for name, (_, m) in self.fits.items())),
                repr(self.micro.metrics))

    def check(self):
        cfg, data, micro = self.config, self.data, self.micro
        lo, hi = checks.fold_bounds(self.days, cfg.folds)[-1]
        held = np.arange(lo, hi)
        trained = [(name, fit[0]) for name, fit in self.fits.items()]
        trained += [("micro." + n, m) for n, m in micro.cause_models.items()]
        trained.append(("micro.B", micro.effect_model))
        for label, model in trained:
            feats = featurize_series(data[model.name], model.scaler)
            err = checks.roundtrip_error(expand_batch, reduce, feats, model.keys)
            checks.check_roundtrip(err, label)

        for name, (model, _) in self.fits.items():
            feats = featurize_series(data[name], model.scaler)
            values, _ = decode_node(model, model.encode(feats[held], cache=False))
            checks.check_nse(values, data[name].values[held], f"node {name}")

        node = self.fits["B"][0]
        feats_b = featurize_series(data["B"], node.scaler)
        rows = held[:6]
        mask = data["B"].mask[rows].astype(float)

        def node_loss(m, inp):
            report, grads = m.loss_and_grads(inp, mask, cfg.lambda_mask)
            return report.total, grads
        checks.check_grad(grad_check(node, node_loss, feats_b[rows], eps=GRAD_EPS), "node B")

        n = micro.window_n
        cause = micro.cause_models["A"]
        latents = cause.encode(featurize_series(data["A"], cause.scaler), cache=False)
        test_ts = held[held >= n]
        x = np.stack([latents[t - n:t].reshape(-1) for t in test_ts])
        v_hat = micro.relation.forward(x, cache=False)
        values, _ = decode_node(micro.effect_model, v_hat)
        checks.check_nse(values, data["B"].values[test_ts], "relation A->B")

        effect = micro.effect_model
        target = effect.encode(featurize_series(data["B"], effect.scaler)[test_ts[:6]],
                               cache=False)

        def rel_loss(m, inp):
            m.zero_grads()
            got = m.forward(inp, cache=True)
            m.backward(mse_grad(got, target))
            return mse_loss(got, target), m.gradients()
        checks.check_grad(grad_check(micro.relation, rel_loss, x[:6], eps=GRAD_EPS),
                          "relation A->B")

    def expected_adam_steps(self):
        cfg = self.config
        return (len(self.spec.nodes) * node_fit_steps(self.days, cfg)
                + micro_causal_steps(self.days, cfg, 1))


WORKLOADS = {w.name: w for w in (PipelineDag10, ExploreSerial, TrainWide)}


def _cli(argv):
    """Run one rirl CLI command in this process; its table output is
    kept out of the benchmark's standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = rirl.cli.main(argv)
    if code != 0:
        raise StageFailed(f"rirl {argv[0]} exited with code {code}")


def _load_demo():
    path = os.path.join(ROOT, "scripts", "run_demo.py")
    spec = importlib.util.spec_from_file_location("run_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
