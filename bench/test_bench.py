"""Tests of the benchmark itself: python3 -m pytest bench -q

The output checks must each reject a deliberately broken output, so
that none of them can pass vacuously, and the worker count must leave
the round log unchanged to the byte, as the README of rirl promises.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import rirl.nn
from rirl.cli import main
from rirl.config import RunConfig
from rirl.coupling import expand_batch, make_keys, reduce
from rirl.dataio import DagSpec, EdgeDef, NodeDef, synth_generate

import checks
import tracing
import workloads
from checks import CheckFailed

TINY_FLAGS = ["--latent_dim", "4", "--num_keys", "1", "--hidden_width", "16",
              "--epochs", "2", "--explore_epochs", "4", "--batch_size", "32",
              "--folds", "4", "--seed", "9", "--max_rounds", "3"]


def test_worker_count_leaves_the_round_log_unchanged(tmp_path):
    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4),
                          NodeDef("C", 2, amplitude=0.5)],
                   edges=[EdgeDef("A", "B", 1, lag=2), EdgeDef("B", "C", 2, lag=3)],
                   seed=9)
    spec_path = str(tmp_path / "dag.json")
    spec.to_json(spec_path)
    data, models = str(tmp_path / "data.csv"), str(tmp_path / "models")
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"B": ["A", "C"], "C": ["A", "B"]}))
    assert main(["synth", spec_path, "--days", "400", "--out", data, "--seed", "9"]) == 0
    assert main(["init", "--data", data, "--out", models] + TINY_FLAGS) == 0
    logs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["explore", "--candidates", str(cands), "--data", data,
                     "--models", models, "--out", str(out), "--workers", workers]
                    + TINY_FLAGS) == 0
        logs.append((out / "explore_rounds.csv").read_bytes())
    assert logs[0] == logs[1]


CANDS = {"C": ["A", "B", "D"], "D": ["A", "C"]}


def test_edge_check_accepts_a_dag_of_allowed_edges():
    checks.check_edges([("A", "C"), ("C", "D")], CANDS)


@pytest.mark.parametrize("edges, why", [
    ([("C", "D"), ("D", "C")], "cycle"),
    ([("B", "D")], "not allowed"),
    ([("A", "C"), ("A", "C")], "duplicate"),
])
def test_edge_check_rejects_broken_edge_lists(edges, why):
    with pytest.raises(CheckFailed, match=why):
        checks.check_edges(edges, CANDS)


def test_round_check_returns_the_picks_of_a_good_log():
    log = "round,A->C,B->C,A->D\n1,0.5000*+,0.7000+~,0.9000+\n2,,,-0.1000*\n"
    assert checks.round_picks(log) == [("A", "C"), ("A", "D")]


def test_round_check_rejects_a_pick_that_is_not_the_minimum():
    log = "round,A->C,B->C\n1,0.9000*+,0.7000+~\n"
    with pytest.raises(CheckFailed, match="minimum"):
        checks.round_picks(log)


def _entry(edge, k_with, k_without=0.0):
    return SimpleNamespace(edge=edge, k_with=k_with, k_without=k_without,
                           delta=k_with - k_without)


def test_state_check_breaks_ties_lexicographically():
    entries = [_entry(("B", "C"), 0.5), _entry(("A", "C"), 0.5)]
    good = SimpleNamespace(rounds=[SimpleNamespace(round_no=1, entries=entries,
                                                   selected=("A", "C"))])
    checks.check_state_minima(good)
    bad = SimpleNamespace(rounds=[SimpleNamespace(round_no=1, entries=entries,
                                                  selected=("B", "C"))])
    with pytest.raises(CheckFailed, match="minimum"):
        checks.check_state_minima(bad)


def test_k_check_rejects_negative_and_non_finite_values():
    checks.check_k_values([0.0, 1.5])
    for bad in ([-1e-9], [float("nan")], [float("inf")], []):
        with pytest.raises(CheckFailed):
            checks.check_k_values(bad)


def test_roundtrip_check_rejects_a_perturbed_expansion():
    keys = make_keys(3, 2)
    rows = np.random.default_rng(0).normal(size=(50, 24))
    checks.check_roundtrip(checks.roundtrip_error(expand_batch, reduce, rows, keys), "exact")

    def perturbed(x, ks):
        grid = expand_batch(x, ks)
        grid[:, 1] += 1e-9
        return grid
    err = checks.roundtrip_error(perturbed, reduce, rows, keys)
    with pytest.raises(CheckFailed, match="round trip"):
        checks.check_roundtrip(err, "perturbed")


def test_sidecar_check_rejects_a_changed_truth_value(tmp_path):
    values = [float(v) for v in range(40)]
    data = tmp_path / "data.csv"
    data.write_text("date,E.a0\n" + "".join(f"2000-01-{i % 28 + 1:02d},{v!r}\n"
                                            for i, v in enumerate(values)))
    lo, hi = checks.fold_bounds(40, 4)[-1]
    sidecar = tmp_path / "plot_E.csv"
    truth = values[max(lo, 10):hi]
    sidecar.write_text("step,truth\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(truth)))
    checks.check_sidecar_truth(str(sidecar), str(data), "E", 4, 10)
    truth[3] += 1e-12
    sidecar.write_text("step,truth\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(truth)))
    with pytest.raises(CheckFailed, match="differ"):
        checks.check_sidecar_truth(str(sidecar), str(data), "E", 4, 10)


def test_nse_check_rejects_the_mean_predictor():
    obs = np.random.default_rng(1).normal(size=(30, 2))
    checks.check_nse(obs + 0.01, obs, "near")
    with pytest.raises(CheckFailed, match="NSE"):
        checks.check_nse(np.tile(obs.mean(axis=0), (30, 1)), obs, "mean")


def test_grad_check_bound():
    checks.check_grad(1e-6, "small")
    with pytest.raises(CheckFailed):
        checks.check_grad(1e-3, "large")


@pytest.mark.parametrize("workload, keys", [("explore-serial", 9), ("pipeline-dag10", 32)])
def test_two_greedy_rounds_need_the_same_keys_whatever_the_first_pick(tmp_path, workload, keys):
    """The work of an explore round does not depend on the seed: the keys
    of the second round follow from the first pick alone, and every
    possible first pick gives the same count."""
    w = workloads.WORKLOADS[workload](0, str(tmp_path))
    roots = {n for n in w.nodes if not w.candidates.get(n)}
    firsts = [(p, n) for n in w.candidates for p in w.candidates[n] if p in roots]
    for first in firsts:
        assert len(checks.strength_keys(w.nodes, w.candidates, [first, first])) == keys


def test_tracer_counts_adam_steps_and_restores_the_originals():
    spec = DagSpec(nodes=[NodeDef("A", 2)], edges=[], seed=3)
    series = synth_generate(spec, 200, 3)["A"]
    cfg = RunConfig(latent_dim=4, num_keys=1, hidden_width=16, epochs=2, batch_size=32)
    original = rirl.nn.adam_step
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert rirl.nn.adam_step is not original
        rirl.train_node_autoencoder(series, cfg)
    finally:
        restore()
    assert rirl.nn.adam_step is original
    times = tracer.self_times(0, len(tracer.spans))
    assert times["nn.adam_step"][0] == workloads.node_fit_steps(200, cfg)
    fit_calls, fit_self = times["noderepr.train_node_autoencoder"]
    assert fit_calls == 1 and 0.0 <= fit_self
