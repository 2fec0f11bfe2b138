import csv
import importlib
import json
import os
import shutil
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from conftest import model_arrays, tiny_chain_spec

from rirl import persistence
from rirl.cli import main
from rirl.dataio import kfold_split, load_csv
from rirl.noderepr import decode_node, featurize_series
from rirl.persistence import load_micro_causal, load_node_model
from rirl.relation import predict_latent

TINY_FLAGS = ["--latent_dim", "4", "--num_keys", "1", "--hidden_width", "16",
              "--epochs", "2", "--explore_epochs", "2", "--batch_size", "32",
              "--folds", "4", "--seed", "7"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full pipeline run: synth -> init -> edge -> explore -> report."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "dag.json"
    tiny_chain_spec().to_json(str(spec_path))
    data = str(root / "data.csv")
    models = str(root / "models")
    reports = str(root / "reports")
    run_dir = str(root / "run")

    assert main(["synth", str(spec_path), "--days", "260", "--out", data,
                 "--seed", "7"]) == 0
    assert main(["init", "--data", data, "--out", models] + TINY_FLAGS) == 0
    assert main(["edge", "--causes", "A", "--effect", "B", "--data", data,
                 "--models", models] + TINY_FLAGS) == 0
    cands = root / "cands.json"
    cands.write_text(json.dumps({"B": ["A"]}))
    assert main(["explore", "--candidates", str(cands), "--data", data,
                 "--models", models, "--out", reports] + TINY_FLAGS) == 0
    assert main(["report", run_dir, "--format", "csv", "--data", data,
                 "--models", models] + TINY_FLAGS) == 0
    assert main(["report", run_dir, "--format", "svg", "--data", data,
                 "--models", models] + TINY_FLAGS) == 0
    return {"root": root, "spec": str(spec_path), "data": data,
            "models": models, "reports": reports, "run_dir": run_dir,
            "cands": str(cands)}


# ------------------------------------------------------------ pipeline

def test_synth_writes_the_dataset(workspace):
    assert os.path.exists(workspace["data"])
    with open(workspace["data"], newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["date", "A.a0", "A.a1", "B.a0", "B.a1"]


def test_init_saves_models_metrics_and_config(workspace):
    models = workspace["models"]
    for name in ("A.json", "B.json", "node_metrics.csv", "config_used.txt"):
        assert os.path.exists(os.path.join(models, name)), name
    with open(os.path.join(models, "node_metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["node"] for r in rows] == ["A", "B"]
    assert all(float(r["rmse_scaled"]) > 0 for r in rows)


def test_edge_saves_the_relation_and_its_metrics(workspace):
    models = workspace["models"]
    assert os.path.exists(os.path.join(models, "rel_A__B.json"))
    with open(os.path.join(models, "rel_A__B_metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["effect"] == "B" and rows[0]["causes"] == "A"


def test_explore_emits_rounds_edges_and_summary(workspace):
    reports = workspace["reports"]
    with open(os.path.join(reports, "explore_edges.json")) as fh:
        edges = json.load(fh)
    assert edges == [["A", "B"]]
    with open(os.path.join(reports, "explore_rounds.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["round", "A->B"]
    assert os.path.exists(os.path.join(reports, "explore_rounds.txt"))
    with open(os.path.join(reports, "explore_summary.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "A->B"]
    assert rows[1][0] == "KLD" and rows[2][0] == "Gain"


def test_report_writes_tables_and_plots(workspace):
    run_dir = workspace["run_dir"]
    with open(os.path.join(run_dir, "report_relations.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["effect"] == "B"
    assert os.path.exists(os.path.join(run_dir, "report_nodes.csv"))
    assert os.path.exists(os.path.join(run_dir, "plot_B.svg"))
    assert os.path.exists(os.path.join(run_dir, "plot_B.csv"))


def test_report_plots_what_decode_node_returns(workspace):
    """Both plotted lines are decode_node's mask-gated values: of the
    relation's prediction and of the effect's own encoding."""
    model = load_micro_causal(os.path.join(workspace["models"], "rel_A__B.json"))
    dataset = load_csv(workspace["data"])
    lo, hi = kfold_split(dataset["B"].steps, 4).bounds[-1]
    test_ts = np.arange(max(lo, model.window_n), hi)
    em = model.effect_model
    relation, _ = decode_node(em, predict_latent(model, dataset, test_ts))
    feats = featurize_series(dataset["B"], em.scaler)[test_ts]
    initialized, _ = decode_node(em, em.encode(feats, cache=False))
    with open(os.path.join(workspace["run_dir"], "plot_B.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["relation"]) for r in rows] == relation[:, 0].tolist()
    assert [float(r["initialized"]) for r in rows] == initialized[:, 0].tolist()


def test_synth_prints_a_summary_table(workspace, capsys, tmp_path):
    out = str(tmp_path / "again.csv")
    assert main(["synth", workspace["spec"], "--days", "120", "--out", out,
                 "--seed", "7"]) == 0
    printed = capsys.readouterr().out
    assert "nonzero_rate" in printed
    assert f"wrote {out} (120 rows, 2 nodes)" in printed


def test_explore_prints_edges_and_stop_reason(workspace, capsys, tmp_path):
    out = str(tmp_path / "rep2")
    assert main(["explore", "--candidates", workspace["cands"],
                 "--data", workspace["data"], "--models", workspace["models"],
                 "--out", out] + TINY_FLAGS) == 0
    printed = capsys.readouterr().out
    assert "A -> B" in printed
    assert "stop: exhausted" in printed


# --------------------------------------------------- config precedence

def test_flags_override_the_config_file(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 5\nlatent_dim = 4\nnum_keys = 1\n"
                   "hidden_width = 16\nbatch_size = 32\nfolds = 4\nseed = 7\n")
    out = str(tmp_path / "models")
    assert main(["init", "--data", workspace["data"], "--out", out,
                 "--config", str(cfg), "--epochs", "2"]) == 0
    used = (tmp_path / "models" / "config_used.txt").read_text()
    lines = {k.strip(): v.strip() for k, _, v in
             (line.partition("=") for line in used.strip().split("\n"))}
    assert lines["epochs"] == "2"          # flag wins
    assert lines["latent_dim"] == "4"      # file value survives


def _nan_cell_copy(data, path):
    lines = open(data).read().split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines))
    return str(path)


def test_csv_report_does_not_read_the_dataset(workspace, tmp_path):
    bad = _nan_cell_copy(workspace["data"], tmp_path / "nan.csv")
    run_dir = tmp_path / "run"
    assert main(["report", str(run_dir), "--format", "csv", "--data", bad,
                 "--models", workspace["models"]] + TINY_FLAGS) == 0
    with open(os.path.join(workspace["run_dir"], "report_relations.csv"), "rb") as fh:
        assert (run_dir / "report_relations.csv").read_bytes() == fh.read()
    # the plots do read it, and refuse the bad cell
    assert main(["report", str(run_dir), "--format", "svg", "--data", bad,
                 "--models", workspace["models"]] + TINY_FLAGS) == 3


# ----------------------------------------------------------- failures

def test_config_errors_exit_2(workspace, tmp_path, capsys):
    assert main(["synth", workspace["spec"], "--days", "0",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["synth", workspace["spec"], "--days", "30"]) == 2
    assert main(["edge", "--causes", "Z", "--effect", "B",
                 "--data", workspace["data"],
                 "--models", workspace["models"]] + TINY_FLAGS) == 2
    assert main(["report", str(tmp_path / "r"), "--format", "pdf",
                 "--data", workspace["data"],
                 "--models", workspace["models"]]) == 2
    bad_cands = tmp_path / "bad.json"
    bad_cands.write_text(json.dumps({"B": ["Q"]}))
    assert main(["explore", "--candidates", str(bad_cands),
                 "--data", workspace["data"], "--models", workspace["models"],
                 "--out", str(tmp_path / "rep")] + TINY_FLAGS) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def _drop_column(data, path, column):
    rows = [line.split(",") for line in open(data).read().strip().split("\n")]
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    path.write_text("\n".join(",".join(r[i] for i in keep) for r in rows) + "\n")
    return str(path)


def _cands_file(tmp_path, text):
    path = tmp_path / "cands.json"
    path.write_text(text)
    return str(path)


def _explore_argv(ws, tmp_path, cands=None, data=None):
    return ["explore", "--candidates", cands or ws["cands"], "--data",
            data or ws["data"], "--models", ws["models"],
            "--out", str(tmp_path / "rep")] + TINY_FLAGS


def _edge_argv(ws, data=None):
    return ["edge", "--causes", "A", "--effect", "B", "--data", data or ws["data"],
            "--models", ws["models"]] + TINY_FLAGS


def _one_attribute_a(ws, tmp_path):
    return _drop_column(ws["data"], tmp_path / "narrow.csv", "A.a1")


BAD_OUTSIDE_INPUT = {
    "missing candidate map": (2, lambda ws, tmp: _explore_argv(
        ws, tmp, str(tmp / "ghost.json"))),
    "candidate map not JSON": (2, lambda ws, tmp: _explore_argv(
        ws, tmp, _cands_file(tmp, '{"B": ['))),
    "parents a number": (2, lambda ws, tmp: _explore_argv(
        ws, tmp, _cands_file(tmp, '{"B": 5}'))),
    "parents a string": (2, lambda ws, tmp: _explore_argv(
        ws, tmp, _cands_file(tmp, '{"B": "A"}'))),
    "parent name a list": (2, lambda ws, tmp: _explore_argv(
        ws, tmp, _cands_file(tmp, '{"B": [["A"]]}'))),
    "missing config file": (2, lambda ws, tmp: _explore_argv(ws, tmp)
                            + ["--config", str(tmp / "ghost.cfg")]),
    "edge latent_dim": (2, lambda ws, tmp: _edge_argv(ws) + ["--latent_dim", "3"]),
    "explore latent_dim": (2, lambda ws, tmp: _explore_argv(ws, tmp)
                           + ["--latent_dim", "3"]),
    "edge attribute count": (3, lambda ws, tmp: _edge_argv(ws, _one_attribute_a(ws, tmp))),
    "explore attribute count": (3, lambda ws, tmp: _explore_argv(
        ws, tmp, data=_one_attribute_a(ws, tmp))),
    "svg report attribute count": (3, lambda ws, tmp: [
        "report", str(tmp / "run"), "--format", "svg", "--data",
        _one_attribute_a(ws, tmp), "--models", ws["models"]]),
}


@pytest.mark.parametrize("case", list(BAD_OUTSIDE_INPUT))
def test_bad_outside_input_fails_at_load_with_its_exit_code(workspace, tmp_path,
                                                            capsys, case):
    code, argv = BAD_OUTSIDE_INPUT[case]
    assert main(argv(workspace, tmp_path)) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_data_errors_exit_3(tmp_path, capsys):
    assert main(["init", "--data", str(tmp_path / "ghost.csv"),
                 "--out", str(tmp_path / "m")] + TINY_FLAGS) == 3
    assert "error:" in capsys.readouterr().err
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("date,A.a1,A.a0\n2000-01-01,1.0,2.0\n")
    assert main(["init", "--data", str(swapped),
                 "--out", str(tmp_path / "m")] + TINY_FLAGS) == 3
    assert "out of order" in capsys.readouterr().err


def test_bad_numbers_fail_at_load(workspace, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("lr = nan\n")
    assert main(["init", "--data", workspace["data"], "--out",
                 str(tmp_path / "m"), "--config", str(cfg)]) == 2
    # configs written before window_m was dropped are refused, not misread
    old = tmp_path / "old.cfg"
    old.write_text("window_m = 1\n")
    assert main(["init", "--data", workspace["data"], "--out",
                 str(tmp_path / "m"), "--config", str(old)]) == 2
    bad = _nan_cell_copy(workspace["data"], tmp_path / "nan.csv")
    assert main(["init", "--data", bad, "--out", str(tmp_path / "m")]
                + TINY_FLAGS) == 3
    assert not os.path.exists(tmp_path / "m")


def test_training_errors_exit_4(workspace, tmp_path):
    short = str(tmp_path / "short.csv")
    assert main(["synth", workspace["spec"], "--days", "75", "--out", short,
                 "--seed", "7"]) == 0
    assert main(["edge", "--causes", "A", "--effect", "B", "--data", short,
                 "--models", workspace["models"]] + TINY_FLAGS) == 4


def test_exploration_errors_exit_5(workspace, tmp_path):
    cands = tmp_path / "cyclic.json"
    cands.write_text(json.dumps({"A": ["B"], "B": ["A"]}))
    assert main(["explore", "--candidates", str(cands),
                 "--data", workspace["data"], "--models", workspace["models"],
                 "--out", str(tmp_path / "rep")] + TINY_FLAGS) == 5


def test_persistence_errors_exit_6(workspace, tmp_path):
    assert main(["report", str(tmp_path / "run"), "--format", "csv",
                 "--data", workspace["data"],
                 "--models", str(tmp_path / "missing_models")]) == 6


def test_corrupted_model_makes_explore_exit_6(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "A.json").read_text())
    doc["model"]["layers"]["enc1"]["W"]["data"] = "not*base64"
    (models / "A.json").write_text(json.dumps(doc))
    assert main(["explore", "--candidates", workspace["cands"],
                 "--data", workspace["data"], "--models", str(models),
                 "--out", str(tmp_path / "rep")] + TINY_FLAGS) == 6
    assert "layer A.enc1 W is not valid base64" in capsys.readouterr().err


def test_schema_1_and_2_model_files_give_the_same_run(workspace, tmp_path,
                                                     monkeypatch):
    """Both schemas store models exactly: init writes the same metrics
    at either, and edge, which trains on the node models it reloads,
    writes the same metrics and the same weights."""
    runs = {}
    for version in (1, 2):
        out = str(tmp_path / f"v{version}")
        with monkeypatch.context() as patch:
            if version == 1:
                patch.setattr(persistence, "SCHEMA_VERSION", 1)
                patch.setattr(persistence, "_array_doc",
                              lambda a: np.asarray(a, dtype=float).tolist())
            assert main(["init", "--data", workspace["data"], "--out", out]
                        + TINY_FLAGS) == 0
            assert main(["edge", "--causes", "A", "--effect", "B", "--data",
                         workspace["data"], "--models", out] + TINY_FLAGS) == 0
        with open(os.path.join(out, "A.json")) as fh:
            assert json.load(fh)["schema_version"] == version
        runs[version] = out
    for name in ("node_metrics.csv", "rel_A__B_metrics.csv"):
        with open(os.path.join(runs[1], name), "rb") as v1, \
                open(os.path.join(runs[2], name), "rb") as v2:
            assert v1.read() == v2.read(), name
    for name, load in (("A.json", load_node_model), ("B.json", load_node_model),
                       ("rel_A__B.json", load_micro_causal)):
        v1 = model_arrays(load(os.path.join(runs[1], name)))
        v2 = model_arrays(load(os.path.join(runs[2], name)))
        assert len(v1) == len(v2) > 0
        for a, b in zip(v1, v2):
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


def test_failed_model_write_exits_6_and_keeps_the_old_file(workspace, tmp_path,
                                                           monkeypatch):
    out = tmp_path / "models"
    out.mkdir()
    shutil.copy(os.path.join(workspace["models"], "A.json"), out / "A.json")
    before = (out / "A.json").read_bytes()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert main(["init", "--data", workspace["data"], "--out", str(out)]
                + TINY_FLAGS) == 6
    assert (out / "A.json").read_bytes() == before
    assert sorted(os.listdir(out)) == ["A.json"]


class _CrashedPool:
    """A process pool whose worker has died."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def map(self, fn, jobs):
        raise BrokenProcessPool("a child process terminated abruptly")

    def shutdown(self):
        pass


def test_crashed_pool_workers_get_mapped_exit_codes(workspace, tmp_path,
                                                    monkeypatch, capsys):
    # rirl.explore is also the name of a function the package exports
    for module in ("rirl.cli", "rirl.explore"):
        monkeypatch.setattr(importlib.import_module(module), "process_pool",
                            lambda *a, **k: _CrashedPool())
    assert main(["init", "--data", workspace["data"], "--out",
                 str(tmp_path / "m"), "--workers", "2"] + TINY_FLAGS) == 4
    assert "node training pool" in capsys.readouterr().err
    assert main(["explore", "--candidates", workspace["cands"],
                 "--data", workspace["data"], "--models", workspace["models"],
                 "--out", str(tmp_path / "rep"), "--workers", "2"]
                + TINY_FLAGS) == 5
    assert "strength evaluation pool" in capsys.readouterr().err
