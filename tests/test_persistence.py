import json
import os

import numpy as np
import pytest

from rirl import persistence
from rirl.config import substream
from rirl.dataio import DagSpec, NodeDef, Scaler, synth_generate
from rirl.errors import PersistenceError
from rirl.metrics import MetricRow
from rirl.noderepr import NodeAutoencoder, decode_node, featurize
from rirl.persistence import (SCHEMA_VERSION, load_micro_causal,
                              load_node_model, save_micro_causal,
                              save_node_model)
from rirl.relation import MicroCausalModel, RelationModel, predict_latent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "node_G.json")


def build_node_model(name="N", seed=31):
    return NodeAutoencoder(name, dim=2, latent_dim=3, num_keys=2, hidden=6,
                           scaler=Scaler(mean=np.array([1.0, -2.0]),
                                         std=np.array([0.5, 3.0])),
                           rng=substream(seed, "persist", name))


def build_micro_model(seed=32):
    cause = build_node_model("A", seed)
    effect = build_node_model("B", seed + 1)
    relation = RelationModel(("A",), "B", window_n=4, latent_dim=3, hidden=6,
                             rng=substream(seed, "persist-rel"))
    metrics = MetricRow(effect="B", causes="A", rmse_scaled=0.1,
                        rmse_unscaled=0.3, mask_bce=0.02, latent_kld=1.5)
    return MicroCausalModel(causes=("A",), cause_models={"A": cause},
                            relation=relation, effect_model=effect,
                            window_n=4, metrics=metrics)


# ----------------------------------------------------------- roundtrip

def test_node_model_roundtrips_bit_exactly(tmp_path):
    model = build_node_model()
    path = str(tmp_path / "node.json")
    save_node_model(model, path)
    back = load_node_model(path)
    assert back.name == model.name
    assert back.dim == model.dim and back.latent_dim == model.latent_dim
    for (_, a), (_, b) in zip(model.named_layers(), back.named_layers()):
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
    for ka, kb in zip(model.keys, back.keys):
        assert ka == kb
    np.testing.assert_array_equal(back.scaler.mean, model.scaler.mean)
    np.testing.assert_array_equal(back.scaler.std, model.scaler.std)
    feat = featurize(np.array([0.7, -1.1]), month=9, scaler=model.scaler)
    np.testing.assert_array_equal(back.encode(feat, cache=False),
                                  model.encode(feat, cache=False))


def test_micro_causal_roundtrips_with_identical_forward(tmp_path):
    model = build_micro_model()
    model.training_log = {"epoch_loss": [0.5], "step2_reverts": 0}
    path = str(tmp_path / "micro.json")
    save_micro_causal(model, path)
    back = load_micro_causal(path)
    assert back.causes == ("A",)
    # the training log is not stored: a loaded model has none
    assert back.training_log is None
    assert (back.relation.causes, back.relation.effect) == \
        (model.relation.causes, model.relation.effect)
    assert back.metrics == model.metrics
    data = synth_generate(DagSpec(nodes=[NodeDef("A", 2)], edges=[], seed=4), 40, 4)
    ts = np.arange(4, 40)
    v1 = predict_latent(model, data, ts)
    v2 = predict_latent(back, data, ts)
    np.testing.assert_array_equal(v1, v2)
    for got, want in zip(decode_node(back.effect_model, v2),
                         decode_node(model.effect_model, v1)):
        np.testing.assert_array_equal(got, want)


def test_node_model_without_scaler_roundtrips(tmp_path):
    model = NodeAutoencoder("S", dim=1, latent_dim=2, num_keys=1, hidden=4,
                            rng=substream(7, "persist-bare"))
    path = str(tmp_path / "bare.json")
    save_node_model(model, path)
    assert load_node_model(path).scaler is None


def test_save_creates_parent_directories(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "node.json")
    save_node_model(build_node_model(), path)
    assert os.path.exists(path)


def test_failed_write_leaves_the_earlier_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "node.json"
    save_node_model(build_node_model(), str(path))
    before = path.read_bytes()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"schema_version": 1, "ki')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(persistence.json, "dump", dump_then_fail)
    with pytest.raises(PersistenceError, match="cannot write"):
        save_node_model(build_node_model(seed=99), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["node.json"]


# ------------------------------------------------------------- errors

def test_load_refuses_missing_and_invalid_files(tmp_path):
    with pytest.raises(PersistenceError, match="cannot read"):
        load_node_model(str(tmp_path / "ghost.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    with pytest.raises(PersistenceError, match="not valid JSON"):
        load_node_model(str(bad))
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2, 3]\n")
    with pytest.raises(PersistenceError, match="does not hold a model"):
        load_node_model(str(listing))


def test_load_checks_schema_version_and_kind(tmp_path):
    path = str(tmp_path / "node.json")
    save_node_model(build_node_model(), path)
    with open(path) as fh:
        doc = json.load(fh)

    doc["schema_version"] = SCHEMA_VERSION + 1
    future = tmp_path / "future.json"
    future.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match="schema_version"):
        load_node_model(str(future))

    doc["schema_version"] = SCHEMA_VERSION
    with pytest.raises(PersistenceError, match="expected 'micro_causal'"):
        load_micro_causal(path)


def test_load_flags_structural_damage(tmp_path):
    path = str(tmp_path / "node.json")
    save_node_model(build_node_model(), path)
    with open(path) as fh:
        doc = json.load(fh)

    headless = dict(doc)
    del headless["model"]
    p1 = tmp_path / "headless.json"
    p1.write_text(json.dumps(headless))
    with pytest.raises(PersistenceError, match="missing the model payload"):
        load_node_model(str(p1))

    amputated = json.loads(json.dumps(doc))
    del amputated["model"]["layers"]["enc2"]
    p2 = tmp_path / "amputated.json"
    p2.write_text(json.dumps(amputated))
    with pytest.raises(PersistenceError, match="missing layer enc2"):
        load_node_model(str(p2))

    warped = json.loads(json.dumps(doc))
    warped["model"]["layers"]["enc1"]["W"] = [[1.0, 2.0], [3.0, 4.0]]
    p3 = tmp_path / "warped.json"
    p3.write_text(json.dumps(warped))
    with pytest.raises(PersistenceError, match="shape"):
        load_node_model(str(p3))


def test_micro_causal_load_requires_every_cause_model(tmp_path):
    path = str(tmp_path / "micro.json")
    save_micro_causal(build_micro_model(), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["causes"] = ["A", "Z"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match=r"lacks cause models for \['Z'\]"):
        load_micro_causal(str(broken))


# -------------------------------------------------------------- golden

def test_golden_document_still_loads_and_predicts_the_same():
    """A committed model file pins the on-disk format: if loading or the
    forward pass drifts, these literals catch it."""
    model = load_node_model(GOLDEN)
    assert model.name == "G" and model.dim == 2
    feat = featurize(np.array([1.0, 2.0]), month=6, scaler=model.scaler)
    z = model.encode(feat, cache=False)
    np.testing.assert_allclose(
        z, [0.6264175049865017, -0.0765460307980614, -0.0667232450589132],
        rtol=0, atol=1e-15)
    feat_hat, mask_prob = model.decode_latent(z, cache=False)
    np.testing.assert_allclose(
        mask_prob, [0.5220742355714473, 0.5252296425015668],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        feat_hat[:2], [-0.00896546405287588, 0.020904870970653966],
        rtol=0, atol=1e-15)
