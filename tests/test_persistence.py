import base64
import json
import os

import numpy as np
import pytest
from conftest import model_arrays

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
GOLDEN_V2 = os.path.join(os.path.dirname(__file__), "golden", "node_G_v2.json")


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
    feat = featurize(np.array([[0.7, -1.1]]), month=[9], scaler=model.scaler)
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


def test_roundtrip_keeps_every_bit_of_edge_case_values(tmp_path):
    planted = [-0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
               -1e300, 0.1, 1.0 / 3.0, np.nextafter(1.0, 2.0), 0.0, 2.0 ** -1074]
    model = build_node_model()
    model.enc2.W.flat[:len(planted)] = planted
    path = str(tmp_path / "node.json")
    save_node_model(model, path)
    back = load_node_model(path)
    assert back.enc2.W.tobytes() == model.enc2.W.tobytes()
    assert np.signbit(back.enc2.W.flat[0])
    for got, want in zip(model_arrays(back), model_arrays(model)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    micro = build_micro_model()
    micro.relation.l1.W.flat[:4] = [-0.0, 5e-324, 1e300, -1e-300]
    path = str(tmp_path / "micro.json")
    save_micro_causal(micro, path)
    back = load_micro_causal(path)
    for got, want in zip(model_arrays(back), model_arrays(micro),
                         strict=True):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_loaded_arrays_are_writable(tmp_path):
    path = str(tmp_path / "node.json")
    save_node_model(build_node_model(), path)
    for a in model_arrays(load_node_model(path)):
        a += 0.0


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


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _set_array(doc, path, values):
    """Store values at doc[path] in the document's own array encoding."""
    *parents, last = path
    for step in parents:
        doc = doc[step]
    if isinstance(doc[last], list):
        doc[last] = np.asarray(values, dtype=float).tolist()
    else:
        doc[last]["data"] = _b64(values)


def _narrow_relation_l1(doc):
    """Halve the relation's input width consistently: l1.in 12 -> 6 and
    l1.W 6x12 -> 6x6, which no longer fits one cause of 4 steps of 3."""
    l1 = doc["relation"]["l1"]
    l1["in"] = 6
    l1["W"].update(shape=[6, 6], data=_b64(np.zeros((6, 6))))


ENC2 = ("model", "layers", "enc2")
CORRUPTIONS = {
    "unknown activation": (
        lambda d: d["model"]["layers"]["enc2"].update(activation="relu"),
        r"layer G\.enc2: unknown activation 'relu'"),
    "bad base64": (
        lambda d: d["model"]["layers"]["enc1"]["W"].update(data="AAAA*AAA"),
        "not valid base64"),
    "byte count": (
        lambda d: d["model"]["layers"]["enc2"]["W"].update(
            data=_b64(np.zeros(11))),
        r"holds 88 bytes, shape \(3, 4\) needs 96"),
    "dtype": (
        lambda d: d["model"]["layers"]["enc2"]["W"].update(dtype="<f4"),
        "dtype '<f4', expected '<f8'"),
    "shape": (
        lambda d: d["model"]["layers"]["enc2"]["W"].update(shape=[4, 3]),
        r"has shape \(4, 3\), expected \(3, 4\)"),
    "nan weight": (
        lambda d: _set_array(d, ENC2 + ("W",), np.full((3, 4), np.nan)),
        r"layer G\.enc2 W holds a non-finite value"),
    "inf bias": (
        lambda d: _set_array(d, ENC2 + ("b",), [0.0, np.inf, 0.0]),
        r"layer G\.enc2 b holds a non-finite value"),
    "inf scaler mean": (
        lambda d: _set_array(d, ("model", "scaler", "mean"), [-np.inf, 0.0]),
        "G scaler mean holds a non-finite value"),
    "zero scaler std": (
        lambda d: _set_array(d, ("model", "scaler", "std"), [0.0, 1.5]),
        "G scaler std has a value <= 0"),
    "negative scaler std": (
        lambda d: _set_array(d, ("model", "scaler", "std"), [2.0, -1.5]),
        "G scaler std has a value <= 0"),
    "narrowed relation l1": (
        _narrow_relation_l1,
        r"layer rel\[A->B\]\.l1 W has shape \(6, 6\), expected \(6, 12\)"),
}
# cases corrupting a saved micro-causal document rather than the golden
MICRO_CASES = ("narrowed relation l1",)
BOTH_SCHEMAS = ("nan weight", "inf bias", "inf scaler mean", "zero scaler std",
                "negative scaler std", "unknown activation")


@pytest.mark.parametrize("case,golden", [
    *[pytest.param(c, GOLDEN_V2, id=f"v2-{c}") for c in CORRUPTIONS
      if c not in MICRO_CASES],
    *[pytest.param(c, GOLDEN, id=f"v1-{c}") for c in BOTH_SCHEMAS],
    *[pytest.param(c, None, id=f"micro-{c}") for c in MICRO_CASES],
])
def test_corrupted_documents_are_refused_at_load(tmp_path, case, golden):
    corrupt, message = CORRUPTIONS[case]
    load = load_node_model
    if golden is None:
        golden, load = str(tmp_path / "micro.json"), load_micro_causal
        save_micro_causal(build_micro_model(), golden)
    with open(golden) as fh:
        doc = json.load(fh)
    corrupt(doc)
    path = tmp_path / "corrupt.json"
    # json.dumps writes NaN and Infinity literals, which json.load reads back
    path.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match=message):
        load(str(path))


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
    feat = featurize(np.array([[1.0, 2.0]]), month=[6], scaler=model.scaler)
    z = model.encode(feat, cache=False)
    np.testing.assert_allclose(
        z[0], [0.6264175049865017, -0.0765460307980614, -0.0667232450589132],
        rtol=0, atol=1e-15)
    feat_hat, mask_prob = model.decode_latent(z, cache=False)
    np.testing.assert_allclose(
        mask_prob[0], [0.5220742355714473, 0.5252296425015668],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        feat_hat[0, :2], [-0.00896546405287588, 0.020904870970653966],
        rtol=0, atol=1e-15)


def test_golden_schema_2_document_predicts_the_schema_1_literals():
    model = load_node_model(GOLDEN_V2)
    assert model.name == "G" and model.dim == 2
    feat = featurize(np.array([[1.0, 2.0]]), month=[6], scaler=model.scaler)
    z = model.encode(feat, cache=False)
    np.testing.assert_allclose(
        z[0], [0.6264175049865017, -0.0765460307980614, -0.0667232450589132],
        rtol=0, atol=1e-15)
    feat_hat, mask_prob = model.decode_latent(z, cache=False)
    np.testing.assert_allclose(
        mask_prob[0], [0.5220742355714473, 0.5252296425015668],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        feat_hat[0, :2], [-0.00896546405287588, 0.020904870970653966],
        rtol=0, atol=1e-15)
    for got, want in zip(model_arrays(model),
                         model_arrays(load_node_model(GOLDEN)), strict=True):
        assert got.tobytes() == want.tobytes()


def test_resaving_the_schema_1_golden_reproduces_the_schema_2_file(tmp_path):
    """The writer is deterministic: the committed schema-2 golden is the
    schema-1 golden loaded and saved again."""
    path = tmp_path / "node_G.json"
    save_node_model(load_node_model(GOLDEN), str(path))
    with open(GOLDEN_V2, "rb") as fh:
        assert path.read_bytes() == fh.read()
    assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION == 2
