"""Versioned JSON persistence for trained models.

Every document carries schema_version and a kind tag. Loading checks
both before touching the payload, and any structural problem raises
PersistenceError rather than handing back a half-built model.

Schema 2 stores each array as {"shape", "dtype": "<f8", "data"}, where
data is the RFC 4648 base64 of the array's little-endian float64 bytes,
so a save/load round trip gives back the same bits. Schema 1 stored
arrays as nested lists of JSON numbers; it is still read.
"""

import base64
import dataclasses
import json
import math
import os

import numpy as np

from .coupling import Key
from .dataio import Scaler
from .errors import ConfigError, PersistenceError
from .metrics import MetricRow
from .nn import DenseLayer
from .noderepr import NodeAutoencoder
from .relation import MicroCausalModel, RelationModel

SCHEMA_VERSION = 2
READABLE_VERSIONS = (1, SCHEMA_VERSION)


def _array_doc(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "dtype": "<f8",
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _array_from_doc(doc, what, shape):
    """The float64 array stored in doc, refused unless it has the given
    shape and every value is finite. A list is a schema-1 array."""
    if isinstance(doc, list):
        a = np.asarray(doc, dtype=float)
    else:
        if doc["dtype"] != "<f8":
            raise PersistenceError(
                f"{what} has dtype {doc['dtype']!r}, expected '<f8'")
        try:
            raw = base64.b64decode(doc["data"], validate=True)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise PersistenceError(f"{what} is not valid base64: {exc}") from exc
        stored = tuple(int(n) for n in doc["shape"])
        if len(raw) != 8 * math.prod(stored):
            raise PersistenceError(
                f"{what} holds {len(raw)} bytes, shape {stored} needs "
                f"{8 * math.prod(stored)}")
        # astype copies the read-only buffer into a writable native array
        a = np.frombuffer(raw, dtype="<f8").astype(float).reshape(stored)
    if a.shape != shape:
        raise PersistenceError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise PersistenceError(f"{what} holds a non-finite value")
    return a


def _layer_doc(layer):
    return {
        "in": layer.in_dim,
        "out": layer.out_dim,
        "activation": layer.activation,
        "W": _array_doc(layer.W),
        "b": _array_doc(layer.b),
    }


def _layer_from_doc(doc, expected):
    """The layer stored in doc, refused unless its arrays have the shapes
    of expected, the freshly built model's own layer."""
    try:
        layer = DenseLayer(expected.in_dim, expected.out_dim,
                           doc["activation"], name=expected.name)
    except ConfigError as exc:
        raise PersistenceError(f"layer {expected.name}: {exc}") from exc
    layer.W = _array_from_doc(doc["W"], f"layer {expected.name} W",
                              layer.W.shape)
    layer.b = _array_from_doc(doc["b"], f"layer {expected.name} b",
                              layer.b.shape)
    return layer


def _node_doc(model):
    doc = {
        "name": model.name,
        "dim": model.dim,
        "latent_dim": model.latent_dim,
        "num_keys": model.num_keys,
        "hidden": model.hidden,
        "keys": [
            {"key_id": k.key_id, "seed": k.seed, "a_s": k.a_s, "g_s": k.g_s,
             "a_t": k.a_t, "g_t": k.g_t}
            for k in model.keys
        ],
        "scaler": None,
        "layers": {name: _layer_doc(layer)
                   for name, layer in model.named_layers()},
    }
    if model.scaler is not None:
        doc["scaler"] = {"mean": _array_doc(model.scaler.mean),
                         "std": _array_doc(model.scaler.std)}
    return doc


def _node_from_doc(doc):
    try:
        model = NodeAutoencoder(
            name=doc["name"], dim=int(doc["dim"]),
            latent_dim=int(doc["latent_dim"]), num_keys=int(doc["num_keys"]),
            hidden=int(doc["hidden"]))
        if doc["scaler"] is not None:
            shape = (model.dim,)
            model.scaler = Scaler(
                _array_from_doc(doc["scaler"]["mean"],
                                f"{model.name} scaler mean", shape),
                _array_from_doc(doc["scaler"]["std"],
                                f"{model.name} scaler std", shape))
            if not (model.scaler.std > 0).all():
                raise PersistenceError(
                    f"{model.name} scaler std has a value <= 0")
        model.keys = tuple(
            Key(key_id=int(k["key_id"]), seed=int(k["seed"]),
                a_s=float(k["a_s"]), g_s=float(k["g_s"]),
                a_t=float(k["a_t"]), g_t=float(k["g_t"]))
            for k in doc["keys"])
        stored = doc["layers"]
        for name, _ in model.named_layers():
            if name not in stored:
                raise PersistenceError(f"model document is missing layer {name}")
        for name, layer in list(model.named_layers()):
            setattr(model, name, _layer_from_doc(stored[name], layer))
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"corrupted node model document: {exc}") from exc


def _relation_doc(model):
    return {
        "causes": list(model.causes),
        "effect": model.effect,
        "window_n": model.window_n,
        "latent_dim": model.latent_dim,
        "hidden": model.hidden,
        "l1": _layer_doc(model.l1),
        "l2": _layer_doc(model.l2),
    }


def _relation_from_doc(doc):
    try:
        model = RelationModel(
            causes=list(doc["causes"]), effect=doc["effect"],
            window_n=int(doc["window_n"]), latent_dim=int(doc["latent_dim"]),
            hidden=int(doc["hidden"]))
        model.l1 = _layer_from_doc(doc["l1"], model.l1)
        model.l2 = _layer_from_doc(doc["l2"], model.l2)
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"corrupted relation document: {exc}") from exc


def save_node_model(model, path):
    doc = {"schema_version": SCHEMA_VERSION, "kind": "node_autoencoder",
           "model": _node_doc(model)}
    _write_doc(doc, path)


def save_micro_causal(model, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "micro_causal",
        "causes": list(model.causes),
        "effect": model.effect_model.name,
        "window_n": model.window_n,
        "cause_models": {name: _node_doc(m)
                         for name, m in model.cause_models.items()},
        "effect_model": _node_doc(model.effect_model),
        "relation": _relation_doc(model.relation),
        "metrics": dataclasses.asdict(model.metrics)
        if isinstance(model.metrics, MetricRow) else model.metrics,
    }
    _write_doc(doc, path)


def _write_doc(doc, path):
    """Write doc to a temporary file beside path, then rename it over
    path, so a failed write leaves any earlier file as it was."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_doc(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"{path} is truncated or not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PersistenceError(f"{path} does not hold a model document")
    version = doc.get("schema_version")
    if version not in READABLE_VERSIONS:
        raise PersistenceError(
            f"{path} has schema_version {version!r}, this code reads "
            f"{' and '.join(map(str, READABLE_VERSIONS))}")
    if doc.get("kind") != kind:
        raise PersistenceError(
            f"{path} holds a {doc.get('kind')!r} document, expected {kind!r}")
    return doc


def load_node_model(path):
    doc = _read_doc(path, "node_autoencoder")
    if "model" not in doc:
        raise PersistenceError(f"{path} is missing the model payload")
    return _node_from_doc(doc["model"])


def load_micro_causal(path):
    doc = _read_doc(path, "micro_causal")
    try:
        cause_models = {name: _node_from_doc(sub)
                        for name, sub in doc["cause_models"].items()}
        effect_model = _node_from_doc(doc["effect_model"])
        relation = _relation_from_doc(doc["relation"])
        metrics = doc.get("metrics")
        if isinstance(metrics, dict) and set(metrics) == {
                f.name for f in dataclasses.fields(MetricRow)}:
            metrics = MetricRow(**metrics)
        model = MicroCausalModel(
            causes=tuple(doc["causes"]), cause_models=cause_models,
            relation=relation, effect_model=effect_model,
            window_n=int(doc["window_n"]),
            metrics=metrics)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"corrupted micro-causal document: {exc}") from exc
    missing = [c for c in model.causes if c not in model.cause_models]
    if missing:
        raise PersistenceError(
            f"micro-causal document lacks cause models for {missing}")
    return model
