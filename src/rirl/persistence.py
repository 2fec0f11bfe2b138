"""Versioned JSON persistence for trained models.

Every document carries schema_version and a kind tag. Loading checks
both before touching the payload, and any structural problem raises
PersistenceError rather than handing back a half-built model.
"""

import dataclasses
import json
import os

import numpy as np

from .coupling import Key
from .dataio import Scaler
from .errors import PersistenceError
from .metrics import MetricRow
from .nn import DenseLayer
from .noderepr import NodeAutoencoder
from .relation import MicroCausalModel, RelationModel

SCHEMA_VERSION = 1


def _layer_doc(layer):
    return {
        "in": layer.in_dim,
        "out": layer.out_dim,
        "activation": layer.activation,
        "W": layer.W.tolist(),
        "b": layer.b.tolist(),
    }


def _layer_from_doc(doc):
    layer = DenseLayer(int(doc["in"]), int(doc["out"]), doc["activation"])
    W = np.asarray(doc["W"], dtype=float)
    b = np.asarray(doc["b"], dtype=float)
    if W.shape != layer.W.shape or b.shape != layer.b.shape:
        raise PersistenceError(
            f"layer weights have shape {W.shape}, expected {layer.W.shape}")
    layer.W = W
    layer.b = b
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
        doc["scaler"] = {"mean": model.scaler.mean.tolist(),
                         "std": model.scaler.std.tolist()}
    return doc


def _node_from_doc(doc):
    try:
        scaler = None
        if doc["scaler"] is not None:
            scaler = Scaler(np.asarray(doc["scaler"]["mean"], dtype=float),
                            np.asarray(doc["scaler"]["std"], dtype=float))
        model = NodeAutoencoder(
            name=doc["name"], dim=int(doc["dim"]),
            latent_dim=int(doc["latent_dim"]), num_keys=int(doc["num_keys"]),
            hidden=int(doc["hidden"]), scaler=scaler)
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
            setattr(model, name, _layer_from_doc(stored[name]))
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
            hidden=int(doc["hidden"]),
            in_dim=int(doc["l1"]["in"]))
        model.l1 = _layer_from_doc(doc["l1"])
        model.l2 = _layer_from_doc(doc["l2"])
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
            json.dump(doc, fh, indent=1)
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
    if version != SCHEMA_VERSION:
        raise PersistenceError(
            f"{path} has schema_version {version!r}, this code reads "
            f"{SCHEMA_VERSION}")
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
