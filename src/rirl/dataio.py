"""Synthetic tiered-DAG time series, CSV round-trips, scaling, folds.

The generator stands in for an unavailable watershed simulation: source
nodes follow a yearly sinusoid plus AR(1) noise, every edge adds a
softplus response of the z-scored, lagged parent signal, and per-node
quantile masking zeroes the smallest values until a target non-zero
rate is met. Children always consume post-mask parent values, so the
masks are part of the causal story, not cosmetics.
"""

import csv
import datetime
import json
from dataclasses import dataclass

import numpy as np

from .config import substream
from .errors import ConfigError, DataError

START_DATE = datetime.date(2000, 1, 1)
TIER_GAIN = {1: 1.0, 2: 0.45, 3: 0.2}
AR_PHI = 0.8


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, values):
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def invert(self, scaled):
        return np.asarray(scaled, dtype=float) * self.std + self.mean


@dataclass
class NodeSeries:
    name: str
    values: np.ndarray          # (T, d) engineering units
    mask: np.ndarray            # (T, d) uint8, 1 where value != 0
    months: np.ndarray          # (T,) int, 1..12
    dates: list
    scaler: Scaler = None

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def steps(self):
        return self.values.shape[0]


@dataclass
class NodeDef:
    name: str
    dim: int
    nonzero_rate: float = 1.0
    amplitude: float = 1.0


@dataclass
class EdgeDef:
    cause: str
    effect: str
    tier: int
    lag: int = 1
    gain: float = None

    def effective_gain(self):
        return TIER_GAIN[self.tier] if self.gain is None else self.gain


@dataclass
class DagSpec:
    nodes: list
    edges: list
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate node names in spec")
        for n in self.nodes:
            if n.dim < 1:
                raise ConfigError(f"node {n.name}: dimension must be >= 1")
            if not 0.0 < n.nonzero_rate <= 1.0:
                raise ConfigError(f"node {n.name}: non-zero rate must be in (0, 1]")
            if n.amplitude <= 0:
                raise ConfigError(f"node {n.name}: amplitude must be positive")
        known = set(names)
        for e in self.edges:
            if e.cause not in known or e.effect not in known:
                raise ConfigError(f"edge {e.cause}->{e.effect}: unknown node")
            if e.cause == e.effect:
                raise ConfigError(f"edge {e.cause}->{e.effect}: self loop")
            if e.tier not in TIER_GAIN:
                raise ConfigError(f"edge {e.cause}->{e.effect}: tier must be 1, 2 or 3")
            if e.lag < 1:
                raise ConfigError(f"edge {e.cause}->{e.effect}: lag must be >= 1")
            if e.effective_gain() <= 0:
                raise ConfigError(f"edge {e.cause}->{e.effect}: gain must be positive")
        by_tier = {}
        for e in self.edges:
            by_tier.setdefault(e.tier, []).append(e.effective_gain())
        tiers = sorted(by_tier)
        for lo, hi in zip(tiers, tiers[1:]):
            if min(by_tier[lo]) <= max(by_tier[hi]):
                raise ConfigError(
                    f"tier {lo} gains must all exceed tier {hi} gains")
        self.topo_order()

    def topo_order(self):
        """Kahn's algorithm; a leftover node means a cycle."""
        names = [n.name for n in self.nodes]
        indeg = {n: 0 for n in names}
        children = {n: [] for n in names}
        for e in self.edges:
            indeg[e.effect] += 1
            children[e.cause].append(e.effect)
        ready = [n for n in names if indeg[n] == 0]
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(order) != len(names):
            raise ConfigError("spec DAG contains a cycle")
        return order

    def parents_of(self, name):
        return [e for e in self.edges if e.effect == name]

    def to_json(self, path):
        doc = {
            "seed": self.seed,
            "nodes": [{"name": n.name, "dim": n.dim,
                       "nonzero_rate": n.nonzero_rate,
                       "amplitude": n.amplitude} for n in self.nodes],
            "edges": [{"cause": e.cause, "effect": e.effect, "tier": e.tier,
                       "lag": e.lag, "gain": e.gain} for e in self.edges],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            nodes = [NodeDef(name=n["name"], dim=int(n["dim"]),
                             nonzero_rate=float(n.get("nonzero_rate", 1.0)),
                             amplitude=float(n.get("amplitude", 1.0)))
                     for n in doc["nodes"]]
            edges = [EdgeDef(cause=e["cause"], effect=e["effect"],
                             tier=int(e["tier"]), lag=int(e.get("lag", 1)),
                             gain=None if e.get("gain") is None else float(e["gain"]))
                     for e in doc.get("edges", [])]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad spec document {path}: {exc}") from exc
        return cls(nodes=nodes, edges=edges, seed=int(doc.get("seed", 0)))


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def synth_generate(spec, days, seed):
    """Generate the dataset for a DagSpec. Deterministic in (spec, seed)."""
    spec.validate()
    if days < 1:
        raise ConfigError("days must be >= 1")
    T = int(days)
    dates = [START_DATE + datetime.timedelta(days=t) for t in range(T)]
    months = np.array([d.month for d in dates], dtype=int)
    defs = {n.name: n for n in spec.nodes}
    order = spec.topo_order()
    dataset = {}
    for name in order:
        node = defs[name]
        rng = substream(seed, "synth", spec.seed, name)
        incoming = spec.parents_of(name)
        scale = node.amplitude if not incoming else 0.35 * node.amplitude
        values = np.zeros((T, node.dim))
        for a in range(node.dim):
            phase = rng.uniform(0.0, 365.0)
            trend = scale * np.sin(2.0 * np.pi * (np.arange(T) + phase) / 365.0)
            eps = rng.normal(0.0, 0.35 * scale, size=T)
            ar = np.empty(T)
            ar[0] = eps[0] / np.sqrt(1.0 - AR_PHI * AR_PHI)
            for t in range(1, T):
                ar[t] = AR_PHI * ar[t - 1] + eps[t]
            values[:, a] = trend + ar
        for e in incoming:
            parent = dataset[e.cause]
            agg = parent.values.mean(axis=1)
            lagged = np.concatenate([np.full(e.lag, agg[0]), agg[:-e.lag]])
            sd = lagged.std()
            z = (lagged - lagged.mean()) / sd if sd > 1e-12 else np.zeros(T)
            contrib = e.effective_gain() * _softplus(z)
            values += contrib[:, None]
        if node.nonzero_rate < 1.0:
            for a in range(node.dim):
                thr = np.quantile(values[:, a], 1.0 - node.nonzero_rate)
                values[:, a] = np.where(values[:, a] > thr, values[:, a], 0.0)
        mask = (values != 0.0).astype(np.uint8)
        dataset[name] = NodeSeries(name=name, values=values, mask=mask,
                                   months=months, dates=list(dates),
                                   scaler=scale_fit_arrays(values, mask, name))
    # order the mapping as declared in the spec, not topologically
    return {n.name: dataset[n.name] for n in spec.nodes}


def scale_fit_arrays(values, mask, name):
    d = values.shape[1]
    mean = np.empty(d)
    std = np.empty(d)
    for a in range(d):
        sel = values[mask[:, a] == 1, a]
        if sel.size == 0:
            raise DataError(f"node {name}: attribute a{a} has no non-zero entries")
        mean[a] = sel.mean()
        std[a] = sel.std()
        if std[a] < 1e-12:
            raise DataError(f"node {name}: attribute a{a} has zero std")
    return Scaler(mean=mean, std=std)


def scale_fit(series):
    """Z-score parameters per attribute, over non-masked entries only."""
    return scale_fit_arrays(series.values, series.mask, series.name)


def save_csv(dataset, path):
    names = list(dataset)
    steps = {s.steps for s in dataset.values()}
    if len(steps) != 1:
        raise DataError("save_csv: node series lengths differ")
    T = steps.pop()
    header = ["date"]
    for name in names:
        header.extend(f"{name}.a{a}" for a in range(dataset[name].dim))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(T):
            row = [dataset[names[0]].dates[t].isoformat()]
            for name in names:
                row.extend("%.17g" % v for v in dataset[name].values[t])
            writer.writerow(row)


def load_csv(path):
    """Read a dataset written by save_csv.

    Each node's columns, in header order, must be <node>.a0, <node>.a1,
    and so on; other nodes' columns may come between them.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != "date":
            raise DataError(f"{path}: first column must be 'date'")
        columns = header[1:]
        groups = {}
        for idx, col in enumerate(columns):
            node, dot, attr = col.partition(".")
            if not dot:
                raise DataError(f"{path}: column {col!r} is not <node>.<attr>")
            idxs = groups.setdefault(node, [])
            if attr != f"a{len(idxs)}":
                raise DataError(f"{path}: column {col!r} is out of order, "
                                f"expected {node}.a{len(idxs)}")
            idxs.append(idx)
        rows = []
        dates = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(columns) + 1:
                raise DataError(
                    f"{path}: line {lineno}: expected {len(columns) + 1} fields, got {len(row)}")
            try:
                day = datetime.date.fromisoformat(row[0])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad date {row[0]!r}") from exc
            if day in seen:
                raise DataError(f"{path}: line {lineno}: duplicate date {row[0]}")
            seen.add(day)
            dates.append(day)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: unparseable number ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        lineno = int(np.argmin(finite)) + 2
        raise DataError(f"{path}: line {lineno}: non-finite number (nan or inf)")
    months = np.array([d.month for d in dates], dtype=int)
    dataset = {}
    for name, idxs in groups.items():
        values = table[:, idxs]
        mask = (values != 0.0).astype(np.uint8)
        dataset[name] = NodeSeries(name=name, values=values, mask=mask,
                                   months=months, dates=list(dates),
                                   scaler=scale_fit_arrays(values, mask, name))
    return dataset


@dataclass
class FoldPlan:
    k: int
    bounds: list   # [(start, end)) per fold, contiguous and covering

    def test_indices(self, i):
        s, e = self.bounds[i]
        return np.arange(s, e)

    def train_indices(self, i):
        s, e = self.bounds[i]
        total = self.bounds[-1][1]
        return np.concatenate([np.arange(0, s), np.arange(e, total)])


def kfold_split(T_steps, k):
    """Contiguous time blocks, remainder spread over the first folds."""
    if k < 2:
        raise ConfigError("kfold_split: k must be >= 2")
    if T_steps < 10 * k:
        raise ConfigError(f"kfold_split: need at least {10 * k} steps, got {T_steps}")
    base, rem = divmod(T_steps, k)
    bounds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return FoldPlan(k=k, bounds=bounds)
