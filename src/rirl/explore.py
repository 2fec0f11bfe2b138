"""Greedy latent-space DAG exploration scored by Gaussian KLD gain.

Each round enumerates the edges (p, n) whose parent is already
reachable, whose target the candidate map allows, that are not yet
selected, and that keep the edge list acyclic. The gain of an edge is

    delta_e = K(beta + {p}, n) - K(beta, n)

with beta the already-selected parents of n and K the fold-averaged
KLD between the relationally predicted and the true effect-latent
distributions (K of an empty cause set is 0 by definition). The
smallest delta wins and ties break lexicographically.

Each round first computes the K values its candidates need that no
earlier round computed, in candidate order, through an injected
strength function, serially, or on a process pool, and caches them by
(sorted causes, effect), from which every round reads each edge's gain.
An edge's evaluation counts as reused while its target's parent set is
unchanged, and as stale and computed again once a selection extends it.
"""

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .config import process_pool, substream
from .dataio import kfold_split
from .errors import ExplorationError
from .noderepr import featurize_series
from .relation import train_relation_frozen
from .stats import gaussian_kld_from_batches


@dataclass
class RoundEntry:
    edge: tuple
    delta: float
    k_with: float
    k_without: float
    selected: bool = False
    new: bool = False
    trimmed: bool = False
    reused: bool = False


@dataclass
class RoundRecord:
    round_no: int
    entries: list
    selected: tuple


@dataclass
class ExplorationState:
    nodes: list
    edges: list = field(default_factory=list)
    reachable: set = field(default_factory=set)
    rounds: list = field(default_factory=list)
    k_cache: dict = field(default_factory=dict)
    stop_reason: str = ""
    evals_computed: int = 0
    evals_reused: int = 0
    stale_reuses: int = 0


class StrengthContext:
    """Precomputed per-node latents and fold plan for strength evaluation."""

    def __init__(self, dataset, models, config):
        self.config = config
        self.window_n = config.window_n
        steps = {s.steps for s in dataset.values()}
        if len(steps) != 1:
            raise ExplorationError("node series lengths differ")
        self.T = steps.pop()
        self.plan = kfold_split(self.T, config.folds)
        self.latents = {}
        for name, series in dataset.items():
            feats = featurize_series(series, models[name].scaler)
            self.latents[name] = models[name].encode(feats, cache=False)

    def fold_pairs(self, fold):
        lo, hi = self.plan.bounds[fold]
        all_ts = np.arange(self.window_n, self.T)
        test = all_ts[(all_ts >= lo) & (all_ts < hi)]
        train = all_ts[(all_ts < lo) | (all_ts >= hi)]
        return train, test

    def windows(self, causes, ts):
        n = self.window_n
        parts = []
        for c in causes:
            lat = self.latents[c]
            offs = ts[:, None] - n + np.arange(n)[None, :]
            parts.append(lat[offs].reshape(ts.size, n * lat.shape[1]))
        return np.concatenate(parts, axis=1)


def _strength_eval(ctx, causes, effect):
    """Fold-averaged K for one cause set, deterministic in the config seed."""
    config = ctx.config
    ks = []
    for fold in range(config.folds):
        train_ts, test_ts = ctx.fold_pairs(fold)
        rng = substream(config.seed, "strength", ",".join(causes), effect, fold)
        relation = train_relation_frozen(
            ctx.windows(causes, train_ts), ctx.latents[effect][train_ts],
            config, rng, causes=causes, effect=effect)
        v_hat = relation.forward(ctx.windows(causes, test_ts), cache=False)
        ks.append(gaussian_kld_from_batches(v_hat, ctx.latents[effect][test_ts]))
    return float(np.mean(ks))


_POOL_CTX = None


def _pool_init(ctx):
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_eval(job):
    causes, effect = job
    return _strength_eval(_POOL_CTX, list(causes), effect)


def _checked(key, value):
    value = float(value)
    if not np.isfinite(value):
        raise ExplorationError(f"non-finite K for edge context {key[0]} -> {key[1]}")
    return value


def causal_strength(beta, n, data=None, models=None, config=None, ctx=None):
    """K(beta, n): 0 for an empty cause set, otherwise the fold-averaged
    KLD between predicted and true effect-latent statistics. ctx, a
    StrengthContext, saves re-encoding data with models under config."""
    beta = frozenset(beta)
    if not beta:
        return 0.0
    key = (tuple(sorted(beta)), n)
    if ctx is None:
        if data is None or models is None or config is None:
            raise ExplorationError(
                f"K{key} needs data, models and config, or a StrengthContext")
        ctx = StrengthContext(data, models, config)
    return _checked(key, _strength_eval(ctx, list(key[0]), n))


def kld_gain(beta, p, n, strength):
    """delta_e = K(beta + {p}, n) - K(beta, n); strength is a callable
    (cause set, effect) -> K."""
    beta = frozenset(beta)
    return strength(beta | {p}, n) - strength(beta, n)


def _would_cycle(edges, p, n):
    """True if adding p -> n closes a cycle (a path n ->* p exists)."""
    children = {}
    for a, b in edges:
        children.setdefault(a, []).append(b)
    frontier = [n]
    seen = set()
    while frontier:
        cur = frontier.pop()
        if cur == p:
            return True
        for nxt in children.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def explore(nodes, candidates, data=None, config=None, models=None,
            strength_fn=None):
    """Algorithm: greedy edge selection by minimum KLD gain.

    candidates maps node -> allowed parent collection; nodes with no
    allowed parents seed the reachable set. strength_fn, when given,
    replaces trained strength evaluation (the tests replay published
    strength tables through it); otherwise K values are fitted, on
    config.workers processes when that is more than one.
    """
    nodes = list(nodes)
    for n, parents in candidates.items():
        if n in parents:
            raise ExplorationError(f"candidate map allows self-loop at {n}")
    state = ExplorationState(nodes=nodes)
    state.reachable = {n for n in nodes if not candidates.get(n)}
    ctx = None
    if strength_fn is None:
        if data is None or models is None or config is None:
            raise ExplorationError("explore needs data, models and config "
                                   "unless a strength function is injected")
        ctx = StrengthContext(data, models, config)

    def cached_k(cause_set, n):
        return state.k_cache[(tuple(sorted(cause_set)), n)] if cause_set else 0.0

    max_rounds = config.max_rounds if config is not None else 64
    gain_threshold = config.gain_threshold if config is not None else float("inf")
    ever_candidate = set()
    pool = process_pool(config.workers, _pool_init, (ctx,)) if ctx is not None else None
    try:
        for round_no in range(1, max_rounds + 1):
            selected_parents = {}
            for p, n in state.edges:
                selected_parents.setdefault(n, set()).add(p)
            cands = []
            for n in sorted(candidates):
                allowed = candidates.get(n) or ()
                for p in sorted(allowed):
                    if p not in state.reachable:
                        continue
                    if (p, n) in state.edges:
                        continue
                    if _would_cycle(state.edges, p, n):
                        continue
                    cands.append((p, n))
            if not cands:
                if round_no == 1:
                    raise ExplorationError(
                        "no candidate edges on round 1: targets unreachable")
                state.stop_reason = "exhausted"
                break

            missing = []
            for p, n in cands:
                beta = frozenset(selected_parents.get(n, set()))
                for cause_set in (beta, beta | {p}):
                    key = (tuple(sorted(cause_set)), n)
                    if cause_set and key not in state.k_cache and key not in missing:
                        missing.append(key)
            if strength_fn is not None:
                values = [strength_fn(frozenset(causes), n) for causes, n in missing]
            elif pool is not None:
                try:
                    values = list(pool.map(_pool_eval, missing))
                except BrokenProcessPool as exc:
                    raise ExplorationError(
                        f"strength evaluation pool: a worker process died ({exc})"
                    ) from exc
            else:
                values = [_strength_eval(ctx, list(causes), n) for causes, n in missing]
            for key, value in zip(missing, values):
                state.k_cache[key] = _checked(key, value)

            # an edge stays listed until it is picked or would close a cycle, so
            # its target's parents changed only if the last pick targeted it
            last_target = state.edges[-1][1] if state.edges else None
            entries = []
            for p, n in cands:
                beta = frozenset(selected_parents.get(n, set()))
                listed = (p, n) in ever_candidate
                reused = listed and n != last_target
                if reused:
                    state.evals_reused += 1
                else:
                    state.evals_computed += 1
                    state.stale_reuses += int(listed)
                entries.append(RoundEntry(
                    edge=(p, n), delta=kld_gain(beta, p, n, cached_k),
                    k_with=cached_k(beta | {p}, n), k_without=cached_k(beta, n),
                    new=not listed, reused=reused))
                ever_candidate.add((p, n))

            best = min(entries, key=lambda e: (e.delta, e.edge))
            if (state.reachable == set(nodes)
                    and best.delta > gain_threshold):
                state.rounds.append(RoundRecord(round_no=round_no,
                                                entries=entries, selected=None))
                state.stop_reason = "threshold"
                break
            best.selected = True
            sel_p, sel_n = best.edge
            state.edges.append(best.edge)
            state.reachable.add(sel_n)
            for entry in entries:
                if entry.edge[1] == sel_n and entry.edge != best.edge:
                    entry.trimmed = True
            state.rounds.append(RoundRecord(round_no=round_no, entries=entries,
                                            selected=best.edge))
        else:
            state.stop_reason = "max_rounds"
    finally:
        if pool is not None:
            pool.shutdown()
    return state.edges, state


@dataclass
class RoundLog:
    text: str
    csv_text: str


def _edge_label(edge):
    return f"{edge[0]}->{edge[1]}"


def emit_round_log(state):
    """Render the per-round candidate table as text and CSV.

    Markers: * selected, + newly listed, ~ trimmed (its cached value
    was invalidated by this round's selection).
    """
    if not state.rounds:
        raise ExplorationError("emit_round_log: no completed rounds")
    order = []
    for rec in state.rounds:
        for entry in rec.entries:
            if entry.edge not in order:
                order.append(entry.edge)
    header = ["round"] + [_edge_label(e) for e in order]
    csv_rows = [",".join(header)]
    text_rows = []
    for rec in state.rounds:
        by_edge = {entry.edge: entry for entry in rec.entries}
        cells = []
        for edge in order:
            entry = by_edge.get(edge)
            if entry is None:
                cells.append("")
                continue
            flags = ""
            if entry.selected:
                flags += "*"
            if entry.new:
                flags += "+"
            if entry.trimmed:
                flags += "~"
            cells.append("%.4f%s" % (entry.delta, flags))
        csv_rows.append(",".join([str(rec.round_no)] + cells))
        sel = _edge_label(rec.selected) if rec.selected else "(none)"
        text_rows.append(f"round {rec.round_no:>3}  selected {sel:<12} " + "  ".join(
            f"{_edge_label(e.edge)}={e.delta:.4f}"
            + ("*" if e.selected else "") + ("+" if e.new else "")
            + ("~" if e.trimmed else "") for e in rec.entries))
    legend = "markers: * selected, + newly listed, ~ trimmed"
    return RoundLog(text="\n".join(text_rows + [legend]) + "\n",
                    csv_text="\n".join(csv_rows) + "\n")
