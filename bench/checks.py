"""Output checks for the benchmark workloads.

Each check recomputes a property the method must have from the
program's outputs, with code of its own, and raises CheckFailed when
the property does not hold. No check compares against a stored copy of
an earlier run's output.
"""

import csv
import io
import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_edges(edges, candidates):
    """Selected edges are allowed by the candidate map, hold no
    duplicates, and form a DAG (Kahn's algorithm, written here)."""
    edges = [tuple(e) for e in edges]
    require(len(set(edges)) == len(edges), f"duplicate edge in {edges}")
    for p, n in edges:
        require(p in (candidates.get(n) or ()),
                f"edge {p}->{n} is not allowed by the candidate map")
    nodes = {x for e in edges for x in e}
    indeg = {x: 0 for x in nodes}
    for _, n in edges:
        indeg[n] += 1
    ready = [x for x in nodes if indeg[x] == 0]
    seen = 0
    while ready:
        cur = ready.pop()
        seen += 1
        for p, n in edges:
            if p == cur:
                indeg[n] -= 1
                if indeg[n] == 0:
                    ready.append(n)
    require(seen == len(nodes), f"edges {edges} contain a cycle")


def round_picks(csv_text):
    """Parse explore_rounds.csv and check each round's pick.

    The pick (marked *) must carry the smallest delta of its row. Cells
    are printed to four decimals, so two edges can print equal; the
    full-precision tie rule is checked by check_state_minima where the
    exploration state is at hand. Returns the picks in round order.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    require(len(rows) >= 2 and rows[0][0] == "round",
            "explore_rounds.csv has no header and rounds")
    labels = rows[0][1:]
    picks = []
    for row in rows[1:]:
        require(len(row) == len(labels) + 1, f"ragged round row {row}")
        cells = {}
        pick = None
        for label, cell in zip(labels, row[1:]):
            if not cell:
                continue
            number = cell.rstrip("*+~")
            value = float(number)
            require(math.isfinite(value), f"round {row[0]}: {label} = {cell}")
            cells[label] = value
            if "*" in cell[len(number):]:
                require(pick is None, f"round {row[0]} has two picks")
                pick = label
        if pick is None:
            continue
        best = min(cells.values())
        require(cells[pick] == best,
                f"round {row[0]}: pick {pick} has delta {cells[pick]}, "
                f"the round's minimum is {best}")
        picks.append(tuple(pick.split("->")))
    return picks


def check_state_minima(state):
    """Each round's pick has the smallest full-precision delta, ties
    going to the lexicographically smallest edge, and each delta is the
    difference of the two K values it was built from."""
    for rec in state.rounds:
        for e in rec.entries:
            require(e.delta == e.k_with - e.k_without,
                    f"round {rec.round_no}: {e.edge} delta != K_with - K_without")
        if rec.selected is None:
            continue
        best = rec.entries[0]
        for e in rec.entries[1:]:
            if e.delta < best.delta or (e.delta == best.delta and e.edge < best.edge):
                best = e
        require(best.edge == tuple(rec.selected),
                f"round {rec.round_no}: picked {rec.selected}, minimum is {best.edge}")


def check_k_values(values):
    """K is a KL divergence: finite and never negative."""
    values = list(values)
    require(values, "no K values to check")
    for v in values:
        require(math.isfinite(v) and v >= 0.0, f"K value {v!r} is not finite and >= 0")


def fold_bounds(steps, folds):
    """[lo, hi) of `folds` contiguous blocks, the remainder spread over
    the first blocks."""
    base, rem = divmod(steps, folds)
    bounds, start = [], 0
    for i in range(folds):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _reaches(edges, src, dst):
    frontier, seen = [src], {src}
    while frontier:
        cur = frontier.pop()
        if cur == dst:
            return True
        for p, n in edges:
            if p == cur and n not in seen:
                seen.add(n)
                frontier.append(n)
    return False


def strength_keys(nodes, candidates, picks):
    """The (cause set, effect) keys greedy exploration has to evaluate
    to make `picks`, one per round, worked out from the candidate map:
    each round scores every allowed edge from a reachable parent that
    is not yet picked and closes no cycle, by K(beta + p) - K(beta)."""
    reachable = {n for n in nodes if not candidates.get(n)}
    edges, keys = [], set()
    for pick in picks:
        for n in sorted(candidates):
            beta = {p for p, m in edges if m == n}
            for p in sorted(candidates[n] or ()):
                if p in reachable and (p, n) not in edges and not _reaches(edges, n, p):
                    keys.add((tuple(sorted(beta | {p})), n))
                    if beta:
                        keys.add((tuple(sorted(beta)), n))
        edges.append(tuple(pick))
        reachable.add(pick[1])
    return keys


def read_column(path, column):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = header.index(column)
        return [row[idx] for row in reader]


def check_sidecar_truth(sidecar_path, data_path, effect, folds, window_n):
    """The plot sidecar's truth column is the effect's first attribute
    over the last fold, read straight from the dataset CSV."""
    column = [float(v) for v in read_column(data_path, f"{effect}.a0")]
    lo, hi = fold_bounds(len(column), folds)[-1]
    expected = column[max(lo, window_n):hi]
    got = [float(v) for v in read_column(sidecar_path, "truth")]
    require(got == expected,
            f"sidecar truth for {effect}: {len(got)} values, "
            f"{sum(a != b for a, b in zip(got, expected))} differ from data.csv")


def check_node_table(path, nodes):
    """One row per node, every numeric cell finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(sorted(r["node"] for r in rows) == sorted(nodes),
            f"{path}: rows for {[r['node'] for r in rows]}, expected {sorted(nodes)}")
    for r in rows:
        for key, cell in r.items():
            if key != "node":
                require(math.isfinite(float(cell)), f"{path}: {r['node']}.{key} = {cell}")


def roundtrip_error(expand_batch, reduce, rows, keys):
    """Largest unit-floored error of reduce(expand_batch(rows))."""
    rows = np.asarray(rows, dtype=float)
    back = reduce(expand_batch(rows, keys), keys)
    return float(np.max(np.abs(back - rows) / np.maximum(1.0, np.abs(rows))))


def check_roundtrip(error, label):
    require(error <= 1e-12, f"{label}: expand/reduce round trip error {error:.3e} > 1e-12")


def nse(pred, obs):
    """Nash-Sutcliffe efficiency, computed here rather than by the program."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    return 1.0 - float(np.sum((obs - pred) ** 2)) / float(np.sum((obs - obs.mean()) ** 2))


def check_nse(pred, obs, label):
    """Held-out NSE over the attributes that vary, each above zero."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    for a in range(obs.shape[1]):
        if obs[:, a].std() > 1e-12:
            score = nse(pred[:, a], obs[:, a])
            require(score > 0.0, f"{label} attribute {a}: held-out NSE {score:.4f} <= 0")


def check_grad(error, label):
    require(error <= 1e-4, f"{label}: gradient check error {error:.3e} > 1e-4")
