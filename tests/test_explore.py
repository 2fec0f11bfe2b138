import numpy as np
import pytest
import replay_table as table
from conftest import TINY_CONFIG, assert_close

from rirl.config import RunConfig
from rirl.dataio import DagSpec, EdgeDef, NodeDef, NodeSeries, synth_generate
from rirl.errors import ExplorationError
from rirl.explore import (ExplorationState, StrengthContext, _would_cycle,
                          causal_strength, emit_round_log, explore, kld_gain)
from rirl.noderepr import train_node_autoencoder

GAIN_TOL = 5e-13     # float64 arithmetic on 4-decimal table literals


@pytest.fixture(scope="module")
def replay():
    cfg = RunConfig(gain_threshold=100.0, max_rounds=64)
    edges, state = explore(table.NODES, table.CANDIDATES,
                           strength_fn=table.strength_fn, config=cfg)
    return edges, state


# ------------------------------------------------------ strength calls

def test_empty_cause_set_scores_zero_without_consulting_the_table():
    def no_empty_sets(beta, n):
        assert beta, "must not be called for an empty cause set"
        return 1.5
    _, state = explore(["A", "C"], {"C": ["A"]}, strength_fn=no_empty_sets,
                       config=RunConfig(max_rounds=1))
    entry = state.rounds[0].entries[0]
    assert entry.k_without == 0.0 and entry.delta == 1.5
    assert list(state.k_cache) == [(("A",), "C")]
    assert causal_strength([], "C") == 0.0


def test_cause_sets_are_cached_order_insensitively():
    calls = []

    def counting(beta, n):
        calls.append((tuple(sorted(beta)), n))
        return float(len(beta))

    # unsorted parent lists; round 2 needs the two-cause set {A, B}
    _, state = explore(["A", "B", "C"], {"C": ["B", "A"]},
                       strength_fn=counting, config=RunConfig(max_rounds=2))
    assert calls == [(("A",), "C"), (("B",), "C"), (("A", "B"), "C")]
    assert state.k_cache == {(("A",), "C"): 1.0, (("B",), "C"): 1.0,
                             (("A", "B"), "C"): 2.0}


def test_non_finite_strength_is_refused():
    with pytest.raises(ExplorationError, match="non-finite K"):
        explore(["A", "C"], {"C": ["A"]}, strength_fn=lambda b, n: float("nan"),
                config=RunConfig())


def test_strength_without_models_or_table_is_an_error():
    with pytest.raises(ExplorationError, match="needs data, models and config"):
        causal_strength(["A"], "C")


def test_gain_is_a_strength_difference(replay):
    gain = kld_gain({"C", "D"}, "E", "G", table.strength_fn)
    # adding E to {C, D} -> G lowers K: a negative gain is meaningful
    assert gain == table.STRENGTHS[(("C", "D", "E"), "G")] - \
        table.STRENGTHS[(("C", "D"), "G")]
    assert abs(gain - (-5.9191)) <= GAIN_TOL
    # explore scores every edge the same way, from the strengths it cached
    _, state = replay
    for rec in state.rounds:
        for e in rec.entries:
            assert e.delta == e.k_with - e.k_without
    pick = next(e for e in state.rounds[10].entries if e.selected)
    assert pick.edge == ("E", "G") and pick.delta == gain


def test_cycle_probe_follows_directed_paths():
    edges = [("A", "B"), ("B", "C")]
    assert _would_cycle(edges, "C", "A")          # A ->* C exists? no: C->A closes
    assert not _would_cycle(edges, "A", "C")      # A -> C is a shortcut, fine
    assert not _would_cycle([], "A", "B")


# ------------------------------------------------------- table replay

def test_replay_selects_every_published_edge_in_order(replay):
    edges, state = replay
    assert edges == table.TRUE_EDGES
    for (round_no, edge, gain), rec in zip(table.SELECTIONS, state.rounds):
        assert rec.round_no == round_no
        assert rec.selected == edge
        chosen = [e for e in rec.entries if e.selected]
        assert len(chosen) == 1 and chosen[0].edge == edge
        assert_close(chosen[0].delta, gain, GAIN_TOL, f"round {round_no} gain")


def test_replay_stops_on_the_gain_threshold(replay):
    _, state = replay
    assert state.stop_reason == "threshold"
    assert len(state.rounds) == len(table.SELECTIONS) + 1
    final = state.rounds[-1]
    assert final.selected is None
    assert all(not e.selected for e in final.entries)
    assert min(e.delta for e in final.entries) > 100.0


def test_replay_rebuilds_trimmed_entries_with_fresh_strengths(replay):
    _, state = replay
    for round_no, edge, delta in table.REBUILT:
        rec = state.rounds[round_no - 1]
        entry = next(e for e in rec.entries if e.edge == edge)
        assert_close(entry.delta, delta, GAIN_TOL,
                     f"rebuilt {edge} in round {round_no}")
        assert not entry.reused


def test_replay_trims_same_effect_rivals(replay):
    _, state = replay
    round1 = state.rounds[0]
    rival = next(e for e in round1.entries if e.edge == ("B", "C"))
    assert rival.trimmed and not rival.selected
    assert_close(rival.delta, 8.4753, GAIN_TOL, "B->C round 1")
    for rec, (_, selected, _) in zip(state.rounds, table.SELECTIONS):
        effect = selected[1]
        for e in rec.entries:
            if e.edge[1] == effect and e.edge != selected:
                assert e.trimmed, f"{e.edge} not trimmed in round {rec.round_no}"
            if e.edge[1] != effect:
                assert not e.trimmed


def test_replay_reuses_cached_evaluations_and_notes_stale_ones(replay):
    _, state = replay
    assert state.evals_computed == 48
    assert state.evals_reused == 185
    assert state.stale_reuses == 21
    reused_flags = [e.reused for rec in state.rounds for e in rec.entries]
    assert any(reused_flags)


def test_replay_selection_is_the_argmin_every_round(replay):
    _, state = replay
    for rec in state.rounds:
        if rec.selected is None:
            continue
        best = min(rec.entries, key=lambda e: (e.delta, e.edge))
        assert best.edge == rec.selected


def test_replay_graph_stays_acyclic_at_every_prefix(replay):
    edges, _ = replay
    prefix = []
    for p, n in edges:
        assert not _would_cycle(prefix, p, n)
        prefix.append((p, n))


def test_replay_is_deterministic_to_the_byte(replay):
    _, state = replay
    cfg = RunConfig(gain_threshold=100.0, max_rounds=64)
    _, again = explore(table.NODES, table.CANDIDATES,
                       strength_fn=table.strength_fn, config=cfg)
    first = emit_round_log(state)
    second = emit_round_log(again)
    assert first.text == second.text
    assert first.csv_text == second.csv_text


# --------------------------------------------------------- stop logic

def test_exhausted_stop_when_no_candidates_remain():
    edges, state = explore(["X", "Y"], {"Y": ["X"]},
                           strength_fn=lambda b, n: 1.0,
                           config=RunConfig())
    assert edges == [("X", "Y")]
    assert state.stop_reason == "exhausted"


def test_max_rounds_stop_leaves_targets_unreached():
    cfg = RunConfig(max_rounds=1)
    edges, state = explore(["A", "B", "C"], {"B": ["A"], "C": ["A", "B"]},
                           strength_fn=lambda b, n: float(len(b)),
                           config=cfg)
    assert len(edges) == 1
    assert state.stop_reason == "max_rounds"
    assert state.reachable != set(state.nodes)


def test_threshold_never_fires_before_every_node_is_reachable():
    # C's best gain exceeds the threshold from round 1, but the stop is
    # deferred until C has a parent, so the edge is still selected
    cfg = RunConfig(gain_threshold=0.5, max_rounds=8)
    edges, state = explore(["A", "C"], {"C": ["A"]},
                           strength_fn=lambda b, n: 2.0,
                           config=cfg)
    assert edges == [("A", "C")]
    assert state.stop_reason == "exhausted"


def test_round_one_without_reachable_parents_is_an_error():
    with pytest.raises(ExplorationError, match="unreachable"):
        explore(["A", "B"], {"A": ["B"], "B": ["A"]},
                strength_fn=lambda b, n: 1.0, config=RunConfig())


def test_candidate_self_loop_is_refused():
    with pytest.raises(ExplorationError, match="self-loop"):
        explore(["A", "B"], {"B": ["B"]},
                strength_fn=lambda b, n: 1.0, config=RunConfig())


def test_equal_gains_break_ties_lexicographically():
    edges, _ = explore(["A", "B", "C"], {"C": ["A", "B"]},
                       strength_fn=lambda b, n: 2.0,
                       config=RunConfig(max_rounds=1))
    assert edges == [("A", "C")]


# ------------------------------------------------------------ workers

def test_worker_count_does_not_change_results():
    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4),
                          NodeDef("C", 2, amplitude=0.5)],
                   edges=[EdgeDef("A", "B", 1, lag=2),
                          EdgeDef("B", "C", 2, lag=3)], seed=9)
    data = synth_generate(spec, 300, 9)
    cfg = RunConfig(**dict(TINY_CONFIG, max_rounds=2))
    models = {name: train_node_autoencoder(series, cfg)[0]
              for name, series in data.items()}
    runs = []
    for workers in (1, 2):
        cfg.override(workers=workers)
        _, state = explore(list(data), {"B": ["A", "C"], "C": ["A", "B"]},
                           data=data, config=cfg, models=models)
        runs.append((emit_round_log(state).csv_text, state.k_cache))
    assert runs[0] == runs[1]


# ------------------------------------------------------------ context

def test_strength_context_rejects_ragged_series():
    a = NodeSeries(name="A", values=np.zeros((5, 1)), mask=np.zeros((5, 1)),
                   months=np.ones(5, dtype=int), dates=[None] * 5)
    b = NodeSeries(name="B", values=np.zeros((6, 1)), mask=np.zeros((6, 1)),
                   months=np.ones(6, dtype=int), dates=[None] * 6)
    with pytest.raises(ExplorationError, match="lengths differ"):
        StrengthContext({"A": a, "B": b}, {}, RunConfig())


# ----------------------------------------------------------- round log

def test_round_log_requires_completed_rounds():
    with pytest.raises(ExplorationError, match="no completed rounds"):
        emit_round_log(ExplorationState(nodes=["A"]))


def test_round_log_formats_markers_and_columns(replay):
    _, state = replay
    log = emit_round_log(state)
    lines = log.csv_text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "round"
    assert "A->C" in header and "D->I" in header
    round1 = lines[1].split(",")
    sel_col = header.index("A->C")
    rival_col = header.index("B->C")
    assert round1[sel_col] == "7.6354*+"
    assert round1[rival_col] == "8.4753+~"
    assert log.text.rstrip().endswith("markers: * selected, + newly listed, ~ trimmed")
    assert "selected A->C" in log.text.split("\n")[0]
