import numpy as np
import pytest

from rirl.dataio import (DagSpec, EdgeDef, FoldPlan, NodeDef, Scaler,
                         TIER_GAIN, _softplus, kfold_split, load_csv,
                         save_csv, scale_fit, scale_fit_arrays, synth_generate)
from rirl.errors import ConfigError, DataError


def three_tier_spec(seed=3):
    return DagSpec(
        nodes=[NodeDef("A", 2), NodeDef("B", 3), NodeDef("C", 2),
               NodeDef("D", 1)],
        edges=[EdgeDef("A", "B", tier=1, lag=2),
               EdgeDef("B", "C", tier=2, lag=3),
               EdgeDef("A", "D", tier=3, lag=1)],
        seed=seed)


# ---------------------------------------------------------------- spec

def test_spec_rejects_duplicate_names_and_bad_nodes():
    with pytest.raises(ConfigError, match="duplicate"):
        DagSpec(nodes=[NodeDef("A", 1), NodeDef("A", 2)], edges=[])
    with pytest.raises(ConfigError, match="dimension"):
        DagSpec(nodes=[NodeDef("A", 0)], edges=[])
    with pytest.raises(ConfigError, match="rate"):
        DagSpec(nodes=[NodeDef("A", 1, nonzero_rate=0.0)], edges=[])
    with pytest.raises(ConfigError, match="amplitude"):
        DagSpec(nodes=[NodeDef("A", 1, amplitude=-1.0)], edges=[])


def test_spec_rejects_bad_edges():
    nodes = [NodeDef("A", 1), NodeDef("B", 1)]
    with pytest.raises(ConfigError, match="unknown node"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "Z", tier=1)])
    with pytest.raises(ConfigError, match="self loop"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "A", tier=1)])
    with pytest.raises(ConfigError, match="tier"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=4)])
    with pytest.raises(ConfigError, match="lag"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=1, lag=0)])
    with pytest.raises(ConfigError, match="gain"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=1, gain=0.0)])


def test_spec_enforces_tier_gain_separation():
    nodes = [NodeDef(n, 1) for n in "ABC"]
    # explicit tier-1 gain below a tier-2 gain breaks the ordering
    with pytest.raises(ConfigError, match="tier 1 gains"):
        DagSpec(nodes=nodes,
                edges=[EdgeDef("A", "B", tier=1, gain=0.5),
                       EdgeDef("B", "C", tier=2, gain=0.6)])
    # defaults are separated by construction
    DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=1),
                                EdgeDef("B", "C", tier=2)])


def test_spec_detects_cycles_and_orders_topologically():
    nodes = [NodeDef(n, 1) for n in "ABCD"]
    with pytest.raises(ConfigError, match="cycle"):
        DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=1),
                                    EdgeDef("B", "C", tier=1),
                                    EdgeDef("C", "A", tier=1)])
    diamond = DagSpec(nodes=nodes, edges=[EdgeDef("A", "B", tier=1),
                                          EdgeDef("A", "C", tier=1),
                                          EdgeDef("B", "D", tier=1),
                                          EdgeDef("C", "D", tier=1)])
    order = diamond.topo_order()
    assert order.index("A") < order.index("B") < order.index("D")
    assert order.index("A") < order.index("C") < order.index("D")


def test_spec_json_roundtrip_keeps_default_gain_as_none(tmp_path):
    spec = three_tier_spec()
    spec.edges[1].gain = 0.3        # one explicit, two defaulted
    path = tmp_path / "dag.json"
    spec.to_json(str(path))
    back = DagSpec.from_json(str(path))
    assert back == spec
    assert back.edges[0].gain is None
    assert back.edges[1].gain == 0.3
    assert back.edges[0].effective_gain() == TIER_GAIN[1]


def test_spec_from_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="bad spec document"):
        DagSpec.from_json(str(path))
    path.write_text('{"nodes": [{"dim": 2}]}')
    with pytest.raises(ConfigError, match="bad spec document"):
        DagSpec.from_json(str(path))


# ----------------------------------------------------------- generator

def test_generator_is_deterministic_and_keeps_declared_order():
    spec = DagSpec(nodes=[NodeDef("B", 2), NodeDef("A", 1)],
                   edges=[EdgeDef("A", "B", tier=1, lag=2)], seed=5)
    one = synth_generate(spec, 150, 9)
    two = synth_generate(spec, 150, 9)
    assert list(one) == ["B", "A"]      # declaration order, not topo order
    for name in one:
        np.testing.assert_array_equal(one[name].values, two[name].values)
        np.testing.assert_array_equal(one[name].mask, two[name].mask)
    other = synth_generate(spec, 150, 10)
    assert not np.array_equal(one["A"].values, other["A"].values)


def test_generator_dates_and_months_line_up():
    spec = DagSpec(nodes=[NodeDef("A", 1)], edges=[], seed=0)
    data = synth_generate(spec, 70, 1)
    series = data["A"]
    assert series.steps == 70 and series.dim == 1
    assert series.dates[0].isoformat() == "2000-01-01"
    assert [d.month for d in series.dates] == list(series.months)


def test_generator_rejects_bad_requests():
    spec = DagSpec(nodes=[NodeDef("A", 1)], edges=[], seed=0)
    with pytest.raises(ConfigError, match="days"):
        synth_generate(spec, 0, 1)


def test_quantile_masking_hits_the_target_rate():
    spec = DagSpec(nodes=[NodeDef("A", 2, nonzero_rate=0.25)], edges=[], seed=2)
    data = synth_generate(spec, 2000, 4)
    rates = data["A"].mask.mean(axis=0)
    np.testing.assert_allclose(rates, 0.25, atol=0.02)
    # and a full-rate node is never masked
    full = synth_generate(DagSpec(nodes=[NodeDef("A", 2)], edges=[], seed=2),
                          2000, 4)
    assert full["A"].mask.all()


def test_children_consume_post_mask_parent_values():
    def draw(rate):
        spec = DagSpec(nodes=[NodeDef("A", 2, nonzero_rate=rate), NodeDef("B", 2),
                              NodeDef("Z", 1)],
                       edges=[EdgeDef("A", "B", tier=1, lag=3)], seed=6)
        return synth_generate(spec, 300, 8)

    def response(parent):
        agg = parent.values.mean(axis=1)
        lagged = np.concatenate([np.full(3, agg[0]), agg[:-3]])
        return TIER_GAIN[1] * _softplus((lagged - lagged.mean()) / lagged.std())

    masked, full = draw(0.6), draw(1.0)
    assert not masked["A"].mask.all() and full["A"].mask.all()
    # masking A draws nothing, so B's own draws match and the whole
    # difference in B is the edge response to the masked parent values
    expected = response(masked["A"]) - response(full["A"])
    got = masked["B"].values - full["B"].values
    assert np.abs(expected).max() > 1.0
    np.testing.assert_allclose(got, np.column_stack([expected, expected]),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(masked["Z"].values, full["Z"].values)


# ------------------------------------------------------------- scaling

def test_scaler_roundtrip_and_masked_fit():
    values = np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 8.0], [5.0, 0.0]])
    mask = (values != 0).astype(np.uint8)
    scaler = scale_fit_arrays(values, mask, "N")
    np.testing.assert_allclose(scaler.mean, [3.0, 6.0])     # non-zero rows only
    np.testing.assert_allclose(scaler.invert(scaler.apply(values)), values,
                               rtol=0, atol=1e-12)


def test_scale_fit_refuses_degenerate_attributes():
    dead = np.zeros((5, 1))
    with pytest.raises(DataError, match="no non-zero entries"):
        scale_fit_arrays(dead, np.zeros((5, 1), dtype=np.uint8), "N")
    flat = np.full((5, 1), 2.0)
    with pytest.raises(DataError, match="zero std"):
        scale_fit_arrays(flat, np.ones((5, 1), dtype=np.uint8), "N")


def test_scale_fit_on_series_matches_array_form():
    data = synth_generate(DagSpec(nodes=[NodeDef("A", 2, nonzero_rate=0.5)],
                                  edges=[], seed=1), 400, 2)
    series = data["A"]
    scaler = scale_fit(series)
    np.testing.assert_array_equal(scaler.mean, series.scaler.mean)
    np.testing.assert_array_equal(scaler.std, series.scaler.std)


# ----------------------------------------------------------------- csv

def test_csv_roundtrip_is_bit_exact(tmp_path):
    spec = three_tier_spec()
    data = synth_generate(spec, 120, 5)
    path = tmp_path / "data.csv"
    save_csv(data, str(path))
    back = load_csv(str(path))
    assert list(back) == list(data)
    for name in data:
        np.testing.assert_array_equal(back[name].values, data[name].values)
        np.testing.assert_array_equal(back[name].months, data[name].months)
        assert back[name].dates == data[name].dates


def test_save_csv_rejects_ragged_datasets(tmp_path):
    a = synth_generate(DagSpec(nodes=[NodeDef("A", 1)], edges=[], seed=0), 50, 1)
    b = synth_generate(DagSpec(nodes=[NodeDef("B", 1)], edges=[], seed=0), 60, 1)
    with pytest.raises(DataError, match="lengths differ"):
        save_csv({"A": a["A"], "B": b["B"]}, str(tmp_path / "x.csv"))


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("time,A.a0\n2000-01-01,1.0\n", "first column must be 'date'"),
    ("date,A\n2000-01-01,1.0\n", "not <node>.<attr>"),
    ("date,A.a0\n2000-01-01\n", "expected 2 fields, got 1"),
    ("date,A.a0\nyesterday,1.0\n", "bad date"),
    ("date,A.a0\n2000-01-01,1.0\n2000-01-01,2.0\n", "duplicate date"),
    ("date,A.a0\n2000-01-01,one\n", "unparseable number"),
    ("date,A.a0\n2000-01-01,1.0\n2000-01-02,nan\n", "line 3: non-finite"),
    ("date,A.a0\n2000-01-01,inf\n", "line 2: non-finite"),
    ("date,A.a0\n", "no data rows"),
    ("date,A.a1,A.a0\n2000-01-01,1.0,2.0\n", "'A.a1' is out of order, expected A.a0"),
    ("date,A.a0,A.a0\n2000-01-01,1.0,2.0\n", "'A.a0' is out of order, expected A.a1"),
    ("date,A.a1\n2000-01-01,1.0\n", "'A.a1' is out of order, expected A.a0"),
])
def test_load_csv_reports_each_corruption(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        load_csv(str(path))


def test_load_csv_missing_file_and_missing_column(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(tmp_path / "nope.csv"))
    # a node's columns may interleave with another node's
    path = tmp_path / "mixed.csv"
    path.write_text("date,B.a0,A.a0,A.a1,B.a1\n"
                    "2000-01-01,1.0,2.0,3.0,4.0\n2000-01-02,5.0,6.0,7.0,8.0\n")
    mixed = load_csv(str(path))
    np.testing.assert_array_equal(mixed["B"].values, [[1.0, 4.0], [5.0, 8.0]])
    np.testing.assert_array_equal(mixed["A"].values, [[2.0, 3.0], [6.0, 7.0]])
    # but none may skip one: B.a1 is missing here
    path = tmp_path / "gap.csv"
    path.write_text("date,B.a0,A.a0,A.a1,B.a2\n2000-01-01,1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataError, match="'B.a2' is out of order, expected B.a1"):
        load_csv(str(path))


# --------------------------------------------------------------- folds

def test_kfold_bounds_spread_the_remainder_forward():
    plan = kfold_split(103, 4)
    assert plan.bounds == [(0, 26), (26, 52), (52, 78), (78, 103)]
    assert plan.k == 4


def test_kfold_indices_partition_the_range():
    plan = kfold_split(57, 3)
    all_test = np.concatenate([plan.test_indices(i) for i in range(3)])
    np.testing.assert_array_equal(np.sort(all_test), np.arange(57))
    for i in range(3):
        test = plan.test_indices(i)
        train = plan.train_indices(i)
        assert np.intersect1d(test, train).size == 0
        assert test.size + train.size == 57


def test_kfold_rejects_tiny_requests():
    with pytest.raises(ConfigError, match="k must be"):
        kfold_split(100, 1)
    with pytest.raises(ConfigError, match="at least 40"):
        kfold_split(39, 4)
