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
    with pytest.raises(ConfigError, match="ablate"):
        synth_generate(spec, 50, 1, ablate="Z")


def test_quantile_masking_hits_the_target_rate():
    spec = DagSpec(nodes=[NodeDef("A", 2, nonzero_rate=0.25)], edges=[], seed=2)
    data = synth_generate(spec, 2000, 4)
    rates = data["A"].mask.mean(axis=0)
    np.testing.assert_allclose(rates, 0.25, atol=0.02)
    # and a full-rate node is never masked
    full = synth_generate(DagSpec(nodes=[NodeDef("A", 2)], edges=[], seed=2),
                          2000, 4)
    assert full["A"].mask.all()


def test_ablation_audit_reconstructs_the_edge_contribution_exactly():
    spec = DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2), NodeDef("Z", 1)],
                   edges=[EdgeDef("A", "B", tier=1, lag=3)], seed=6)
    T = 300
    full = synth_generate(spec, T, 8)
    cut = synth_generate(spec, T, 8, ablate="A")
    # the ablated node is zeroed and unscalable
    assert not cut["A"].values.any() and not cut["A"].mask.any()
    assert cut["A"].scaler is None
    # non-descendants are bit-identical
    np.testing.assert_array_equal(full["Z"].values, cut["Z"].values)
    # the descendant differs by exactly the softplus edge response: with
    # the parent zeroed its z-score degenerates to 0, leaving a constant
    # softplus(0) = ln 2 contribution in the ablated run
    agg = full["A"].values.mean(axis=1)
    lagged = np.concatenate([np.full(3, agg[0]), agg[:-3]])
    z = (lagged - lagged.mean()) / lagged.std()
    expected = TIER_GAIN[1] * (_softplus(z) - np.log(2.0))
    got = full["B"].values - cut["B"].values
    np.testing.assert_allclose(got, np.column_stack([expected, expected]),
                               rtol=0, atol=1e-12)


def test_generation_report_orders_tiers_by_contribution():
    _, report = synth_generate(three_tier_spec(), 1200, 13, return_report=True)
    assert set(report.edge_contrib) == {("A", "B"), ("B", "C"), ("A", "D")}
    assert report.tier_contrib[1] > report.tier_contrib[2] > report.tier_contrib[3]


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
    back = load_csv(str(path), expect={n.name: n.dim for n in spec.nodes})
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
])
def test_load_csv_reports_each_corruption(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        load_csv(str(path))


def test_load_csv_missing_file_and_missing_column(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(tmp_path / "nope.csv"))
    path = tmp_path / "short.csv"
    path.write_text("date,A.a0\n2000-01-01,1.0\n2000-01-02,2.0\n")
    with pytest.raises(DataError, match=r"missing column A\.a1"):
        load_csv(str(path), expect={"A": 2})


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
