import math
import os

import numpy as np
import pytest

from rirl.config import BLAS_THREAD_VARS, RunConfig, process_pool, substream
from rirl.errors import ConfigError


def test_defaults_validate_and_hold_documented_values():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.latent_dim == 16
    assert cfg.num_keys == 4
    assert cfg.window_n == 10
    assert cfg.gain_threshold == math.inf
    assert cfg.workers == 1


@pytest.mark.parametrize("field,value", [
    ("latent_dim", 0),
    ("num_keys", -1),
    ("window_n", 0),
    ("epochs", 0),
    ("batch_size", 0),
    ("folds", 0),
    ("hidden_width", 0),
    ("lambda_kld", -0.5),
    ("lambda_mask", -1.0),
    ("seed", -3),
    ("lr", math.nan),
    ("lr", math.inf),
    ("lambda_kld", math.nan),
    ("lambda_mask", math.inf),
    ("gain_threshold", math.nan),
    ("gain_threshold", -math.inf),
])
def test_validate_rejects_bad_values(field, value):
    # __post_init__ validates, so the constructor itself refuses
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})


def test_from_file_parses_comments_and_inf(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training\n"
        "latent_dim = 8\n"
        "lr = 5e-4\n"
        "\n"
        "gain_threshold = inf\n"
        "seed = 42   # fixed for the report\n")
    cfg = RunConfig.from_file(str(path))
    assert cfg.latent_dim == 8
    assert cfg.lr == 5e-4
    assert cfg.gain_threshold == math.inf
    assert cfg.seed == 42


def test_from_file_rejects_unknown_key_and_bad_int(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("latent_dims = 8\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(bad_key))
    bad_int = tmp_path / "b.cfg"
    bad_int.write_text("epochs = 2.5\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(bad_int))


def test_from_file_rejects_non_finite_numbers(tmp_path):
    # NaN fails every comparison, so it must be refused explicitly
    for line in ("lr = nan", "lambda_kld = nan", "lambda_mask = inf",
                 "gain_threshold = nan"):
        path = tmp_path / "nan.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="finite|number or"):
            RunConfig.from_file(str(path))


def test_roundtrip_through_file(tmp_path):
    cfg = RunConfig(latent_dim=6, num_keys=2, lr=3e-3, gain_threshold=12.5,
                    max_rounds=9, seed=77)
    path = tmp_path / "round.cfg"
    cfg.to_file(str(path))
    back = RunConfig.from_file(str(path))
    assert back == cfg


def test_override_mutates_in_place_skips_none_and_validates():
    cfg = RunConfig()
    default_seed = cfg.seed
    bumped = cfg.override(latent_dim=4, seed=None)
    assert bumped is cfg                 # in-place, chaining-friendly
    assert cfg.latent_dim == 4
    assert cfg.seed == default_seed      # None means "leave alone"
    with pytest.raises(ConfigError):
        RunConfig().override(folds=0)
    with pytest.raises(ConfigError):
        RunConfig().override(not_a_field=1)


def test_substream_is_deterministic_and_label_sensitive():
    a1 = substream(7, "synth", "A").normal(size=5)
    a2 = substream(7, "synth", "A").normal(size=5)
    np.testing.assert_array_equal(a1, a2)
    b = substream(7, "synth", "B").normal(size=5)
    swapped = substream(7, "A", "synth").normal(size=5)
    other_seed = substream(8, "synth", "A").normal(size=5)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, swapped)
    assert not np.array_equal(a1, other_seed)


def test_substream_accepts_mixed_label_types():
    one = substream(0, "strength", 3, "E").normal()
    two = substream(0, "strength", "3", "E").normal()
    # labels are hashed through their string form, so 3 and "3" agree
    assert one == two


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    pool = process_pool(2)
    with pool:
        seen = list(pool.map(os.getenv, BLAS_THREAD_VARS))
        assert dict(os.environ) == before
    assert seen == ["1", "1", "1"]
    assert dict(os.environ) == before


def test_no_pool_for_one_worker_or_one_cpu(monkeypatch):
    assert process_pool(1) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert process_pool(4) is None
