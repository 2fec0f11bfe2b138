"""Run configuration, deterministic random substreams and worker pools.

Every piece of randomness in the package is derived from one root seed
through named substreams, so a run is reproducible from its config file
alone regardless of worker count or evaluation order.
"""

import math
import multiprocessing
import multiprocessing.context
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError


@dataclass
class RunConfig:
    latent_dim: int = 16
    num_keys: int = 4
    window_n: int = 10
    lr: float = 1e-3
    epochs: int = 200
    explore_epochs: int = 40
    batch_size: int = 64
    hidden_width: int = 128
    lambda_kld: float = 0.1
    lambda_mask: float = 1.0
    folds: int = 4
    gain_threshold: float = math.inf
    max_rounds: int = 64
    seed: int = 0
    workers: int = 1
    data_path: str = ""
    models_path: str = ""
    reports_path: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        positive = [
            "latent_dim", "num_keys", "window_n", "lr", "epochs",
            "explore_epochs", "batch_size", "hidden_width", "folds",
            "max_rounds", "workers",
        ]
        # NaN fails every comparison below, so finiteness comes first
        for name in ("lr", "lambda_kld", "lambda_mask"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"config key {name!r} must be finite")
        if math.isnan(self.gain_threshold) or self.gain_threshold == -math.inf:
            raise ConfigError("gain_threshold must be a number or +inf")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"config key {name!r} must be positive")
        if self.lambda_kld < 0 or self.lambda_mask < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @classmethod
    def from_file(cls, path):
        """Parse a flat key=value document (# starts a comment)."""
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key] = raw
        return cls.from_strings(values)

    @classmethod
    def from_strings(cls, values):
        kwargs = {}
        converters = {int: _parse_int, float: _parse_float, str: str}
        declared = {f.name: f for f in fields(cls)}
        for key, raw in values.items():
            if key not in declared:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = converters[declared[key].type](raw)
        return cls(**kwargs)

    def override(self, **values):
        for key, val in values.items():
            if val is None:
                continue
            if not hasattr(self, key):
                raise ConfigError(f"unknown config key {key!r}")
            setattr(self, key, val)
        self.validate()
        return self

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for f in fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")


def _parse_int(raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected integer, got {raw!r}") from exc


def _parse_float(raw):
    try:
        if raw in ("inf", "+inf"):
            return math.inf
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected number, got {raw!r}") from exc


def substream(seed, *labels):
    """A numpy Generator tied to (seed, labels).

    Labels are hashed individually, so streams for distinct purposes
    (keys, init, batch order, per-candidate training) never collide
    and never depend on call order.
    """
    words = [int(seed) & 0xFFFFFFFF]
    for label in labels:
        words.append(zlib.crc32(str(label).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(words))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _OneBlasThreadProcess(multiprocessing.context.SpawnProcess):
    """A spawned process whose BLAS runs one thread. A worker imports
    numpy while it unpickles its target, before any initializer runs,
    so the variables must be in the environment it starts with; the
    parent's environment is put back as soon as the child is started."""

    @staticmethod
    def _Popen(process_obj):
        saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            return multiprocessing.context.SpawnProcess._Popen(process_obj)
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


class _OneBlasThreadContext(multiprocessing.context.SpawnContext):
    Process = _OneBlasThreadProcess


def process_pool(workers, initializer=None, initargs=()):
    """A process pool of `workers` processes, at most one per CPU this
    process may run on; None when that leaves a single worker. Workers
    are spawned, not forked, because the parent runs BLAS threads, and
    each runs BLAS on one thread, so the pool never runs more busy
    threads than it has CPUs."""
    size = min(workers, len(os.sched_getaffinity(0)))
    if size <= 1:
        return None
    return ProcessPoolExecutor(max_workers=size, mp_context=_OneBlasThreadContext(),
                               initializer=initializer, initargs=initargs)
