import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rirl.config import RunConfig
from rirl.dataio import DagSpec, EdgeDef, NodeDef, synth_generate

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TINY_CONFIG = dict(latent_dim=4, num_keys=1, hidden_width=16, epochs=2,
                   explore_epochs=2, batch_size=32, folds=4, seed=7)


def tiny_chain_spec(seed=7):
    """Two-attribute A -> B chain, small enough for second-scale training."""
    return DagSpec(nodes=[NodeDef("A", 2), NodeDef("B", 2, amplitude=0.4)],
                   edges=[EdgeDef("A", "B", 1, lag=2)], seed=seed)


@pytest.fixture(scope="session")
def chain_dataset():
    return synth_generate(tiny_chain_spec(), 260, 7)


@pytest.fixture()
def tiny_config():
    return RunConfig(**TINY_CONFIG)


def assert_close(a, b, tol, label=""):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert err <= tol, f"{label}: max abs err {err:.3e} > {tol:.1e}"


def model_arrays(model):
    """Every stored array of a node or micro-causal model, in a fixed
    order, so two models can be compared bit for bit."""
    if hasattr(model, "relation"):
        nodes = [*model.cause_models.values(), model.effect_model]
        layers = [model.relation.l1, model.relation.l2]
        return ([a for m in nodes for a in model_arrays(m)]
                + [a for layer in layers for a in (layer.W, layer.b)])
    out = [a for _, layer in model.named_layers() for a in (layer.W, layer.b)]
    if model.scaler is not None:
        out += [model.scaler.mean, model.scaler.std]
    return out


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
