"""The benchmark's span tracer (``perfbench/tracing.py``) wraps library
functions and methods by name; every name it lists must still exist, and a
traced training step and a traced inverse must still run."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import TOY_CONFIG, TOY_SPEC, random_graph, randomize_model
from graphnvp import tensor as T
from graphnvp.flow import FlowModel
from graphnvp.tensor import GradientTape, make_rng
from graphnvp.train import nll_loss

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _tracing()
    for op in tracing.TENSOR_OPS:
        assert op in T.__all__ and callable(getattr(T, op)), op
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__[attr]), (module, cls_name, attr)


def test_traced_training_step_runs_and_matches_untraced():
    model = FlowModel(TOY_SPEC, TOY_CONFIG, seed=3)
    batch = [random_graph(TOY_SPEC, make_rng(k)) for k in range(4)]

    def step():
        with GradientTape() as tape:
            for name, p in model.named_parameters():
                tape.watch(name, p)
            loss = nll_loss(model, batch, make_rng(0))
        return loss.item(), tape.gradients(loss)

    plain_loss, plain_grads = step()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        traced_loss, traced_grads = step()
    finally:
        tracer.uninstall()
    assert traced_loss == plain_loss
    assert all(np.array_equal(traced_grads[k].data, plain_grads[k].data) for k in plain_grads)
    names = {span[0] for span in tracer.spans}
    assert {"tensor.backward", "tensor.backward.linear", "tensor.backward.batch_norm"} <= names
    assert tracer.tape_records > 0


def test_traced_inverse_matches_untraced_and_records_layer_spans():
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=4), seed=5)
    z = make_rng(6).normal(size=(7, TOY_SPEC.latent_dim))
    plain = model.inverse_batch(z)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        traced = model.inverse_batch(z)
    finally:
        tracer.uninstall()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(traced, plain))
    names = [span[0] for span in tracer.spans]
    assert names.count("flow.inverse_batch") == 1
    assert names.count("flow.adj_inverse") == TOY_CONFIG.adjacency_layers
    assert names.count("flow.node_inverse") == TOY_CONFIG.node_layers
