import itertools
import threading
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphnvp import kernels as K
from graphnvp import tensor as T
from graphnvp.chem import bundled_corpus_path, load_dataset
from graphnvp.errors import NumericError, ShapeError
from graphnvp.flow import AdjacencyCouplingLayer, FlowModel
from graphnvp.graphs import qm9lite_spec
from graphnvp.nets import BatchNorm, Linear, RelGraphRound
from graphnvp.tensor import (
    GradientTape,
    Tensor,
    add,
    batch_norm,
    concat,
    exp,
    graph_conv,
    index_axis,
    linear,
    log,
    make_rng,
    masked_assign,
    matmul,
    mean_axis,
    mul,
    power,
    relu,
    replace_row,
    reshape,
    slice_axis,
    sub,
    sum_axis,
    tanh,
)
from graphnvp.train import nll_loss

from conftest import TOY_CONFIG, TOY_SPEC, finite_difference_gradient, random_graph, randomize_model


def test_exp_of_zeros_is_ones():
    out = exp(Tensor(np.zeros((2, 3))))
    assert np.array_equal(out.data, np.ones((2, 3)))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_sum_over_last_axis():
    out = sum_axis(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=-1)
    assert np.array_equal(out.data, [3.0, 7.0])


def test_backward_linear():
    p = Tensor([1.0, 5.0, -2.0])
    with GradientTape() as tape:
        tape.watch("p", p)
        loss = sum_axis(p)
    grads = tape.gradients(loss)
    assert np.array_equal(grads["p"].data, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    p = Tensor([1.0, 2.0, 3.0])
    with GradientTape() as tape:
        tape.watch("p", p)
        loss = sum_axis(mul(p, p))
    grads = tape.gradients(loss)
    assert np.allclose(grads["p"].data, [2.0, 4.0, 6.0])


def test_backward_unused_parameter_is_zero():
    p = Tensor([1.0, 2.0])
    q = Tensor([[3.0]])
    with GradientTape() as tape:
        tape.watch("p", p)
        tape.watch("q", q)
        loss = sum_axis(p)
    grads = tape.gradients(loss)
    assert np.array_equal(grads["q"].data, np.zeros((1, 1)))


def test_backward_requires_scalar_loss():
    p = Tensor([1.0, 2.0])
    with GradientTape() as tape:
        tape.watch("p", p)
        loss = mul(p, p)
    with pytest.raises(ShapeError):
        tape.gradients(loss)


def test_replay_hands_each_group_to_its_consumer_once_final():
    """A group is handed over right after the earliest record reading it has
    been replayed, once, in watch order, with None for a tensor nothing
    read; a group nothing read follows after the replay."""
    a, b, c, u = Tensor([1.0, 2.0]), Tensor([3.0]), Tensor([[0.5]]), Tensor([7.0])
    calls = []

    def consumer(group, gradients):
        copied = [(name, None if g is None else np.array(g).tolist()) for name, g in gradients]
        calls.append((group, copied, len(tape.records)))

    with GradientTape(consumer) as tape:
        tape.watch("a", a, "first")
        tape.watch("c", c, "second")
        tape.watch("b", b, "first")
        tape.watch("u", u, "third")
        s = sum_axis(mul(a, a))  # records 0-1
        t = sum_axis(mul(s, c))  # records 2-3
        loss = add(t, sum_axis(b))  # records 4-5
    assert len(tape.records) == 6
    assert tape.gradients(loss) is None and tape.records == []
    assert calls == [
        ("second", [("c", [[5.0]])], 2),
        ("first", [("a", [1.0, 2.0]), ("b", [1.0])], 0),
        ("third", [("u", None)], 0),
    ]


def test_replay_refuses_a_non_finite_group_before_handing_it_over():
    """A NaN or Inf in a group's gradient raises NumericError naming the
    group; the groups handed over before it stay handed over, and it is not."""
    a, c = Tensor([0.0, 1.0]), Tensor(2.0)
    calls = []
    with GradientTape(lambda group, gradients: calls.append(group)) as tape:
        tape.watch("a", a, "layer_a")
        tape.watch("c", c, "layer_c")
        loss = sum_axis(mul(power(a, 0.5), c))  # d sqrt(a) / da is inf at 0
    with pytest.raises(NumericError, match="backward of layer_a produced a non-finite value"):
        with np.errstate(divide="ignore"):
            tape.gradients(loss)
    assert calls == ["layer_c"]


def test_tape_is_single_use_and_its_gradients_are_read_only():
    p, q = Tensor([1.0, 2.0]), Tensor([[3.0, -1.0], [0.5, 2.0]])
    with GradientTape() as tape:
        tape.watch("q", q)
        tape.watch("p", p)
        squares = mul(p, p)
        loss = add(sum_axis(squares), sum_axis(mul(q, q)))
    records = list(tape.records)
    # A non-scalar loss is refused before the replay starts: the tape is intact.
    with pytest.raises(ShapeError):
        tape.gradients(squares)
    assert tape.records == records
    grads = tape.gradients(loss)
    assert tape.records == []
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.gradients(loss)
    assert list(grads) == ["q", "p"]
    assert grads["q"].data.tolist() == [[6.0, -2.0], [1.0, 4.0]] and grads["p"].data.tolist() == [2.0, 4.0]
    for array in (grads["q"].data, grads["p"].data):
        with pytest.raises(ValueError):
            array.flat[0] = 0.0


def test_a_tensor_is_watched_under_one_name():
    p = Tensor([1.0, 2.0])
    with GradientTape() as tape:
        tape.watch("p", p)
        with pytest.raises(ValueError, match="tensor watched as 'p' cannot also be watched as 'p again'"):
            tape.watch("p again", p, "other")
        loss = sum_axis(mul(p, p))
    assert list(tape.parameters) == ["p"] and tape.groups == {"p": "p"}
    assert tape.gradients(loss)["p"].data.tolist() == [2.0, 4.0]

    # One name for two tensors: the second watch raises, so no gradient is
    # silently dropped.
    a, b = Tensor([3.0]), Tensor([5.0])
    with GradientTape() as tape:
        tape.watch("p", a)
        with pytest.raises(ValueError, match="name 'p' is already watched for another tensor"):
            tape.watch("p", b)
        assert tape.watch("p", a) is a  # the same pair again is a no-op
        loss = add(sum_axis(mul(a, a)), sum_axis(b))
    assert len(tape.records) == 3 and list(tape.parameters) == ["p"]
    assert tape.gradients(loss)["p"].data.tolist() == [6.0]


def test_one_active_tape_per_thread():
    """Entering a second tape raises and leaves the first one recording; a
    tape on another thread is independent; leaving the tape frees the slot."""
    p = Tensor([1.0, 2.0])
    with GradientTape() as tape:
        tape.watch("p", p)
        with pytest.raises(RuntimeError, match="already active"):
            with GradientTape():
                pass
        square = mul(p, p)
        other = []

        def record_elsewhere():
            with GradientTape() as own:
                own.watch("p", p)
                mul(p, p)
            other.append(len(own.records))

        worker = threading.Thread(target=record_elsewhere)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        loss = sum_axis(square)
    assert other == [1] and len(tape.records) == 2
    assert tape.gradients(loss)["p"].data.tolist() == [2.0, 4.0]
    mul(p, p)  # no tape is active: nothing records
    with GradientTape() as again:
        again.watch("p", p)
        mul(p, p)
    assert len(again.records) == 1


def test_finite_difference_quadratic():
    grad = finite_difference_gradient(lambda t: sum_axis(mul(t, t)), Tensor([1.0, 0.0]), 1e-5)
    assert np.allclose(grad.data, [2.0, 0.0], atol=1e-8)


def test_finite_difference_constant():
    grad = finite_difference_gradient(lambda t: 3.5, Tensor([1.0, 2.0, 3.0]), 1e-5)
    assert np.array_equal(grad.data, np.zeros(3))


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError) as err:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2,))))
    message = str(err.value)
    assert "add" in message and "(2, 3)" in message and "(2,)" in message


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "matmul" in str(err.value)


def test_non_finite_raises():
    with pytest.raises(NumericError):
        log(Tensor([-1.0]))
    with pytest.raises(NumericError):
        exp(Tensor([1000.0]))
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_leading_batch_broadcast_only():
    out = add(Tensor(np.ones((4, 2, 3))), Tensor(np.ones((2, 3))))
    assert out.shape == (4, 2, 3)
    assert np.all(out.data == 2.0)
    out = mul(Tensor(np.ones((4, 3))), Tensor(2.0))
    assert np.all(out.data == 2.0)


def test_masked_assign_and_gradient():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    y = Tensor(np.full((2, 3), 9.0))
    mask = np.array([[0, 1, 0], [0, 0, 1]])
    with GradientTape() as tape:
        tape.watch("x", x)
        tape.watch("y", y)
        out = masked_assign(x, mask, y)
        loss = sum_axis(out)
    assert np.array_equal(out.data, [[0, 9, 2], [3, 4, 9]])
    grads = tape.gradients(loss)
    assert np.array_equal(grads["x"].data, 1.0 - mask)
    assert np.array_equal(grads["y"].data, mask.astype(float))


def test_slice_concat_round_trip():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4))
    parts = [slice_axis(x, 1, 0, 1), slice_axis(x, 1, 1, 3)]
    assert np.array_equal(concat(parts, axis=1).data, x.data)


def test_index_axis_drops_axis():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4))
    out = index_axis(x, 1, 2)
    assert out.shape == (2, 4)
    assert np.array_equal(out.data, x.data[:, 2, :])


def test_tape_determinism():
    rng = make_rng(5)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))

    def run():
        with GradientTape() as tape:
            tape.watch("a", a)
            loss = sum_axis(mul(tanh(matmul(a, b)), a))
        return loss.data.tobytes(), tape.gradients(loss)["a"].data.tobytes()

    assert run() == run()


def _random_shape(rng):
    ndim = int(rng.integers(1, 4))
    return tuple(int(rng.integers(1, 5)) for _ in range(ndim))


_UNARY_OPS = [
    ("exp", exp, lambda r, s: r.normal(scale=0.5, size=s)),
    ("log", log, lambda r, s: 0.1 + r.random(s)),
    ("tanh", tanh, lambda r, s: r.normal(size=s)),
    ("relu", relu, lambda r, s: r.normal(size=s) + 0.05),  # keep away from the kink
    ("power", lambda x: power(x, -0.5), lambda r, s: 0.5 + r.random(s)),
    ("sum", lambda x: sum_axis(x, axis=None), lambda r, s: r.normal(size=s)),
    ("mean", lambda x: mean_axis(x, axis=0), lambda r, s: r.normal(size=s)),
    ("reshape", lambda x: reshape(x, (x.size,)), lambda r, s: r.normal(size=s)),
    ("slice", lambda x: slice_axis(x, 0, 0, max(1, x.shape[0] - 1)), lambda r, s: r.normal(size=s)),
    ("index", lambda x: index_axis(x, 0, 0), lambda r, s: r.normal(size=s)),
]


@pytest.mark.parametrize("name,op,sampler", _UNARY_OPS, ids=[t[0] for t in _UNARY_OPS])
def test_backward_matches_finite_differences_unary(name, op, sampler):
    rng = make_rng(zlib.crc32(name.encode()))
    for trial in range(4):
        p = Tensor(sampler(rng, _random_shape(rng)))
        other = Tensor(rng.normal(size=op(p).shape))

        def f(t):
            return sum_axis(mul(op(t), other))

        with GradientTape() as tape:
            tape.watch("p", p)
            loss = f(p)
        analytic = tape.gradients(loss)["p"].data
        numeric = finite_difference_gradient(f, p, 1e-5).data
        scale = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < 1e-4, name


_BINARY_OPS = [("add", add), ("sub", sub), ("mul", mul)]


@pytest.mark.parametrize("name,op", _BINARY_OPS, ids=[t[0] for t in _BINARY_OPS])
def test_backward_matches_finite_differences_binary(name, op):
    rng = make_rng(zlib.crc32(name.encode()))
    for trial in range(4):
        shape = _random_shape(rng)
        a = Tensor(rng.normal(size=(3,) + shape))  # leading batch axis
        b = Tensor(rng.normal(size=shape))
        for label, p, fixed, f in (
            ("lhs", a, b, lambda t: sum_axis(op(t, b))),
            ("rhs", b, a, lambda t: sum_axis(op(a, t))),
        ):
            with GradientTape() as tape:
                tape.watch("p", p)
                loss = f(p)
            analytic = tape.gradients(loss)["p"].data
            numeric = finite_difference_gradient(f, p, 1e-5).data
            scale = max(np.abs(numeric).max(), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-4, (name, label)


def test_backward_matches_finite_differences_matmul():
    rng = make_rng(99)
    a = Tensor(rng.normal(size=(4, 2, 3)))
    b = Tensor(rng.normal(size=(3, 4)))

    def f_a(t):
        return sum_axis(tanh(matmul(t, b)))

    def f_b(t):
        return sum_axis(tanh(matmul(a, t)))

    for p, f in ((a, f_a), (b, f_b)):
        with GradientTape() as tape:
            tape.watch("p", p)
            loss = f(p)
        analytic = tape.gradients(loss)["p"].data
        numeric = finite_difference_gradient(f, p, 1e-5).data
        assert np.abs(analytic - numeric).max() / np.abs(numeric).max() < 1e-4


def test_backward_matches_finite_differences_concat_masked():
    rng = make_rng(123)
    a = Tensor(rng.normal(size=(2, 2)))
    b = Tensor(rng.normal(size=(2, 2)))
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])

    def f(t):
        joined = concat([t, b], axis=1)
        patched = masked_assign(t, mask, exp(t))
        return add(sum_axis(mul(joined, joined)), sum_axis(patched))

    with GradientTape() as tape:
        tape.watch("p", a)
        loss = f(a)
    analytic = tape.gradients(loss)["p"].data
    numeric = finite_difference_gradient(f, a, 1e-5).data
    assert np.abs(analytic - numeric).max() / np.abs(numeric).max() < 1e-4


def _assert_gradients_match(f, params):
    """Tape gradient of ``f`` against central differences, one input at a time."""
    for k, p in enumerate(params):

        def f_k(t):
            return f(*params[:k], t, *params[k + 1 :])

        with GradientTape() as tape:
            tape.watch("p", p)
            loss = f_k(p)
        analytic = tape.gradients(loss)["p"].data
        numeric = finite_difference_gradient(f_k, p, 1e-5).data
        scale = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < 1e-4, k


def test_backward_matches_finite_differences_linear():
    rng = make_rng(31)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((5, 3), (3, 4), (4,)))
    other = Tensor(rng.normal(size=(5, 4)))
    _assert_gradients_match(lambda x, w, b: sum_axis(mul(tanh(linear(x, w, b)), other)), [x, w, b])


@pytest.mark.parametrize("shape", [(6, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_backward_matches_finite_differences_batch_norm_training(shape):
    rng = make_rng(32)
    x = Tensor(rng.normal(size=shape))
    gamma = Tensor(1.0 + 0.3 * rng.normal(size=3))
    beta = Tensor(rng.normal(size=3))
    other = Tensor(rng.normal(size=shape))

    def f(x, gamma, beta):
        return sum_axis(mul(tanh(batch_norm(x, gamma, beta, 1e-5)[0]), other))

    _assert_gradients_match(f, [x, gamma, beta])


def test_batch_norm_vjp_recomputes_the_forwards_normalized_input():
    """With gamma 1 and beta 0 the output is the normalized input itself, so
    the gradients built from the normalized input that the vjp recomputes
    must have the bits of the same formulas applied to the output."""
    rng = make_rng(44)
    rows, features = 576, 64  # one qm9lite R-GCN round at batch 64
    x = Tensor(3.0 * rng.normal(size=(rows, features)) + 1.0)
    gamma, beta = Tensor(np.ones(features)), Tensor(np.zeros(features))
    g = rng.normal(size=(rows, features))
    with GradientTape() as tape:
        for name, t in (("x", x), ("gamma", gamma), ("beta", beta)):
            tape.watch(name, t)
        out, _, var = batch_norm(x, gamma, beta, 1e-5)
        loss = sum_axis(mul(out, Tensor(g)))
    grads = tape.gradients(loss)
    normed = out.data
    g_gamma = (g * normed).sum(axis=0)
    assert grads["gamma"].data.tobytes() == g_gamma.tobytes()
    gx = g - g.sum(axis=0) / rows
    gx -= normed * (g_gamma / rows)
    gx *= gamma.data * np.power(var + 1e-5, -0.5)
    assert grads["x"].data.tobytes() == gx.tobytes()


def test_batch_norm_matches_reference_and_returns_statistics():
    rng = make_rng(34)
    x = rng.normal(size=(2, 5, 3))
    gamma, beta = rng.normal(size=3), rng.normal(size=3)
    out, mean, var = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)
    assert np.array_equal(mean, x.mean(axis=(0, 1)))
    assert np.array_equal(var, x.var(axis=(0, 1)))
    expected = (x - mean) / np.sqrt(var + 1e-5) * gamma + beta
    assert np.abs(out.data - expected).max() < 1e-12
    with pytest.raises(ShapeError):
        batch_norm(Tensor(x), Tensor(gamma[:2]), Tensor(beta), 1e-5)


def test_backward_matches_finite_differences_replace_row():
    rng = make_rng(35)
    x = Tensor(rng.normal(size=(2, 4, 3)))
    value = Tensor(rng.normal(size=(2, 3)))
    other = Tensor(rng.normal(size=x.shape))
    for row in (0, 2, 3):
        _assert_gradients_match(
            lambda x, v: sum_axis(mul(tanh(replace_row(mul(x, x), row, v)), other)), [x, value]
        )


def test_replace_row_values_and_shape_checks():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 4, 3))
    value = Tensor(-np.ones((2, 3)))
    out = replace_row(x, 1, value)
    expected = x.data.copy()
    expected[:, 1] = -1.0
    assert np.array_equal(out.data, expected)
    with pytest.raises(ShapeError):
        replace_row(x, 4, value)
    with pytest.raises(ShapeError):
        replace_row(x, 0, Tensor(np.ones((2, 4))))


def test_constant_operand_gradient_is_never_computed(monkeypatch):
    rng = make_rng(36)
    const = Tensor(rng.normal(size=(3, 4, 5)))
    watched = Tensor(rng.normal(size=(3, 5, 2)))
    calls = []
    original = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    with GradientTape() as tape:
        tape.watch("w", watched)
        loss = sum_axis(matmul(const, watched))
    assert tape.records[0].needs == (False, True)
    grads = tape.gradients(loss)
    monkeypatch.undo()
    # one product forward, one for the watched operand's gradient
    assert calls == [(3, 4, 5), (3, 5, 4)]
    expected = np.swapaxes(const.data, -1, -2) @ np.ones((3, 4, 2))
    assert np.array_equal(grads["w"].data, expected)


def test_vjp_gets_the_needs_gradient_mask():
    rng = make_rng(37)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=2))
    asked = []
    with GradientTape() as tape:
        tape.watch("w", w)
        loss = sum_axis(linear(x, w, b))
        for rec in tape.records:
            vjp = rec.vjp
            rec.vjp = lambda g, needs, vjp=vjp: asked.append(needs) or vjp(g, needs)
    tape.gradients(loss)
    assert asked == [(True,), (False, True, False)]


def test_linear_and_training_batch_norm_record_once():
    rng = make_rng(38)
    layer = Linear(3, 4, rng)
    norm = BatchNorm(4)
    x = Tensor(rng.normal(size=(5, 3)))
    with GradientTape() as tape:
        for name, p in layer.named_parameters():
            tape.watch("lin." + name, p)
        h = layer(x)
        assert len(tape.records) == 1
        for name, p in norm.named_parameters():
            tape.watch("bn." + name, p)
        norm(h)
        assert len(tape.records) == 2
    assert np.array_equal(dict(norm.named_buffers())["running_mean"], 0.1 * h.data.mean(axis=0))


def _round_parameters(rng, r, f, hidden):
    """Random ``w_rel`` [R, F, H], ``w_self`` [F, H] and bias [H]."""
    return (
        Tensor(rng.normal(scale=0.5, size=(r, f, hidden))),
        Tensor(rng.normal(scale=0.5, size=(f, hidden))),
        Tensor(rng.normal(size=hidden)),
    )


def _relational_input(rng, batch, n, r, f, hidden):
    """Features [batch, N, F], a 0/1 adjacency laid out as ``a_rows``
    [batch, N*R, N], and random round parameters."""
    h = Tensor(rng.normal(size=(batch, n, f)))
    adjacency = (rng.random((batch, n, n, r)) < 0.4).astype(np.float64)
    a_rows = adjacency.transpose(0, 1, 3, 2).reshape(batch, n * r, n)
    return (h, a_rows) + _round_parameters(rng, r, f, hidden)


def _unfused_graph_conv(h, a_rows, w_rel, w_self, b, row=None):
    """The generic-op R-GCN round that ``graph_conv`` fuses."""
    batch, n, f = h.shape
    r, _, hidden = w_rel.shape
    if row is None:
        rows, h_self = batch * n, reshape(h, (batch * n, f))
    else:
        a_rows = a_rows[:, row * r : (row + 1) * r]
        rows, h_self = batch, index_axis(h, 1, row)
    messages = reshape(matmul(Tensor(a_rows), h), (rows, r * f))
    out = add(matmul(messages, reshape(w_rel, (r * f, hidden))), matmul(h_self, w_self))
    out = add(out, b)
    return out if row is not None else reshape(out, (batch, n, hidden))


def test_backward_matches_finite_differences_graph_conv():
    rng = make_rng(39)
    h, a_rows, w_rel, w_self, b = _relational_input(rng, batch=2, n=3, r=2, f=3, hidden=4)
    other = Tensor(rng.normal(size=(2, 3, 4)))

    def f(h, w_rel, w_self, b):
        return sum_axis(mul(tanh(graph_conv(h, a_rows, w_rel, w_self, b)), other))

    _assert_gradients_match(f, [h, w_rel, w_self, b])


def test_graph_conv_values_and_shape_checks():
    rng = make_rng(40)
    h, a_rows, w_rel, w_self, b = _relational_input(rng, batch=2, n=3, r=2, f=3, hidden=4)
    full = graph_conv(h, a_rows, w_rel, w_self, b)
    assert full.shape == (2, 3, 4)
    assert np.array_equal(full.data, _unfused_graph_conv(h, a_rows, w_rel, w_self, b).data)
    weights = (w_rel.data, w_self.data, b.data)
    for row in range(3):
        only = K.graph_conv(h.data, a_rows, *weights, row)
        assert np.array_equal(only, _unfused_graph_conv(h, a_rows, w_rel, w_self, b, row).data)
    with pytest.raises(ShapeError):
        graph_conv(h, a_rows[:, :4], w_rel, w_self, b)
    with pytest.raises(ShapeError):
        graph_conv(h, a_rows, w_rel, w_self, Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        K.graph_conv(h.data, a_rows, *weights, 3)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backward_matches_finite_differences_batch_norm_activation(activation):
    rng = make_rng(zlib.crc32(f"batch_norm-{activation}".encode()))
    x = Tensor(rng.normal(size=(2, 4, 3)))
    gamma = Tensor(1.0 + 0.3 * rng.normal(size=3))
    beta = Tensor(rng.normal(size=3))
    other = Tensor(rng.normal(size=x.shape))

    def f(x, gamma, beta):
        return sum_axis(mul(batch_norm(x, gamma, beta, 1e-5, activation=activation)[0], other))

    _assert_gradients_match(f, [x, gamma, beta])


def _conv_stack_loss(fused, h, a_rows, params, other, row):
    """Two R-GCN rounds with batch norm and tanh, the target row, then a
    linear layer with batch norm and relu: the node-feature conditioner and
    an MLP hidden layer, fused or as the generic-op composition."""
    conv = graph_conv if fused else _unfused_graph_conv

    def norm(x, k, activation):
        gamma, beta = params[f"gamma{k}"], params[f"beta{k}"]
        if fused:
            return batch_norm(x, gamma, beta, 1e-5, activation=activation)[0]
        return {"tanh": tanh, "relu": relu}[activation](batch_norm(x, gamma, beta, 1e-5)[0])

    x = h
    for k in range(2):
        x = conv(x, a_rows, params[f"rel{k}"], params[f"self{k}"], params[f"bias{k}"])
        x = norm(x, k, "tanh")
    x = index_axis(x, 1, row)
    x = norm(linear(x, params["weight"], params["bias"]), 2, "relu")
    return sum_axis(mul(x, other))


def test_fused_round_and_activation_are_bit_identical_to_generic_ops():
    """A qm9lite-shaped batch: 64 graphs, 9 nodes, 4 bond channels, 5 atom
    types, 64 hidden features."""
    rng = make_rng(41)
    batch, n, r, f, hidden = 64, 9, 4, 5, 64
    h, a_rows, *_ = _relational_input(rng, batch, n, r, f, hidden)
    params = {}
    for k in range(2):
        params[f"rel{k}"], params[f"self{k}"], params[f"bias{k}"] = _round_parameters(
            rng, r, f if k == 0 else hidden, hidden
        )
    params["weight"] = Tensor(rng.normal(scale=0.2, size=(hidden, hidden)))
    params["bias"] = Tensor(rng.normal(size=hidden))
    for k in range(3):
        params[f"gamma{k}"] = Tensor(1.0 + 0.3 * rng.normal(size=hidden))
        params[f"beta{k}"] = Tensor(rng.normal(size=hidden))
    other = Tensor(rng.normal(size=(batch, hidden)))

    results = []
    for fused in (True, False):
        with GradientTape() as tape:
            tape.watch("h", h)
            for name, p in params.items():
                tape.watch(name, p)
            loss = _conv_stack_loss(fused, h, a_rows, params, other, row=4)
        results.append((loss.item(), tape.gradients(loss)))
    (fused_loss, fused_grads), (plain_loss, plain_grads) = results
    assert fused_loss == plain_loss
    assert fused_grads.keys() == plain_grads.keys()
    for name in plain_grads:
        assert np.array_equal(fused_grads[name].data, plain_grads[name].data), name


@pytest.mark.parametrize("activation", [None, "tanh", "relu"])
def test_batch_norm_checks_finiteness_before_the_activation(activation):
    # The first column normalizes to [-1, 1] and becomes [-inf, 0] before the
    # activation; tanh would map -inf to -1 and relu to 0.
    x = Tensor([[0.0, 0.0], [2.0, 2.0]])
    gamma, beta = Tensor([1e308, 1.0]), Tensor([-1e308, 0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^batch_norm produced a non-finite value"):
        batch_norm(x, gamma, beta, 0.0, activation=activation)
    with pytest.raises(ValueError):
        batch_norm(x, Tensor([1.0, 1.0]), beta, 0.0, activation="sigmoid")
    with pytest.raises(TypeError):
        batch_norm(x, gamma, beta, 0.0, None)  # the statistics argument is gone


def _overflowing_inputs():
    """Inputs whose linear and graph_conv outputs hold -inf."""
    x, w, b = Tensor([[1e200, 1.0]]), Tensor([[-1e200, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0])
    h, a_rows, w_rel = Tensor([[[1e200, 0.0], [1.0, 1.0]]]), np.zeros((1, 2, 2)), Tensor(np.zeros((1, 2, 2)))
    return x, w, b, h, a_rows, w_rel


def test_linear_and_graph_conv_refuse_a_non_finite_output():
    x, w, b, h, a_rows, w_rel = _overflowing_inputs()
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="^linear produced a non-finite value"):
            linear(x, w, b)
        with pytest.raises(NumericError, match="^graph_conv produced a non-finite value"):
            graph_conv(h, a_rows, w_rel, w, b)
    # Neither takes an activation: batch norm holds the one fused activation.
    with pytest.raises(TypeError):
        linear(x, Tensor(np.eye(2)), b, "tanh")
    with pytest.raises(TypeError):
        graph_conv(h, a_rows, w_rel, Tensor(np.eye(2)), b, "tanh")


@pytest.mark.parametrize("activation", [None, "tanh", "relu"])
def test_linear_and_graph_conv_check_finiteness_before_the_activation(activation):
    # -inf before the activation; tanh would map it to -1 and relu to 0.
    x, w, b, h, a_rows, w_rel = _overflowing_inputs()
    with np.errstate(over="ignore"):
        # The eval round of one target row.
        with pytest.raises(NumericError, match="^graph_conv produced a non-finite value"):
            y = K.graph_conv(h.data, a_rows, w_rel.data, w.data, b.data, 0)
            K.activate(y, activation, "graph_conv")
        with pytest.raises(NumericError, match="^linear produced a non-finite value"):
            K.activate(K.linear(x.data, w.data, b.data), activation, "linear")
    with pytest.raises(ValueError):
        K.activate(np.zeros(2), "sigmoid", "graph_conv")


def test_training_graph_round_and_batch_norm_activation_record_once():
    rng = make_rng(42)
    layer = RelGraphRound(3, 4, 2, rng)
    norm = BatchNorm(4)
    h, a_rows, *_ = _relational_input(rng, batch=2, n=3, r=2, f=3, hidden=4)
    with GradientTape() as tape:
        for name, p in layer.named_parameters():
            tape.watch("round." + name, p)
        tape.watch("h", h)
        out = layer(h, a_rows)
        assert len(tape.records) == 1
        for name, p in norm.named_parameters():
            tape.watch("bn." + name, p)
        norm(out, activation="tanh")
        assert len(tape.records) == 2
        norm(out, activation="relu")
        assert len(tape.records) == 3


def test_qm9lite_training_step_tape_length():
    """Per node-feature layer: replace_row zeroing the target row, two rounds
    of graph_conv and batch_norm (the last batch norm returns the target row
    alone), the head, the feature row, add and replace_row (9).  Per adjacency
    layer: replace_row zeroing the target slice, reshape, two MLPs
    of 5 records (linear and batch_norm twice, head), tanh and mul on the
    scale, two reshapes, the row, exp, mul, add, sum_axis, replace_row and
    the log-det add (23).  The first layer of each stack sees a constant
    input, so 2 and 3 of those are not recorded; the latent concat, prior
    and mean add 15."""
    spec = qm9lite_spec()
    batch = load_dataset(bundled_corpus_path("qm9lite"), spec)[:64]
    model = FlowModel(spec, seed=0)
    with GradientTape() as tape:
        for name, p in model.named_parameters():
            tape.watch(name, p)
        nll_loss(model, batch, make_rng(0))
    assert len(model.node_layers) == 36 and len(model.adjacency_layers) == 27
    assert len(tape.records) == 36 * 9 - 2 + 27 * 23 - 3 + 15 == 955


@pytest.mark.parametrize("activation", [None, "tanh", "relu"])
@pytest.mark.parametrize("watch_affine", [False, True])
@pytest.mark.parametrize("watch_x", [True, False])
def test_batch_norm_row_equals_full_norm_then_index_axis_bitwise(activation, watch_affine, watch_x):
    """Normalizing only ``x[:, row]`` (statistics over all of ``x``) gives the
    output, statistics and gradients of the full norm followed by
    ``index_axis``, bit for bit, whichever inputs need a gradient."""
    rng = make_rng(61)
    x = Tensor(rng.normal(size=(5, 4, 3)))
    gamma, beta = Tensor(0.5 + rng.random(3)), Tensor(rng.normal(size=3))
    weights = Tensor(rng.normal(size=(5, 3)))  # a distinct gradient for every output entry
    watched = ({"gamma": gamma, "beta": beta} if watch_affine else {}) | ({"x": x} if watch_x else {})

    def run(row_only):
        with GradientTape() as tape:
            for name, t in watched.items():
                tape.watch(name, t)
            if row_only:
                out, mean, var = batch_norm(x, gamma, beta, 1e-5, activation=activation, row=2)
            else:
                full, mean, var = batch_norm(x, gamma, beta, 1e-5, activation=activation)
                out = index_axis(full, 1, 2)
            loss = sum_axis(mul(out, weights))
        grads = tape.gradients(loss) if watched else {}
        return [out.data, mean, var] + [grads[name].data for name in watched]

    got, want = run(True), run(False)
    assert got[0].shape == (5, 3)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_batch_norm_row_out_of_range():
    x = Tensor(np.ones((2, 3, 4)))
    gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
    for bad_x, row in ((x, 3), (x, -1), (Tensor(np.ones((2, 4))), 0)):
        with pytest.raises(ShapeError):
            batch_norm(bad_x, gamma, beta, 1e-5, row=row)


def _replay_keeping_every_record(records, parameters, loss):
    """The replay before the tape freed itself: every record kept until the
    end, each gradient summed out of place into its own array."""
    grads = {loss.key: np.ones(())}
    for rec in reversed(records):
        g_out = grads.pop(rec.output, None)
        if g_out is None:
            continue
        for key, g in zip(rec.inputs, rec.vjp(g_out, rec.needs)):
            if g is not None:
                acc = grads.get(key)
                grads[key] = g if acc is None else acc + g
    return {name: grads.get(p.key, np.zeros(p.shape)) for name, p in parameters.items()}


def test_qm9lite_step_gradients_equal_a_replay_that_keeps_every_record():
    """The freeing replay gives every parameter the bits of the replay that
    kept the whole tape and one array per gradient.  (The
    recomputed messages and normalized inputs are checked against the generic
    ops in ``test_fused_round_and_activation_are_bit_identical_to_generic_ops``.)"""
    spec = qm9lite_spec()
    batch = load_dataset(bundled_corpus_path("qm9lite"), spec)[:64]
    model = FlowModel(spec, seed=0)
    with GradientTape() as tape:
        for name, p in sorted(model.named_parameters()):
            tape.watch(name, p)
        loss = nll_loss(model, batch, make_rng(0))
    expected = _replay_keeping_every_record(list(tape.records), tape.parameters, loss)
    grads = tape.gradients(loss)
    assert list(grads) == sorted(expected)
    for name, g in grads.items():
        assert g.data.shape == expected[name].shape
        assert g.data.tobytes() == expected[name].tobytes(), name
    assert max(np.abs(g.data).max() for g in grads.values()) > 0.0


def test_adjacency_copies_of_z_are_freed_once_the_next_layer_has_read_them(monkeypatch):
    """The tape keeps no tensor that no vjp reads: each adjacency layer's
    output but the last is freed during the training forward, before the
    replay runs, and the gradients keep the bits of a replay that kept every
    record of an untouched forward."""
    spec = qm9lite_spec()
    batch = load_dataset(bundled_corpus_path("qm9lite"), spec)[:32]
    outputs = []
    original = AdjacencyCouplingLayer.forward

    def tracked_forward(self, z):
        out, log_det = original(self, z)
        outputs.append(weakref.ref(out.data))
        return out, log_det

    def step(forward):
        monkeypatch.setattr(AdjacencyCouplingLayer, "forward", forward)
        model = randomize_model(FlowModel(spec, seed=0), seed=5)
        with GradientTape() as tape:
            for name, p in sorted(model.named_parameters()):
                tape.watch(name, p)
            loss = nll_loss(model, batch, make_rng(0))
        return tape, loss

    tape, loss = step(tracked_forward)
    assert len(outputs) == 27
    assert [k for k, ref in enumerate(outputs[:-1]) if ref() is not None] == []
    grads = tape.gradients(loss)
    untouched, untouched_loss = step(original)
    expected = _replay_keeping_every_record(list(untouched.records), untouched.parameters, untouched_loss)
    assert list(grads) == sorted(expected)
    for name, g in grads.items():
        assert g.data.tobytes() == expected[name].tobytes(), name


def test_a_freed_input_hands_its_key_to_no_later_tensor():
    """Once a recorded intermediate is freed, a tensor that reuses its
    ``id()`` is still untracked: no op on it is recorded."""
    p = Tensor(np.ones(3))
    with GradientTape() as tape:
        tape.watch("p", p)
        h = add(p, p)
        freed_id, freed_key = id(h), h.key
        del h
        reused = [Tensor(np.zeros(3)) for _ in range(100)]
        for t in reused:
            mul(t, t)
    assert len(tape.records) == 1 and tape.records[0].output == freed_key
    assert all(t.key > freed_key for t in reused)
    assert any(id(t) == freed_id for t in reused)  # the case the keys exist for


_FUSED = ("linear", "graph_conv", "batch_norm", "replace_row")

# What each fused op's vjp kernel reads between ``g`` and the needs mask,
# taken from the closure of the vjp its record holds.
_KERNEL_ARGS = {
    "linear": lambda c: (c["x"].data, c["w"].data),
    "graph_conv": lambda c: (c["h"].data, c["a_rows"], c["w_rel"].data, c["w_self"].data),
    "batch_norm": lambda c: (c["x"].data, c["gamma"].data, c["y"], c["mean"], c["inv_std"], c["activation"], c["row"]),
    "replace_row": lambda c: (c["row"],),
}


def _fused_training_records(monkeypatch):
    """One toy training step's tape and loss, and each record a fused op
    made, with that op's name; the four ops are wrapped to tell."""
    made = {}  # key of each fused output -> op
    for op in _FUSED:

        def traced(*args, original=getattr(T, op), op=op, **kwargs):
            out = original(*args, **kwargs)
            tensor = out[0] if isinstance(out, tuple) else out
            made[tensor.key] = op
            return out

        monkeypatch.setattr(T, op, traced)
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=3), seed=4)
    batch = [random_graph(TOY_SPEC, make_rng(k)) for k in range(4)]
    with GradientTape() as tape:
        for name, p in model.named_parameters():
            tape.watch(name, p)
        loss = nll_loss(model, batch, make_rng(0))
    monkeypatch.undo()
    return tape, loss, [(made[rec.output], rec) for rec in tape.records if rec.output in made]


def test_every_fused_record_names_its_op(monkeypatch):
    """The benchmark's tracer names each backward span after the first part
    of ``rec.vjp.__qualname__``; every fused record of a training step
    carries its op's name there."""
    _, _, fused = _fused_training_records(monkeypatch)
    assert {op for op, _ in fused} == set(_FUSED)
    for op, rec in fused:
        assert rec.vjp.__qualname__.split(".", 1)[0] == op


def test_vjp_kernels_skip_exactly_the_unneeded_inputs(monkeypatch):
    """Each fused vjp kernel, called on the arrays its record holds and the
    gradient the replay gave it, returns the replay's bytes for every input
    the record needed; under any needs mask it returns ``None`` exactly
    where the mask is False and those bytes everywhere else."""
    tape, loss, fused = _fused_training_records(monkeypatch)
    replayed = []
    for op, rec in fused:

        def capture(g, needs, op=op, vjp=rec.vjp):
            grads = vjp(g, needs)
            replayed.append((op, vjp, g, needs, grads))
            return grads

        rec.vjp = capture
    tape.gradients(loss)
    assert {op for op, *_ in replayed} == set(_FUSED)
    for op, vjp, g, needs, grads in replayed:
        closure = dict(zip(vjp.__code__.co_freevars, (cell.cell_contents for cell in vjp.__closure__)))
        kernel, args = getattr(K, f"{op}_vjp"), _KERNEL_ARGS[op](closure)
        full = kernel(g, *args, (True,) * len(needs))
        for want, got, need in zip(grads, full, needs):
            assert (want is None) != need
            assert got is not None and (not need or got.tobytes() == want.tobytes())
        for mask in itertools.product((False, True), repeat=len(needs)):
            out = kernel(g, *args, mask)
            assert len(out) == len(needs)
            for want, got, keep in zip(full, out, mask):
                assert got is None if not keep else got.tobytes() == want.tobytes()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ops_match_numpy_reference(seed):
    rng = make_rng(seed)
    shape = _random_shape(rng)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)
    assert np.array_equal(sub(Tensor(a), Tensor(b)).data, a - b)
    assert np.array_equal(mul(Tensor(a), Tensor(b)).data, a * b)
    assert np.allclose(tanh(Tensor(a)).data, np.tanh(a))
    assert np.allclose(sum_axis(Tensor(a), axis=0).data, a.sum(axis=0))


def test_tensor_data_read_only():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
