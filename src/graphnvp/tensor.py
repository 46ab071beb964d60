"""Dense float64 tensors with a reverse-mode gradient tape.

Values are immutable; every operation returns a fresh ``Tensor`` and raises
:class:`~graphnvp.errors.NumericError` if it produces a NaN or Inf.
Elementwise operations broadcast only over leading (batch) axes: the shorter
operand must match the trailing axes of the longer one exactly.  Gradients are
recorded on an explicitly entered :class:`GradientTape`.  Each thread has one
active-tape slot, so entering a second tape while one is active raises; and a
tape watches each tensor under one name, so a second ``watch`` of it raises.

Besides the generic primitives there are four fused ones, each one tape
record whose forward and vjp are array kernels in :mod:`~graphnvp.kernels`:

* :func:`linear`: a 2-D GEMM plus bias;
* :func:`graph_conv`: one relational graph-convolution round, relation
  messages and self-loop in two GEMMs plus bias;
* :func:`batch_norm`: batch statistics, then scale and shift, then
  ``activation=None | "tanh" | "relu"`` in place after its finiteness check;
* :func:`replace_row`: swap one axis-1 slice.

Each record keeps a needs-gradient mask, one flag per input saying whether it
depends on a watched tensor; the vjp receives it and returns ``None`` for the
inputs that do not, instead of computing a gradient nobody reads.

Memory.  A record keeps only what its vjp reads.  It names its inputs and
output by key, a serial number each tensor gets when it is made, so no record
keeps a tensor alive; and the vjps of ``add``, ``sub``, ``reshape``,
``index_axis``, ``masked_assign``, ``sum_axis``, ``mean_axis`` and
``slice_axis`` keep shapes, not operands.  So an intermediate that no vjp
reads is freed once the forward has moved past it.  Unlike ``id()``, a key is
never handed on from a freed tensor to a new one.  A tape is single-use:
:meth:`GradientTape.gradients` drops each record as soon as its vjp has run,
so the arrays only that record held are freed while the replay goes on, and a
second replay raises.  Two vjps recompute an intermediate instead of keeping
it, with the forward's own operations, so the gradients keep their bits:
``graph_conv`` its relation messages ``a_rows @ h`` [rows, R*F], and
``batch_norm`` its normalized input ``(x - mean) * inv_std``.  Watched
tensors come in groups, and each group's gradients are handed to the tape's
consumer, then dropped, as soon as the replay has finished them, so a
consumer that applies them at once never holds a gradient of every
parameter.  The default consumer, :class:`Gradients`, collects them by
watched name.
"""
from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels as K
from .errors import NumericError, ShapeError
from .kernels import check_finite

__all__ = [
    "Tensor",
    "GradientTape",
    "Gradients",
    "make_rng",
    "add",
    "sub",
    "mul",
    "matmul",
    "exp",
    "log",
    "tanh",
    "relu",
    "power",
    "sum_axis",
    "mean_axis",
    "concat",
    "slice_axis",
    "index_axis",
    "masked_assign",
    "reshape",
    "linear",
    "graph_conv",
    "batch_norm",
    "replace_row",
]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox)."""
    return np.random.Generator(np.random.Philox(seed))


# Each tensor's key; unlike ``id()``, never reused within the process.
_serial = itertools.count()


class Tensor:
    """Immutable dense array of float64 scalars, and the ``key`` a tape
    knows it by.

    Parameters are the exception: each is a read-only view of its model's
    vector, which :func:`~graphnvp.train.adam_step` and ``set_parameter``
    write into in place.
    """

    __slots__ = ("data", "key")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor constructed with non-finite values")
        arr.flags.writeable = False
        self.data = arr
        self.key = next(_serial)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _wrap(arr: np.ndarray, op: str) -> Tensor:
    check_finite(arr, op)
    return _frozen(arr)


def _frozen(arr: np.ndarray) -> Tensor:
    """Wrap an array already known to be finite."""
    out = Tensor.__new__(Tensor)
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    out.data = arr
    out.key = next(_serial)
    return out


class _Record:
    """One recorded op: the keys of its inputs and of its output, and its
    vjp.  ``vjp(g, needs)`` returns one gradient per input, or ``None``
    where ``needs`` (the needs-gradient mask) is False.  The record holds no
    tensor, so an input or output lives only as long as the forward or a
    vjp refers to it."""

    __slots__ = ("inputs", "output", "vjp", "needs")

    def __init__(self, inputs: tuple[int, ...], output: int, vjp, needs: tuple[bool, ...]):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp
        self.needs = needs


class _Active(threading.local):
    """The thread's active tape, or None."""

    tape: "GradientTape | None" = None


_ACTIVE = _Active()


class GradientTape:
    """Ordered record of operations plus named parameter slots.

    Use as a context manager; while active, every op whose inputs depend on a
    watched tensor is recorded.  :meth:`gradients` replays the record backward
    once, freeing it as it goes, and hands each watched group's gradients to
    ``consumer`` as soon as they are final.  Without a consumer it returns
    them as :class:`Gradients`, zeros where unused.
    """

    def __init__(self, consumer: Callable[[str, list], None] | None = None):
        self.records: list[_Record] = []
        self.parameters: dict[str, Tensor] = {}
        self.groups: dict[str, str] = {}
        self.consumer = consumer
        self._tracked: set[int] = set()
        self._names: dict[int, str] = {}
        self._spent = False

    def __enter__(self) -> "GradientTape":
        if _ACTIVE.tape is not None:
            raise RuntimeError("a gradient tape is already active on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None

    def watch(self, name: str, tensor: Tensor, group: str | None = None) -> Tensor:
        """Track ``tensor`` under ``name``, in ``group`` (default: ``name``).
        A tensor already watched under another name, or a name already
        watched for another tensor, raises ``ValueError``."""
        if self.parameters.get(name, tensor) is not tensor:
            raise ValueError(f"name {name!r} is already watched for another tensor")
        other = self._names.setdefault(tensor.key, name)
        if other != name:
            raise ValueError(f"tensor watched as {other!r} cannot also be watched as {name!r}")
        self.parameters[name] = tensor
        self.groups[name] = name if group is None else group
        self._tracked.add(tensor.key)
        return tensor

    def _maybe_record(self, inputs: tuple[Tensor, ...], output: Tensor, vjp) -> None:
        tracked = self._tracked
        keys = tuple(t.key for t in inputs)
        needs = tuple(k in tracked for k in keys)
        if True in needs:
            self.records.append(_Record(keys, output.key, vjp, needs))
            tracked.add(output.key)

    def gradients(self, loss: Tensor) -> "Gradients | None":
        """Gradient of a scalar ``loss`` with respect to every watched tensor.

        Replays the tape once, dropping each record after its vjp has run, so
        a second call raises ``RuntimeError``; a non-scalar ``loss`` raises
        :class:`~graphnvp.errors.ShapeError` and leaves the tape as it was.

        A group's gradients are final once the earliest-recorded record that
        reads one of its tensors has been replayed.  Right then they are
        checked for finiteness (a NaN or Inf raises :class:`NumericError`
        naming the group) and handed to the tape's consumer as
        ``consumer(group, [(name, gradient), ...])`` in watch order, the
        gradient ``None`` for a tensor nothing read, and dropped.  Groups
        nothing read follow after the replay.  Without a consumer a
        :class:`Gradients` collects them and is returned.
        """
        if loss.shape != ():
            raise ShapeError(f"loss must be a scalar tensor, got shape {loss.shape}")
        if self._spent:
            raise RuntimeError("this gradient tape was already replayed; record a new one")
        self._spent = True
        consumer = self.consumer
        collected = None
        if consumer is None:
            collected = consumer = Gradients(self.parameters)
        members: dict[str, list[tuple[str, int]]] = {}
        group_of: dict[int, str] = {}
        for name, p in self.parameters.items():
            group = group_of[p.key] = self.groups[name]
            members.setdefault(group, []).append((name, p.key))
        # The index of the earliest record reading each group: the group is
        # final once that record has been replayed.
        first: dict[str, int] = {}
        records = self.records
        for i, rec in enumerate(records):
            for key, need in zip(rec.inputs, rec.needs):
                if need and key in group_of:
                    first.setdefault(group_of[key], i)
        final_at: dict[int, list[str]] = {}
        for group, i in first.items():
            final_at.setdefault(i, []).append(group)
        grads: dict[int, np.ndarray] = {}

        def hand_over(group: str) -> None:
            out = []
            for name, key in members[group]:
                g = grads.pop(key, None)
                if g is not None:
                    check_finite(g, f"backward of {group}")
                out.append((name, g))
            consumer(group, out)

        grads[loss.key] = np.ones((), dtype=np.float64)
        while records:
            rec = records.pop()
            g_out = grads.pop(rec.output, None)
            if g_out is not None:
                for key, g in zip(rec.inputs, rec.vjp(g_out, rec.needs)):
                    if g is not None:
                        acc = grads.get(key)
                        grads[key] = g if acc is None else acc + g
            del rec, g_out  # frees what only this record held before the next vjp runs
            for group in final_at.pop(len(records), ()):
                hand_over(group)
        for group in members:
            if group not in first:
                hand_over(group)
        return collected


class Gradients(dict):
    """The default consumer of a replay: the gradient of each watched name,
    in watch order, as a read-only :class:`Tensor` of the watched tensor's
    shape; zeros where nothing read it."""

    def __init__(self, parameters: dict[str, Tensor]):
        super().__init__((name, _frozen(np.zeros(p.shape))) for name, p in parameters.items())

    def __call__(self, group: str, gradients: list) -> None:
        for name, g in gradients:
            if g is not None:
                self[name] = _frozen(np.array(g))


def _record(inputs: tuple[Tensor, ...], output: Tensor, vjp) -> Tensor:
    tape = _ACTIVE.tape
    if tape is not None:
        tape._maybe_record(inputs, output, vjp)
    return output


# ---------------------------------------------------------------------------
# broadcasting helpers (leading batch axes only)
# ---------------------------------------------------------------------------


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return
    lo, hi = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if hi[len(hi) - len(lo):] != lo:
        raise ShapeError(f"{op}: shapes {sa} and {sb} only broadcast over leading axes")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the leading axes that were broadcast."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "add")
    out = _wrap(a.data + b.data, "add")
    sa, sb = a.shape, b.shape

    def vjp(g: np.ndarray, needs):
        return (
            _unbroadcast(g, sa) if needs[0] else None,
            _unbroadcast(g, sb) if needs[1] else None,
        )

    return _record((a, b), out, vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    out = _wrap(a.data - b.data, "sub")
    sa, sb = a.shape, b.shape

    def vjp(g: np.ndarray, needs):
        return (
            _unbroadcast(g, sa) if needs[0] else None,
            _unbroadcast(-g, sb) if needs[1] else None,
        )

    return _record((a, b), out, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    out = _wrap(a.data * b.data, "mul")

    def vjp(g: np.ndarray, needs):
        return (
            _unbroadcast(g * b.data, a.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.shape) if needs[1] else None,
        )

    return _record((a, b), out, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last axis of ``a`` with the second-to-last of ``b``.

    Both operands need ``ndim >= 2``; leading axes must either match exactly
    (batched product) or be absent on one side.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la != lb and la != () and lb != ():
        raise ShapeError(f"matmul: leading axes differ for {a.shape} @ {b.shape}")
    out = _wrap(np.matmul(a.data, b.data), "matmul")

    def vjp(g: np.ndarray, needs):
        ga = gb = None
        if needs[0]:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if needs[1]:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record((a, b), out, vjp)


# A unary op is recorded only when its one input is tracked, so its vjp
# ignores the needs-gradient mask.


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _wrap(np.exp(x.data), "exp")
    return _record((x,), out, lambda g, needs: (g * out.data,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _wrap(np.log(x.data), "log")
    return _record((x,), out, lambda g, needs: (g / x.data,))


def tanh(x: Tensor) -> Tensor:
    out = _wrap(np.tanh(x.data), "tanh")
    return _record((x,), out, lambda g, needs: (g * (1.0 - out.data * out.data),))


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.data, 0.0), "relu")
    return _record((x,), out, lambda g, needs: (g * (x.data > 0.0),))


def power(x: Tensor, exponent: float) -> Tensor:
    """Elementwise ``x ** exponent`` for a fixed scalar exponent."""
    exponent = float(exponent)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _wrap(np.power(x.data, exponent), "power")
    return _record(
        (x,),
        out,
        lambda g, needs: (g * exponent * np.power(x.data, exponent - 1.0),),
    )


def _norm_axes(axis, ndim: int, op: str) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = sorted(set(a + ndim if a < 0 else a for a in axes))
    for a in norm:
        if not 0 <= a < ndim:
            raise ShapeError(f"{op}: axis {a} out of range for ndim {ndim}")
    return tuple(norm)


def sum_axis(x: Tensor, axis=None) -> Tensor:
    """Sum over the given axis (int, tuple, or None for all)."""
    axes = _norm_axes(axis, x.ndim, "sum")
    out = _wrap(x.data.sum(axis=axes), "sum")
    shape = x.shape

    def vjp(g: np.ndarray, needs):
        return (np.broadcast_to(np.expand_dims(g, axes), shape).copy(),)

    return _record((x,), out, vjp)


def mean_axis(x: Tensor, axis=None) -> Tensor:
    """Mean over the given axis (int, tuple, or None for all)."""
    axes = _norm_axes(axis, x.ndim, "mean")
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    out = _wrap(x.data.mean(axis=axes), "mean")
    shape = x.shape

    def vjp(g: np.ndarray, needs):
        return (np.broadcast_to(np.expand_dims(g, axes), shape).copy() / count,)

    return _record((x,), out, vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    ndim = parts[0].ndim
    (axis,) = _norm_axes(axis, ndim, "concat")
    for p in parts[1:]:
        if p.ndim != ndim or any(
            i != axis and p.shape[i] != parts[0].shape[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat: shapes {parts[0].shape} and {p.shape} differ off axis {axis}"
            )
    out = _wrap(np.concatenate([p.data for p in parts], axis=axis), "concat")
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g: np.ndarray, needs):
        pieces = np.split(g, splits, axis=axis)
        return tuple(np.ascontiguousarray(p) if need else None for p, need in zip(pieces, needs))

    return _record(tuple(parts), out, vjp)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Take ``x[..., start:stop, ...]`` along ``axis`` (axis kept)."""
    (axis,) = _norm_axes(axis, x.ndim, "slice")
    if not 0 <= start <= stop <= x.shape[axis]:
        raise ShapeError(f"slice: range [{start}, {stop}) invalid for shape {x.shape} axis {axis}")
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(x.ndim))
    out = _wrap(x.data[idx], "slice")
    shape = x.shape

    def vjp(g: np.ndarray, needs):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _record((x,), out, vjp)


def index_axis(x: Tensor, axis: int, index: int) -> Tensor:
    """Take a single index along ``axis`` (axis dropped)."""
    (axis,) = _norm_axes(axis, x.ndim, "index")
    if not 0 <= index < x.shape[axis]:
        raise ShapeError(f"index: {index} out of range for shape {x.shape} axis {axis}")
    out = _wrap(np.take(x.data, index, axis=axis), "index")
    shape = x.shape

    def vjp(g: np.ndarray, needs):
        full = np.zeros(shape)
        idx = tuple(slice(None) if i != axis else index for i in range(len(shape)))
        full[idx] = g
        return (full,)

    return _record((x,), out, vjp)


def masked_assign(x: Tensor, mask: np.ndarray, y: Tensor) -> Tensor:
    """Return ``x`` with entries replaced by ``y`` where ``mask`` is set.

    ``mask`` is a constant 0/1 (or boolean) array matching the trailing axes
    of ``x``; it is not differentiated through.
    """
    mask = np.asarray(mask)
    keep = mask == 0
    _check_elementwise(x, y, "masked_assign")
    if y.ndim > x.ndim:
        raise ShapeError(f"masked_assign: update shape {y.shape} exceeds target {x.shape}")
    if mask.ndim > x.ndim or x.shape[x.ndim - mask.ndim:] != mask.shape:
        raise ShapeError(
            f"masked_assign: mask shape {mask.shape} does not match trailing axes of {x.shape}"
        )
    out = _wrap(np.where(keep, x.data, y.data), "masked_assign")
    sx, sy = x.shape, y.shape

    def vjp(g: np.ndarray, needs):
        return (
            _unbroadcast(np.where(keep, g, 0.0), sx) if needs[0] else None,
            _unbroadcast(np.where(keep, 0.0, g), sy) if needs[1] else None,
        )

    return _record((x, y), out, vjp)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}")
    out = _wrap(x.data.reshape(shape), "reshape")
    source = x.shape
    return _record((x,), out, lambda g, needs: (g.reshape(source),))


# ---------------------------------------------------------------------------
# fused primitives: shapes checked here, array math in graphnvp.kernels
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for ``x`` [rows, n_in], ``w`` [n_in, n_out], ``b`` [n_out]."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not fit")
    out = _frozen(K.linear(x.data, w.data, b.data))
    return _record((x, w, b), out, lambda g, needs: K.linear_vjp(g, x.data, w.data, needs))


def graph_conv(
    h: Tensor,
    a_rows: np.ndarray,
    w_rel: Tensor,
    w_self: Tensor,
    b: Tensor,
) -> Tensor:
    """One relational graph-convolution round (Schlichtkrull et al. 2018).

    Node ``i`` of the output is ``sum_r sum_j A[i, j, r] h_j W_r + h_i W_self
    + b`` for ``h`` [batch, N, F], ``w_rel`` [R, F, H], ``w_self`` [F, H] and
    ``b`` [H].
    The constant ``a_rows`` [batch, N*R, N] lays the adjacency out so that row
    ``i*R + r`` is ``A[:, i, :, r]``; then ``a_rows @ h`` reshapes to
    [batch*N, R*F] and meets ``w_rel`` viewed as [R*F, H] in a single GEMM.
    The self-loop product and the bias are added in place into that product.
    Returns [batch, N, H].
    """
    batch, n, f = h.shape
    r, f_rel, hidden = w_rel.shape
    if (
        a_rows.shape != (batch, n * r, n)
        or f_rel != f
        or w_self.shape != (f, hidden)
        or b.shape != (hidden,)
    ):
        raise ShapeError(
            f"graph_conv: shapes {h.shape}, {a_rows.shape}, {w_rel.shape}, {w_self.shape},"
            f" {b.shape} do not fit"
        )
    out = _wrap(K.graph_conv(h.data, a_rows, w_rel.data, w_self.data, b.data), "graph_conv")
    return _record(
        (h, w_rel, w_self, b),
        out,
        lambda g, needs: K.graph_conv_vjp(g, h.data, a_rows, w_rel.data, w_self.data, needs),
    )


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    *,
    activation: str | None = None,
    row: int | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize over every axis but the last (features) with the batch mean
    and biased variance, differentiated through (Ioffe & Szegedy 2015), then
    scale and shift.  ``activation`` is then applied in place.  Given
    ``row``, the statistics still span all of ``x``, but only ``x[:, row]``
    is normalized and returned; its vjp zero-pads the row's gradient, so
    every gradient has the bits of the full output followed by
    :func:`index_axis`.  Returns the output and the batch mean and variance.
    """
    if x.ndim < 2 or gamma.shape != x.shape[-1:] or beta.shape != gamma.shape:
        raise ShapeError(f"batch_norm: shapes {x.shape}, {gamma.shape}, {beta.shape} do not fit")
    if row is not None and (x.ndim < 3 or not 0 <= row < x.shape[1]):
        raise ShapeError(f"batch_norm: row {row} out of range for shape {x.shape}")
    y, mean, var, inv_std = K.batch_norm(x.data, gamma.data, beta.data, eps, activation, row)
    out = _record(
        (x, gamma, beta),
        _frozen(y),
        lambda g, needs: K.batch_norm_vjp(g, x.data, gamma.data, y, mean, inv_std, activation, row, needs),
    )
    return out, mean, var


def replace_row(x: Tensor, row: int, value: Tensor) -> Tensor:
    """Return ``x`` with ``x[:, row]`` replaced by ``value``; every other entry
    passes through unchanged.  ``value`` has the shape of ``x`` without axis 1."""
    if x.ndim < 2 or not 0 <= row < x.shape[1]:
        raise ShapeError(f"replace_row: row {row} out of range for shape {x.shape}")
    if value.shape != x.shape[:1] + x.shape[2:]:
        raise ShapeError(f"replace_row: value shape {value.shape} does not fit row of {x.shape}")
    out = _wrap(K.replace_row(x.data, row, value.data), "replace_row")
    return _record((x, value), out, lambda g, needs: K.replace_row_vjp(g, row, needs))
