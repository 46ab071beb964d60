"""Dense float64 tensors with a reverse-mode gradient tape.

Values are immutable; every operation returns a fresh ``Tensor`` and raises
:class:`~graphnvp.errors.NumericError` if it produces a NaN or Inf.
Elementwise operations broadcast only over leading (batch) axes: the shorter
operand must match the trailing axes of the longer one exactly.  Gradients are
recorded on an explicitly entered :class:`GradientTape`; one tape per thread.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor",
    "GradientTape",
    "backward",
    "finite_difference_gradient",
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
]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox)."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """Immutable dense array of float64 scalars."""

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor constructed with non-finite values")
        arr.flags.writeable = False
        self.data = arr

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

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # Thin operator sugar over the module-level ops.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(arr: np.ndarray, op: str) -> Tensor:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced a non-finite value")
    out = Tensor.__new__(Tensor)
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    out.data = arr
    return out


class _Record:
    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_ACTIVE = threading.local()


def _tape_stack() -> list["GradientTape"]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


class GradientTape:
    """Ordered record of operations plus named parameter slots.

    Use as a context manager; while active, every op whose inputs depend on a
    watched tensor is recorded.  :meth:`gradients` replays the record backward
    and returns one gradient per watched parameter (zeros if unused).
    """

    def __init__(self):
        self.records: list[_Record] = []
        self.parameters: dict[str, Tensor] = {}
        self._tracked: set[int] = set()

    def __enter__(self) -> "GradientTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("gradient tapes must be exited in LIFO order")
        stack.pop()

    def watch(self, name: str, tensor: Tensor) -> Tensor:
        self.parameters[name] = tensor
        self._tracked.add(id(tensor))
        return tensor

    def _maybe_record(self, inputs: tuple[Tensor, ...], output: Tensor, vjp) -> None:
        if any(id(t) in self._tracked for t in inputs):
            self.records.append(_Record(inputs, output, vjp))
            self._tracked.add(id(output))

    def gradients(self, loss: Tensor) -> dict[str, Tensor]:
        return backward(self, loss)


def backward(tape: GradientTape, loss: Tensor) -> dict[str, Tensor]:
    """Gradient of a scalar ``loss`` with respect to every watched parameter."""
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar tensor, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for rec in reversed(tape.records):
        g_out = grads.pop(id(rec.output), None)
        if g_out is None:
            continue
        for t, g in zip(rec.inputs, rec.vjp(g_out)):
            if g is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = g if acc is None else acc + g
    out: dict[str, Tensor] = {}
    for name, p in tape.parameters.items():
        g = grads.get(id(p))
        out[name] = _wrap(np.zeros(p.shape) if g is None else g, "backward")
    return out


def _record(inputs: tuple[Tensor, ...], output: Tensor, vjp) -> Tensor:
    stack = _tape_stack()
    if stack:
        stack[-1]._maybe_record(inputs, output, vjp)
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
    return _record(
        (a, b),
        out,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    out = _wrap(a.data - b.data, "sub")
    return _record(
        (a, b),
        out,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    out = _wrap(a.data * b.data, "mul")
    return _record(
        (a, b),
        out,
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


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

    def vjp(g: np.ndarray):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record((a, b), out, vjp)


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _wrap(np.exp(x.data), "exp")
    return _record((x,), out, lambda g: (g * out.data,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _wrap(np.log(x.data), "log")
    return _record((x,), out, lambda g: (g / x.data,))


def tanh(x: Tensor) -> Tensor:
    out = _wrap(np.tanh(x.data), "tanh")
    return _record((x,), out, lambda g: (g * (1.0 - out.data * out.data),))


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.data, 0.0), "relu")
    return _record((x,), out, lambda g: (g * (x.data > 0.0),))


def power(x: Tensor, exponent: float) -> Tensor:
    """Elementwise ``x ** exponent`` for a fixed scalar exponent."""
    exponent = float(exponent)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _wrap(np.power(x.data, exponent), "power")
    return _record(
        (x,),
        out,
        lambda g: (g * exponent * np.power(x.data, exponent - 1.0),),
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

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g, axes), x.shape).copy(),)

    return _record((x,), out, vjp)


def mean_axis(x: Tensor, axis=None) -> Tensor:
    """Mean over the given axis (int, tuple, or None for all)."""
    axes = _norm_axes(axis, x.ndim, "mean")
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    out = _wrap(x.data.mean(axis=axes), "mean")

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g, axes), x.shape).copy() / count,)

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

    def vjp(g: np.ndarray):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _record(tuple(parts), out, vjp)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Take ``x[..., start:stop, ...]`` along ``axis`` (axis kept)."""
    (axis,) = _norm_axes(axis, x.ndim, "slice")
    if not 0 <= start <= stop <= x.shape[axis]:
        raise ShapeError(f"slice: range [{start}, {stop}) invalid for shape {x.shape} axis {axis}")
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(x.ndim))
    out = _wrap(x.data[idx], "slice")

    def vjp(g: np.ndarray):
        full = np.zeros(x.shape)
        full[idx] = g
        return (full,)

    return _record((x,), out, vjp)


def index_axis(x: Tensor, axis: int, index: int) -> Tensor:
    """Take a single index along ``axis`` (axis dropped)."""
    (axis,) = _norm_axes(axis, x.ndim, "index")
    if not 0 <= index < x.shape[axis]:
        raise ShapeError(f"index: {index} out of range for shape {x.shape} axis {axis}")
    out = _wrap(np.take(x.data, index, axis=axis), "index")

    def vjp(g: np.ndarray):
        full = np.zeros(x.shape)
        idx = tuple(slice(None) if i != axis else index for i in range(x.ndim))
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

    def vjp(g: np.ndarray):
        return (
            _unbroadcast(np.where(keep, g, 0.0), x.shape),
            _unbroadcast(np.where(keep, 0.0, g), y.shape),
        )

    return _record((x, y), out, vjp)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}")
    out = _wrap(x.data.reshape(shape), "reshape")
    return _record((x,), out, lambda g: (g.reshape(x.shape),))


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------


def finite_difference_gradient(
    f: Callable[[Tensor], "Tensor | float"], p: Tensor, step: float = 1e-5
) -> Tensor:
    """Central-difference estimate of d f / d p, one coordinate at a time.

    ``f`` must be deterministic and return a scalar; evaluations yielding
    non-finite values raise :class:`NumericError`.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(values: np.ndarray) -> float:
        r = f(Tensor(values))
        v = r.item() if isinstance(r, Tensor) else float(r)
        if not np.isfinite(v):
            raise NumericError("finite_difference_gradient: function value is non-finite")
        return v

    base = p.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = evaluate(base)
        flat[i] = orig - step
        lo = evaluate(base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return Tensor(grad)
