"""The array math of the fused ops: the forward and the vjp of ``linear``,
``graph_conv``, ``batch_norm`` and ``replace_row`` on plain float64 arrays, and
the finiteness check.  The :mod:`~graphnvp.tensor` ops check shapes and record
vjps that call these; eval and the inverse call the same forwards, so every
path runs the same numpy operations in the same order.  A vjp returns one
gradient per input, ``None`` where the needs-gradient mask is False.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

ACTIVATIONS = (None, "tanh", "relu")


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """``arr``, once checked to hold no NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced a non-finite value")
    return arr


def activate(y: np.ndarray, activation: str | None, op: str) -> np.ndarray:
    """Check ``y`` for finiteness, then apply ``activation`` to it in place
    and return it.  The check comes first because tanh would turn an
    overflow into a plain 1."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"{op}: activation must be one of {ACTIVATIONS}, got {activation!r}")
    check_finite(y, op)
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    return y


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b``: the bias is added in place to the fresh product, which
    is then checked for finiteness."""
    y = np.matmul(x, w)
    y += b
    return check_finite(y, "linear")


def linear_vjp(g, x, w, needs) -> tuple:
    return (
        np.matmul(g, w.T) if needs[0] else None,
        np.matmul(x.T, g) if needs[1] else None,
        g.sum(axis=0) if needs[2] else None,
    )


def graph_conv(h, a_rows, w_rel, w_self, b, row: int | None = None, out: tuple | None = None) -> np.ndarray:
    """One R-GCN round (see :func:`~graphnvp.tensor.graph_conv`), unchecked;
    with ``b`` None, the product alone, no bias added.

    Returns every node's output [batch, N, H], or node ``row``'s alone
    [batch, H]: a fresh array, or the first array of ``out`` (two [rows, H]
    arrays, the second for the self-loop product) when it is given.
    """
    batch, n, f = h.shape
    r, _, hidden = w_rel.shape
    h_self = h.reshape(batch * n, f)
    if row is not None:
        if not 0 <= row < n:
            raise ShapeError(f"graph_conv: row {row} out of range for {n} nodes")
        a_rows, h_self = a_rows[:, row * r : (row + 1) * r], h[:, row]
    messages = np.matmul(a_rows, h).reshape(-1, r * f)
    y_out, self_out = out or (None, None)
    y = np.matmul(messages, w_rel.reshape(r * f, hidden), out=y_out)
    y += np.matmul(h_self, w_self, out=self_out)
    if b is not None:
        y += b
    return y if row is not None else y.reshape(batch, n, hidden)


def graph_conv_vjp(g, h, a_rows, w_rel, w_self, needs) -> tuple:
    """The gradients for ``h``, ``w_rel``, ``w_self`` and ``b`` of an
    all-node :func:`graph_conv`."""
    batch, n, f = h.shape
    r, _, hidden = w_rel.shape
    g = g.reshape(-1, hidden)
    gh = g_rel = None
    if needs[0]:
        g_messages = np.matmul(g, w_rel.reshape(r * f, hidden).T).reshape(batch, n * r, f)
        gh = np.matmul(np.swapaxes(a_rows, -1, -2), g_messages)
        gh += np.matmul(g, w_self.T).reshape(h.shape)
    if needs[1]:
        # The messages, recomputed by the forward's own product rather than
        # kept: the same bits, without [rows, R*F] held per round.
        messages = np.matmul(a_rows, h).reshape(-1, r * f)
        g_rel = np.matmul(messages.T, g).reshape(w_rel.shape)
    return (
        gh,
        g_rel,
        np.matmul(h.reshape(batch * n, f).T, g) if needs[2] else None,
        g.sum(axis=0) if needs[3] else None,
    )


def batch_norm(x, gamma, beta, eps: float, activation: str | None, row: int | None) -> tuple:
    """:func:`~graphnvp.tensor.batch_norm` on arrays.  Returns the output,
    the batch mean and variance, and ``(var + eps) ** -0.5``."""
    flat = x.reshape(-1, x.shape[-1])  # one row per position, one column per feature
    mean = flat.mean(axis=0)
    y = flat - mean
    var = (y * y).mean(axis=0)
    if row is not None:
        y = x[:, row] - mean
    if not np.isfinite(var).all():
        raise NumericError("batch_norm produced a non-finite variance")
    inv_std = np.power(var + eps, -0.5)
    y *= inv_std
    y *= gamma
    y += beta
    out = activate(y.reshape(x.shape if row is None else y.shape), activation, "batch_norm")
    return out, mean, var, inv_std


def batch_norm_vjp(g, x, gamma, out, mean, inv_std, activation: str | None, row: int | None, needs) -> tuple:
    """The gradients for ``x``, ``gamma`` and ``beta`` of :func:`batch_norm`,
    from its input, its output and the statistics it returned."""
    if activation == "tanh":  # times the activation's derivative, from its output
        g = g * (1.0 - out * out)
    elif activation == "relu":
        g = g * (out > 0.0)
    if row is not None:
        g_row, g = g, np.zeros(x.shape)
        g[:, row] = g_row
    flat = x.reshape(-1, x.shape[-1])
    g = g.reshape(flat.shape)
    g_beta = g.sum(axis=0)
    # The normalized input, recomputed by the forward's own ops rather than
    # kept, so it has the same bits.
    normed = flat - mean
    normed *= inv_std
    g_gamma = (g * normed).sum(axis=0)
    gx = None
    if needs[0]:
        # The batch statistics move with x: remove the mean of g and its
        # projection on the normalized input.
        rows = flat.shape[0]
        gx = g - g_beta / rows
        gx -= normed * (g_gamma / rows)
        gx *= gamma * inv_std
        gx = gx.reshape(x.shape)
    return gx, (g_gamma if needs[1] else None), (g_beta if needs[2] else None)


def replace_row(x: np.ndarray, row: int, value: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with ``x[:, row]`` replaced by ``value``."""
    out = x.copy()
    out[:, row] = value
    return out


def replace_row_vjp(g, row: int, needs) -> tuple:
    gx = None
    if needs[0]:
        gx = g.copy()
        gx[:, row] = 0.0
    return gx, (np.ascontiguousarray(g[:, row]) if needs[1] else None)
