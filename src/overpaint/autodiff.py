"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Tensors hold float32/float64 arrays of rank <= 3. Each operation records a
backward closure; Tensor.backward() walks the implicit graph in reverse
topological order. Every forward result is checked finite (NaN/Inf raises).
Gradients are verified against central finite differences by grad_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(ArithmeticError):
    """A sanctioned operation produced NaN or Inf."""


_grad_enabled = True


class no_grad:
    """Context manager: skip building backward graphs inside the block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max 3)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:  # a copy: add's backward hands one g to both operands
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse accumulation from this output, seeded with `grad` (an array
        of the output's shape), or with 1 for a scalar output."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed requires a scalar output")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ValueError(f"backward seed of shape {np.shape(grad)} for output {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.array(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by {op}")


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# --- arithmetic ----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward, "add")


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product with numpy batch semantics for rank-3 operands, plus an
    optional bias broadcast over the product (added in place: one node per
    affine projection)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    data = a.data @ b.data
    if bias is not None:
        data += bias.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    parents = (a, b) if bias is None else (a, b, bias)
    return _result(data, parents, backward, "matmul")


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError("transpose2d needs a rank-2 tensor")
    data = a.data.T  # a view: a product with it (the output projection) copies nothing

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.T)

    return _result(data, (a,), backward, "transpose2d")


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice along one axis."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + size)
    index = tuple(index)
    data = a.data[index].copy()

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[index] = g
            a.accumulate_grad(full)

    return _result(data, (a,), backward, "narrow")


# --- nonlinearities ------------------------------------------------------------


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation gelu; the gradient differentiates this exact formula."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        if a.requires_grad:
            sech2 = 1.0 - t**2
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
            a.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return _result(data, (a,), backward, "gelu")


# In place on arrays they allocate: on attention's (B, H, rows, keys) weights,
# a fresh temporary per step doubles the softmax's time.


def _softmax_last(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_last_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax whose output was `out`."""
    grad = g - (g * out).sum(axis=-1, keepdims=True)
    grad *= out
    return grad


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.data
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def backward(g):
        n = x.shape[-1]
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))
        if a.requires_grad:
            gx = g * gain.data
            term = gx.sum(axis=-1, keepdims=True) + xhat * (gx * xhat).sum(axis=-1, keepdims=True)
            a.accumulate_grad(inv_std * (gx - term / n))

    return _result(data, (a, gain, bias), backward, "layer_norm")


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: ids of rank <= 2 index the (V, D) table."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError("ids must be integers")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise IndexError("ids outside embedding table")
    data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table.accumulate_grad(gt)

    return _result(data, (table,), backward, "embedding_lookup")


_DROP_STEPS = 65536  # keep-masks compare 16-bit draws, so rates count in 1/65536 steps


def _quantised_rate(p: float) -> float:
    """The dropout rate a keep mask for `p` realises, round(p * 65536) / 65536;
    p must lie in [0, 1) and not round to 1."""
    steps = round(p * _DROP_STEPS) if 0 <= p < 1 else _DROP_STEPS
    if steps >= _DROP_STEPS:
        raise ValueError(f"dropout rate must be in [0, 1) and round below 1 in steps of 1/{_DROP_STEPS}, got {p}")
    return steps / _DROP_STEPS


def _dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask (bool) from one uint16 draw: an element drops
    when its draw falls below round(p * 65536). Callers scale what it keeps by
    1 / (1 - _quantised_rate(p)), so the expectation is unchanged."""
    return rng.integers(0, _DROP_STEPS, size=shape, dtype=np.uint16) >= round(p * _DROP_STEPS)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    scale = 1.0 / (1.0 - _quantised_rate(p))
    if p == 0.0:
        return a
    keep = _dropout_mask(a.shape, p, rng)
    data = a.data * keep
    data *= scale

    def backward(g):
        if a.requires_grad:
            grad = g * keep
            grad *= scale
            a.accumulate_grad(grad)

    return _result(data, (a,), backward, "dropout")


_MASK_VALUE = -1e9  # large-but-finite so downstream checks stay clean
# Query rows per step of attention's loop: at L = 440 (the longest training
# pairs), tiles of 64 skip 43% of the (L, L) scores while each product stays
# large enough for BLAS. In a packed batch a tile also leaves out the rows
# whose length ends before it, so short rows stop paying for the longest
# one's tiles.
_QUERY_TILE = 64


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    key_lengths: np.ndarray | None = None,
    query_lengths: np.ndarray | None = None,
) -> Tensor:
    """Causal multi-head scaled dot-product attention on (B, L, D) projections.

    Head h uses feature columns [h*d_h, (h+1)*d_h), d_h = D / n_heads. Keys
    and values may be longer than the queries (Lk >= Lq, as when earlier
    positions come from a cache): the queries are then the last Lq positions,
    and query i attends to key positions <= i + Lk - Lq. `key_lengths`, a
    (B,) array in 1..Lk, further hides keys at index >= key_lengths[b] from
    row b (their scores are set to the mask value), for a batch whose rows
    have read different numbers of positions.

    `query_lengths`, a (B,) array of lengths >= 1, says instead that q, k
    and v are packed: (N, D) with N = sum(query_lengths), row b's positions
    0..query_lengths[b]-1 following row b-1's, and the output is packed
    alike. The op scatters them into a zero-padded (B, H, L, d_h) copy, L =
    max(query_lengths), and gathers the real rows back. No real query sees a
    padded key (causality), so this is the (B, L, D) op on the zero-padded
    batch, taken at its real positions.

    The queries are processed in tiles of rows [s, e): a tile scores only the
    keys it can see, [0, e + Lk - Lq), and masks only its trailing
    (e - s) x (e - s) square, so the hidden upper triangle is never computed
    (a one-token decode step is one unmasked tile). A packed tile leaves out
    the rows whose length ends at or before s. With p > 0 each tile draws its
    keep mask as one (rows it keeps, H, e - s, e + Lk - Lq) uint16 draw, in
    tile order.
    """
    if query_lengths is None:
        if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
            raise ValueError("attention needs (batch, length, features) q, k, v; k and v one shape")
        batch, length, width = q.shape
        offset = k.shape[1] - length
        if k.shape[0] != batch or k.shape[2] != width or offset < 0:
            raise ValueError(f"key/value shape {k.shape} does not fit queries of shape {q.shape}")
    else:
        if key_lengths is not None:
            raise ValueError("packed attention (query_lengths) takes no key_lengths")
        if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
            raise ValueError("packed attention needs (positions, features) q, k, v of one shape")
        query_lengths = np.asarray(query_lengths)
        if query_lengths.ndim != 1 or not query_lengths.size or not (
            (query_lengths >= 1).all() and query_lengths.sum() == q.shape[0]
        ):
            raise ValueError(f"query_lengths must be lengths >= 1 summing to {q.shape[0]}")
        batch, length, width = len(query_lengths), int(query_lengths.max()), q.shape[1]
        offset = 0
        real = np.arange(length) < query_lengths[:, None]
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"{width} features do not split into {n_heads} heads")
    scale = 1.0 / (1.0 - _quantised_rate(p))
    if p > 0 and rng is None:
        raise ValueError("attention dropout needs an rng")
    if key_lengths is not None:
        key_lengths = np.asarray(key_lengths)
        if key_lengths.shape != (batch,) or not (
            (key_lengths >= 1).all() and (key_lengths <= k.shape[1]).all()
        ):
            raise ValueError(f"key_lengths must be {batch} lengths in 1..{k.shape[1]}")
    d_head = width // n_heads
    inv_sqrt = 1.0 / math.sqrt(d_head)

    def split(x: np.ndarray) -> np.ndarray:  # (B, L, D) or packed (N, D) -> contiguous (B, H, L, d_h)
        if query_lengths is None:
            heads = x.reshape(batch, x.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)
            return np.ascontiguousarray(heads)
        heads = np.zeros((batch, n_heads, length, d_head), dtype=x.dtype)
        heads.transpose(0, 2, 1, 3)[real] = x.reshape(-1, n_heads, d_head)
        return heads

    def merge(x: np.ndarray) -> np.ndarray:  # (B, H, L, d_h) -> (B, L, D) or packed (N, D)
        rows = x.transpose(0, 2, 1, 3)
        if query_lengths is None:
            return rows.reshape(batch, x.shape[2], width)
        return rows[real].reshape(-1, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.zeros_like(qh)  # rows a tile leaves out stay 0
    square = min(_QUERY_TILE, length)  # one mask per call; a one-query call needs none
    causal = None
    if square > 1:
        causal = np.triu(np.full((square, square), _MASK_VALUE, dtype=qh.dtype), k=1)
    tiles = []  # (start, end, batch rows, softmax weights, dropout keep mask or None)
    for s in range(0, length, _QUERY_TILE):
        e = min(s + _QUERY_TILE, length)
        rows, visible = e - s, e + offset
        live, kept = slice(None), batch  # the batch rows this tile computes; a slice indexes views
        if query_lengths is not None and query_lengths.min() <= s:
            live = np.flatnonzero(query_lengths > s)
            kept = len(live)
        scores = qh[live, :, s:e] @ np.swapaxes(kh[live, :, :visible], -1, -2)
        scores *= inv_sqrt
        if rows > 1:
            scores[..., visible - rows:] += causal[:rows, :rows]
        if key_lengths is not None:
            hidden = np.arange(visible) >= key_lengths[:, None]
            np.copyto(scores, _MASK_VALUE, where=hidden[:, None, None, :])
        weights = _softmax_last(scores)
        keep = _dropout_mask((kept, n_heads, rows, visible), p, rng) if p > 0 else None
        dropped = weights if keep is None else weights * keep
        out[live, :, s:e] = dropped @ vh[live, :, :visible]
        tiles.append((s, e, live, weights, keep))
    if p > 0:
        out *= scale
    data = merge(out)

    def backward(g):
        gh = split(g)
        if p > 0:  # not in place: with one head, split may return a view of g
            gh = gh * scale
        gq = np.zeros_like(qh)
        gk = np.zeros_like(kh)
        gv = np.zeros_like(vh)
        for s, e, live, weights, keep in tiles:
            visible = e + offset
            g_tile = gh[live, :, s:e]
            dropped = weights if keep is None else weights * keep
            gv[live, :, :visible] += np.swapaxes(dropped, -1, -2) @ g_tile
            g_weights = g_tile @ np.swapaxes(vh[live, :, :visible], -1, -2)
            if keep is not None:
                g_weights *= keep
            g_scores = _softmax_last_grad(g_weights, weights)
            g_scores *= inv_sqrt
            gq[live, :, s:e] = g_scores @ kh[live, :, :visible]
            gk[live, :, :visible] += np.swapaxes(g_scores, -1, -2) @ qh[live, :, s:e]
        if q.requires_grad:
            q.accumulate_grad(merge(gq))
        if k.requires_grad:
            k.accumulate_grad(merge(gk))
        if v.requires_grad:
            v.accumulate_grad(merge(gv))

    return _result(data, (q, k, v), backward, "attention")


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    return_elementwise: bool = False,
):
    """Mean negative log-likelihood over non-ignored targets.

    logits: (..., V); targets: matching leading shape, integer class ids.
    With return_elementwise, also returns the detached per-position losses
    (ignored positions hold 0).
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets {targets.shape} do not match logits {logits.shape}")
    v = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, v)
    flat_targets = targets.reshape(-1)
    valid = np.ones_like(flat_targets, dtype=bool)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("no valid targets")
    safe_targets = np.where(valid, flat_targets, 0)
    if safe_targets.min() < 0 or safe_targets.max() >= v:
        raise ValueError("target id outside vocabulary")

    exps = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    rows = np.arange(flat_logits.shape[0])
    logp = exps[rows, safe_targets]
    np.exp(exps, out=exps)  # the one exp per logit: the backward reuses it
    sums = exps.sum(axis=-1)
    logp -= np.log(sums)
    per_position = np.where(valid, -logp, 0.0)
    data = np.asarray(per_position.sum() / n_valid, dtype=logits.data.dtype)

    def backward(g):
        if logits.requires_grad:
            step = float(g) / n_valid
            grad = exps * (step / sums)[:, None]  # softmax minus one-hot at the targets, 0 where ignored
            grad[rows, safe_targets] -= step
            grad[~valid] = 0.0
            logits.accumulate_grad(grad.reshape(logits.shape))

    loss = _result(data, (logits,), backward, "cross_entropy")
    if return_elementwise:
        return loss, per_position.reshape(targets.shape)
    return loss


# --- finite-difference checking -------------------------------------------------


def grad_check(func, tensors, seed: int = 0, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `func` maps the float64 input tensors to one Tensor and must be
    deterministic (stochastic ops take a generator rebuilt inside func). The
    output reduces to a scalar through a fixed random projection, which also
    seeds the analytic backward, so every output element's gradient is
    exercised. Error metric per element:
    |a - n| / max(1, |a|, |n|).
    """
    rng = np.random.default_rng(seed)
    weights = None

    def scalar_value(datas) -> float:
        nonlocal weights
        probes = [Tensor(d.copy()) for d in datas]
        with no_grad():
            out = func(*probes)
        if weights is None:
            weights = rng.standard_normal(out.shape)
        return float((out.data * weights).sum())

    datas = [t.data.astype(np.float64) for t in tensors]
    scalar_value(datas)  # first forward fixes the projection

    out = func(*tensors)
    for t in tensors:
        t.zero_grad()
    out.backward(weights)

    worst = 0.0
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = datas[i].reshape(-1)
        numeric = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = scalar_value(datas)
            flat[j] = orig - h
            down = scalar_value(datas)
            flat[j] = orig
            numeric[j] = (up - down) / (2 * h)
        numeric = numeric.reshape(t.shape)
        err = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(err.max()))
    return worst


# --- optimizer -------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the shared step count."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def adam_step(
    params: list[Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with bias correction; refuses non-finite gradients."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    grads = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient passed to adam_step")
        grads.append(g)
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / c1
        v_hat = v / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)
