"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Tensors hold float32/float64 arrays of rank <= 3. With gradients on (outside
no_grad), each operation records its operands and a backward closure that hands
every operand its gradient; Tensor.backward() walks the implicit graph in reverse
topological order and consumes it as it goes: once a node's backward has run, the
node lets go of its operands, its closure (and so what the forward saved for it)
and, unless it is the output, its gradient, so a step holds only what a pending
backward still needs, and a second backward through the graph raises ValueError.
A backward hands an operand a gradient array it has just allocated for it alone
as the operand's own (no copy); a shared array or a view is copied. Every forward
result is checked finite (NaN/Inf raises).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(ArithmeticError):
    """A sanctioned operation produced NaN or Inf."""


_grad_enabled = True


class no_grad:
    """Context manager: the one gradient switch; ops inside the block record no graph."""

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
    """An array; the result of an op run with gradients on also holds its
    operands and the backward closure that hands them their gradients."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max 3)")
        self.data = arr
        self.grad: np.ndarray | None = None
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

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to the gradient. The first g becomes the gradient itself when
        `owned` (the calling backward allocated it for this tensor alone) and
        of the tensor's dtype; any other is copied, as add's backward hands
        one g to both operands."""
        if self.grad is not None:
            self.grad += g
        elif owned and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

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
            if node._backward is _consumed:  # refuse before any gradient moves
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.array(grad, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._backward is not None:  # every consumer ran first and handed node its gradient
                node._backward(node.grad)
                node._backward, node._parents = _consumed, ()
                if node is not self:
                    node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def _consumed(g):
    """The backward of a node whose own has run: what it saved is freed."""
    raise ValueError("this graph was consumed by an earlier backward")


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by {op}")


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _grad_enabled:
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
        a.accumulate_grad(_unbroadcast(g, a.shape))
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
        a.accumulate_grad(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape), owned=True)
        b.accumulate_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape), owned=True)
        if bias is not None:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    parents = (a, b) if bias is None else (a, b, bias)
    return _result(data, parents, backward, "matmul")


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError("transpose2d needs a rank-2 tensor")
    data = a.data.T  # a view: a product with it (the output projection) copies nothing

    def backward(g):
        a.accumulate_grad(g.T)

    return _result(data, (a,), backward, "transpose2d")


# --- nonlinearities ------------------------------------------------------------


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation gelu; the gradient differentiates this exact formula."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        sech2 = 1.0 - t**2
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        a.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner), owned=True)

    return _result(data, (a,), backward, "gelu")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.data
    n = x.shape[-1]  # add.reduce / n gives mean()'s bits without its Python-level overhead
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered**2, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def backward(g):
        gain.accumulate_grad(_unbroadcast(g * xhat, gain.shape))
        bias.accumulate_grad(_unbroadcast(g, bias.shape))
        gx = g * gain.data
        term = gx.sum(axis=-1, keepdims=True) + xhat * (gx * xhat).sum(axis=-1, keepdims=True)
        a.accumulate_grad(inv_std * (gx - term / n), owned=True)

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
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        table.accumulate_grad(gt, owned=True)

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
    1 / (1 - _quantised_rate(p)), so the expectation is unchanged.

    The draws are rng.integers(0, 65536, size=shape, dtype=np.uint16), and the
    generator is left where that call leaves it; they are read as the 16-bit
    quarters of raw 64-bit words, low first, which is how integers splits
    them, in under half its time. The last count % 4 draws, and every draw
    from a bit generator that holds a buffered 32-bit half or keeps no such
    buffer (MT19937, whose raw words are 32-bit), go through integers itself."""
    threshold = round(p * _DROP_STEPS)
    count = math.prod(shape)
    whole = count - count % 4
    if not whole or rng.bit_generator.state.get("has_uint32") != 0:
        return rng.integers(0, _DROP_STEPS, size=shape, dtype=np.uint16) >= threshold
    keep = np.empty(count, dtype=bool)
    raw = np.asarray(rng.bit_generator.random_raw(whole // 4), dtype="<u8")
    np.greater_equal(raw.view("<u2"), threshold, out=keep[:whole])
    if whole < count:
        keep[whole:] = rng.integers(0, _DROP_STEPS, size=count - whole, dtype=np.uint16) >= threshold
    return keep.reshape(shape)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    scale = 1.0 / (1.0 - _quantised_rate(p))
    if p == 0.0:
        return a
    keep = _dropout_mask(a.shape, p, rng)
    data = a.data * keep
    data *= scale

    def backward(g):
        grad = g * keep
        grad *= scale
        a.accumulate_grad(grad, owned=True)

    return _result(data, (a,), backward, "dropout")


_MASK_VALUE = -1e9  # large-but-finite so downstream checks stay clean
# Query rows per block of attention's loop: at L = 440 (the longest training
# pairs) blocks of 64 score 57% of the (L, L) matrix, and each product stays
# large enough for BLAS. A packed row is tiled on its own, with no padding.
_QUERY_TILE = 64


def attention(
    q: Tensor,
    k: Tensor | np.ndarray,
    v: Tensor | np.ndarray,
    n_heads: int,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    key_lengths: np.ndarray | None = None,
    query_lengths: np.ndarray | None = None,
) -> Tensor:
    """Causal multi-head scaled dot-product attention, in one of two modes.

    Head h uses feature columns [h*d_h, (h+1)*d_h), d_h = D / n_heads.

    Packed (training): `query_lengths`, a (B,) integer array of lengths >= 1,
    says that q, k and v are (N, D) Tensors, N = sum(query_lengths), row b's
    positions 0..query_lengths[b]-1 following row b-1's. The output is packed
    alike. q / sqrt(d_h), k and v are copied once each into head-major
    (H, N, d_h) order, and each row attends to its own keys alone, with
    nothing padded. The backward hands each of the three its gradient.

    Cached (inference): q is a (B, Lq, D) Tensor, and k and v are arrays
    already split into heads, (B, H, Lk, d_h) with Lk >= Lq, as a KV cache
    holds them. The op reads them in place, with no copy, and builds no graph
    (it runs under no_grad; with gradients on it raises ValueError). The
    queries are the last Lq positions: query i attends to key positions
    <= i + Lk - Lq. `key_lengths`, a (B,) array in 1..Lk, further hides keys
    at index >= key_lengths[b] from row b (their scores are set to the mask
    value), for a batch whose rows have read different numbers of positions.

    Queries are processed in blocks of rows [s, e) of one packed row, or of
    every cached row: a block scores only the keys it can see, [0, e + Lk - Lq),
    and masks only its trailing (e - s) x (e - s) square, so the hidden upper
    triangle is never computed. With p > 0 a block draws its keep mask as one
    uint16 draw of its scores' shape: (H, e - s, e), rows in order and each
    row's tiles in order (packed), or (B, H, e - s, e + Lk - Lq) (cached).

    A block's softmax is never normalised in place (Dao et al. 2022,
    FlashAttention): its exps, times the keep mask, meet v first, and the
    (rows, d_h) product takes the row factor drop scale / row sum. Scores
    and exps live in one work buffer per call, sized for the largest block.
    With gradients on, a packed block keeps only its row maxes, its row
    factors and its keep mask packed eight to a byte; the backward recomputes
    the block's exps by the forward's own steps, bit for bit (recomputation,
    Dao et al. 2022, section 3.1), so the memory kept grows with N * D plus
    one bit per score. The backward uses the FlashAttention-2 identity (Dao
    2023, section 3.1), rowsum(dP * P) = rowsum(dO * O), and puts every row
    factor and 1 / sqrt(d_h) on the d_h-wide operands, never on the
    (rows, keys) blocks.
    """
    if query_lengths is None:
        if q.ndim != 3 or not isinstance(k, np.ndarray) or k.ndim != 4 or k.shape != v.shape:
            raise ValueError("cached attention needs a (batch, length, features) q and head-major "
                             "k, v arrays of one shape")
        if _grad_enabled:
            raise ValueError("cached attention builds no graph: call it under no_grad")
        batch, length, width = q.shape
        offset = k.shape[2] - length
    else:
        if key_lengths is not None:
            raise ValueError("packed attention (query_lengths) takes no key_lengths")
        if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
            raise ValueError("packed attention needs (positions, features) q, k, v of one shape")
        query_lengths = np.asarray(query_lengths)
        if (query_lengths.ndim != 1 or not query_lengths.size or query_lengths.dtype.kind not in "iu"
                or query_lengths.min() < 1 or query_lengths.sum() != q.shape[0]):
            raise ValueError(f"query_lengths must be integer lengths >= 1 summing to {q.shape[0]}")
        batch, length, width, offset = 1, int(query_lengths.max()), q.shape[1], 0
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"{width} features do not split into {n_heads} heads")
    d_head = width // n_heads
    keys = length + offset
    if query_lengths is None and (k.shape != (batch, n_heads, keys, d_head) or offset < 0):
        raise ValueError(f"key/value shape {k.shape} does not fit queries of shape {q.shape}")
    drop_scale = 1.0 / (1.0 - _quantised_rate(p))
    if p > 0 and rng is None:
        raise ValueError("attention dropout needs an rng")
    if key_lengths is not None:
        key_lengths = np.asarray(key_lengths)
        if key_lengths.shape != (batch,) or not ((key_lengths >= 1) & (key_lengths <= keys)).all():
            raise ValueError(f"key_lengths must be {batch} lengths in 1..{keys}")
    inv_sqrt = 1.0 / math.sqrt(d_head)
    square = min(_QUERY_TILE, length)  # one mask per call; a one-query call needs none
    causal = np.triu(np.full((square, square), _MASK_VALUE, dtype=q.dtype), k=1) if square > 1 else None
    block = batch * n_heads * square * keys  # the largest block's scores

    def masked_scores(queries, seen_k, work):
        """A block's scores, its trailing square causally masked, in `work`."""
        shape = (*queries.shape[:-1], seen_k.shape[-2])
        scores = np.matmul(queries, np.swapaxes(seen_k, -1, -2),
                           out=work[: math.prod(shape)].reshape(shape))
        rows, visible = shape[-2:]
        if rows > 1:
            scores[..., visible - rows:] += causal[:rows, :rows]
        return scores

    def attend(queries, seen_k, seen_v, out, work, hidden=None, ones=None):
        """One block's output into `out`; returns (row maxes, drop_scale / row sums, keep mask or None).
        Packed blocks sum rows as one product with a column of `ones`, about 4x faster than sum()."""
        scores = masked_scores(queries, seen_k, work)
        if hidden is not None:
            np.copyto(scores, _MASK_VALUE, where=hidden)
        row_max = np.fmax.reduce(scores, axis=-1, keepdims=True)
        scores -= row_max
        exps = np.exp(scores, out=scores)
        inv_sum = drop_scale / (exps.sum(axis=-1, keepdims=True) if ones is None
                                else exps @ ones[: exps.shape[-1]])
        keep = _dropout_mask(exps.shape, p, rng) if p > 0 else None
        if keep is not None:
            exps *= keep  # the dropped weights
        np.matmul(exps, seen_v, out=out)
        out *= inv_sum
        return row_max, inv_sum, keep

    if query_lengths is None:
        qs = np.ascontiguousarray((q.data * inv_sqrt).reshape(batch, length, n_heads, d_head)
                                  .transpose(0, 2, 1, 3))
        out, work = np.empty_like(qs), np.empty(block, q.dtype)
        for s in range(0, length, _QUERY_TILE):
            e = min(s + _QUERY_TILE, length)
            visible, hidden = e + offset, None
            if key_lengths is not None:
                hidden = (np.arange(visible) >= key_lengths[:, None])[:, None, None, :]
            attend(qs[:, :, s:e], k[:, :, :visible], v[:, :, :visible], out[:, :, s:e], work, hidden)
        return _result(out.transpose(0, 2, 1, 3).reshape(batch, length, width), (), None, "attention")

    def heads(x: np.ndarray) -> np.ndarray:  # packed (N, D) -> an (H, N, d_h) view
        return x.reshape(-1, n_heads, d_head).transpose(1, 0, 2)

    kh, vh = (np.ascontiguousarray(heads(x.data)) for x in (k, v))
    qs = np.multiply(heads(q.data), inv_sqrt, out=np.empty_like(kh))
    out, work = np.empty_like(qs), np.empty(block, q.dtype)
    ones = np.ones((length, 1), dtype=qs.dtype)
    blocks = []  # (query rows, key rows, row maxes, drop_scale / row sums, packed keep mask or None)
    for start, n in zip((np.cumsum(query_lengths) - query_lengths).tolist(), query_lengths.tolist()):
        for s in range(0, n, _QUERY_TILE):
            e = min(s + _QUERY_TILE, n)
            rows, seen = slice(start + s, start + e), slice(start, start + e)
            row_max, inv_sum, keep = attend(qs[:, rows], kh[:, seen], vh[:, seen], out[:, rows], work,
                                            ones=ones)
            if _grad_enabled:
                blocks.append((rows, seen, row_max, inv_sum, None if keep is None else np.packbits(keep)))
    data = out.transpose(1, 0, 2).reshape(-1, width)

    def backward(g):
        gh = np.ascontiguousarray(heads(g))
        delta = heads(g * data).sum(axis=-1, keepdims=True) / drop_scale  # rowsum(dO * O), per head
        gq, gk, gv = np.empty_like(qs), np.zeros_like(kh), np.zeros_like(vh)
        work = np.empty((2, block), qs.dtype)  # a block's exps, and their scores' gradient
        for rows, seen, row_max, inv_sum, packed_keep in blocks:
            exps = masked_scores(qs[:, rows], kh[:, seen], work[0])  # the forward's exps, recomputed
            exps -= row_max
            np.exp(exps, out=exps)
            keep = None if packed_keep is None else (  # 0 / 1 bytes: they multiply as the bool mask did
                np.unpackbits(packed_keep, count=exps.size).reshape(exps.shape))
            g_rows = gh[:, rows]
            # The scores' gradient up to the row factor inv_sum / sqrt(d_h), which
            # the d_h-wide operands take instead.
            g_scores = np.matmul(g_rows, np.swapaxes(vh[:, seen], -1, -2),
                                 out=work[1, : exps.size].reshape(exps.shape))
            if keep is not None:
                g_scores *= keep
            g_scores -= delta[:, rows]
            g_scores *= exps
            if keep is not None:
                exps *= keep  # the dropped weights
            gv[:, seen] += np.swapaxes(exps, -1, -2) @ (g_rows * inv_sum)
            np.matmul(g_scores, kh[:, seen], out=gq[:, rows])
            gq[:, rows] *= inv_sum * inv_sqrt
            gk[:, seen] += np.swapaxes(g_scores, -1, -2) @ (qs[:, rows] * inv_sum)
        for operand, grad in zip((q, k, v), (gq, gk, gv)):
            operand.accumulate_grad(grad.transpose(1, 0, 2).reshape(-1, width), owned=True)

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
        step = float(g) / n_valid
        grad = exps  # softmax minus one-hot at the targets, 0 where ignored, in place
        grad *= (step / sums)[:, None]
        grad[rows, safe_targets] -= step
        grad[~valid] = 0.0
        logits.accumulate_grad(grad.reshape(logits.shape), owned=True)

    loss = _result(data, (logits,), backward, "cross_entropy")
    if return_elementwise:
        return loss, per_position.reshape(targets.shape)
    return loss


# --- optimizer -------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the shared step count."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: list[Tensor], state: AdamState, lr: float) -> None:
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
    c1 = 1.0 - _BETA1**state.t
    c2 = 1.0 - _BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / c1
        v_hat = v / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)).astype(p.data.dtype)
