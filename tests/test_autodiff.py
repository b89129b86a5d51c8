import inspect
import math
import tracemalloc

import numpy as np
import pytest

from overpaint import autodiff
from helpers import grad_check, keep_masks, per_head_attention, per_head_attention_grads, same_stream
from overpaint.autodiff import (
    AdamState,
    NonFiniteError,
    Tensor,
    adam_step,
    add,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    transpose2d,
)

TOL = 1e-4  # float64 central differences at h=1e-5


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# Each entry builds (func, tensors) from a seeded generator; shapes vary by seed.
def op_instances(name, rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    if name == "add_same":
        return add, [t64(rng, n, m), t64(rng, n, m)]
    if name == "add_broadcast":
        return add, [t64(rng, k, n, m), t64(rng, m)]
    if name == "matmul2d":
        return matmul, [t64(rng, n, m), t64(rng, m, k)]
    if name == "matmul_batched":
        return matmul, [t64(rng, 2, n, m), t64(rng, 2, m, k)]
    if name == "matmul_broadcast":
        return matmul, [t64(rng, 2, n, m), t64(rng, m, k)]
    if name == "matmul_batch_broadcast":  # a batch axis of extent 1 on either side
        batches = [(2, 1), (1, 2)][int(rng.integers(0, 2))]
        return matmul, [t64(rng, batches[0], n, m), t64(rng, batches[1], m, k)]
    if name == "matmul_bias":
        j = int(rng.integers(2, 5))
        return matmul, [t64(rng, k, n, m), t64(rng, m, j), t64(rng, j)]
    if name == "transpose2d":
        return transpose2d, [t64(rng, n, m)]
    if name == "gelu":
        return gelu, [t64(rng, n, m)]
    if name == "layer_norm":
        return layer_norm, [t64(rng, n, m), t64(rng, m), t64(rng, m)]
    if name == "embedding_lookup":
        ids = rng.integers(0, n, size=(2, 3))
        return lambda tab: embedding_lookup(tab, ids), [t64(rng, n, m)]
    if name == "dropout":
        seed = int(rng.integers(0, 1000))
        return (
            lambda a: dropout(a, 0.4, np.random.default_rng(seed)),
            [t64(rng, n, m)],
        )
    if name in ATTENTION_OPS:
        return attention_instance(name, rng, lengths=(2, 5))
    if name == "cross_entropy":
        v = m + 3
        targets = rng.integers(0, v, size=n)
        return lambda lg: cross_entropy(lg, targets), [t64(rng, n, v)]
    if name == "cross_entropy_ignore":
        v = m + 3
        targets = rng.integers(0, v, size=n)
        targets[0] = v + 5  # must be masked, not indexed
        return lambda lg: cross_entropy(lg, targets, ignore_index=v + 5), [t64(rng, n, v)]
    raise AssertionError(name)


ATTENTION_OPS = ("attention", "attention_dropout", "attention_padded")


def head_major(x, n_heads):
    """(B, L, D) keys or values -> a (B, H, L, d_h) view of a longer, zero
    (B, H, L + 2, d_h) buffer, as a KV cache hands them to attention."""
    batch, length, width = x.shape
    buffer = np.zeros((batch, n_heads, length + 2, width // n_heads), dtype=x.dtype)
    buffer[:, :, :length] = x.reshape(batch, length, n_heads, -1).transpose(0, 2, 1, 3)
    return buffer[:, :, :length]


def cached_attention(q, k, v, *args, **kwargs):
    """The cached mode on (B, L, D) queries q, under no_grad as it must run."""
    with no_grad():
        return attention(Tensor(q), k, v, *args, **kwargs)


def packed(x):
    """(B, L, D) rows, every one at full length -> the packed (B * L, D) layout."""
    return x.reshape(-1, x.shape[-1])


def attention_instance(name, rng, lengths):
    """One attention OPS entry with a query length drawn from range(*lengths),
    checking q, k and v (the cached mode builds no graph)."""
    batch, heads = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    length, d_head = int(rng.integers(*lengths)), int(rng.integers(2, 4))
    if name in ("attention", "attention_dropout"):  # packed, every row at full length
        qkv = [t64(rng, batch * length, heads * d_head) for _ in range(3)]
        seed = int(rng.integers(0, 1000))
        p = 0.4 if name == "attention_dropout" else 0.0
        return (
            lambda q, k, v: attention(q, k, v, heads, p, np.random.default_rng(seed),
                                      query_lengths=[length] * batch),
            qkv,
        )
    if name == "attention_padded":  # a right-padded batch's real rows, packed, with dropout
        query_lengths = rng.integers(1, length + 1, size=batch)
        qkv = [t64(rng, int(query_lengths.sum()), heads * d_head) for _ in range(3)]
        seed = int(rng.integers(0, 1000))
        return (
            lambda q, k, v: attention(q, k, v, heads, 0.4, np.random.default_rng(seed),
                                      query_lengths=query_lengths),
            qkv,
        )
    raise AssertionError(name)


OPS = [
    "add_same", "add_broadcast",
    "matmul2d", "matmul_batched", "matmul_broadcast", "matmul_batch_broadcast", "matmul_bias",
    "transpose2d", "gelu", "layer_norm", "embedding_lookup", "dropout",
    *ATTENTION_OPS,
    "cross_entropy", "cross_entropy_ignore",
]


@pytest.mark.parametrize("name", OPS)
def test_gradients_match_finite_differences(name):
    for seed in range(3):
        rng = np.random.default_rng(1000 + 7 * seed)
        func, tensors = op_instances(name, rng)
        err = grad_check(func, tensors, seed=seed)
        assert err < TOL, f"{name} seed {seed}: max rel error {err}"


@pytest.mark.parametrize("name", ATTENTION_OPS)
def test_attention_gradients_span_several_tiles(name, monkeypatch):
    """Two query rows per tile, so the 5-7 queries (and 6-9 keys) span 3-4 tiles."""
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 2)
    for seed in range(3):
        func, tensors = attention_instance(name, np.random.default_rng(2000 + seed), lengths=(5, 8))
        err = grad_check(func, tensors, seed=seed)
        assert err < TOL, f"{name} seed {seed}: max rel error {err}"


def test_every_public_op_has_a_gradient_check():
    """Ops are named by the backward closures found in each OPS entry's graph."""
    public = {
        name for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
        and not name.startswith("_")
    } - {"adam_step"}
    covered = set()
    for name in OPS:
        func, tensors = op_instances(name, np.random.default_rng(0))
        stack = [func(*tensors)]
        while stack:
            node = stack.pop()
            if node._backward is not None:
                covered.add(node._backward.__qualname__.partition(".")[0])
            stack.extend(node._parents)
    assert not public - covered, f"ops without an OPS entry: {sorted(public - covered)}"


# --- closed-form spot checks ---------------------------------------------------

def test_cross_entropy_closed_form():
    logits = Tensor([[10.0, 0.0, 0.0]])
    loss = cross_entropy(logits, np.array([0]))
    assert loss.item() == pytest.approx(math.log1p(2 * math.exp(-10)), abs=1e-12)
    loss.backward()
    soft = np.exp([10.0, 0.0, 0.0] - np.logaddexp.reduce([10.0, 0.0, 0.0]))
    soft[0] -= 1.0
    assert np.allclose(logits.grad, soft[None, :], atol=1e-12)


def test_cross_entropy_means_over_valid_positions():
    logits = Tensor(np.log([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]))
    targets = np.array([0, 0, 9])
    loss, each = cross_entropy(logits, targets, ignore_index=9, return_elementwise=True)
    want0, want1 = -math.log(0.5), -math.log(0.9)
    assert loss.item() == pytest.approx((want0 + want1) / 2, abs=1e-12)
    assert each.shape == (3,)
    assert each[0] == pytest.approx(want0, abs=1e-12)
    assert each[1] == pytest.approx(want1, abs=1e-12)
    assert each[2] == 0.0
    loss.backward()
    assert np.allclose(logits.grad[2], 0.0)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_cross_entropy_gradient_is_softmax_minus_one_hot(dtype, tol):
    rng = np.random.default_rng(18)
    logits = Tensor((rng.standard_normal((2, 3, 7)) * 3).astype(dtype))
    targets = np.array([[1, 9, 6], [0, 9, 2]])  # 9 is ignored
    loss = cross_entropy(logits, targets, ignore_index=9)
    loss.backward(np.asarray(2.0))
    x = logits.data.astype(np.float64)
    want = np.exp(x - np.logaddexp.reduce(x, axis=-1, keepdims=True))
    want[np.arange(2)[:, None], np.arange(3), np.where(targets == 9, 0, targets)] -= 1.0
    want[targets == 9] = 0.0
    assert logits.grad.dtype == dtype and loss.dtype == dtype
    assert np.allclose(logits.grad, want * 2.0 / 4, rtol=0, atol=tol)


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="no valid targets"):
        cross_entropy(logits, np.array([7, 7]), ignore_index=7)
    with pytest.raises(ValueError, match="outside vocabulary"):
        cross_entropy(logits, np.array([0, 4]))
    with pytest.raises(ValueError, match="do not match"):
        cross_entropy(logits, np.array([0, 0, 0]))


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 64)) * 4 + 2)
    out = layer_norm(x, Tensor(np.ones(64)), Tensor(np.zeros(64)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)  # eps shrinks slightly


def test_gelu_limits():
    x = Tensor([-20.0, 0.0, 20.0])
    out = gelu(x)
    assert out.data[0] == pytest.approx(0.0, abs=1e-6)
    assert out.data[1] == 0.0
    assert out.data[2] == pytest.approx(20.0, abs=1e-6)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_matches_per_head_reference(p):
    """Both modes, the packed op with every row at full length and the cached
    op on head-major keys, match the reference and consume the generator as
    it does."""
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((2, 7, 12)) for _ in range(3))
    runs = {
        True: lambda gen: attention(*(Tensor(packed(x)) for x in (q, k, v)), 3, p, gen,
                                    query_lengths=[7, 7]).data.reshape(q.shape),
        False: lambda gen: cached_attention(q, head_major(k, 3), head_major(v, 3), 3, p, gen).data,
    }
    for is_packed, run in runs.items():
        ref_rng, gen = np.random.default_rng(4), np.random.default_rng(4)
        want = per_head_attention(q, k, v, 3, p, ref_rng, packed=is_packed)
        assert np.allclose(run(gen), want, rtol=0, atol=1e-12)
        # Each consumed the generator as the reference did, so later draws (and checkpoints) agree.
        assert same_stream(gen, ref_rng)
    if p == 0.0:  # the last queries alone, against every key, as a cached forward asks
        tail = cached_attention(q[:, 4:], head_major(k, 3), head_major(v, 3), 3)
        assert np.allclose(tail.data, want[:, 4:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("queries, keys", [(150, 150), (131, 170)])
def test_attention_spanning_tiles_matches_per_head_reference(queries, keys, p):
    """The cached op, and with as many keys as queries the packed op, over
    three tiles."""
    assert queries > 2 * autodiff._QUERY_TILE
    rng = np.random.default_rng(13)
    q = rng.standard_normal((2, queries, 12))
    k, v = (rng.standard_normal((2, keys, 12)) for _ in range(2))
    runs = {False: lambda gen: cached_attention(q, head_major(k, 3), head_major(v, 3), 3, p, gen).data}
    if queries == keys:
        runs[True] = lambda gen: attention(*(Tensor(packed(x)) for x in (q, k, v)), 3, p, gen,
                                           query_lengths=[queries] * 2).data.reshape(q.shape)
    for is_packed, run in runs.items():
        ref_rng, gen = np.random.default_rng(5), np.random.default_rng(5)
        want = per_head_attention(q, k, v, 3, p, ref_rng, packed=is_packed)
        assert np.allclose(run(gen), want, rtol=0, atol=1e-12)
        assert same_stream(gen, ref_rng)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_tiled_attention_matches_one_tile(dtype, tol, monkeypatch):
    """Outputs and gradients over several tiles agree with a single tile
    holding every query, which scores the whole (Lq, Lk) matrix: the output
    and q, k and v gradients of the packed op (rows of 131 and 90 queries),
    and the output of the cached op (131 queries after 39 cached keys)."""
    rng = np.random.default_rng(14)
    q = rng.standard_normal((2, 131, 16)).astype(dtype)
    k, v = (rng.standard_normal((2, 170, 16)).astype(dtype) for _ in range(2))
    probe = rng.standard_normal((2, 131, 16)).astype(dtype)
    real = np.arange(131) < np.array([[131], [90]])

    def run():
        qkv = [Tensor(x[real]) for x in (q, k[:, :131], v[:, :131])]
        out = attention(*qkv, 4, query_lengths=[131, 90])
        out.backward(probe[real])
        cached = cached_attention(q, head_major(k, 4), head_major(v, 4), 4)
        return [out.data] + [t.grad for t in qkv] + [cached.data]

    tiled = run()
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 131)
    whole = run()
    for got, want in zip(tiled, whole):
        assert got.dtype == dtype
        assert np.allclose(got, want, rtol=0, atol=tol)


@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_gradients_match_per_head_backward(dtype, p):
    """The packed op's q, k and v gradients at model1's head shape (64
    features, 8 heads) over rows of mixed lengths spanning three tiles agree
    with the float64 textbook-Jacobian reference, row by row, under the same
    dropout masks: within 1e-12 in float64, and within 1e-5 of each
    gradient's largest entry in float32."""
    lengths = np.array([150, 97, 64, 3])
    length = int(lengths.max())
    assert length > 2 * autodiff._QUERY_TILE
    real = np.arange(length) < lengths[:, None]
    rng = np.random.default_rng(19)
    q, k, v, probe = (rng.standard_normal((4, length, 64)).astype(dtype) for _ in range(4))
    keep = keep_masks(np.random.default_rng(7), p, 8, lengths) if p > 0 else None
    tensors = [Tensor(x[real]) for x in (q, k, v)]
    out = attention(*tensors, 8, p, np.random.default_rng(7), query_lengths=lengths)
    out.backward(probe[real])
    want = [np.zeros((4, length, 64)) for _ in range(3)]
    for b, n in enumerate(lengths):
        rows = (slice(b, b + 1), slice(0, n))
        row_keep = None if keep is None else keep[b : b + 1, :, :n, :n]
        for full, grad in zip(want, per_head_attention_grads(*(x[rows] for x in (q, k, v, probe)),
                                                              8, row_keep, p)):
            full[rows] = grad
    for t, full in zip(tensors, want):
        assert t.grad.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5 * np.abs(full).max()
        assert np.allclose(t.grad, full[real], rtol=0, atol=tol)


def test_cached_attention_builds_no_graph():
    """The cached mode is inference only: any query, a leaf or an op's result,
    raises with gradients on, and under no_grad gives an output with no graph."""
    rng = np.random.default_rng(21)
    q, k, v = (rng.standard_normal((2, n, 8)) for n in (3, 5, 5))
    kh, vh = head_major(k, 2), head_major(v, 2)
    for query in (Tensor(q), add(Tensor(q), Tensor(np.zeros(8)))):
        with pytest.raises(ValueError, match="no_grad"):
            attention(query, kh, vh, 2)
    out = cached_attention(q, kh, vh, 2)
    assert out._backward is None and not out._parents
    assert np.allclose(out.data, per_head_attention(q, k, v, 2), rtol=0, atol=1e-12)


def test_attention_is_causal_bitwise():
    rng = np.random.default_rng(12)
    q, k, v = (rng.standard_normal((2, 6, 8)) for _ in range(3))

    def both(keys, values):  # the cached op's and the packed op's outputs, (B, L, D) each
        return (cached_attention(q, head_major(keys, 2), head_major(values, 2), 2).data,
                attention(*(Tensor(packed(x)) for x in (q, keys, values)), 2,
                          query_lengths=[6, 6]).data.reshape(q.shape))

    outs = both(k, v)
    for t in range(5):
        k2, v2 = k.copy(), v.copy()
        k2[:, t + 1:] = rng.standard_normal(k2[:, t + 1:].shape) * 100
        v2[:, t + 1:] = rng.standard_normal(v2[:, t + 1:].shape) * 100
        for moved, out in zip(both(k2, v2), outs):
            assert np.array_equal(moved[:, : t + 1], out[:, : t + 1])
    kh, vh = head_major(k, 2), head_major(v, 2)
    with pytest.raises(ValueError, match="heads"):
        cached_attention(q, kh, vh, 3)
    with pytest.raises(ValueError, match="shape"):
        cached_attention(q, kh[:, :, :5], vh, 2)
    with pytest.raises(ValueError, match="does not fit"):  # fewer keys than queries
        cached_attention(q, kh[:, :, :5], vh[:, :, :5], 2)
    with pytest.raises(ValueError, match="rng"):
        cached_attention(q, kh, vh, 2, p=0.1)
    with pytest.raises(ValueError, match="head-major"):  # (B, L, D) keys are no mode
        cached_attention(q, Tensor(k), Tensor(v), 2)


def test_attention_key_lengths_hide_trailing_keys():
    """Row b of a one-query step with key_lengths[b] keys equals attention over
    only its first key_lengths[b] keys, and ignores the rest bitwise."""
    rng = np.random.default_rng(15)
    q = rng.standard_normal((3, 1, 12))
    k, v = (rng.standard_normal((3, 9, 12)) for _ in range(2))
    kh, vh = head_major(k, 3), head_major(v, 3)
    key_lengths = np.array([2, 5, 9])
    out = cached_attention(q, kh, vh, 3, key_lengths=key_lengths).data
    for b, n in enumerate(key_lengths):
        alone = per_head_attention(q[b : b + 1], k[b : b + 1, :n], v[b : b + 1, :n], 3)
        assert np.allclose(out[b], alone[0], rtol=0, atol=1e-12)
    k2, v2 = k.copy(), v.copy()
    for b, n in enumerate(key_lengths):
        k2[b, n:] = rng.standard_normal(k2[b, n:].shape) * 100
        v2[b, n:] = rng.standard_normal(v2[b, n:].shape) * 100
    moved = cached_attention(q, head_major(k2, 3), head_major(v2, 3), 3, key_lengths=key_lengths).data
    assert np.array_equal(moved, out)
    # every length equal to Lk changes nothing
    full = cached_attention(q, kh, vh, 3).data
    assert np.array_equal(cached_attention(q, kh, vh, 3, key_lengths=[9] * 3).data, full)
    for bad in ([2, 5], [0, 5, 9], [2, 5, 10]):
        with pytest.raises(ValueError, match="key_lengths"):
            cached_attention(q, kh, vh, 3, key_lengths=bad)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("tile", [None, 2])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_packed_attention_rows_are_independent_bitwise(dtype, tol, tile, p, monkeypatch):
    """A packed batch gives bitwise the output and q/k/v gradients of each
    of its rows run alone, one after another, on the same generator: rows of
    130, 1, 64, 65 and 63 positions, over tiles of 64 and of 2. The masks
    are drawn as keep_masks draws them and nothing else touches the
    generator; without dropout each row is the reference's output too."""
    if tile is not None:
        monkeypatch.setattr(autodiff, "_QUERY_TILE", tile)
    lengths = np.array([130, 1, 64, 65, 63])
    ends = np.cumsum(lengths).tolist()
    rng = np.random.default_rng(16)
    q, k, v, probe = (rng.standard_normal((ends[-1], 12)).astype(dtype) for _ in range(4))

    def run(rows, query_lengths, gen):
        tensors = [Tensor(x[rows]) for x in (q, k, v)]
        out = attention(*tensors, 3, p, gen, query_lengths=query_lengths)
        out.backward(probe[rows])
        return [out.data] + [t.grad for t in tensors]

    batch_gen, row_gen = np.random.default_rng(9), np.random.default_rng(9)
    batch = run(slice(None), lengths, batch_gen)
    rows = [run(slice(end - n, end), [n], row_gen) for end, n in zip(ends, lengths)]
    for i, got in enumerate(batch):
        assert got.dtype == dtype
        assert np.array_equal(got, np.concatenate([row[i] for row in rows]))
    expected = np.random.default_rng(9)
    if p > 0:
        keep_masks(expected, p, 3, lengths)
    assert same_stream(batch_gen, expected) and same_stream(row_gen, expected)
    if p == 0.0:
        for end, n, row in zip(ends, lengths, rows):
            want = per_head_attention(*(x[None, end - n : end] for x in (q, k, v)), 3)[0]
            assert np.allclose(row[0], want, rtol=0, atol=tol)


def test_packed_attention_backward_runs_once():
    """Tensor.backward refuses to walk a graph an earlier backward consumed: a
    second backward through attention raises instead of returning wrong
    gradients, with dropout or not."""
    rng = np.random.default_rng(20)
    for p in (0.0, 0.3):
        tensors = [Tensor(rng.standard_normal((9, 8))) for _ in range(3)]
        out = attention(*tensors, 2, p, np.random.default_rng(1), query_lengths=[4, 5])
        seed = rng.standard_normal(out.shape)
        out.backward(seed)
        with pytest.raises(ValueError, match="earlier backward"):
            out.backward(seed)


def test_packed_attention_keeps_no_score_blocks():
    """Between its forward and its backward, a grad-on packed attention over
    one 512-position row (8 heads, dropout 0.1) holds less than an eighth of
    the H * L^2 * 4 bytes that keeping each block's float32 exps took: its
    head-major copies, its output, two numbers per query row per head, and one
    bit per score."""
    length, width, heads = 512, 64, 8
    rng = np.random.default_rng(22)
    tensors = [Tensor(rng.standard_normal((length, width)).astype(np.float32)) for _ in range(3)]
    seed = rng.standard_normal((length, width)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = attention(*tensors, heads, 0.1, np.random.default_rng(3), query_lengths=[length])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < heads * length**2 * 4 / 8
    out.backward(seed)
    assert all(t.grad.shape == (length, width) and np.isfinite(t.grad).all() for t in tensors)


def test_attention_reads_head_major_keys_bitwise():
    """Keys and values handed over as views of a longer (B, H, capacity, d_h)
    buffer give bitwise the output of contiguous copies, and match the
    reference query by query (each sees its keys up to its own position and
    key_lengths)."""
    rng = np.random.default_rng(18)
    q = rng.standard_normal((3, 2, 12))
    k, v = (rng.standard_normal((3, 7, 12)) for _ in range(2))
    key_lengths = np.array([3, 7, 5])
    kh, vh = head_major(k, 3), head_major(v, 3)
    assert not kh.flags.c_contiguous

    copied = cached_attention(q, np.ascontiguousarray(kh), np.ascontiguousarray(vh), 3,
                       key_lengths=key_lengths)
    out = cached_attention(q, kh, vh, 3, key_lengths=key_lengths)
    assert np.array_equal(out.data, copied.data)
    for b, n in enumerate(key_lengths):
        for i in range(2):  # query i is position 5 + i
            seen = min(n, 6 + i)
            rows = slice(b, b + 1)
            want = per_head_attention(q[rows, i : i + 1], k[rows, :seen], v[rows, :seen], 3)
            assert np.allclose(out.data[b, i], want[0, 0], rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="does not fit"):
        cached_attention(q, kh[:, :2], vh[:, :2], 3)  # two heads of four features
    with pytest.raises(ValueError, match="one shape"):
        cached_attention(q, kh, vh[:, :, :6], 3)


def test_attention_query_lengths_validation():
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(rng.standard_normal((7, 4))) for _ in range(3))
    for bad in ([5], [0, 7], [3, 5], [[3, 4]], [], [3.5, 3.5], [True] * 7):
        with pytest.raises(ValueError, match="query_lengths must be"):
            attention(q, k, v, 2, query_lengths=bad)
    assert attention(q, k, v, 2, query_lengths=[3, 4]).shape == (7, 4)
    with pytest.raises(ValueError, match="one shape"):
        attention(q, Tensor(rng.standard_normal((8, 4))), v, 2, query_lengths=[3, 4])
    with pytest.raises(ValueError, match="one shape"):
        padded = Tensor(rng.standard_normal((2, 4, 4)))
        attention(padded, padded, padded, 2, query_lengths=[3, 4])
    with pytest.raises(ValueError, match="key_lengths"):
        attention(q, k, v, 2, key_lengths=[4, 4], query_lengths=[3, 4])


# --- graph mechanics ------------------------------------------------------------

def test_tensor_validation_and_dtypes():
    with pytest.raises(ValueError, match="rank 4"):
        Tensor(np.zeros((1, 1, 1, 1)))
    assert Tensor([1, 2, 3]).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32


def test_seeded_backward():
    rng = np.random.default_rng(16)
    a, w = t64(rng, 3, 4), t64(rng, 4, 5)
    out = matmul(a, w)
    seed = rng.standard_normal((3, 5))
    out.backward(seed)
    assert np.array_equal(a.grad, seed @ w.data.T)
    assert np.array_equal(out.grad, seed) and out.grad is not seed
    with pytest.raises(ValueError, match="seed of shape"):
        matmul(a, w).backward(np.ones((5, 3)))
    with pytest.raises(ValueError, match="scalar"):
        matmul(a, w).backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_bias_matches_composed_add(dtype):
    """The bias folded into matmul gives the bits of a separate add node."""
    rng = np.random.default_rng(17)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((3, 5, 8), (8, 6), (6,))]
    seed = rng.standard_normal((3, 5, 6)).astype(dtype)

    def run(fused):
        a, w, bias = (Tensor(x) for x in arrays)
        out = matmul(a, w, bias) if fused else add(matmul(a, w), bias)
        out.backward(seed)
        return [out.data, a.grad, w.grad, bias.grad]

    for got, want in zip(run(True), run(False)):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_gradients_accumulate_through_shared_nodes():
    x = Tensor([3.0])
    y = add(x, x)
    y.backward()
    assert x.grad[0] == 2.0

    x = Tensor([[3.0]])
    z = matmul(x, x, x)  # x^2 + x, dz/dx = 2x + 1
    z.backward()
    assert x.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_first_gradient_is_an_own_copy():
    x = Tensor(np.zeros(3, dtype=np.float32))
    g = np.ones(3)
    x.accumulate_grad(g)
    g += 5.0
    assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.ones(3))

    # add hands one gradient array to both operands; a and b must not share it.
    a = Tensor(np.zeros(2))
    b = Tensor(np.zeros(2))
    y = add(a, b)
    add(y, a).backward(np.ones(2))  # y and a receive one array, then y passes its own on
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_shared_and_view_gradients_are_copied():
    """A backward's own new array becomes an operand's gradient as it is; an
    array handed to two operands, a view, or a gradient _unbroadcast passes
    through unchanged is copied, so no operand's gradient aliases another
    node's: add(y, y), transpose2d, and a matmul bias of the output's shape."""
    x = Tensor(np.zeros(3, dtype=np.float32))
    g = np.ones(3, dtype=np.float32)
    x.accumulate_grad(g, owned=True)
    assert x.grad is g
    y = Tensor(np.zeros(3, dtype=np.float32))
    y.accumulate_grad(np.ones(3), owned=True)  # another dtype: copied and cast
    assert y.grad.dtype == np.float32

    rng = np.random.default_rng(24)
    y = t64(rng, 2, 3)
    a, w, bias = t64(rng, 2, 4), t64(rng, 4, 3), t64(rng, 2, 3)
    for out, operands, want in [
        (add(y, y), [y], lambda seed: [2 * seed]),
        (transpose2d(y := t64(rng, 3, 2)), [y], lambda seed: [seed.T]),
        (matmul(a, w, bias), [a, w, bias], lambda seed: [seed @ w.data.T, a.data.T @ seed, seed]),
    ]:
        seed = rng.standard_normal(out.shape)
        out.backward(seed)
        assert np.array_equal(out.grad, seed)
        for operand, grad in zip(operands, want(seed)):
            assert np.array_equal(operand.grad, grad)
            assert not np.shares_memory(operand.grad, out.grad)
            assert all(not np.shares_memory(operand.grad, other.grad)
                       for other in operands if other is not operand)


def test_a_consumed_graph_refuses_a_second_backward():
    """A backward consumes its graph: every node whose backward ran lets go of
    its operands, its closure and (the output excepted) its gradient, and a
    second backward through any of it raises before touching a gradient."""
    rng = np.random.default_rng(25)
    x, w, gain, bias = t64(rng, 4, 3), t64(rng, 3, 5), t64(rng, 5), t64(rng, 5)
    hidden = gelu(matmul(x, w))
    normed = layer_norm(hidden, gain, bias)
    loss = cross_entropy(normed, np.array([0, 4, 2, 1]))
    loss.backward()
    leaves = [x, w, gain, bias]
    grads = [t.grad.copy() for t in leaves]
    assert loss.grad is not None
    for node in (hidden, normed, loss):
        assert node._parents == ()
        assert (node.grad is None) == (node is not loss)
    for again in (lambda: loss.backward(), lambda: add(normed, normed).backward(np.ones((4, 5)))):
        with pytest.raises(ValueError, match="earlier backward"):
            again()
    for t, grad in zip(leaves, grads):
        assert np.array_equal(t.grad, grad)


def test_broadcast_gradient_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones(3))
    add(a, b).backward(np.ones((2, 3)))
    assert a.grad.shape == (2, 3) and np.all(a.grad == 1.0)
    assert b.grad.shape == (3,) and np.all(b.grad == 2.0)


def test_no_grad_skips_graph_building():
    x = Tensor([1.0, 2.0])
    with no_grad():
        y = add(x, x)
    assert y._parents == () and y._backward is None
    z = add(x, x)  # gradients back on afterwards
    assert z._parents == (x, x) and z._backward is not None


def test_non_finite_forward_raises():
    big = Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        add(big, big)


def test_embedding_lookup_rejects_bad_ids():
    table = Tensor(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="integers"):
        embedding_lookup(table, np.array([0.5]))
    with pytest.raises(IndexError):
        embedding_lookup(table, np.array([5]))
    out = embedding_lookup(table, np.array([[0, 4], [2, 2]]))
    assert out.shape == (2, 2, 3)
    out.backward(np.ones(out.shape))
    assert table.grad[2, 0] == 2.0  # repeated id accumulates


def test_dropout_modes():
    rng = np.random.default_rng(8)
    x = Tensor(np.ones((50, 20)))
    assert dropout(x, 0.0, rng) is x
    out = dropout(x, 0.25, np.random.default_rng(9))
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1 / 0.75)
    assert 0.6 < kept.mean() < 0.9
    again = dropout(x, 0.25, np.random.default_rng(9))
    assert np.array_equal(out.data, again.data)  # same seed, same mask
    with pytest.raises(ValueError):
        dropout(x, 1.0, rng)
    with pytest.raises(ValueError):
        dropout(x, -0.1, rng)
    with pytest.raises(ValueError, match="round below 1"):  # a rate that rounds to 65536/65536
        dropout(x, 1 - 1e-6, rng)
    # a rate between 1/65536 steps keeps what it keeps at 1 / (1 - the rounded rate)
    out = dropout(x, 0.1, np.random.default_rng(9))
    assert np.array_equal(np.unique(out.data), [0.0, 65536 / (65536 - 6554)])


@pytest.mark.parametrize("p", [0.1, 0.5, 1 / 3, 0.99])
def test_dropout_mask_keep_rate(p):
    """Over 2**20 draws the keep rate lies within 5 sigma of 1 - p_q, p_q =
    round(p * 65536) / 65536."""
    n = 2**20
    keep_rate = 1 - autodiff._quantised_rate(p)
    assert keep_rate == 1 - round(p * 65536) / 65536
    mask = autodiff._dropout_mask((n,), p, np.random.default_rng(21))
    assert mask.dtype == bool
    sigma = math.sqrt(keep_rate * (1 - keep_rate) / n)
    assert abs(mask.mean() - keep_rate) < 5 * sigma


def test_dropout_mask_matches_integers_draws():
    """Masks equal rng.integers(0, 65536, size, dtype=uint16) >= the threshold,
    and every later draw is the same: for counts 1-9, a 64 x 441 mask and
    consecutive draws, also from a generator left holding a buffered 32-bit
    half (which the odd counts leave behind too)."""
    threshold = round(0.1 * 65536)
    shapes = [(n,) for n in range(1, 10)] + [(64, 441), (2, 3, 5), (64, 441)]
    for buffered in (False, True):
        fast, slow = np.random.default_rng(23), np.random.default_rng(23)
        if buffered:
            for gen in (fast, slow):
                gen.integers(0, 10, dtype=np.uint32)
            assert fast.bit_generator.state["has_uint32"] == 1
        for shape in shapes:
            mask = autodiff._dropout_mask(shape, 0.1, fast)
            want = slow.integers(0, 65536, size=shape, dtype=np.uint16) >= threshold
            assert mask.dtype == bool and mask.shape == shape
            assert np.array_equal(mask, want)
            assert same_stream(fast, slow)
        for draw in (lambda g: g.integers(0, 10, size=3, dtype=np.uint32), lambda g: g.random(3),
                     lambda g: g.integers(0, 65536, size=5, dtype=np.uint16)):
            assert np.array_equal(draw(fast), draw(slow))


# --- optimizer --------------------------------------------------------------------

def test_adam_first_step_matches_closed_form():
    rng = np.random.default_rng(10)
    start = rng.standard_normal((3, 4))
    grad = rng.standard_normal((3, 4))
    p = Tensor(start.copy())
    p.grad = grad.copy()
    state = AdamState()
    lr = 1e-2
    adam_step([p], state, lr=lr)
    # after one bias-corrected step: m_hat = g, v_hat = g*g
    want = start - lr * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(p.data, want, atol=1e-12)
    assert state.t == 1 and len(state.m) == 1


def test_adam_accumulates_moments_across_steps():
    p = Tensor([0.0])
    state = AdamState()
    p.grad = np.array([1.0])
    adam_step([p], state, lr=0.1)
    first = float(p.data[0])
    p.grad = np.array([-1.0])
    adam_step([p], state, lr=0.1)
    assert state.t == 2
    # momentum keeps the second step from mirroring the first exactly
    assert abs(float(p.data[0]) - first) < 0.1


def test_adam_handles_missing_and_bad_gradients():
    p = Tensor([1.0, 2.0])
    state = AdamState()
    adam_step([p], state, lr=0.5)  # grad None counts as zero
    assert np.array_equal(p.data, [1.0, 2.0])
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(NonFiniteError):
        adam_step([p], state, lr=0.5)
