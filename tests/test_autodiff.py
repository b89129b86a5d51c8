import inspect
import math

import numpy as np
import pytest

from overpaint import autodiff
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
    grad_check,
    layer_norm,
    matmul,
    narrow,
    no_grad,
    transpose2d,
)

TOL = 1e-4  # float64 central differences at h=1e-5


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


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
    if name == "narrow":
        return lambda a: narrow(a, 1, 1, m - 1), [t64(rng, n, m)]
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


ATTENTION_OPS = ("attention", "attention_dropout", "attention_longer_keys", "attention_key_lengths",
                 "attention_padded")


def attention_instance(name, rng, lengths):
    """One attention OPS entry with a query length drawn from range(*lengths)."""
    batch, heads = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    length, d_head = int(rng.integers(*lengths)), int(rng.integers(2, 4))
    qkv = [t64(rng, batch, length, heads * d_head) for _ in range(3)]
    if name == "attention":
        return lambda q, k, v: attention(q, k, v, heads), qkv
    if name == "attention_longer_keys":  # queries are the last positions, as when cached
        keys = length + int(rng.integers(1, 3))
        qkv[1:] = [t64(rng, batch, keys, heads * d_head) for _ in range(2)]
        return lambda q, k, v: attention(q, k, v, heads), qkv
    if name == "attention_key_lengths":  # rows of a batch that read different lengths
        keys = length + int(rng.integers(0, 3))
        qkv[1:] = [t64(rng, batch, keys, heads * d_head) for _ in range(2)]
        key_lengths = rng.integers(1, keys + 1, size=batch)
        return lambda q, k, v: attention(q, k, v, heads, key_lengths=key_lengths), qkv
    if name == "attention_padded":  # a right-padded batch's real rows, packed, with dropout
        query_lengths = rng.integers(1, length + 1, size=batch)
        packed = [t64(rng, int(query_lengths.sum()), heads * d_head) for _ in range(3)]
        seed = int(rng.integers(0, 1000))
        return (
            lambda q, k, v: attention(q, k, v, heads, 0.4, np.random.default_rng(seed),
                                      query_lengths=query_lengths),
            packed,
        )
    seed = int(rng.integers(0, 1000))
    return (
        lambda q, k, v: attention(q, k, v, heads, 0.4, np.random.default_rng(seed)),
        qkv,
    )


OPS = [
    "add_same", "add_broadcast",
    "matmul2d", "matmul_batched", "matmul_broadcast", "matmul_bias", "transpose2d",
    "narrow", "gelu", "layer_norm", "embedding_lookup", "dropout",
    "attention", "attention_dropout", "attention_longer_keys", "attention_key_lengths",
    "cross_entropy", "cross_entropy_ignore",
    # appended last, so no earlier entry's acceptance seeds shift
    "attention_padded", "matmul_batch_broadcast",
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
    } - {"grad_check", "adam_step"}
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
    logits = Tensor([[10.0, 0.0, 0.0]], requires_grad=True)
    loss = cross_entropy(logits, np.array([0]))
    assert loss.item() == pytest.approx(math.log1p(2 * math.exp(-10)), abs=1e-12)
    loss.backward()
    soft = np.exp([10.0, 0.0, 0.0] - np.logaddexp.reduce([10.0, 0.0, 0.0]))
    soft[0] -= 1.0
    assert np.allclose(logits.grad, soft[None, :], atol=1e-12)


def test_cross_entropy_means_over_valid_positions():
    logits = Tensor(np.log([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]), requires_grad=True)
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
    logits = Tensor((rng.standard_normal((2, 3, 7)) * 3).astype(dtype), requires_grad=True)
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
    logits = Tensor(np.zeros((2, 4)), requires_grad=True)
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


def keep_masks(rng, p, n_heads, lengths, keys):
    """The op's dropout masks for rows of the given query lengths, drawn
    independently: per tile of query rows, in tile order, one uint16 (live
    rows, H, rows, visible keys) draw each, a row being live while its length
    exceeds the tile's start; returns (tile start, mask) pairs."""
    lengths = np.asarray(lengths)
    length = int(lengths.max())
    masks = []
    for s in range(0, length, autodiff._QUERY_TILE):
        e = min(s + autodiff._QUERY_TILE, length)
        draw = rng.integers(0, 65536, size=((lengths > s).sum(), n_heads, e - s, e + keys - length),
                            dtype=np.uint16)
        masks.append((s, draw >= round(p * 65536)))
    return masks


def per_head_attention(q, k, v, n_heads, p=0.0, rng=None):
    """Reference: slice each head, mask, softmax, dropout, concat, with the
    dropout masks of keep_masks and the scale 1 / (1 - p quantised to 1/65536)."""
    batch, length, width = q.shape
    keys = k.shape[1]
    d_head = width // n_heads
    upper = np.triu(np.full((length, keys), -1e9), k=1 + keys - length)
    keep = np.ones((batch, n_heads, length, keys), dtype=bool)
    if p > 0:
        for s, mask in keep_masks(rng, p, n_heads, [length] * batch, keys):
            keep[:, :, s:s + mask.shape[2], :mask.shape[3]] = mask
    heads = []
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, :, cols] @ np.swapaxes(k[:, :, cols], -1, -2) / math.sqrt(d_head)
        scores = scores + upper
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        if p > 0:
            weights = weights * keep[:, h] / (1.0 - round(p * 65536) / 65536)
        heads.append(weights @ v[:, :, cols])
    return np.concatenate(heads, axis=-1)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_matches_per_head_reference(p):
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((2, 7, 12)) for _ in range(3))
    fused_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    out = attention(Tensor(q), Tensor(k), Tensor(v), 3, p, fused_rng)
    want = per_head_attention(q, k, v, 3, p, ref_rng)
    assert np.allclose(out.data, want, rtol=0, atol=1e-12)
    # Both consumed the generator equally, so later draws (and checkpoints) agree.
    assert fused_rng.random() == ref_rng.random()
    if p == 0.0:  # the last queries alone, against every key, as a cached forward asks
        tail = attention(Tensor(q[:, 4:]), Tensor(k), Tensor(v), 3)
        assert np.allclose(tail.data, want[:, 4:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("queries, keys", [(150, 150), (131, 170)])
def test_attention_spanning_tiles_matches_per_head_reference(queries, keys, p):
    assert queries > 2 * autodiff._QUERY_TILE
    rng = np.random.default_rng(13)
    q = rng.standard_normal((2, queries, 12))
    k, v = (rng.standard_normal((2, keys, 12)) for _ in range(2))
    fused_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    out = attention(Tensor(q), Tensor(k), Tensor(v), 3, p, fused_rng)
    want = per_head_attention(q, k, v, 3, p, ref_rng)
    assert np.allclose(out.data, want, rtol=0, atol=1e-12)
    assert fused_rng.random() == ref_rng.random()


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_tiled_attention_matches_one_tile(dtype, tol, monkeypatch):
    """Outputs and q/k/v gradients over several tiles agree with a single
    tile holding every query, which scores the whole (Lq, Lk) matrix."""
    rng = np.random.default_rng(14)
    q = rng.standard_normal((2, 131, 16)).astype(dtype)
    k, v = (rng.standard_normal((2, 170, 16)).astype(dtype) for _ in range(2))
    probe = rng.standard_normal((2, 131, 16)).astype(dtype)

    def run():
        qkv = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = attention(*qkv, 4)
        out.backward(probe)
        return [out.data] + [t.grad for t in qkv]

    tiled = run()
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 131)
    whole = run()
    for got, want in zip(tiled, whole):
        assert got.dtype == dtype
        assert np.allclose(got, want, rtol=0, atol=tol)


def test_attention_is_causal_bitwise():
    rng = np.random.default_rng(12)
    q, k, v = (rng.standard_normal((2, 6, 8)) for _ in range(3))
    out = attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    for t in range(5):
        k2, v2 = k.copy(), v.copy()
        k2[:, t + 1:] = rng.standard_normal(k2[:, t + 1:].shape) * 100
        v2[:, t + 1:] = rng.standard_normal(v2[:, t + 1:].shape) * 100
        moved = attention(Tensor(q), Tensor(k2), Tensor(v2), 2).data
        assert np.array_equal(moved[:, : t + 1], out[:, : t + 1])
    with pytest.raises(ValueError, match="heads"):
        attention(Tensor(q), Tensor(k), Tensor(v), 3)
    with pytest.raises(ValueError, match="shape"):
        attention(Tensor(q), Tensor(k[:, :5]), Tensor(v), 2)
    with pytest.raises(ValueError, match="does not fit"):  # fewer keys than queries
        attention(Tensor(q), Tensor(k[:, :5]), Tensor(v[:, :5]), 2)
    with pytest.raises(ValueError, match="rng"):
        attention(Tensor(q), Tensor(k), Tensor(v), 2, p=0.1)


def test_attention_key_lengths_hide_trailing_keys():
    """Row b of a one-query step with key_lengths[b] keys equals attention over
    only its first key_lengths[b] keys, and ignores the rest bitwise."""
    rng = np.random.default_rng(15)
    q = rng.standard_normal((3, 1, 12))
    k, v = (rng.standard_normal((3, 9, 12)) for _ in range(2))
    key_lengths = np.array([2, 5, 9])
    out = attention(Tensor(q), Tensor(k), Tensor(v), 3, key_lengths=key_lengths).data
    for b, n in enumerate(key_lengths):
        alone = attention(Tensor(q[b : b + 1]), Tensor(k[b : b + 1, :n]), Tensor(v[b : b + 1, :n]), 3)
        assert np.allclose(out[b], alone.data[0], rtol=0, atol=1e-12)
    k2, v2 = k.copy(), v.copy()
    for b, n in enumerate(key_lengths):
        k2[b, n:] = rng.standard_normal(k2[b, n:].shape) * 100
        v2[b, n:] = rng.standard_normal(v2[b, n:].shape) * 100
    moved = attention(Tensor(q), Tensor(k2), Tensor(v2), 3, key_lengths=key_lengths).data
    assert np.array_equal(moved, out)
    # every length equal to Lk changes nothing
    full = attention(Tensor(q), Tensor(k), Tensor(v), 3).data
    assert np.array_equal(attention(Tensor(q), Tensor(k), Tensor(v), 3, key_lengths=[9] * 3).data, full)
    for bad in ([2, 5], [0, 5, 9], [2, 5, 10]):
        with pytest.raises(ValueError, match="key_lengths"):
            attention(Tensor(q), Tensor(k), Tensor(v), 3, key_lengths=bad)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("tile", [None, 2])
def test_attention_query_lengths_skip_only_padding_bitwise(p, tile, monkeypatch):
    """Packed attention (query_lengths) gives bitwise the output and q/k/v
    gradients of the plain op on the zero-padded batch, taken at the real
    rows, when both see the same dropout masks. Its masks are drawn only
    for the rows each tile keeps, (live rows, H, rows, visible) in tile
    order, and nothing else touches the generator."""
    if tile is not None:
        monkeypatch.setattr(autodiff, "_QUERY_TILE", tile)
    size = autodiff._QUERY_TILE
    rng = np.random.default_rng(16)
    # a real query opens the tile at 64 (and at 20); a row ends just before it
    lengths = np.array([150, 65, 64, 21])
    real = np.arange(150) < lengths[:, None]
    assert ((np.arange(150) // size * size) >= lengths[:, None]).any()  # tiles leave rows out
    q, k, v = (rng.standard_normal((4, 150, 12)) * real[:, :, None] for _ in range(3))
    probe = rng.standard_normal(q.shape) * real[:, :, None]

    drawn = []
    draw = autodiff._dropout_mask

    def recording(shape, rate, gen):
        drawn.append(draw(shape, rate, gen))
        return drawn[-1]

    def replaying(shape, rate, gen):  # the packed op's masks for its live rows, all kept elsewhere
        keep = np.ones(shape, dtype=bool)
        s = len(replayed) * size
        keep[np.flatnonzero(lengths > s)] = drawn[len(replayed)]
        replayed.append(keep)
        return keep

    def run(qkv, seed, **kwargs):
        tensors = [Tensor(x, requires_grad=True) for x in qkv]
        out = attention(*tensors, 3, p, gen, **kwargs)
        out.backward(seed)
        return [out.data] + [t.grad for t in tensors]

    gen = np.random.default_rng(9)
    monkeypatch.setattr(autodiff, "_dropout_mask", recording)
    packed = run([x[real] for x in (q, k, v)], probe[real], query_lengths=lengths)
    replayed = []
    monkeypatch.setattr(autodiff, "_dropout_mask", replaying)
    plain = run([q, k, v], probe)
    for got, want in zip(packed, plain):
        assert np.array_equal(got, want[real])

    expected = np.random.default_rng(9)
    masks = keep_masks(expected, p, 3, lengths, 150) if p > 0 else []
    assert len(drawn) == len(masks) == len(replayed)
    for got, (_, want) in zip(drawn, masks):
        assert np.array_equal(got, want)
    assert gen.bit_generator.state == expected.bit_generator.state


def test_attention_query_lengths_validation():
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(rng.standard_normal((7, 4))) for _ in range(3))
    for bad in ([5], [0, 7], [3, 5], [[3, 4]], []):
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
        a, w, bias = (Tensor(x, requires_grad=True) for x in arrays)
        out = matmul(a, w, bias) if fused else add(matmul(a, w), bias)
        out.backward(seed)
        return [out.data, a.grad, w.grad, bias.grad]

    for got, want in zip(run(True), run(False)):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_gradients_accumulate_through_shared_nodes():
    x = Tensor([3.0], requires_grad=True)
    y = add(x, x)
    y.backward()
    assert x.grad[0] == 2.0

    x = Tensor([[3.0]], requires_grad=True)
    z = matmul(x, x, x)  # x^2 + x, dz/dx = 2x + 1
    z.backward()
    assert x.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_first_gradient_is_an_own_copy():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.ones(3)
    x.accumulate_grad(g)
    g += 5.0
    assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.ones(3))

    # add hands one gradient array to both operands; a and b must not share it.
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    y = add(a, b)
    add(y, a).backward(np.ones(2))  # y and a receive one array, then y passes its own on
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_broadcast_gradient_shapes():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    add(a, b).backward(np.ones((2, 3)))
    assert a.grad.shape == (2, 3) and np.all(a.grad == 1.0)
    assert b.grad.shape == (3,) and np.all(b.grad == 2.0)


def test_narrow_gradient_is_zero_outside_slice():
    x = Tensor(np.ones((4, 6)), requires_grad=True)
    narrow(x, 0, 1, 2).backward(np.ones((2, 6)))
    want = np.zeros((4, 6))
    want[1:3] = 1.0
    assert np.array_equal(x.grad, want)


def test_no_grad_skips_graph_building():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = add(x, x)
    assert not y.requires_grad and y._parents == ()
    z = add(x, x)  # flag restored afterwards
    assert z.requires_grad


def test_non_finite_forward_raises():
    big = Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        add(big, big)


def test_embedding_lookup_rejects_bad_ids():
    table = Tensor(np.zeros((5, 3)), requires_grad=True)
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
    x = Tensor(np.ones((50, 20)), requires_grad=True)
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


# --- optimizer --------------------------------------------------------------------

def test_adam_first_step_matches_closed_form():
    rng = np.random.default_rng(10)
    start = rng.standard_normal((3, 4))
    grad = rng.standard_normal((3, 4))
    p = Tensor(start.copy(), requires_grad=True)
    p.grad = grad.copy()
    state = AdamState()
    lr = 1e-2
    adam_step([p], state, lr=lr)
    # after one bias-corrected step: m_hat = g, v_hat = g*g
    want = start - lr * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(p.data, want, atol=1e-12)
    assert state.t == 1 and len(state.m) == 1


def test_adam_accumulates_moments_across_steps():
    p = Tensor([0.0], requires_grad=True)
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
    p = Tensor([1.0, 2.0], requires_grad=True)
    state = AdamState()
    adam_step([p], state, lr=0.5)  # grad None counts as zero
    assert np.array_equal(p.data, [1.0, 2.0])
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(NonFiniteError):
        adam_step([p], state, lr=0.5)
