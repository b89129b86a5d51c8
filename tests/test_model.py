import csv
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from helpers import V1_CHECKPOINT, reference_forward, v1_with_nonzero_key_bias
from overpaint import autodiff
from overpaint.autodiff import AdamState, NonFiniteError, Tensor, adam_step, cross_entropy, no_grad
from overpaint.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    KVCache,
    ModelConfig,
    TrainConfig,
    TransformerLM,
    _epoch_pass,
    _pad_batch,
    _sep_split_masks,
    generate_batch,
    load_checkpoint,
    nucleus_sample,
    preset,
    save_checkpoint,
    train,
)
from overpaint.tokenizer import BOS, EOS, PAD, SEP

TINY = ModelConfig(
    vocab_size=50, n_layers=1, d_model=16, n_heads=4, d_ff=32, max_len=32, dropout=0.0
)


# --- configuration ----------------------------------------------------------------

def test_presets_match_published_sizes():
    m1 = preset("model1", 929)
    assert (m1.n_layers, m1.d_model, m1.n_heads, m1.d_ff) == (2, 64, 8, 256)
    m2 = preset("model2", 929)
    assert (m2.n_layers, m2.d_model, m2.n_heads, m2.d_ff) == (4, 128, 8, 512)
    assert preset("model1", 929, dropout=0.0).dropout == 0.0
    with pytest.raises(ValueError, match="unknown preset"):
        preset("model3", 929)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=10, d_model=65, n_heads=8)
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(vocab_size=10, dtype="float16")
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(vocab_size=10, dropout=1.0)


def test_parameter_counts():
    # embeddings + per-layer (two norms, four attention mats, biases for all
    # but the keys, two ff mats with biases) + final norm; output projection is tied.
    m1 = TransformerLM(preset("model1", 929))
    assert m1.param_count() == TransformerLM.expected_param_count(m1.config) == 224_960
    m2_config = preset("model2", 929)
    assert TransformerLM.expected_param_count(m2_config) == 1_042_816
    names = set(m1.params)
    assert {"tok_emb", "pos_emb", "final_ln.gain", "final_ln.bias"} <= names
    assert "layer1.attn.wq" in names and "layer0.ff.w2" in names


# --- forward pass -----------------------------------------------------------------

def test_forward_shapes_and_validation():
    model = TransformerLM(TINY, seed=0)
    ids = np.array([[1, 5, 9, 3], [2, 6, 7, 7]])
    out = model.forward(ids)
    assert out.shape == (2, 4, 50)
    last = model.forward(ids, last_only=True)
    assert last.shape == (2, 1, 50)
    assert np.allclose(last.data[:, 0], out.data[:, -1], atol=1e-6)

    with pytest.raises(ValueError, match="batch"):
        model.forward(np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="length"):
        model.forward(np.zeros((1, 0), dtype=int))
    with pytest.raises(ValueError, match="length"):
        model.forward(np.zeros((1, 33), dtype=int))
    dropped = TransformerLM(
        ModelConfig(vocab_size=50, n_layers=1, d_model=16, n_heads=4, d_ff=32,
                    max_len=32, dropout=0.2)
    )
    with pytest.raises(ValueError, match="rng"):
        dropped.forward(ids, training=True, lengths=[4, 4])
    with pytest.raises(ValueError, match="takes lengths"):
        dropped.forward(ids, training=True, rng=np.random.default_rng(0))


def test_forward_is_causal_bitwise():
    model = TransformerLM(TINY, seed=1)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 50, size=(1, 10))
    base = model.forward(ids).data
    for cut in (3, 7):
        altered = ids.copy()
        altered[0, cut] = (altered[0, cut] + 11) % 50
        out = model.forward(altered).data
        assert np.array_equal(out[:, :cut], base[:, :cut])
        assert not np.array_equal(out[:, cut:], base[:, cut:])


def test_forward_dropout_is_seeded():
    config = ModelConfig(vocab_size=50, n_layers=1, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.3)
    model = TransformerLM(config, seed=3)
    ids = np.array([[1, 2, 3, 4, 5]])
    a, b, c = (model.forward(ids, training=True, rng=np.random.default_rng(seed), lengths=[5]).data
               for seed in (7, 7, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-5), ("float64", 1e-10)])
def test_forward_lengths_change_nothing_real(dtype, tol, monkeypatch):
    """A padded batch's forward with `lengths` returns (N, V) logits, one row
    per real position in row order, that match the reference forward's
    logits of the padded batch at those positions and each row's own
    (cached) forward."""
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 4)  # so short rows skip tiles
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.2, dtype=dtype)
    model = TransformerLM(config, seed=30)
    rng = np.random.default_rng(31)
    seqs = [rng.integers(4, 50, size=n) for n in (19, 12, 5)]
    inputs = _pad_batch(seqs)[:, :-1]
    lengths = np.array([len(s) - 1 for s in seqs])
    real = np.arange(inputs.shape[1]) < lengths[:, None]

    with no_grad():
        packed = model.forward(inputs, lengths=lengths).data
        assert packed.shape == (lengths.sum(), 50) and packed.dtype == dtype
        assert np.allclose(packed, reference_forward(model, inputs)[real], rtol=0, atol=tol)
        for seq, row in zip(seqs, np.split(packed, np.cumsum(lengths)[:-1])):
            assert np.allclose(row, model.forward(seq[None, :-1]).data[0], rtol=0, atol=tol)

    def dropped(seed):
        return model.forward(inputs, training=True, rng=np.random.default_rng(seed),
                             lengths=lengths).data

    assert np.array_equal(dropped(32), dropped(32)) and not np.array_equal(dropped(32), dropped(33))
    for bad in ([18, 11], [18, 11, 0], [19, 11, 4]):
        with pytest.raises(ValueError, match="lengths must be"):
            model.forward(inputs, lengths=bad)
    with pytest.raises(ValueError, match="last_only"):
        model.forward(inputs, lengths=lengths, last_only=True)


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_packed_loss_and_gradients_sum_the_rows(dtype, tol, monkeypatch):
    """With dropout 0, a packed batch's loss times its target count is the
    sum of each row's own loss times its count, and every trained parameter's
    gradient is the sum of the rows' gradients: within tol, scaled by the
    largest entry where that exceeds 1. The frozen key biases get none."""
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 4)
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.0, dtype=dtype)
    model = TransformerLM(config, seed=34)
    rng = np.random.default_rng(35)
    seqs = [rng.integers(4, 50, size=n) for n in (19, 12, 5, 2)]
    ids = _pad_batch(seqs)
    lengths = np.array([len(s) - 1 for s in seqs])
    real = np.arange(ids.shape[1] - 1) < lengths[:, None]

    def step(inputs, targets, count, **kwargs):
        model.zero_grad()
        logits = model.forward(inputs, training=True, rng=np.random.default_rng(0), **kwargs)
        loss = cross_entropy(logits, targets, ignore_index=PAD)
        loss.backward(np.asarray(float(count), dtype=dtype))
        return loss.item() * count, {name: p.grad.astype(np.float64)
                                     for name, p in model.params.items()}

    packed_loss, packed = step(ids[:, :-1], ids[:, 1:][real], real.sum(), lengths=lengths)
    rows_loss, rows = 0.0, {name: 0.0 for name in packed}
    for seq in seqs:
        loss, grads = step(seq[None, :-1], seq[1:], len(seq) - 1, lengths=[len(seq) - 1])
        rows_loss += loss
        rows = {name: rows[name] + grads[name] for name in rows}
    assert abs(packed_loss - rows_loss) <= tol * rows_loss
    for name, grad in packed.items():
        assert np.abs(grad - rows[name]).max() <= tol * max(1.0, np.abs(rows[name]).max()), name


def test_backward_keeps_gradients_on_parameters_alone():
    """After loss.backward() on a model1 packed batch, every parameter holds a
    gradient, the loss keeps its seed, and no intermediate node holds a
    gradient, operands or a backward closure."""
    model = TransformerLM(preset("model1", 929), seed=5)
    rng = np.random.default_rng(6)
    lengths = np.array([23, 9])
    ids = rng.integers(4, 929, size=(2, 24))
    real = np.arange(23) < lengths[:, None]
    logits = model.forward(ids[:, :-1], training=True, rng=np.random.default_rng(7), lengths=lengths)
    loss = cross_entropy(logits, ids[:, 1:][real])
    params = {id(t) for t in model.parameters()}
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    loss.backward()
    assert all(t.grad is not None for t in model.parameters())
    assert np.array_equal(loss.grad, 1.0)
    inner = [node for node in nodes if id(node) not in params and node is not loss]
    assert len(inner) > 10 * preset("model1", 929).n_layers
    for node in inner:
        assert node.grad is None and node._parents == ()
        assert node._backward is autodiff._consumed


def test_fresh_model_loss_is_near_uniform():
    model = TransformerLM(preset("model1", 929, dropout=0.0), seed=0)
    rng = np.random.default_rng(4)
    ids = rng.integers(4, 929, size=(2, 24))
    with no_grad():
        logits = model.forward(ids[:, :-1])
    loss = cross_entropy(logits, ids[:, 1:]).item()
    assert abs(loss - math.log(929)) / math.log(929) < 0.05


def test_state_arrays_round_trip():
    model = TransformerLM(TINY, seed=5)
    snapshot = model.state_arrays()
    rebuilt = TransformerLM.from_state_arrays(TINY, snapshot)
    snapshot["tok_emb"][:] = 0.0  # the rebuilt model holds copies
    for name, p in model.params.items():
        assert np.array_equal(rebuilt.params[name].data, p.data), name

    extra = dict(snapshot)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(CheckpointError, match="mismatch"):
        TransformerLM.from_state_arrays(TINY, extra)
    wrong = dict(snapshot)
    wrong["tok_emb"] = np.zeros((2, 2))
    with pytest.raises(CheckpointError, match="shape"):
        TransformerLM.from_state_arrays(TINY, wrong)


# --- checkpoints ------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip(tmp_path, dtype):
    """Blobs are stored at the model's dtype, so a model round-trips bitwise."""
    config = ModelConfig(**{**asdict(TINY), "dtype": dtype})
    model = TransformerLM(config, seed=6)
    path = tmp_path / "model.ovpt"
    save_checkpoint(path, model, vocab_hash="ab" * 32, epoch=17, val_loss=1.25)
    assert path.read_bytes()[:4] == CHECKPOINT_MAGIC
    assert struct.unpack("<I", path.read_bytes()[4:8]) == (CHECKPOINT_VERSION,)

    loaded, meta = load_checkpoint(path)
    assert meta["vocab_hash"] == "ab" * 32
    assert meta["epoch"] == 17 and meta["val_loss"] == 1.25
    assert loaded.config == config
    for name, arr in model.state_arrays().items():
        assert loaded.params[name].data.dtype == dtype
        assert np.array_equal(loaded.params[name].data, arr), name
        # its own copy, not a view of the file's bytes
        assert loaded.params[name].data.flags.owndata and loaded.params[name].data.flags.writeable
    ids = np.array([[1, 2, 3]])
    assert np.array_equal(loaded.forward(ids).data, model.forward(ids).data)


def test_version_1_checkpoint_loads_without_its_key_bias():
    """A version 1 file (f4 blobs, and each layer's zero key bias) loads to
    the weights TransformerLM draws for its seed, and the same logits."""
    loaded, meta = load_checkpoint(V1_CHECKPOINT)
    assert meta["vocab_hash"] == "tiny-v1" and meta["epoch"] == 3
    assert loaded.config == TINY
    fresh = TransformerLM(TINY, seed=21)
    assert loaded.params.keys() == fresh.params.keys()
    for name, p in fresh.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    ids = np.array([[1, 5, 9, 3], [2, 6, 7, 7]])
    assert np.array_equal(loaded.forward(ids).data, fresh.forward(ids).data)


def test_version_1_checkpoint_with_a_nonzero_key_bias_is_rejected(tmp_path):
    path = tmp_path / "bk.ovpt"
    path.write_bytes(v1_with_nonzero_key_bias())
    with pytest.raises(CheckpointError, match="key bias layer0.attn.bk"):
        load_checkpoint(path)


def test_checkpoint_rejects_corruption(tmp_path):
    model = TransformerLM(TINY, seed=7)
    path = tmp_path / "model.ovpt"
    save_checkpoint(path, model, vocab_hash="00" * 32, epoch=1, val_loss=2.0)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ovpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(bad)

    versioned = bytearray(blob)
    versioned[4] = 9
    bad.write_bytes(bytes(versioned))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"\0")
    with pytest.raises(CheckpointError, match="1 bytes after the last blob"):
        load_checkpoint(bad)

    garbled = bytearray(blob)
    (meta_len,) = struct.unpack("<I", blob[8:12])
    garbled[12 : 12 + 4] = b"}{x!"
    bad.write_bytes(bytes(garbled))
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(bad)

    meta = json.loads(blob[12 : 12 + meta_len])
    meta["config"]["n_heads"] = 7  # does not divide d_model
    for meta_blob in (json.dumps(meta).encode(), b'{"config": "\xc3"}'):
        resized = blob[:8] + struct.pack("<I", len(meta_blob)) + meta_blob
        bad.write_bytes(resized + blob[12 + meta_len :])
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(bad)

    meta["config"]["n_heads"] = 4
    meta["config"]["vocab_size"] = 51  # a valid config the stored arrays do not fit
    meta_blob = json.dumps(meta).encode()
    resized = blob[:8] + struct.pack("<I", len(meta_blob)) + meta_blob
    bad.write_bytes(resized + blob[12 + meta_len :])
    with pytest.raises(CheckpointError, match="shape mismatch for tok_emb"):
        load_checkpoint(bad)


# --- training loop ----------------------------------------------------------------

def pair_like_sequences(rng, count, vocab=50, body=5):
    out = []
    for _ in range(count):
        orig = rng.integers(4, vocab, size=body).tolist()
        var = rng.integers(4, vocab, size=body).tolist()
        out.append(np.array([BOS] + orig + [SEP] + var + [EOS], dtype=np.int64))
    return out


def test_train_config_validation():
    with pytest.raises(ValueError, match="early_stop_patience"):
        TrainConfig(early_stop_patience=5, scheduler_patience=5)
    with pytest.raises(ValueError, match="bad training"):
        TrainConfig(batch_size=0)
    for lr in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)
    with pytest.raises(ValueError, match="seed must be 0 or more"):
        TrainConfig(seed=-1)


def test_train_runs_and_learns(tmp_path):
    rng = np.random.default_rng(9)
    train_seqs = pair_like_sequences(rng, 6)
    val_seqs = pair_like_sequences(rng, 2)
    log_path = tmp_path / "train.log.csv"
    result = train(
        train_seqs,
        val_seqs,
        TINY,
        TrainConfig(max_epochs=8, batch_size=4, lr=5e-3, seed=0,
                    scheduler_patience=6, early_stop_patience=8),
        log_path=log_path,
    )
    assert 1 <= len(result.logs) <= 8
    assert result.logs[-1].train_loss < result.logs[0].train_loss
    assert result.best_val_loss == min(log.val_loss for log in result.logs)
    assert result.best_epoch == min(
        log.epoch for log in result.logs if log.val_loss == result.best_val_loss
    )
    for log in result.logs:
        assert math.isfinite(log.pre_sep_loss) and math.isfinite(log.post_sep_loss)

    with open(log_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "lr", "train_loss", "val_loss",
                       "pre_sep_loss", "post_sep_loss", "seconds", "tokens_per_s", "grad_norm"]
    assert len(rows) == 1 + len(result.logs)
    assert float(rows[1][6]) >= 0.0
    for row, log in zip(rows[1:], result.logs):
        assert float(row[7]) == pytest.approx(log.tokens_per_s, abs=0.05) and log.tokens_per_s > 0
        assert float(row[8]) == log.grad_norm and 0 < log.grad_norm < math.inf

    # the returned model carries the best-validation weights
    batch = np.full((len(val_seqs), max(map(len, val_seqs))), PAD, dtype=np.int64)
    for i, s in enumerate(val_seqs):
        batch[i, : len(s)] = s
    with no_grad():
        logits = result.model.forward(batch[:, :-1])
    loss = cross_entropy(logits, batch[:, 1:], ignore_index=PAD).item()
    assert loss == pytest.approx(result.best_val_loss, abs=1e-6)


def test_train_is_deterministic_in_seed():
    rng = np.random.default_rng(10)
    train_seqs = pair_like_sequences(rng, 4)
    val_seqs = pair_like_sequences(rng, 2)
    config = TrainConfig(max_epochs=3, batch_size=2, seed=11,
                         scheduler_patience=2, early_stop_patience=3)
    a = train(train_seqs, val_seqs, TINY, config)
    b = train(train_seqs, val_seqs, TINY, config)
    assert [log.train_loss for log in a.logs] == [log.train_loss for log in b.logs]
    assert all(
        np.array_equal(x, y)
        for x, y in zip(a.model.state_arrays().values(), b.model.state_arrays().values())
    )
    c = train(train_seqs, val_seqs, TINY,
              TrainConfig(max_epochs=3, batch_size=2, seed=12,
                          scheduler_patience=2, early_stop_patience=3))
    assert [log.train_loss for log in c.logs] != [log.train_loss for log in a.logs]


def test_train_moves_every_parameter():
    """The model has no key biases (softmax ignores a shift shared by every
    key), so every parameter trains, and every bias and gain leaves its
    initial value."""
    rng = np.random.default_rng(12)
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.1)
    result = train(pair_like_sequences(rng, 4), pair_like_sequences(rng, 2), config,
                   TrainConfig(max_epochs=3, batch_size=2, seed=13,
                               scheduler_patience=2, early_stop_patience=3))
    params = result.model.params
    assert not [name for name in params if name.endswith("attn.bk")]
    assert result.model.parameters() == list(params.values())
    for name, p in params.items():
        if name.endswith(("bias", ".bq", ".bv", ".bo", ".b1", ".b2")):
            assert p.data.any(), name  # zero at init
        elif name.endswith("gain"):
            assert (p.data != 1.0).any(), name  # one at init
    assert result.model.param_count() == TransformerLM.expected_param_count(config)


def test_packed_training_steps_as_rows_alone(monkeypatch):
    """An epoch of seeded packed training (dropout 0, two batches of two
    rows) moves every weight as Adam steps do whose gradient is each batch's
    rows forwarded alone, their losses weighted by their target counts; it
    reports their mean loss and counts every real and PAD target."""
    monkeypatch.setattr(autodiff, "_QUERY_TILE", 3)  # so rows span tiles, some opened by their last query
    rng = np.random.default_rng(33)
    seqs = [pair_like_sequences(rng, 1, body=n)[0] for n in (2, 7, 4, 6, 3, 5)]
    train_seqs, val_seqs = seqs[:4], seqs[4:]
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.0, dtype="float64")
    train_config = TrainConfig(max_epochs=1, batch_size=2, seed=5,
                               scheduler_patience=2, early_stop_patience=3)
    packed = train(train_seqs, val_seqs, config, train_config)

    # train's own seeding: init, then shuffling
    seeds = np.random.SeedSequence(train_config.seed).spawn(3)
    model = TransformerLM(config, seed=int(seeds[0].generate_state(1)[0]))
    order = np.random.default_rng(seeds[1]).permutation(len(train_seqs))
    optimizer, padded, total = AdamState(), 0, 0.0
    for lo in (0, 2):
        batch = [train_seqs[i] for i in order[lo : lo + 2]]
        count = sum(len(seq) - 1 for seq in batch)
        padded += 2 * (max(map(len, batch)) - 1) - count
        model.zero_grad()
        for seq in batch:
            logits = model.forward(seq[None, :-1], training=True, lengths=[len(seq) - 1])
            loss = cross_entropy(logits, seq[1:])
            loss.backward(np.asarray((len(seq) - 1) / count))
            total += loss.item() * (len(seq) - 1)
        adam_step(model.parameters(), optimizer, train_config.lr)
    for name, arr in packed.model.state_arrays().items():
        assert np.allclose(arr, model.params[name].data, rtol=0, atol=1e-12), name
    real = sum(len(s) - 1 for s in train_seqs)
    assert packed.logs[0].train_loss == pytest.approx(total / real, rel=1e-12, abs=0)
    assert packed.target_positions == real
    assert packed.padded_positions == padded > 0


def test_grad_norms_are_read_only():
    """A training pass that records each step's global gradient L2 norm
    leaves bitwise the weights of one that does not, and its last norm is
    that of the gradients Adam last received."""
    rng = np.random.default_rng(38)
    seqs = pair_like_sequences(rng, 4)
    runs = []
    for norms in (None, []):
        model = TransformerLM(TINY, seed=39)
        _epoch_pass(model, seqs, np.arange(4), 2, True, np.random.default_rng(40), AdamState(),
                    1e-3, norms)
        runs.append(model)
    assert len(norms) == 2
    grads = [t.grad for t in runs[1].parameters()]
    assert norms[-1] == pytest.approx(math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                                    for g in grads)), rel=1e-5)
    for a, b in zip(*(model.state_arrays().values() for model in runs)):
        assert np.array_equal(a, b)


def test_epoch_pass_losses_are_the_rows_own():
    """An eval pass over packed batches reports the mean loss, and the means
    before and after SEP, of every row's own forward, and counts its real and
    PAD targets."""
    config = ModelConfig(vocab_size=50, n_layers=1, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.0, dtype="float64")
    model = TransformerLM(config, seed=36)
    rng = np.random.default_rng(37)
    seqs = [pair_like_sequences(rng, 1, body=n)[0] for n in (2, 7, 4, 6)]
    seqs.append(np.array([BOS, 5, 6, EOS]))  # no SEP: all pre
    order = rng.permutation(len(seqs))
    with no_grad():
        loss, pre, post, real, padded = _epoch_pass(model, seqs, order, 4, False, None, None, 0.0)
        sums = np.zeros(3)
        counts = np.zeros(3)
        for seq in seqs:
            logits = model.forward(seq[None, :-1])
            _, each = cross_entropy(logits, seq[None, 1:], return_elementwise=True)
            sep = list(seq[:-1]).index(SEP) if SEP in seq[:-1] else len(seq)
            before = np.arange(1, len(seq)) <= sep
            for j, mask in enumerate((before | ~before, before, ~before)):
                sums[j] += each[0][mask].sum()
                counts[j] += mask.sum()
    assert np.allclose([loss, pre, post], sums / counts, rtol=1e-12, atol=0)
    assert real == counts[0]
    widths = [max(len(seqs[i]) for i in order[lo:lo + 4]) - 1 for lo in (0, 4)]
    assert padded == 4 * widths[0] + widths[1] - real


def test_train_schedules_and_stops_early():
    rng = np.random.default_rng(13)
    train_seqs = pair_like_sequences(rng, 6)
    val_seqs = pair_like_sequences(rng, 2)  # unrelated noise: val soon stops improving
    config = TrainConfig(max_epochs=60, batch_size=4, lr=1e-2, seed=0, scheduler_patience=0,
                         lr_floor=2.5e-3, early_stop_patience=5)
    result = train(train_seqs, val_seqs, TINY, config)
    assert len(result.logs) < 60  # early stop fired
    lrs = [log.lr for log in result.logs]
    assert min(lrs) < 1e-2  # plateau halved the rate at least once
    assert all(lr >= config.lr_floor for lr in lrs)
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # never increases


def test_train_stop_at_train_loss():
    rng = np.random.default_rng(14)
    result = train(
        pair_like_sequences(rng, 4),
        pair_like_sequences(rng, 2),
        TINY,
        TrainConfig(max_epochs=50, batch_size=4, scheduler_patience=48,
                    early_stop_patience=50, seed=0),
        stop_at_train_loss=100.0,
    )
    assert len(result.logs) == 1


def test_train_rejects_empty_sets():
    rng = np.random.default_rng(15)
    seqs = pair_like_sequences(rng, 2)
    with pytest.raises(ValueError, match="non-empty"):
        train([], seqs, TINY)
    with pytest.raises(ValueError, match="non-empty"):
        train(seqs, [], TINY)


def test_sep_split_masks():
    ids = np.array([
        [BOS, 10, SEP, 20, EOS, PAD],
        [BOS, 11, 12, 13, EOS, PAD],  # no SEP: everything counts as pre
    ])
    inputs, targets = ids[:, :-1], ids[:, 1:]
    pre, post = _sep_split_masks(targets, inputs)
    # row 0: predict 10 and SEP as pre; 20 and EOS as post; trailing PAD ignored
    assert pre[0].tolist() == [True, True, False, False, False]
    assert post[0].tolist() == [False, False, True, True, False]
    assert pre[1].tolist() == [True, True, True, True, False]
    assert post[1].tolist() == [False] * 5


# --- sampling ---------------------------------------------------------------------

FIXTURE_LOGITS = np.log(np.array([0.5, 0.3, 0.15, 0.05]))


def test_nucleus_sample_validation():
    rng = np.random.default_rng(0)
    for bad_p in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError, match="p must"):
            nucleus_sample(FIXTURE_LOGITS, bad_p, rng=rng)
    for bad_t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            nucleus_sample(FIXTURE_LOGITS, 0.9, temperature=bad_t, rng=rng)
    with pytest.raises(NonFiniteError):
        nucleus_sample(np.array([0.0, np.nan]), 0.9, rng=rng)
    # finite logits over a tiny temperature overflow; the draw would be PAD
    with pytest.raises(NonFiniteError, match="overflow at temperature 1e-310"):
        nucleus_sample(FIXTURE_LOGITS, 0.9, temperature=1e-310, rng=rng)
    with pytest.raises(ValueError, match="vector"):
        nucleus_sample(np.zeros((2, 2)), 0.9, rng=rng)


def test_nucleus_keeps_smallest_prefix_reaching_p():
    rng = np.random.default_rng(16)
    draws = [nucleus_sample(FIXTURE_LOGITS, 0.8, rng=rng) for _ in range(4000)]
    # 0.5 + 0.3 reaches 0.8 despite rounding to 0.7999...; renormalized to
    # 0.625 / 0.375 over tokens 0 and 1
    assert set(draws) == {0, 1}
    freq0 = draws.count(0) / len(draws)
    se = math.sqrt(0.625 * 0.375 / len(draws))
    assert abs(freq0 - 0.625) < 3 * se

    always = {nucleus_sample(FIXTURE_LOGITS, 0.5, rng=rng) for _ in range(200)}
    assert always == {0}


def test_nucleus_full_mass_keeps_everything():
    rng = np.random.default_rng(17)
    draws = [nucleus_sample(FIXTURE_LOGITS, 1.0, rng=rng) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3}


def test_nucleus_temperature_sharpens():
    rng = np.random.default_rng(18)
    cold = {nucleus_sample(FIXTURE_LOGITS, 1.0, temperature=0.05, rng=rng)
            for _ in range(200)}
    assert cold == {0}


def test_nucleus_tie_order_is_stable():
    rng = np.random.default_rng(19)
    flat = np.zeros(4)
    draws = {nucleus_sample(flat, 0.5, rng=rng) for _ in range(400)}
    assert draws == {0, 1}  # equal probabilities keep index order


def choice_nucleus_sample(logits, p, temperature, rng):
    """Reference: the nucleus as nucleus_sample builds it, drawn by rng.choice."""
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    keep = int(np.searchsorted(np.cumsum(probs[order]), p - 1e-9, side="left")) + 1
    kept = order[: min(keep, len(order))]
    return int(rng.choice(kept, p=probs[kept] / probs[kept].sum()))


def test_nucleus_draw_matches_rng_choice():
    """Same token and same generator state afterwards as rng.choice, over
    peaked, flat and tied rows at several p and temperatures."""
    rows = np.random.default_rng(25)
    for seed in range(300):
        logits = rows.standard_normal(int(rows.integers(2, 60))) * rows.choice([0.1, 1.0, 8.0])
        if seed % 7 == 0:
            logits[: len(logits) // 2] = 0.0  # ties
        p = float(rows.choice([0.3, 0.9, 1.0]))
        temperature = float(rows.choice([0.5, 1.0, 2.0]))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert nucleus_sample(logits, p, temperature, fast) == choice_nucleus_sample(
                logits, p, temperature, slow
            )
        assert fast.bit_generator.state == slow.bit_generator.state


def test_nucleus_draw_on_a_boundary_takes_the_next_token():
    """A uniform draw equal to a cumulative boundary falls to the token after
    it (searchsorted side="right", as rng.choice)."""

    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    flat = np.zeros(4)  # kept probabilities 0.25 each, boundaries exact
    assert [nucleus_sample(flat, 1.0, rng=Fixed(u)) for u in (0.0, 0.25, 0.5, 0.75)] == [0, 1, 2, 3]
    # 21 kept probabilities of 1/21 sum below 1 in floating point; the
    # renormalized cumulative still sends the largest draw to the last token
    assert nucleus_sample(np.zeros(21), 1.0, rng=Fixed(np.nextafter(1.0, 0.0))) == 20


# --- generation -------------------------------------------------------------------

class ScriptedModel:
    """Duck-typed stand-in: emits one peaked logit row per call."""

    def __init__(self, script, vocab=10, max_len=16):
        self.config = ModelConfig(
            vocab_size=vocab, n_layers=1, d_model=8, n_heads=2, d_ff=16,
            max_len=max_len, dropout=0.0,
        )
        self.script = list(script)
        self.calls = 0

    def forward(self, ids, training=False, rng=None, last_only=False, cache=None):
        token = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        row = np.full((1, 1, self.config.vocab_size), -30.0, dtype=np.float32)
        row[0, 0, token] = 30.0
        return Tensor(row)


def test_generate_follows_logits_and_stops_at_eos():
    model = ScriptedModel([5, 6, 7, EOS, 8])
    out = generate_batch(model, [[BOS, 4, SEP]], p=0.0)[0]  # greedy
    assert out == [5, 6, 7]
    assert model.calls == 4  # EOS step consumed, nothing after


def test_generate_respects_max_new_and_context_window():
    model = ScriptedModel([5] * 50)
    assert generate_batch(model, [[BOS]], p=0.0, max_new=7)[0] == [5] * 7
    small = ScriptedModel([5] * 50, max_len=6)
    assert generate_batch(small, [[BOS, 4, SEP, 4]], p=0.0, max_new=100)[0] == [5, 5]


def test_generate_nucleus_path_matches_peaked_logits():
    model = ScriptedModel([5, 6, EOS])
    out = generate_batch(model, [[BOS]], p=0.9, rngs=[np.random.default_rng(0)])[0]
    assert out == [5, 6]


def test_generate_validates_primer():
    model = ScriptedModel([5])
    with pytest.raises(ValueError, match="empty"):
        generate_batch(model, [[]])
    with pytest.raises(ValueError, match="context window"):
        generate_batch(model, [list(range(16))])


def test_generate_greedy_is_deterministic():
    model = TransformerLM(TINY, seed=20)
    a = generate_batch(model, [[1, 5, 9]], p=0.0, max_new=12)[0]
    b = generate_batch(model, [[1, 5, 9]], p=0.0, max_new=12)[0]
    assert a == b and len(a) <= 12


# --- cached decoding --------------------------------------------------------------

@pytest.mark.parametrize("dtype, tol", [("float32", 1e-5), ("float64", 1e-10)])
def test_cached_forward_matches_full_forward(dtype, tol):
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=20, dropout=0.1, dtype=dtype)
    model = TransformerLM(config, seed=21)
    ids = np.random.default_rng(22).integers(0, 50, size=(2, 20))
    full = reference_forward(model, ids)
    cache = KVCache(config, batch=2, capacity=config.max_len)
    start = 0
    with no_grad():
        for size in (7, 1, 4, 1, 1, 6):  # prefill, single steps, multi-token chunks
            got = model.forward(ids[:, start : start + size], cache=cache).data
            assert got.dtype == dtype
            assert np.abs(got - full[:, start : start + size]).max() < tol
            start += size
            last = model.forward(ids[:, :start], last_only=True).data
            assert np.abs(last - full[:, start - 1 : start]).max() < tol
    assert cache.lengths.tolist() == [config.max_len] * 2


def scaled_model(dtype, seed):
    """A random model whose weights are scaled so attention, not the
    residual, picks the argmax token."""
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=32, dropout=0.0, dtype=dtype)
    model = TransformerLM(config, seed=seed)
    for param in model.params.values():
        if param.ndim == 2:
            param.data *= 50
    return model


def uncached_greedy(model, primer, max_new):
    """Reference decoder: the reference forward over the whole context per token."""
    context, out = list(primer), []
    for _ in range(max_new):
        if len(context) >= model.config.max_len:
            break
        token = int(np.argmax(reference_forward(model, [context])[0, -1]))
        if token == EOS:
            break
        context.append(token)
        out.append(token)
    return out


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cached_greedy_generate_matches_uncached_loop(dtype):
    model = scaled_model(dtype, seed=23)
    for primer in ([BOS], [BOS, 7, 8, 9, SEP], list(range(4, 28))):
        want = uncached_greedy(model, primer, max_new=40)
        assert generate_batch(model, [primer], p=0.0, max_new=40)[0] == want
        assert len(primer) + len(want) == model.config.max_len  # ran into the context window


def test_cached_forward_rejects_training_gradients_and_overflow():
    model = TransformerLM(TINY, seed=24)
    ids = np.array([[1, 2, 3]])
    cache = KVCache(TINY, batch=1, capacity=TINY.max_len)
    with no_grad(), pytest.raises(ValueError, match="cannot train"):
        model.forward(ids, training=True, rng=np.random.default_rng(0), cache=cache)
    with pytest.raises(ValueError, match="gradients off"):
        model.forward(ids, cache=cache)
    with no_grad():
        with pytest.raises(ValueError, match="batch"):
            model.forward(np.zeros((2, 3), dtype=int), cache=cache)
        with pytest.raises(ValueError, match="no lengths"):
            model.forward(ids, cache=cache, lengths=[3])
        assert cache.lengths.tolist() == [0]  # a rejected forward leaves the cache as it was
        model.forward(np.zeros((1, TINY.max_len - 2), dtype=int), cache=cache)
        with pytest.raises(ValueError, match="length 3 outside 1..2"):
            model.forward(ids, cache=cache)
        model.forward(ids[:, :2], cache=cache)  # exactly fills the window
    assert cache.lengths.tolist() == [TINY.max_len]


def ragged_cache(model, primers, capacity):
    """A cache whose row i holds primers[i], each prefilled alone through row(i)."""
    cache = KVCache(model.config, batch=len(primers), capacity=capacity)
    with no_grad():
        for i, primer in enumerate(primers):
            model.forward(np.asarray([primer]), cache=cache.row(i))
    return cache


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-5), ("float64", 1e-10)])
def test_ragged_cached_decode_matches_full_forward(dtype, tol):
    """Rows of 3, 7 and 11 positions step together; at every step each row's
    logits match the reference forward of that row's whole context."""
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=20, dropout=0.0, dtype=dtype)
    model = TransformerLM(config, seed=26)
    rng = np.random.default_rng(27)
    contexts = [list(rng.integers(0, 50, size=n)) for n in (3, 7, 11)]
    cache = ragged_cache(model, contexts, capacity=16)
    assert cache.lengths.tolist() == [3, 7, 11]
    for _ in range(5):
        fed = rng.integers(0, 50, size=3)
        for context, token in zip(contexts, fed):
            context.append(int(token))
        with no_grad():
            got = model.forward(fed[:, None], cache=cache).data
            assert got.dtype == dtype
            for row, context in enumerate(contexts):
                want = reference_forward(model, [context])[0, -1:]
                assert np.abs(got[row] - want).max() < tol
    assert cache.lengths.tolist() == [8, 12, 16]


def test_ragged_cache_rejects_multi_token_and_row_overflow():
    model = TransformerLM(TINY, seed=28)
    cache = ragged_cache(model, [[1, 2], [3, 4, 5, 6]], capacity=6)
    before = [a.copy() for a in cache.keys + cache.values]

    def unchanged():
        assert cache.lengths.tolist() == [2, 4]
        assert all(np.array_equal(a, b) for a, b in zip(cache.keys + cache.values, before))

    with no_grad():
        with pytest.raises(ValueError, match="one token each"):
            model.forward(np.ones((2, 2), dtype=int), cache=cache)
        unchanged()
        model.forward(np.ones((2, 1), dtype=int), cache=cache)
        model.forward(np.ones((2, 1), dtype=int), cache=cache)  # the longer row is full
        before = [a.copy() for a in cache.keys + cache.values]
        with pytest.raises(ValueError, match="length 1 outside 1..0"):
            model.forward(np.ones((2, 1), dtype=int), cache=cache)
        assert cache.lengths.tolist() == [4, 6]
        assert all(np.array_equal(a, b) for a, b in zip(cache.keys + cache.values, before))
    with pytest.raises(ValueError, match="capacity"):
        KVCache(TINY, batch=1, capacity=TINY.max_len + 1)


def test_cache_keep_compacts_rows_in_place():
    """keep moves the kept rows' filled positions to the front of the buffers
    the cache already has and keeps views of them; a decode step after it
    matches the reference forward of each kept row's context, although a
    kept row's slots past its length hold a dropped row's keys."""
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=20, dropout=0.0, dtype="float64")
    model = TransformerLM(config, seed=39)
    contexts = [[1, 5, 9], [2, 6, 7, 7, 3, 8, 4], [3, 3], [9, 8, 7, 6, 5]]
    cache = ragged_cache(model, contexts, capacity=12)
    before = cache.keys + cache.values
    filled = [[a[i, :, : len(c)].copy() for a in before] for i, c in enumerate(contexts)]
    cache.keep([1, 3])
    assert cache.lengths.tolist() == [7, 5]
    for old, new in zip(before, cache.keys + cache.values):
        assert np.shares_memory(old, new) and new.shape == (2,) + old.shape[1:]
    for j, i in enumerate([1, 3]):
        for a, want in zip(cache.keys + cache.values, filled[i]):
            assert np.array_equal(a[j, :, : len(contexts[i])], want)
    fed = [11, 12]
    with no_grad():
        got = model.forward(np.asarray(fed)[:, None], cache=cache).data
    for j, i in enumerate([1, 3]):
        want = reference_forward(model, [contexts[i] + [fed[j]]])[0, -1]
        assert np.abs(got[j, 0] - want).max() < 1e-12


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-5), ("float64", 1e-12)])
@pytest.mark.parametrize("name", ["model1", "model2"])
def test_every_forward_path_matches_the_reference(name, dtype, tol):
    """Each preset's packed forward over rows of mixed lengths, its uncached
    last_only forward, and a cached last_only prefill of each row alone
    followed by ragged one-token decode steps agree with the reference."""
    model = TransformerLM(preset(name, 40, dtype=dtype), seed=40)
    rng = np.random.default_rng(41)
    seqs = [rng.integers(4, 40, size=n) for n in (70, 33, 6, 1)]
    ids = _pad_batch(seqs)
    lengths = np.array([len(s) for s in seqs])
    want = reference_forward(model, ids)

    def close(got, want):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol

    close(model.forward(ids, lengths=lengths).data, want[np.arange(70) < lengths[:, None]])
    close(model.forward(ids, last_only=True).data, want[:, -1:])
    cache = KVCache(model.config, batch=len(seqs), capacity=80)
    contexts = [list(s) for s in seqs]
    with no_grad():
        for i, context in enumerate(contexts):
            close(model.forward(np.asarray([context]), last_only=True, cache=cache.row(i)).data[0],
                  reference_forward(model, [context])[0, -1:])
        for _ in range(3):
            fed = rng.integers(4, 40, size=len(seqs))
            got = model.forward(fed[:, None], cache=cache).data
            for row, (context, token) in enumerate(zip(contexts, fed)):
                context.append(int(token))
                close(got[row], reference_forward(model, [context])[0, -1:])


def test_cache_is_head_major_and_attention_reads_it_in_place(monkeypatch):
    """The cache holds (B, H, capacity, d_h) buffers; a prefill and a ragged
    decode step write keys split into heads, and the keys and values
    attention reads are views of those buffers, not copies."""
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=20, dropout=0.0, dtype="float64")
    model = TransformerLM(config, seed=36)
    cache = KVCache(config, batch=2, capacity=12)
    assert [k.shape for k in cache.keys + cache.values] == [(2, 4, 12, 4)] * 4

    attention, read = autodiff.attention, []

    def recording(q, k, v, *args):
        read.append((k, v))
        return attention(q, k, v, *args)

    monkeypatch.setattr(autodiff, "attention", recording)
    primers = [[1, 5, 9], [2, 6, 7, 7, 3]]
    with no_grad():
        for i, primer in enumerate(primers):
            model.forward(np.asarray([primer]), last_only=True, cache=cache.row(i))
        model.forward(np.array([[4], [8]]), cache=cache)
    assert len(read) == 3 * config.n_layers
    for step, (k, v) in enumerate(read):
        layer, row = step % config.n_layers, step // config.n_layers
        rows = slice(row, row + 1) if row < 2 else slice(None)
        end = len(primers[row]) if row < 2 else 6
        assert k.shape == v.shape == (1 if row < 2 else 2, 4, end, 4)
        assert np.shares_memory(k, cache.keys[layer][rows])
        assert np.shares_memory(v, cache.values[layer][rows])

    # layer 0's keys, by hand: head h of position t holds columns [4h, 4h+4)
    p = model.params
    for i, context in enumerate(([1, 5, 9, 4], [2, 6, 7, 7, 3, 8])):
        x = p["tok_emb"].data[context] + p["pos_emb"].data[: len(context)]
        a = autodiff.layer_norm(Tensor(x), p["layer0.ln1.gain"], p["layer0.ln1.bias"]).data
        keys = a @ p["layer0.attn.wk"].data
        want = keys.reshape(len(context), 4, 4).transpose(1, 0, 2)
        assert np.allclose(cache.keys[0][i, :, : len(context)], want, rtol=0, atol=1e-12)
    assert not cache.keys[0][0, :, 4:].any()  # the shorter row's unread slots stay 0


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_last_only_forward_runs_its_final_query_side_on_one_position(dtype, tol, monkeypatch):
    """A last_only forward's final layer projects keys and values for every
    position but runs q, wo, the feed-forward and the output projection on
    the last position alone; its logits match the reference forward's last
    position and it fills a cache bitwise as a full-output prefill does."""
    config = ModelConfig(vocab_size=50, n_layers=2, d_model=16, n_heads=4, d_ff=32,
                         max_len=20, dropout=0.1, dtype=dtype)
    model = TransformerLM(config, seed=37)
    ids = np.random.default_rng(38).integers(0, 50, size=(2, 9))
    full = reference_forward(model, ids)

    names = {id(t): name for name, t in model.params.items()}
    matmul, seen = autodiff.matmul, []

    def recording(a, b, bias=None):
        seen.append((names.get(id(b), "output"), a.shape))
        return matmul(a, b, bias)

    monkeypatch.setattr(autodiff, "matmul", recording)
    last = model.forward(ids, last_only=True).data
    final = {name.split(".", 1)[1]: shape for name, shape in seen if name.startswith("layer1.")}
    assert final == {"attn.wk": (2, 9, 16), "attn.wv": (2, 9, 16), "attn.wq": (2, 1, 16),
                     "attn.wo": (2, 1, 16), "ff.w1": (2, 1, 16), "ff.w2": (2, 1, 32)}
    assert all(shape[1] == 9 for name, shape in seen if name.startswith("layer0."))
    assert seen[-1] == ("output", (2, 1, 16))
    assert last.shape == (2, 1, 50) and last.dtype == dtype
    assert np.abs(last[:, 0] - full[:, -1]).max() <= tol

    caches = [KVCache(config, batch=2, capacity=12) for _ in range(2)]
    with no_grad():
        model.forward(ids, cache=caches[0])
        model.forward(ids, last_only=True, cache=caches[1])
    for a, b in zip(caches[0].keys + caches[0].values, caches[1].keys + caches[1].values):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="takes lengths"):  # last_only is inference only
        model.forward(ids, training=True, rng=np.random.default_rng(0), last_only=True)


PRIMERS = ([BOS], [BOS, 7, 8, 9, SEP], list(range(4, 28)), [BOS, 11, 12, 13, 14, 15, 16, SEP])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_greedy_generate_batch_matches_per_row_generate(dtype):
    model = scaled_model(dtype, seed=23)
    for max_new in (3, 8, 40):  # rows leave the batch on max_new or the window
        want = [generate_batch(model, [primer], p=0.0, max_new=max_new)[0] for primer in PRIMERS]
        assert generate_batch(model, PRIMERS, p=0.0, max_new=max_new) == want
    # at 40 every row ran into the window, so the rows left at different steps
    assert [len(p) + len(w) for p, w in zip(PRIMERS, want)] == [model.config.max_len] * 4


def test_generate_batch_cache_is_sized_to_the_budget(monkeypatch):
    import overpaint.model as model_module

    capacities = []

    class Recording(KVCache):
        def __init__(self, config, batch, capacity):
            capacities.append(capacity)
            super().__init__(config, batch, capacity)

    monkeypatch.setattr(model_module, "KVCache", Recording)
    model = scaled_model("float32", seed=23)
    out = generate_batch(model, [[BOS, 4, 5], [BOS, 4, 5, 6, 7, 8, 9]], p=0.0, max_new=8)
    assert [len(o) for o in out] == [8, 8]  # both ran to the budget: no EOS
    assert capacities == [7 + 8 - 1]  # the longest row's last fed token fills it exactly
    generate_batch(model, PRIMERS, p=0.0, max_new=100)
    assert capacities[-1] == model.config.max_len


def test_generate_batch_reversed_order_permutes_outputs():
    model = TransformerLM(TINY, seed=29)
    primers = [[BOS, 5], [BOS, 6, 7, 8, SEP], [BOS] + list(range(4, 14))]
    seeds = [31, 32, 33]

    def run(order):
        rngs = [np.random.default_rng(seeds[i]) for i in order]
        return generate_batch(model, [primers[i] for i in order], p=0.9, max_new=12, rngs=rngs)

    forward = run([0, 1, 2])
    assert run([2, 1, 0]) == forward[::-1]
    for i in range(3):  # and each row is what it decodes alone from its stream
        assert generate_batch(model, [primers[i]], p=0.9, max_new=12,
                              rngs=[np.random.default_rng(seeds[i])])[0] == forward[i]


def test_generate_batch_validation():
    model = TransformerLM(TINY, seed=30)
    assert generate_batch(model, [], p=0.0) == []
    assert generate_batch(model, [[BOS]], p=0.0, max_new=0) == [[]]
    with pytest.raises(ValueError, match="generators"):
        generate_batch(model, [[BOS], [BOS]], rngs=[np.random.default_rng(0)])
    with pytest.raises(ValueError, match="empty"):
        generate_batch(model, [[BOS], []])
    with pytest.raises(ValueError, match="context window"):
        generate_batch(model, [[BOS], list(range(TINY.max_len))])
