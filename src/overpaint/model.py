"""Decoder-only transformer for token-pair continuation, plus training loop,
checkpoint format, and nucleus sampling.

The model is pre-norm: token + learned absolute position embeddings, then
blocks of causal multi-head self-attention and a gelu feed-forward, each with
residual connections, a final layer norm, and a tied-embedding output
projection. All math runs on the in-package autodiff engine.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, NonFiniteError, Tensor
from .tokenizer import EOS, MAX_LEN, PAD, SEP

CHECKPOINT_MAGIC = b"OVPT"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Unreadable checkpoint or configuration mismatch."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 8
    d_ff: int = 256
    max_len: int = MAX_LEN
    dropout: float = 0.1
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"bad dtype {self.dtype}")
        try:
            ad._quantised_rate(self.dropout)
        except ValueError as exc:
            raise ValueError(f"bad dropout {self.dropout}") from exc


def preset(name: str, vocab_size: int, **overrides) -> ModelConfig:
    """The two published model sizes."""
    presets = {
        "model1": dict(n_layers=2, d_model=64, n_heads=8, d_ff=256),
        "model2": dict(n_layers=4, d_model=128, n_heads=8, d_ff=512),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r} (expected model1 or model2)")
    return ModelConfig(vocab_size=vocab_size, **{**presets[name], **overrides})


_INIT_STD = 0.02


def _param_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's name -> (shape, initialiser), in the order their
    random draws are taken at initialisation."""
    d, f = config.d_model, config.d_ff
    specs = {"tok_emb": ((config.vocab_size, d), "normal"),
             "pos_emb": ((config.max_len, d), "normal")}
    for i in range(config.n_layers):
        layer = f"layer{i}."
        specs[layer + "ln1.gain"] = ((d,), "ones")
        specs[layer + "ln1.bias"] = ((d,), "zeros")
        for name in ("wq", "wk", "wv", "wo"):
            specs[layer + "attn." + name] = ((d, d), "normal")
        for name in ("bq", "bv", "bo"):  # no key bias: softmax ignores a shift shared by every key
            specs[layer + "attn." + name] = ((d,), "zeros")
        specs[layer + "ln2.gain"] = ((d,), "ones")
        specs[layer + "ln2.bias"] = ((d,), "zeros")
        specs[layer + "ff.w1"] = ((d, f), "normal")
        specs[layer + "ff.b1"] = ((f,), "zeros")
        specs[layer + "ff.w2"] = ((f, d), "normal")
        specs[layer + "ff.b2"] = ((d,), "zeros")
    specs["final_ln.gain"] = ((d,), "ones")
    specs["final_ln.bias"] = ((d,), "zeros")
    return specs


def _checked_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copies of `arrays` at the model's dtype, in parameter order, once their
    names and shapes match the configuration's parameters."""
    specs = _param_specs(config)
    missing = set(specs) ^ set(arrays)
    if missing:
        raise CheckpointError(f"parameter set mismatch: {sorted(missing)}")
    out = {}
    for name, (shape, _) in specs.items():
        arr = np.array(arrays[name], dtype=config.dtype)
        if arr.shape != shape:
            raise CheckpointError(f"shape mismatch for {name}: {arr.shape} vs {shape}")
        out[name] = arr
    return out


class KVCache:
    """Keys and values of the positions a model has already read, so that a
    cached forward computes only the positions it is given.

    Holds, per layer, head-major (batch, n_heads, capacity, d_head) key and
    value buffers at the model's dtype, the layout attention reads, where
    capacity <= max_len is the most positions any row will read; row b has
    `lengths[b]` positions filled.
    """

    def __init__(self, config: ModelConfig, batch: int, capacity: int):
        if batch < 1 or not 1 <= capacity <= config.max_len:
            raise ValueError(f"bad cache: batch {batch}, capacity {capacity} (max_len {config.max_len})")
        shape = (batch, config.n_heads, capacity, config.d_model // config.n_heads)
        self.capacity = capacity
        # zeros, not empty: a shorter row's unread slots meet a zero attention
        # weight, and 0 * NaN would poison its output
        self.keys = [np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)]
        self.values = [np.zeros(shape, dtype=config.dtype) for _ in range(config.n_layers)]
        self.lengths = np.zeros(batch, dtype=np.int64)

    @property
    def batch(self) -> int:
        return len(self.lengths)

    def row(self, i: int) -> KVCache:
        """A one-row cache over row i's slice of the buffers and `lengths`, so
        a forward through it fills this cache's row i in place."""
        view = KVCache.__new__(KVCache)
        view.capacity = self.capacity
        view.keys = [k[i : i + 1] for k in self.keys]
        view.values = [v[i : i + 1] for v in self.values]
        view.lengths = self.lengths[i : i + 1]
        return view

    def keep(self, rows) -> None:
        """Keep only the given rows, in that order: their filled positions
        move to the front of each buffer, in place, and the cache keeps views
        of its first len(rows) rows. A kept row's slots past its length may
        then hold a dropped row's keys; attention hides them (key_lengths)."""
        lengths = self.lengths[rows]
        filled = int(lengths.max())
        for buffer in self.keys + self.values:
            buffer[: len(lengths), :, :filled] = buffer[rows, :, :filled]
        self.keys = [k[: len(lengths)] for k in self.keys]
        self.values = [v[: len(lengths)] for v in self.values]
        self.lengths = lengths

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Write one layer's new (B, L, D) key/value rows, split into heads,
        after each row's filled ones, and return views of the head-major keys
        and values up to the longest row's new end."""
        keys, values = self.keys[layer], self.values[layer]
        batch, heads, _, d_head = keys.shape
        positions = self.lengths[:, None] + np.arange(k.shape[1])
        rows = np.arange(batch)[:, None]
        # indices either side of a slice put the (B, L) index axes first
        keys[rows, :, positions] = k.data.reshape(batch, -1, heads, d_head)
        values[rows, :, positions] = v.data.reshape(batch, -1, heads, d_head)
        end = int(self.lengths.max()) + k.shape[1]
        return keys[:, :, :end], values[:, :, :end]


class TransformerLM:
    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)

        def init(shape: tuple[int, ...], kind: str) -> np.ndarray:
            if kind == "normal":
                return rng.normal(0.0, _INIT_STD, size=shape).astype(config.dtype)
            return (np.ones if kind == "ones" else np.zeros)(shape, dtype=config.dtype)

        self.config = config
        self.params: dict[str, Tensor] = {
            name: Tensor(init(*spec))
            for name, spec in _param_specs(config).items()
        }

    @classmethod
    def from_state_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> TransformerLM:
        """A model holding copies of `arrays`, built without drawing weights."""
        model = cls.__new__(cls)
        model.config = config
        model.params = {
            name: Tensor(arr)
            for name, arr in _checked_arrays(config, arrays).items()
        }
        return model

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    @staticmethod
    def expected_param_count(config: ModelConfig) -> int:
        """Closed form for the parameter total (tied output adds nothing)."""
        d, f = config.d_model, config.d_ff
        per_layer = 2 * d + 4 * d * d + 3 * d + 2 * d + (d * f + f) + (f * d + d)
        return (
            config.vocab_size * d
            + config.max_len * d
            + config.n_layers * per_layer
            + 2 * d
        )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(
        self,
        ids: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        cache: KVCache | None = None,
        lengths: np.ndarray | None = None,
    ) -> Tensor:
        """Logits over the vocabulary, from one of two paths: exactly one of
        `lengths` and `cache` picks it.

        `ids` is (B, L) int; positions beyond max_len are rejected.

        Packed (training and validation): `lengths`, a (B,) array in 1..L,
        marks a right-padded batch whose row b is padding from position
        lengths[b] on. The forward packs the N = sum(lengths) real positions
        once, at the embeddings, so every op runs on those alone, and returns
        their (N, V) logits in row order. Dropout runs only when training with
        a generator supplied.

        Cached (generation): each row of `ids` continues that row's positions
        in `cache`: it attends to its cached keys and values, and its own are
        appended. Rows may have read different numbers of positions only when
        each is given one token. It needs autodiff.no_grad and training off,
        and returns each row's next-token logits, (B, 1, V): the final layer
        projects keys and values for every position (they fill the cache) but
        runs the queries, attention, feed-forward and output projection on the
        last position alone.
        """
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError("ids must be (batch, length)")
        if (cache is None) == (lengths is None):
            raise ValueError("a forward takes lengths or a cache, not both or neither")
        batch, length = ids.shape
        room, start, key_lengths = cfg.max_len, 0, None
        if cache is not None:
            if training:
                raise ValueError("a cached forward cannot train")
            if ad._grad_enabled:
                raise ValueError("a cached forward needs gradients off (autodiff.no_grad)")
            if batch != cache.batch:
                raise ValueError(f"batch {batch} does not match the cache's {cache.batch}")
            if length > 1 and (cache.lengths != cache.lengths[0]).any():
                raise ValueError("rows of different cached lengths take one token each")
            room = cache.capacity - int(cache.lengths.max())
            start, key_lengths = cache.lengths[:, None], cache.lengths + length
        if length < 1 or length > room:
            raise ValueError(f"sequence length {length} outside 1..{room}")
        tokens, positions = ids, start + np.arange(length)
        if lengths is not None:
            lengths = np.asarray(lengths)
            if lengths.shape != (batch,) or not ((lengths >= 1) & (lengths <= length)).all():
                raise ValueError(f"lengths must be {batch} lengths in 1..{length}")
            real = np.arange(length) < lengths[:, None]
            tokens, positions = ids[real], np.nonzero(real)[1]
        use_dropout = training and cfg.dropout > 0.0
        if use_dropout and rng is None:
            raise ValueError("training forward needs an rng for dropout")
        p = self.params

        x = ad.add(ad.embedding_lookup(p["tok_emb"], tokens),
                   ad.embedding_lookup(p["pos_emb"], positions))
        if use_dropout:
            x = ad.dropout(x, cfg.dropout, rng)
        attn_p = cfg.dropout if use_dropout else 0.0

        for i in range(cfg.n_layers):
            layer = f"layer{i}."
            a = ad.layer_norm(x, p[layer + "ln1.gain"], p[layer + "ln1.bias"])
            k = ad.matmul(a, p[layer + "attn.wk"])
            v = ad.matmul(a, p[layer + "attn.wv"], p[layer + "attn.bv"])
            if cache is not None:
                k, v = cache.extend(i, k, v)
            if cache is not None and i == cfg.n_layers - 1:
                # k and v above cover (and cache) every position; from here
                # on only the last position's query side reaches the logits
                a, x = (Tensor(t.data[:, -1:]) for t in (a, x))
            q = ad.matmul(a, p[layer + "attn.wq"], p[layer + "attn.bq"])
            attn = ad.attention(q, k, v, cfg.n_heads, attn_p, rng, key_lengths, lengths)
            attn = ad.matmul(attn, p[layer + "attn.wo"], p[layer + "attn.bo"])
            if use_dropout:
                attn = ad.dropout(attn, cfg.dropout, rng)
            x = ad.add(x, attn)

            fin = ad.layer_norm(x, p[layer + "ln2.gain"], p[layer + "ln2.bias"])
            hidden = ad.gelu(ad.matmul(fin, p[layer + "ff.w1"], p[layer + "ff.b1"]))
            ff = ad.matmul(hidden, p[layer + "ff.w2"], p[layer + "ff.b2"])
            if use_dropout:
                ff = ad.dropout(ff, cfg.dropout, rng)
            x = ad.add(x, ff)
        if cache is not None:
            cache.lengths += length  # in place: a row() view updates its parent

        x = ad.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
        return ad.matmul(x, ad.transpose2d(p["tok_emb"]))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}


# --- checkpoints ----------------------------------------------------------------


def save_checkpoint(
    path, model: TransformerLM, vocab_hash: str, epoch: int, val_loss: float
) -> None:
    """OVPT container: magic, version, JSON metadata, little-endian blobs at
    the model's dtype."""
    meta = {
        "config": asdict(model.config),
        "vocab_hash": vocab_hash,
        "epoch": epoch,
        "val_loss": val_loss,
    }
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    blob_dtype = np.dtype(model.config.dtype).newbyteorder("<")
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(meta_blob))
    out += meta_blob
    items = sorted(model.params.items())
    out += struct.pack("<I", len(items))
    for name, p in items:
        encoded = name.encode()
        out += struct.pack("<H", len(encoded))
        out += encoded
        arr = p.data.astype(blob_dtype, copy=False)
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> tuple[TransformerLM, dict]:
    """Reads version 2, and version 1 (little-endian f4 blobs, plus each
    layer's key bias `attn.bk`, which must be all zeros and is dropped)."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    (version,) = struct.unpack("<I", data[4:8])
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", data[8:12])
    try:
        meta = json.loads(data[12 : 12 + meta_len])
        config = ModelConfig(**meta["config"])
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint metadata: {exc}") from exc
    blob_dtype = np.dtype("<f4" if version == 1 else config.dtype).newbyteorder("<")
    pos = 12 + meta_len
    arrays: dict[str, np.ndarray] = {}
    try:
        (n_blobs,) = struct.unpack("<I", data[pos : pos + 4])
        pos += 4
        for _ in range(n_blobs):
            (name_len,) = struct.unpack("<H", data[pos : pos + 2])
            pos += 2
            name = data[pos : pos + name_len].decode()
            pos += name_len
            ndim = data[pos]
            pos += 1
            shape = struct.unpack(f"<{ndim}I", data[pos : pos + 4 * ndim])
            pos += 4 * ndim
            size = (int(np.prod(shape)) if ndim else 1) * blob_dtype.itemsize
            # a view, not a slice copy: each blob is copied once, into the model
            blob = memoryview(data)[pos : pos + size]
            if len(blob) != size:
                raise CheckpointError(f"truncated blob for {name}")
            arrays[name] = np.frombuffer(blob, dtype=blob_dtype).reshape(shape)
            pos += size
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} bytes after the last blob")
    if version == 1:
        for name in [name for name in arrays if name.endswith("attn.bk")]:
            if arrays.pop(name).any():
                raise CheckpointError(f"version 1 key bias {name} is not all zeros")
    return TransformerLM.from_state_arrays(config, arrays), meta


# --- training -------------------------------------------------------------------


_SCHEDULER_FACTOR = 0.5  # the plateau scheduler's lr multiplier


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    batch_size: int = 16
    lr: float = 1e-3
    scheduler_patience: int = 5
    lr_floor: float = 1e-5
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.early_stop_patience <= self.scheduler_patience:
            raise ValueError("early_stop_patience must exceed scheduler_patience")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(
                f"bad training configuration: lr must be finite and positive, got {self.lr}"
            )
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("bad training configuration")
        if self.seed < 0:
            raise ValueError(
                f"bad training configuration: seed must be 0 or more, got {self.seed}"
            )


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    pre_sep_loss: float
    post_sep_loss: float
    seconds: float
    tokens_per_s: float  # real train targets / seconds
    grad_norm: float  # mean over the epoch's steps of the gradients' global L2 norm


@dataclass
class TrainResult:
    model: TransformerLM
    best_epoch: int
    best_val_loss: float
    logs: list[EpochLog] = field(default_factory=list)
    target_positions: int = 0  # real (non-PAD) targets of every training step
    padded_positions: int = 0  # PAD targets those steps' batches were padded with


def _pad_batch(seqs: list[np.ndarray]) -> np.ndarray:
    width = max(len(s) for s in seqs)
    batch = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        batch[i, : len(s)] = s
    return batch


def _sep_split_masks(targets: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks over target positions: predicting tokens up to and including SEP
    versus after it. Sequences with no SEP count entirely as pre."""
    is_sep = ids == SEP
    sep_at = np.where(is_sep.any(axis=1), is_sep.argmax(axis=1), ids.shape[1])
    before = np.arange(1, targets.shape[1] + 1) <= sep_at[:, None]
    valid = targets != PAD
    return valid & before, valid & ~before


def _epoch_pass(
    model: TransformerLM,
    sequences: list[np.ndarray],
    order: np.ndarray,
    batch_size: int,
    train: bool,
    rng: np.random.Generator | None,
    optimizer: AdamState | None,
    lr: float,
    grad_norms: list[float] | None = None,
) -> tuple[float, float, float, int, int]:
    """One pass over `sequences`; returns (loss, pre_sep_loss, post_sep_loss,
    real target positions, PAD target positions). A training pass appends
    each step's global gradient L2 norm, as Adam receives it, to `grad_norms`."""
    total = np.zeros(3)
    counts = np.zeros(3)
    cells = 0
    for lo in range(0, len(order), batch_size):
        chunk = [sequences[i] for i in order[lo : lo + batch_size]]
        ids = _pad_batch(chunk)
        inputs, targets = ids[:, :-1], ids[:, 1:]
        cells += targets.size
        # each row's inputs before its padding; the forward packs them, as do the targets
        lengths = np.array([len(s) - 1 for s in chunk])
        real = np.arange(inputs.shape[1]) < lengths[:, None]
        packed = targets[real]
        with contextlib.nullcontext() if train else ad.no_grad():
            logits = model.forward(inputs, training=train, rng=rng, lengths=lengths)
            loss, per_position = ad.cross_entropy(
                logits, packed, ignore_index=PAD, return_elementwise=True
            )
        if train:
            model.zero_grad()
            loss.backward()
            if grad_norms is not None:
                grads = [t.grad for t in model.parameters() if t.grad is not None]
                grad_norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
            ad.adam_step(model.parameters(), optimizer, lr)
        if not math.isfinite(loss.item()):
            raise NonFiniteError("training loss diverged")
        pre_mask, post_mask = _sep_split_masks(targets, inputs)
        for j, mask in enumerate((packed != PAD, pre_mask[real], post_mask[real])):
            total[j] += float(per_position[mask].sum())
            counts[j] += int(mask.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, total / np.maximum(counts, 1), math.nan)
    real = int(counts[0])
    return float(means[0]), float(means[1]), float(means[2]), real, cells - real


def train(
    train_sequences: list[np.ndarray],
    val_sequences: list[np.ndarray],
    model_config: ModelConfig,
    train_config: TrainConfig = TrainConfig(),
    log_path=None,
    stop_at_train_loss: float | None = None,
    progress=None,
) -> TrainResult:
    """Train from scratch with Adam, a reduce-on-plateau schedule, and early
    stopping on validation loss; the best-validation weights are returned.

    All randomness (init, shuffling, dropout) derives from train_config.seed.
    """
    if not train_sequences or not val_sequences:
        raise ValueError("need non-empty train and val sets")
    longest = model_config.max_len + 1  # inputs are a sequence without its last token
    for split, seqs in (("train", train_sequences), ("val", val_sequences)):
        for i, seq in enumerate(seqs):
            if not 2 <= len(seq) <= longest:  # at least one input and one target
                raise ValueError(f"{split} sequence {i} has {len(seq)} tokens; 2 to {longest} fit")
    seeds = np.random.SeedSequence(train_config.seed).spawn(3)
    init_seed = int(seeds[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    model = TransformerLM(model_config, seed=init_seed)
    optimizer = AdamState()
    lr = train_config.lr
    best_val = math.inf
    best_epoch = 0
    best_state = model.state_arrays()
    bad_for_scheduler = 0
    bad_for_stop = 0
    logs: list[EpochLog] = []
    target_positions = padded_positions = 0

    log = open(log_path, "w", newline="", encoding="utf-8") if log_path else contextlib.nullcontext()
    with log as log_file:
        writer = csv.writer(log_file) if log_file else None
        if writer:
            writer.writerow([f.name for f in fields(EpochLog)])
        for epoch in range(1, train_config.max_epochs + 1):
            t0 = time.monotonic()
            order = shuffle_rng.permutation(len(train_sequences))
            norms: list[float] = []
            train_loss, pre_loss, post_loss, real, padded = _epoch_pass(
                model, train_sequences, order, train_config.batch_size,
                True, dropout_rng, optimizer, lr, norms,
            )
            target_positions += real
            padded_positions += padded
            val_loss, *_ = _epoch_pass(
                model, val_sequences, np.arange(len(val_sequences)),
                train_config.batch_size, False, None, None, lr,
            )
            seconds = time.monotonic() - t0
            entry = EpochLog(epoch, lr, train_loss, val_loss, pre_loss, post_loss, seconds,
                             real / seconds, sum(norms) / len(norms))
            logs.append(entry)
            if writer:
                writer.writerow(
                    [epoch, repr(lr), repr(train_loss), repr(val_loss),
                     repr(pre_loss), repr(post_loss), f"{seconds:.3f}",
                     f"{entry.tokens_per_s:.1f}", repr(entry.grad_norm)]
                )
            if progress:
                progress(entry)

            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = model.state_arrays()
                bad_for_scheduler = 0
                bad_for_stop = 0
            else:
                bad_for_scheduler += 1
                bad_for_stop += 1
                if bad_for_scheduler > train_config.scheduler_patience:
                    lr = max(lr * _SCHEDULER_FACTOR, train_config.lr_floor)
                    bad_for_scheduler = 0
                if bad_for_stop >= train_config.early_stop_patience:
                    break
            if stop_at_train_loss is not None and train_loss < stop_at_train_loss:
                break

    model = TransformerLM.from_state_arrays(model_config, best_state)
    return TrainResult(model, best_epoch, best_val, logs, target_positions, padded_positions)


# --- sampling -------------------------------------------------------------------


def nucleus_sample(
    logits: np.ndarray,
    p: float,
    temperature: float = 1.0,
    *,
    rng: np.random.Generator,
) -> int:
    """Sample from the smallest probability prefix reaching mass p.

    Logits scale by 1/temperature, pass through a stable softmax, sort
    descending (stable, so equal probabilities keep index order), and the
    kept prefix renormalizes before one draw. The mass comparison allows
    1e-9 of rounding slack so accumulated float error cannot pull an extra
    token into the nucleus. The draw inverts the kept prefix's cumulative
    distribution at one rng.random(), as rng.choice(kept, p=...) does, so it
    returns the same token and consumes the generator alike.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("logits must be a vector")
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits passed to nucleus_sample")

    with np.errstate(over="ignore"):
        scaled = logits / temperature
    if not np.isfinite(scaled).all():
        raise NonFiniteError(f"logits overflow at temperature {temperature}")
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    keep = int(np.searchsorted(cumulative, p - 1e-9, side="left")) + 1
    keep = min(keep, len(order))
    kept = order[:keep]
    kept_probs = probs[kept] / probs[kept].sum()
    cdf = np.cumsum(kept_probs)
    cdf /= cdf[-1]
    return int(kept[cdf.searchsorted(rng.random(), side="right")])


def generate_batch(
    model: TransformerLM,
    primers: list[list[int] | np.ndarray],
    p: float = 0.9,
    temperature: float = 1.0,
    max_new: int = 512,
    *,
    rngs: list[np.random.Generator],
) -> list[list[int]]:
    """Continue several BOS...SEP primers together, primer i sampling from
    rngs[i]; returns each one's new tokens (EOS excluded), as a batch of that
    primer and generator alone would. p <= 0 decodes greedily.

    Each primer is read once, alone (prefill) into its row of one cache sized
    to the decode budget. Then every step feeds all unfinished rows their
    last sampled token at once; a row leaves the batch when it samples EOS,
    reaches max_new tokens or fills the context window.
    """
    primers = [[int(t) for t in primer] for primer in primers]
    max_len = model.config.max_len
    for primer in primers:
        if not primer:
            raise ValueError("empty primer")
        if len(primer) >= max_len:
            raise ValueError("primer already fills the context window")
    if len(rngs) != len(primers):
        raise ValueError(f"{len(rngs)} generators for {len(primers)} primers")
    outs: list[list[int]] = [[] for _ in primers]
    if not primers or max_new < 1:
        return outs

    # A row is fed its last token only while it has fewer than max_new and
    # the context has room, so no row ever holds more positions than this.
    capacity = min(max_len, max(len(primer) for primer in primers) + max_new - 1)
    cache = KVCache(model.config, len(primers), capacity)
    with ad.no_grad():
        rows = [
            model.forward(np.asarray([primer]), cache=cache.row(i)).data[0, 0]
            for i, primer in enumerate(primers)
        ]
        live = list(range(len(primers)))
        while True:
            kept, fed = [], []
            for j, i in enumerate(live):
                row = rows[j]
                token = int(np.argmax(row)) if p <= 0 else nucleus_sample(row, p, temperature, rng=rngs[i])
                if token == EOS:
                    continue
                outs[i].append(token)
                if len(outs[i]) < max_new and len(primers[i]) + len(outs[i]) < max_len:
                    kept.append(j)
                    fed.append(token)
            if not kept:
                break
            if len(kept) < len(live):
                cache.keep(kept)
                live = [live[j] for j in kept]
            rows = model.forward(np.asarray(fed)[:, None], cache=cache).data[:, 0]
    return outs
