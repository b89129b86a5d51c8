"""Shared builders for synthetic test data (scores, lead sheets,
performances, checkpoints), plain numpy references for attention and the
model, and the finite-difference gradient checker."""

import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from overpaint import autodiff
from overpaint.leadsheet import original_segments, parse_leadsheet
from overpaint.midi_io import MidiScore, NoteEvent, make_score

# Offsets into a major scale (semitones above the tonic) used to lay melodies.
_MELODY_PATTERN = (0, 4, 7, 2, 5, 9, 4, 12)

# (title, sheet file stem, key line, one chord bar per entry, melody base pitch)
SONG_SPECS = [
    (
        "Blue Garden",
        "blue_garden",
        "C major",
        ["C . . .", "Am . . .", "F . . .", "G7 . . .",
         "Em . . .", "Dm7 . G7 .", "C . . .", "C . . ."],
        72,
    ),
    (
        "Red Harbor",
        "red_harbor",
        "Eb major",
        ["Eb . . .", "Cm . . .", "Ab . . .", "Bb7 . . .",
         "Gm . . .", "Fm7 . Bb7 .", "Eb . . .", "Eb . . ."],
        75,
    ),
    (
        "Green Lantern",
        "green_lantern",
        "G major",
        ["G . . .", "Em . . .", "C . . .", "D7 . . .",
         "Bm . . .", "Am7 . D7 .", "G . . .", "G . . ."],
        67,
    ),
]


def song_text(title: str, key: str, bars: list[str], base_pitch: int) -> str:
    lines = [f"title: {title}", f"key: {key}", "time: 4/4"]
    lines += [f"| {bar} |" for bar in bars]
    lines.append("melody:")
    for bar in range(len(bars)):
        for beat in range(4):
            offset = _MELODY_PATTERN[(bar * 4 + beat) % len(_MELODY_PATTERN)]
            lines.append(f"{bar}.{beat} {base_pitch + offset} 1")
    return "\n".join(lines) + "\n"


def corpus_texts() -> dict[str, str]:
    """Sheet stem -> lead sheet text, for the three-song test corpus."""
    return {
        stem: song_text(title, key, bars, base)
        for title, stem, key, bars, base in SONG_SPECS
    }


def realize_performance(sheet_text: str) -> MidiScore:
    """Verbatim block-chord realization of a whole sheet, as the 'performance'."""
    sheet = parse_leadsheet(sheet_text)
    segments = original_segments(sheet, window=sheet.n_bars)
    assert len(segments) == 1
    return segments[0].score


def write_corpus(root):
    """Lay out leadsheets/ and performances/ dirs; returns (sheets_dir, perf_dir).

    Performance file names differ from sheet stems in case and separators so
    song matching has to normalize.
    """
    sheets_dir = root / "leadsheets"
    perf_dir = root / "performances"
    sheets_dir.mkdir(parents=True, exist_ok=True)
    perf_dir.mkdir(parents=True, exist_ok=True)
    from overpaint.midi_io import save_midi

    for title, stem, key, bars, base in SONG_SPECS:
        text = song_text(title, key, bars, base)
        (sheets_dir / f"{stem}.txt").write_text(text, encoding="utf-8")
        save_midi(realize_performance(text), perf_dir / f"{title}.mid")
    return sheets_dir, perf_dir


def simple_score(pitches, onset_step: Fraction = Fraction(1), duration=Fraction(1),
                 velocity: int = 80) -> MidiScore:
    """One note per grid step at the given pitches; quick metric fodder."""
    notes = [
        NoteEvent(p, i * onset_step, Fraction(duration), velocity)
        for i, p in enumerate(pitches)
    ]
    return make_score(notes=notes)


def score_from_tuples(rows) -> MidiScore:
    """Rows of (pitch, onset, duration, velocity) with Fraction-friendly values."""
    notes = [
        NoteEvent(p, Fraction(o), Fraction(d), v)
        for p, o, d, v in rows
    ]
    return make_score(notes=notes)


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
        probes = [autodiff.Tensor(d.copy()) for d in datas]
        with autodiff.no_grad():
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


def keep_masks(rng, p, n_heads, lengths, keys=None):
    """Attention's dropout keep masks, drawn as the op draws them, as one
    (B, H, L, L or keys) bool array, L = max(lengths); entries the op never
    scores are True. Packed (keys None): each row is tiled on its own over
    its own keys, one uint16 (H, rows, visible keys) draw per block, rows in
    order and each row's tiles in order. Cached (every row of length L,
    after keys - L cached keys): one (B, H, rows, visible keys) draw per
    tile, in tile order."""
    lengths = np.asarray(lengths)
    length, tile = int(lengths.max()), autodiff._QUERY_TILE
    keep = np.ones((len(lengths), n_heads, length, keys or length), dtype=bool)
    threshold = round(p * 65536)
    # (batch rows, their length, keys before the first query, leading draw axes)
    spans = [(slice(b, b + 1), n, 0, ()) for b, n in enumerate(lengths)]
    if keys is not None:
        spans = [(slice(None), length, keys - length, (len(lengths),))]
    for rows, n, offset, lead in spans:
        for s in range(0, n, tile):
            e = min(s + tile, n)
            draw = rng.integers(0, 65536, size=(*lead, n_heads, e - s, e + offset), dtype=np.uint16)
            keep[rows, :, s:e, : e + offset] = draw >= threshold
    return keep


def same_stream(a, b):
    """Whether generators a and b give the same draws from here on: their bit
    generators' states agree, the buffered 32-bit half counting only while
    one is held (a raw-word read leaves a stale, unused one behind)."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["state"] == sb["state"] and sa["has_uint32"] == sb["has_uint32"]
            and (not sa["has_uint32"] or sa["uinteger"] == sb["uinteger"]))


def per_head_attention(q, k, v, n_heads, p=0.0, rng=None, packed=False):
    """Reference attention on (B, Lq, D) queries, the last Lq of (B, Lk, D)
    keys and values: slice each head, mask, softmax, dropout, concat, with
    the dropout masks of keep_masks (the packed op's draw order when
    `packed`, with Lq == Lk) and the scale 1 / (1 - p quantised to
    1/65536)."""
    batch, length, width = q.shape
    keys = k.shape[1]
    d_head = width // n_heads
    upper = np.triu(np.full((length, keys), -1e9), k=1 + keys - length)
    if p > 0:
        keep = keep_masks(rng, p, n_heads, [length] * batch, None if packed else keys)
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


def per_head_attention_grads(q, k, v, g, n_heads, keep=None, p=0.0):
    """q, k and v gradients of causal self-attention on (B, L, D) rows for the
    output gradient g, per head in float64, through the textbook softmax
    Jacobian P * (dP - rowsum(dP * P)); `keep`, a (B, H, L, L) bool array, is
    the dropout mask, and what it keeps is scaled by 1 / (1 - p quantised to
    1/65536)."""
    q, k, v, g = (np.asarray(x, dtype=np.float64) for x in (q, k, v, g))
    length, width = q.shape[1:]
    d_head = width // n_heads
    upper = np.triu(np.full((length, length), -1e9), k=1)
    scale = 1.0 / (1.0 - round(p * 65536) / 65536)
    grads = [np.zeros_like(x) for x in (q, k, v)]
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, :, cols] @ np.swapaxes(k[:, :, cols], -1, -2) / math.sqrt(d_head) + upper
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        dropped = weights if keep is None else weights * keep[:, h] * scale
        g_weights = g[:, :, cols] @ np.swapaxes(v[:, :, cols], -1, -2)
        if keep is not None:
            g_weights = g_weights * keep[:, h] * scale
        g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        g_scores /= math.sqrt(d_head)
        grads[0][:, :, cols] = g_scores @ k[:, :, cols]
        grads[1][:, :, cols] = np.swapaxes(g_scores, -1, -2) @ q[:, :, cols]
        grads[2][:, :, cols] = np.swapaxes(dropped, -1, -2) @ g[:, :, cols]
    return grads


def _layer_norm(x, gain, bias):
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias


def reference_forward(model, ids):
    """A TransformerLM's (B, L, V) logits for whole rows `ids`, in float64
    numpy from its weights, without autodiff: pre-norm blocks of
    per_head_attention (explicit causal mask) and a tanh gelu feed-forward,
    a final layer norm and the tied output projection."""
    p = {name: t.data.astype(np.float64) for name, t in model.params.items()}
    ids = np.asarray(ids)
    x = p["tok_emb"][ids] + p["pos_emb"][: ids.shape[1]]
    for i in range(model.config.n_layers):
        w = {name.split(".", 1)[1]: arr for name, arr in p.items() if name.startswith(f"layer{i}.")}
        a = _layer_norm(x, w["ln1.gain"], w["ln1.bias"])
        q, k, v = a @ w["attn.wq"] + w["attn.bq"], a @ w["attn.wk"], a @ w["attn.wv"] + w["attn.bv"]
        x = x + per_head_attention(q, k, v, model.config.n_heads) @ w["attn.wo"] + w["attn.bo"]
        h = _layer_norm(x, w["ln2.gain"], w["ln2.bias"]) @ w["ff.w1"] + w["ff.b1"]
        h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h**3)))
        x = x + h @ w["ff.w2"] + w["ff.b2"]
    return _layer_norm(x, p["final_ln.gain"], p["final_ln.bias"]) @ p["tok_emb"].T


# Written by the version 1 save_checkpoint (little-endian f4 blobs, with each
# layer's key bias attn.bk, all zeros) from TransformerLM(config, seed=21),
# config = ModelConfig(vocab_size=50, n_layers=1, d_model=16, n_heads=4,
# d_ff=32, max_len=32, dropout=0.0), vocab_hash "tiny-v1", epoch 3.
V1_CHECKPOINT = Path(__file__).with_name("tiny_v1.ovpt")


def v1_with_nonzero_key_bias() -> bytes:
    """The version 1 fixture's bytes with layer0.attn.bk[0] set to 0.5."""
    data = bytearray(V1_CHECKPOINT.read_bytes())
    name = b"layer0.attn.bk"
    at = data.index(name) + len(name) + 1 + 4  # past the name, ndim and the one extent
    data[at : at + 4] = struct.pack("<f", 0.5)
    return bytes(data)
