"""REMI-style token vocabulary and score <-> token conversion.

Grammar, per bar: Bar [TimeSig if changed] [Tempo if changed by >= one bin],
then Position / (Pitch Velocity Duration)+ groups in ascending position order.
Training sequences are BOS + original + SEP + variation + EOS.

The vocabulary is static: the family table `_FAMILIES` defines every id, name
and decoded value, and the serialized form carries a hash that artifacts pin.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .midi_io import (
    DEFAULT_RESOLUTION,
    NUMERATOR_MAX,
    SUPPORTED_DENOMINATORS,
    MidiScore,
    bar_ticks,
    score_from_ticks,
    signature_at_bar,
    tempo_at,
)

GRID = 12  # subdivisions per quarter note: a grid step is a tick at resolution GRID
_TICKS_PER_STEP = DEFAULT_RESOLUTION // GRID  # detokenized scores sit at DEFAULT_RESOLUTION
PAD, BOS, EOS, SEP = 0, 1, 2, 3

TEMPO_BINS = 32
TEMPO_MIN, TEMPO_MAX = 30.0, 300.0
VELOCITY_BINS = 32
VELOCITY_BIN_WIDTH = 4
DURATION_MAX_STEPS = 96
MAX_LEN = 1024

VOCAB_VERSION = 1


class TokenizeError(ValueError):
    """Score not representable (off-grid timing, bad vocabulary pairing)."""


class VocabularyMismatchError(TokenizeError):
    """Stored vocabulary hash or version disagrees with this build."""


# Every signature `midi_io` normalizes a score to; the largest bar among them
# fixes the Position family size.
_SIGNATURES = tuple((n, d) for n in range(1, NUMERATOR_MAX + 1) for d in SUPPORTED_DENOMINATORS)
MAX_POSITIONS = max(bar_ticks(*sig, GRID) for sig in _SIGNATURES)

# The token grammar's families in id order, each with its values: one token per
# value, named `family`, `family_value` or `TimeSig_num/den`.
_FAMILIES = (
    *((name, (None,)) for name in ("PAD", "BOS", "EOS", "SEP", "Bar")),
    ("TimeSig", _SIGNATURES),
    ("Tempo", range(TEMPO_BINS)),
    ("Position", range(MAX_POSITIONS)),
    ("Pitch", range(128)),
    ("Velocity", range(VELOCITY_BINS)),
    ("Duration", range(1, DURATION_MAX_STEPS + 1)),
)


def velocity_bin(velocity: int) -> int:
    return min(velocity // VELOCITY_BIN_WIDTH, VELOCITY_BINS - 1)


def velocity_center(bin_index: int) -> int:
    return bin_index * VELOCITY_BIN_WIDTH + 2


@dataclass(frozen=True)
class Vocabulary:
    names: tuple[str, ...]
    index: dict[str, int]
    family_start: dict[str, int]
    tempo_centers: tuple[float, ...]
    digest: str
    _decoded: tuple[tuple[str, object], ...]  # (family, value) per id
    _log_centers: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.names)

    # -- family encoders

    @property
    def bar(self) -> int:
        return self.family_start["Bar"]

    def timesig(self, numerator: int, denominator: int) -> int:
        try:
            return self.index[f"TimeSig_{numerator}/{denominator}"]
        except KeyError:
            raise TokenizeError(
                f"unsupported time signature {numerator}/{denominator}"
            ) from None

    def tempo(self, bin_index: int) -> int:
        return self.family_start["Tempo"] + bin_index

    def tempo_bin(self, bpm: float) -> int:
        bpm = min(max(bpm, TEMPO_MIN), TEMPO_MAX)
        return int(np.argmin(np.abs(self._log_centers - np.log(bpm))))

    def position(self, step: int) -> int:
        if not 0 <= step < MAX_POSITIONS:
            raise TokenizeError(f"position {step} outside vocabulary")
        return self.family_start["Position"] + step

    def pitch(self, pitch: int) -> int:
        return self.family_start["Pitch"] + pitch

    def velocity(self, bin_index: int) -> int:
        return self.family_start["Velocity"] + bin_index

    def duration(self, steps: int) -> int:
        steps = min(max(steps, 1), DURATION_MAX_STEPS)
        return self.family_start["Duration"] + steps - 1

    def decode(self, token: int) -> tuple[str, object]:
        """(family, value) for a token id; value depends on the family."""
        if not 0 <= token < len(self.names):
            raise TokenizeError(f"token id {token} outside vocabulary")
        return self._decoded[token]

    # -- serialization

    def to_json(self) -> dict:
        body = _vocab_body(self.names, self.tempo_centers)
        body["hash"] = self.digest
        return body

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1), encoding="utf-8")


def _vocab_body(names, tempo_centers) -> dict:
    return {
        "version": VOCAB_VERSION,
        "grid": GRID,
        "velocity_bin_width": VELOCITY_BIN_WIDTH,
        "duration_max_steps": DURATION_MAX_STEPS,
        "tokens": list(names),
        "tempo_centers": [repr(c) for c in tempo_centers],
    }


def _vocab_digest(names, tempo_centers) -> str:
    blob = json.dumps(_vocab_body(names, tempo_centers), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@lru_cache(maxsize=1)
def build_vocabulary() -> Vocabulary:
    names: list[str] = []
    decoded: list[tuple[str, object]] = []
    family_start: dict[str, int] = {}
    for k, (family, values) in enumerate(_FAMILIES):
        if k > SEP:  # the specials PAD..SEP have no `family_start` entry
            family_start[family] = len(names)
        for value in values:
            decoded.append((family, value))
            payload = "/".join(map(str, value)) if family == "TimeSig" else value
            names.append(family if value is None else f"{family}_{payload}")

    tempo_centers = tuple(float(x) for x in np.geomspace(TEMPO_MIN, TEMPO_MAX, TEMPO_BINS))
    names_t = tuple(names)
    return Vocabulary(
        names=names_t,
        index={name: i for i, name in enumerate(names_t)},
        family_start=family_start,
        tempo_centers=tempo_centers,
        digest=_vocab_digest(names_t, tempo_centers),
        _decoded=tuple(decoded),
        _log_centers=np.log(np.asarray(tempo_centers)),
    )


def load_vocabulary(path) -> Vocabulary:
    """Rebuild the static vocabulary and verify it matches the stored copy."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    vocab = build_vocabulary()
    if not isinstance(data, dict):
        raise VocabularyMismatchError(f"vocabulary file {path} is not a JSON object")
    if data.get("version") != VOCAB_VERSION:
        raise VocabularyMismatchError(
            f"unsupported vocabulary version {data.get('version')!r}"
        )
    if data.get("hash") != vocab.digest:
        raise VocabularyMismatchError("vocabulary hash mismatch")
    return vocab


# --- encoding -----------------------------------------------------------------


def _grid_steps(ticks: int, resolution: int, what: str, index: int) -> int:
    steps, rest = divmod(ticks * GRID, resolution)
    if rest:
        raise TokenizeError(f"{what} {ticks}/{resolution} of note {index} "
                            f"is off the 1/{GRID} grid")
    return steps


def tokenize(score: MidiScore, vocab: Vocabulary | None = None) -> list[int]:
    """Encode a grid-quantized score. Raises TokenizeError on off-grid notes."""
    vocab = vocab or build_vocabulary()
    res = score.resolution
    notes = [(_grid_steps(on, res, "onset", i), pitch, _grid_steps(dur, res, "duration", i), vel)
             for i, (on, pitch, dur, vel) in enumerate(score.tick_notes)]

    last_onset = notes[-1][0] if notes else 0
    tokens: list[int] = []
    prev_sig: tuple[int, int] | None = None
    prev_tempo_bin: int | None = None
    note_i = 0
    bar = 0
    bar_start = 0  # grid steps, as are the note times
    while bar_start <= last_onset or bar == 0:
        sig = signature_at_bar(score, bar)
        tokens.append(vocab.bar)
        if sig != prev_sig:
            tokens.append(vocab.timesig(*sig))
            prev_sig = sig
        tempo_bin = vocab.tempo_bin(tempo_at(score, bar_start * res // GRID))
        if tempo_bin != prev_tempo_bin:
            tokens.append(vocab.tempo(tempo_bin))
            prev_tempo_bin = tempo_bin

        bar_end = bar_start + bar_ticks(*sig, GRID)
        current_position = None
        while note_i < len(notes) and notes[note_i][0] < bar_end:
            onset, pitch, dur_steps, velocity = notes[note_i]
            step = onset - bar_start
            if step != current_position:
                tokens.append(vocab.position(step))
                current_position = step
            tokens.append(vocab.pitch(pitch))
            tokens.append(vocab.velocity(velocity_bin(velocity)))
            tokens.append(vocab.duration(dur_steps))
            note_i += 1
        bar_start = bar_end
        bar += 1
    return tokens


def transpose_tokens(tokens, semitones: int, vocab: Vocabulary) -> np.ndarray:
    """`tokens` with each Pitch id moved, as a new array: the transposed score's
    tokens if no note leaves 0-127."""
    tokens = np.asarray(tokens)
    pitch = (tokens >= vocab.pitch(0)) & (tokens <= vocab.pitch(127))
    return np.where(pitch, tokens + semitones, tokens)


# --- decoding with repair -----------------------------------------------------


def detokenize_with_report(tokens, vocab: Vocabulary | None = None) -> tuple[MidiScore, list[str]]:
    """Decode any token id sequence into a score, repairing where needed.

    Repairs (each logged in the report): implicit Bar before a stray Position,
    dropped incomplete note triples, dropped out-of-range positions, dropped
    out-of-context Velocity/Duration tokens. Never raises on ids inside the
    vocabulary.
    """
    vocab = vocab or build_vocabulary()
    repairs: list[str] = []
    notes: list[tuple[int, int, int, int]] = []  # ticks at DEFAULT_RESOLUTION
    tempo_map: list[tuple[int, float]] = []  # ticks at DEFAULT_RESOLUTION
    signatures: list[tuple[int, int, int]] = []

    bar = -1
    bar_start = 0  # in grid steps
    sig = (4, 4)
    position: int | None = None
    pending_pitch: int | None = None
    pending_velocity: int | None = None

    def drop_pending(reason: str) -> None:
        nonlocal pending_pitch, pending_velocity
        if pending_pitch is not None:
            repairs.append(reason)
        pending_pitch = pending_velocity = None

    def open_bar() -> None:
        nonlocal bar, bar_start, position
        if bar >= 0:
            bar_start += bar_ticks(*sig, GRID)
        bar += 1
        position = None

    for i, token in enumerate(tokens):
        family, value = vocab.decode(int(token))
        if family == "EOS":
            break
        if family in ("Velocity", "Duration"):
            # Velocity follows a lone Pitch; Duration follows Pitch and Velocity.
            if pending_pitch is None or (pending_velocity is None) != (family == "Velocity"):
                repairs.append(f"token {i}: {family} out of order")
                drop_pending(f"token {i}: {family} out of order")
            elif family == "Velocity":
                pending_velocity = value
            else:
                notes.append(((bar_start + position) * _TICKS_PER_STEP, pending_pitch,
                              value * _TICKS_PER_STEP, velocity_center(pending_velocity)))
                pending_pitch = pending_velocity = None
            continue
        drop_pending(f"token {i}: {family} interrupts a note triple")
        if family == "Bar":
            open_bar()
        elif family == "TimeSig":
            sig = value
            signatures.append((max(bar, 0), *sig))
        elif family == "Tempo":
            tempo_map.append((bar_start * _TICKS_PER_STEP, vocab.tempo_centers[value]))
        elif family == "Position":
            if bar < 0:
                repairs.append(f"token {i}: Position before any Bar, Bar inserted")
                open_bar()
            if value >= bar_ticks(*sig, GRID):
                repairs.append(f"token {i}: Position_{value} outside a {sig[0]}/{sig[1]} bar")
                position = None
            else:
                position = value
        elif family == "Pitch":
            if position is None:
                repairs.append(f"token {i}: Pitch with no active Position")
            else:
                pending_pitch = value
    drop_pending("sequence ended inside a note triple")

    return score_from_ticks(notes, tempo_map, signatures), repairs


# --- pair assembly ------------------------------------------------------------


def assemble_pair(original_tokens, variation_tokens) -> list[int]:
    """BOS + original + SEP + variation + EOS, truncating only the variation
    tail when over MAX_LEN. The original must always fit."""
    budget = MAX_LEN - 3
    if len(original_tokens) > budget:
        raise TokenizeError(
            f"original of {len(original_tokens)} tokens cannot fit max_len {MAX_LEN}"
        )
    keep = min(len(variation_tokens), budget - len(original_tokens))
    return (
        [BOS]
        + list(original_tokens)
        + [SEP]
        + list(variation_tokens[:keep])
        + [EOS]
    )


# --- token files ----------------------------------------------------------------

_TOKEN_MAGIC = b"OVTK"
_TOKEN_VERSION = 1


def write_token_file(path, sequences, vocab: Vocabulary | None = None) -> None:
    """Length-prefixed uint32 records, header pins the vocabulary hash. Every
    sequence (a list or an integer array) is converted before the file is
    opened, and each array is then written as it is."""
    vocab = vocab or build_vocabulary()
    arrays = [np.ascontiguousarray(seq, dtype="<u4") for seq in sequences]
    with open(path, "wb") as fh:
        fh.write(_TOKEN_MAGIC + struct.pack("<I", _TOKEN_VERSION) + bytes.fromhex(vocab.digest)
                 + struct.pack("<I", len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.size))
            fh.write(arr)


def read_token_file(path, vocab: Vocabulary | None = None) -> list[np.ndarray]:
    """Read back token records, verifying the stored vocabulary hash."""
    vocab = vocab or build_vocabulary()
    data = Path(path).read_bytes()
    if len(data) < 44 or data[:4] != _TOKEN_MAGIC:
        raise TokenizeError(f"not a token file: {path}")
    (version,) = struct.unpack("<I", data[4:8])
    if version != _TOKEN_VERSION:
        raise VocabularyMismatchError(f"unsupported token file version {version}")
    digest = data[8:40].hex()
    if digest != vocab.digest:
        raise VocabularyMismatchError(
            "token file was built with a different vocabulary"
        )
    (count,) = struct.unpack("<I", data[40:44])
    pos = 44
    sequences = []
    for i in range(count):
        if pos + 4 > len(data):
            raise TokenizeError("truncated token file")
        (length,) = struct.unpack("<I", data[pos : pos + 4])
        pos += 4
        end = pos + 4 * length
        if end > len(data):
            raise TokenizeError("truncated token record")
        seq = np.frombuffer(data[pos:end], dtype="<u4").astype(np.int64)
        if length and seq.max() >= len(vocab):
            raise TokenizeError(f"{path}: record {i} holds id {seq.max()}, "
                                f"outside the vocabulary of {len(vocab)}")
        sequences.append(seq)
        pos = end
    if pos != len(data):
        raise TokenizeError(f"{path}: {len(data) - pos} bytes after the last record")
    return sequences
