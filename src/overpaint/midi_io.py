"""Standard MIDI File reading/writing and score-level time operations.

Scores keep note times in quarter-note beats as exact fractions so grid
quantization, slicing, and file round-trips stay lossless. SMF formats 0 and 1
are supported; all channels are merged into a single note stream (piano-only
corpus). Same-pitch overlaps are paired first-in-first-out.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction

log = logging.getLogger("overpaint.midi")

DEFAULT_RESOLUTION = 480
DEFAULT_BPM = 120.0
DEFAULT_TIME_SIGNATURE = (4, 4)

BPM_MIN = 20.0
BPM_MAX = 320.0
NUMERATOR_MAX = 12
SUPPORTED_DENOMINATORS = (1, 2, 4, 8, 16)

_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58
_META_END_OF_TRACK = 0x2F


class MidiParseError(ValueError):
    """Malformed or unsupported SMF input."""


@dataclass(frozen=True)
class NoteEvent:
    """One note: pitch 0-127, onset/duration in quarter-note beats, velocity 1-127."""

    pitch: int
    onset: Fraction
    duration: Fraction
    velocity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "onset", Fraction(self.onset))
        object.__setattr__(self, "duration", Fraction(self.duration))
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch out of range: {self.pitch}")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity out of range: {self.velocity}")
        if self.onset < 0:
            raise ValueError(f"negative onset: {self.onset}")
        if self.duration <= 0:
            raise ValueError(f"non-positive duration: {self.duration}")

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration


def note_sort_key(note: NoteEvent):
    return (note.onset, note.pitch, note.duration, note.velocity)


@dataclass
class MidiScore:
    """Notes plus tempo map (beat, BPM) and time signatures (bar, num, den).

    Both maps are sorted, start at 0, and hold unique positions. `resolution`
    is ticks per quarter note when the score is written to a file.
    """

    notes: list[NoteEvent] = field(default_factory=list)
    tempo_map: list[tuple[Fraction, float]] = field(
        default_factory=lambda: [(Fraction(0), DEFAULT_BPM)]
    )
    time_signatures: list[tuple[int, int, int]] = field(
        default_factory=lambda: [(0, *DEFAULT_TIME_SIGNATURE)]
    )
    resolution: int = DEFAULT_RESOLUTION


def make_score(
    notes=(),
    tempo_map=None,
    time_signatures=None,
    resolution: int = DEFAULT_RESOLUTION,
) -> MidiScore:
    """Build a normalized score: sorted notes, deduped maps anchored at 0."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    tempos = [(Fraction(b), float(bpm)) for b, bpm in (tempo_map or [])]
    sigs = [(int(b), int(n), int(d)) for b, n, d in (time_signatures or [])]
    return MidiScore(
        notes=sorted(notes, key=note_sort_key),
        tempo_map=_normalize_tempos(tempos),
        time_signatures=_normalize_signatures(sigs),
        resolution=resolution,
    )


def _normalize_tempos(entries: list[tuple[Fraction, float]]) -> list[tuple[Fraction, float]]:
    out: dict[Fraction, float] = {}
    for beat, bpm in sorted(entries, key=lambda e: e[0]):
        if beat < 0:
            raise ValueError("tempo entry before beat 0")
        out[beat] = min(max(float(bpm), BPM_MIN), BPM_MAX)
    if Fraction(0) not in out:
        out = {Fraction(0): DEFAULT_BPM, **out}
    return sorted(out.items())


def _normalize_signature(num: int, den: int) -> tuple[int, int]:
    """The supported signature nearest num/den: the numerator clamped to
    1..NUMERATOR_MAX, the denominator the nearest supported one."""
    num = min(max(num, 1), NUMERATOR_MAX)
    if den not in SUPPORTED_DENOMINATORS:
        den = min(SUPPORTED_DENOMINATORS, key=lambda d: abs(d - den))
    return num, den


def _normalize_signatures(entries: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    out: dict[int, tuple[int, int]] = {}
    for bar, num, den in sorted(entries, key=lambda e: e[0]):
        if bar < 0:
            raise ValueError("time signature before bar 0")
        out[bar] = _normalize_signature(num, den)
    if 0 not in out:
        out = {0: DEFAULT_TIME_SIGNATURE, **out}
    return [(bar, num, den) for bar, (num, den) in sorted(out.items())]


def bar_length(numerator: int, denominator: int) -> Fraction:
    """Bar length in quarter-note beats."""
    return Fraction(numerator * 4, denominator)


def signature_at_bar(score: MidiScore, bar: int) -> tuple[int, int]:
    num, den = DEFAULT_TIME_SIGNATURE
    for b, n, d in score.time_signatures:
        if b > bar:
            break
        num, den = n, d
    return num, den


def bar_start_beat(score: MidiScore, bar: int) -> Fraction:
    if bar < 0:
        raise ValueError("negative bar index")
    beat = Fraction(0)
    prev_bar, num, den = score.time_signatures[0]
    for b, n, d in score.time_signatures[1:]:
        if b >= bar:
            break
        beat += (b - prev_bar) * bar_length(num, den)
        prev_bar, num, den = b, n, d
    return beat + (bar - prev_bar) * bar_length(num, den)


def beat_to_bar(score: MidiScore, beat: Fraction) -> int:
    """Index of the bar containing `beat`."""
    beat = Fraction(beat)
    if beat < 0:
        raise ValueError("negative beat")
    prev_bar, num, den = score.time_signatures[0]
    start = Fraction(0)
    for b, n, d in score.time_signatures[1:]:
        seg_end = start + (b - prev_bar) * bar_length(num, den)
        if seg_end > beat:
            break
        start = seg_end
        prev_bar, num, den = b, n, d
    return prev_bar + int((beat - start) // bar_length(num, den))


def tempo_at(score: MidiScore, beat: Fraction) -> float:
    bpm = score.tempo_map[0][1]
    for b, t in score.tempo_map:
        if b > beat:
            break
        bpm = t
    return bpm


def beats_to_seconds(score: MidiScore, beat: Fraction) -> float:
    """Seconds from beat 0 under the piecewise-constant tempo map."""
    beat = Fraction(beat)
    total = 0.0
    prev_beat, prev_bpm = score.tempo_map[0]
    for b, bpm in score.tempo_map[1:]:
        if b >= beat:
            break
        total += float(b - prev_beat) * 60.0 / prev_bpm
        prev_beat, prev_bpm = b, bpm
    return total + float(beat - prev_beat) * 60.0 / prev_bpm


def seconds_to_beats(score: MidiScore, seconds: float) -> float:
    if seconds < 0:
        raise ValueError("negative time")
    elapsed = 0.0
    prev_beat, prev_bpm = score.tempo_map[0]
    for b, bpm in score.tempo_map[1:]:
        seg = float(b - prev_beat) * 60.0 / prev_bpm
        if elapsed + seg > seconds:
            break
        elapsed += seg
        prev_beat, prev_bpm = b, bpm
    return float(prev_beat) + (seconds - elapsed) * prev_bpm / 60.0


def snap_to_resolution(beats: float, resolution: int) -> Fraction:
    """Snap a float beat value onto the tick grid."""
    return Fraction(round(beats * resolution), resolution)


def _round_half_up(x: Fraction) -> int:
    return int((2 * x + 1) // 2)


def quantize(score: MidiScore, grid: int) -> MidiScore:
    """Snap onsets and durations to the nearest 1/grid beat (durations >= 1/grid).

    Idempotent; tempo map and time signatures pass through untouched.
    """
    if grid < 1:
        raise ValueError("grid must be positive")
    g = Fraction(grid)
    notes = [
        replace(
            n,
            onset=Fraction(_round_half_up(n.onset * g), grid),
            duration=Fraction(max(_round_half_up(n.duration * g), 1), grid),
        )
        for n in score.notes
    ]
    return MidiScore(
        notes=sorted(notes, key=note_sort_key),
        tempo_map=list(score.tempo_map),
        time_signatures=list(score.time_signatures),
        resolution=score.resolution,
    )


def slice_beats(score: MidiScore, start, end) -> MidiScore:
    """Notes with start <= onset < end, re-based to 0, with tempo/signature
    context at `start` carried into the slice."""
    start, end = Fraction(start), Fraction(end)
    if start < 0 or end <= start:
        raise ValueError(f"bad slice range [{start}, {end})")
    notes = [replace(n, onset=n.onset - start) for n in score.notes if start <= n.onset < end]

    tempos = [(Fraction(0), tempo_at(score, start))]
    tempos += [(b - start, t) for b, t in score.tempo_map if start < b < end]

    start_bar = beat_to_bar(score, start)
    sig0 = signature_at_bar(score, start_bar)
    sigs = [(0, *sig0)]
    cursor_bar, cursor_beat = 0, Fraction(0)
    cur_len = bar_length(*sig0)
    for bar, num, den in score.time_signatures:
        b = bar_start_beat(score, bar)
        if not (start < b < end):
            continue
        rb = b - start
        cursor_bar += int((rb - cursor_beat) // cur_len)
        cursor_beat = rb
        sigs.append((cursor_bar, num, den))
        cur_len = bar_length(num, den)

    return make_score(notes, tempos, sigs, score.resolution)


def transpose(score: MidiScore, semitones: int) -> MidiScore:
    """Shift every pitch; notes pushed outside 0-127 fold back by octaves."""
    notes = []
    for n in score.notes:
        p = n.pitch + semitones
        while p > 127:
            p -= 12
        while p < 0:
            p += 12
        notes.append(replace(n, pitch=p))
    return MidiScore(
        notes=sorted(notes, key=note_sort_key),
        tempo_map=list(score.tempo_map),
        time_signatures=list(score.time_signatures),
        resolution=score.resolution,
    )


# --- SMF byte-level helpers ---------------------------------------------------


def _read_varlen(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MidiParseError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError("variable-length quantity too long")


def _write_varlen(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


# Per-event raw events collected before pairing. kind: 0 = note-on, 1 = note-off.
_ON, _OFF = 0, 1


def parse_midi(data: bytes) -> MidiScore:
    """Parse an SMF format 0/1 byte string into a MidiScore.

    All tracks and channels merge into one stream. Note-on with velocity 0 is
    a note-off. Dangling note-ons are reported and clipped to the end of the
    file; dangling note-offs are dropped.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MidiParseError("missing MThd header")
    header_len, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    if header_len < 6:
        raise MidiParseError("bad MThd length")
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is not supported")
    if division == 0:
        raise MidiParseError("zero time division")
    resolution = division

    pos = 8 + header_len
    note_events: list[tuple[int, int, int, int]] = []  # (tick, kind, pitch, velocity)
    tempos: list[tuple[int, float]] = []
    sig_ticks: list[tuple[int, int, int]] = []
    max_tick = 0
    tracks_seen = 0

    while tracks_seen < ntrks and pos + 8 <= len(data):
        chunk_type = data[pos : pos + 4]
        (chunk_len,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + chunk_len]
        pos += 8 + chunk_len
        if chunk_type != b"MTrk":
            log.warning("skipping unknown chunk %r", chunk_type)
            continue
        tracks_seen += 1
        if len(body) < chunk_len:
            raise MidiParseError("truncated track chunk")
        max_tick = max(max_tick, _parse_track(body, note_events, tempos, sig_ticks))

    if tracks_seen == 0:
        raise MidiParseError("no MTrk chunks")

    # FIFO pairing per pitch; note-ons sort before note-offs at equal ticks so
    # legato re-strikes close the older note.
    note_events.sort(key=lambda e: (e[0], e[1]))
    open_notes: dict[int, list[tuple[int, int]]] = {}
    raw_notes: list[tuple[int, int, int, int]] = []  # (on_tick, off_tick, pitch, vel)
    for tick, kind, pitch, velocity in note_events:
        if kind == _ON:
            open_notes.setdefault(pitch, []).append((tick, velocity))
        else:
            queue = open_notes.get(pitch)
            if not queue:
                log.warning("dangling note-off for pitch %d at tick %d", pitch, tick)
                continue
            on_tick, vel = queue.pop(0)
            raw_notes.append((on_tick, tick, pitch, vel))
    for pitch, queue in open_notes.items():
        for on_tick, vel in queue:
            log.warning("dangling note-on for pitch %d at tick %d; clipped", pitch, on_tick)
            raw_notes.append((on_tick, max_tick, pitch, vel))

    notes = []
    for on_tick, off_tick, pitch, vel in raw_notes:
        dur_ticks = max(off_tick - on_tick, 1)
        notes.append(
            NoteEvent(
                pitch=pitch,
                onset=Fraction(on_tick, resolution),
                duration=Fraction(dur_ticks, resolution),
                velocity=min(max(vel, 1), 127),
            )
        )

    tempo_map = [(Fraction(t, resolution), bpm) for t, bpm in sorted(tempos)]

    # Time signature ticks fold into bar indices by walking earlier signatures.
    signatures: list[tuple[int, int, int]] = []
    prev_bar, prev_start = 0, Fraction(0)
    cur_num, cur_den = DEFAULT_TIME_SIGNATURE
    for tick, num, den in sorted(sig_ticks):
        num, den = _normalize_signature(num, den)
        beat = Fraction(tick, resolution)
        cur_len = bar_length(cur_num, cur_den)
        bar = prev_bar + int((beat - prev_start) // cur_len)
        signatures.append((bar, num, den))
        prev_start += (bar - prev_bar) * cur_len
        prev_bar, cur_num, cur_den = bar, num, den

    return make_score(notes, tempo_map, signatures, resolution)


def _parse_track(body, note_events, tempos, sig_ticks) -> int:
    pos = 0
    tick = 0
    status = None
    while pos < len(body):
        delta, pos = _read_varlen(body, pos)
        tick += delta
        if pos >= len(body):
            raise MidiParseError("truncated event")
        byte = body[pos]
        if byte & 0x80:
            status = byte
            pos += 1
        elif status is None:
            raise MidiParseError("data byte with no running status")

        if status == 0xFF:
            if pos >= len(body):
                raise MidiParseError("truncated meta event")
            meta_type = body[pos]
            length, pos = _read_varlen(body, pos + 1)
            payload = body[pos : pos + length]
            if len(payload) < length:
                raise MidiParseError("truncated meta payload")
            pos += length
            if meta_type == _META_TEMPO and length >= 3:
                usec = (payload[0] << 16) | (payload[1] << 8) | payload[2]
                if usec > 0:
                    tempos.append((tick, 60_000_000.0 / usec))
            elif meta_type == _META_TIME_SIGNATURE and length >= 2:
                sig_ticks.append((tick, payload[0], 1 << payload[1]))
            elif meta_type == _META_END_OF_TRACK:
                return tick
        elif status in (0xF0, 0xF7):
            length, pos = _read_varlen(body, pos)
            pos += length
        else:
            hi = status & 0xF0
            n_data = 1 if hi in (0xC0, 0xD0) else 2
            if pos + n_data > len(body):
                raise MidiParseError("truncated channel event")
            d = body[pos : pos + n_data]
            pos += n_data
            if hi == 0x90 and d[1] > 0:
                note_events.append((tick, _ON, d[0], d[1]))
            elif hi == 0x80 or (hi == 0x90 and d[1] == 0):
                note_events.append((tick, _OFF, d[0], 0))
    return tick


def write_midi(score: MidiScore) -> bytes:
    """Serialize to SMF format 0. Beats round to the score's tick grid."""
    res = score.resolution

    def to_tick(beat: Fraction) -> int:
        return _round_half_up(Fraction(beat) * res)

    # (tick, priority, payload); priority: meta 0, note-on 1, note-off 2 so a
    # re-parse reproduces FIFO pairing (see parse_midi).
    events: list[tuple[int, int, bytes]] = []
    for bar, num, den in score.time_signatures:
        tick = to_tick(bar_start_beat(score, bar))
        dd = den.bit_length() - 1
        events.append((tick, 0, bytes([0xFF, _META_TIME_SIGNATURE, 4, num, dd, 24, 8])))
    for beat, bpm in score.tempo_map:
        usec = round(60_000_000.0 / bpm)
        payload = usec.to_bytes(3, "big")
        events.append((to_tick(beat), 0, bytes([0xFF, _META_TEMPO, 3]) + payload))
    for n in score.notes:
        on = to_tick(n.onset)
        off = max(to_tick(n.end), on + 1)
        events.append((on, 1, bytes([0x90, n.pitch, n.velocity])))
        events.append((off, 2, bytes([0x80, n.pitch, 0])))

    events.sort(key=lambda e: (e[0], e[1]))
    out = bytearray()
    prev_tick = 0
    for tick, _, payload in events:
        out += _write_varlen(tick - prev_tick)
        out += payload
        prev_tick = tick
    out += _write_varlen(0) + bytes([0xFF, _META_END_OF_TRACK, 0])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, res)
    return header + b"MTrk" + struct.pack(">I", len(out)) + bytes(out)


def load_midi(path) -> MidiScore:
    with open(path, "rb") as fh:
        return parse_midi(fh.read())


def save_midi(score: MidiScore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_midi(score))
