"""Standard MIDI File reading/writing and score-level time operations.

A score keeps its notes as integer ticks at its own resolution (ticks per
quarter note), the unit a file stores, so parsing, transposing, quantizing,
slicing and writing are integer arithmetic and a file round-trips exactly.
The tempo map is (tick, bpm) in the same unit. Beats only come in:
`make_score` rounds beat-valued NoteEvents onto the tick grid as a file write
always has. Time signatures are placed by bar, and a bar is
`bar_ticks` long, walked and folded in 1/16 ticks so that bar starts between
ticks stay exact. SMF formats 0 and 1 are supported; all
channels are merged into a single note stream (piano-only corpus). Same-pitch
overlaps are paired first-in-first-out.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

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


@dataclass
class MidiScore:
    """Notes plus tempo map (tick, BPM) and time signatures (bar, num, den).

    `tick_notes` holds one (onset, pitch, duration, velocity) int tuple per
    note, sorted, with onset and duration in ticks at `resolution` (ticks per
    quarter note) and every duration at least one tick. Both maps are sorted,
    start at 0, and hold unique positions.
    """

    tick_notes: list[tuple[int, int, int, int]] = field(default_factory=list)
    tempo_map: list[tuple[int, float]] = field(default_factory=lambda: [(0, DEFAULT_BPM)])
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
    """Build a normalized score from beat-valued NoteEvents and (beat, bpm)
    tempos. Each onset, end and tempo beat rounds half up onto the tick grid
    and a note keeps at least one tick, as `write_midi` has always written
    them; the maps are deduped and anchored at 0."""
    ticks = []
    for n in notes:
        on = beats_to_ticks(n.onset, resolution)
        ticks.append((on, n.pitch, max(beats_to_ticks(n.end, resolution) - on, 1), n.velocity))
    tempos = [(beats_to_ticks(b, resolution), bpm) for b, bpm in tempo_map or ()]
    return score_from_ticks(ticks, tempos, time_signatures, resolution)


def score_from_ticks(
    tick_notes=(),
    tempo_map=None,
    time_signatures=None,
    resolution: int = DEFAULT_RESOLUTION,
) -> MidiScore:
    """`make_score` for notes and tempos already in ticks: valid (onset, pitch,
    duration, velocity) tuples and (tick, bpm) pairs at `resolution`, sorted
    here; of two tempos at one tick the later wins."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    tempos = [(int(t), float(bpm)) for t, bpm in (tempo_map or [])]
    sigs = [(int(b), int(n), int(d)) for b, n, d in (time_signatures or [])]
    return MidiScore(
        tick_notes=sorted(tick_notes),
        tempo_map=_normalize_tempos(tempos),
        time_signatures=_normalize_signatures(sigs),
        resolution=resolution,
    )


def _normalize_tempos(entries: list[tuple[int, float]]) -> list[tuple[int, float]]:
    out = {0: DEFAULT_BPM}
    for tick, bpm in sorted(entries, key=itemgetter(0)):
        if tick < 0:
            raise ValueError("tempo entry before tick 0")
        out[tick] = min(max(bpm, BPM_MIN), BPM_MAX)
    return list(out.items())


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


def bar_ticks(numerator: int, denominator: int, resolution: int) -> int:
    """Ticks per bar at `resolution` ticks a beat; exact when 4 divides the
    resolution, as every supported denominator divides 16."""
    return resolution * 4 * numerator // denominator


def signature_at_bar(score: MidiScore, bar: int) -> tuple[int, int]:
    num, den = DEFAULT_TIME_SIGNATURE
    for b, n, d in score.time_signatures:
        if b > bar:
            break
        num, den = n, d
    return num, den


def _signature_runs(score: MidiScore):
    """(first bar, its start in 1/16 ticks, num, den) for each time-signature entry."""
    at, prev_bar, length = 0, 0, 0
    for bar, num, den in score.time_signatures:
        at += (bar - prev_bar) * length
        yield bar, at, num, den
        prev_bar, length = bar, bar_ticks(num, den, 16 * score.resolution)


def _bar_signatures(changes, resolution: int) -> list[tuple[int, int, int]]:
    """Fold sorted (1/16 tick, num, den) changes into normalized (bar, num, den)
    entries. Bars run in 4/4 until the first change; a change inside a bar
    takes effect at that bar's start."""
    signatures = []
    bar, bar_at = 0, 0
    length = bar_ticks(*DEFAULT_TIME_SIGNATURE, 16 * resolution)
    for at, num, den in changes:
        num, den = _normalize_signature(num, den)
        whole = (at - bar_at) // length
        bar, bar_at = bar + whole, bar_at + whole * length
        signatures.append((bar, num, den))
        length = bar_ticks(num, den, 16 * resolution)
    return signatures


def tempo_at(score: MidiScore, tick: int) -> float:
    return next(bpm for t, bpm in reversed(score.tempo_map) if t <= tick)


def seconds_at(score: MidiScore, tick: int) -> float:
    """Seconds from tick 0 under the piecewise-constant tempo map. Each segment
    is one correctly rounded integer division by the resolution, so it equals
    float() of the exact beat Fraction."""
    res = score.resolution
    total = 0.0
    prev_tick, prev_bpm = score.tempo_map[0]
    for t, bpm in score.tempo_map[1:]:
        if t >= tick:
            break
        total += (t - prev_tick) / res * 60.0 / prev_bpm
        prev_tick, prev_bpm = t, bpm
    return total + (tick - prev_tick) / res * 60.0 / prev_bpm


def note_seconds(score: MidiScore) -> list[tuple[float, float]]:
    """(start, end) seconds of each note in `tick_notes`."""
    return [(seconds_at(score, on), seconds_at(score, on + dur))
            for on, _, dur, _ in score.tick_notes]


def seconds_to_ticks(score: MidiScore, seconds: float) -> int:
    """The tick nearest `seconds` under the tempo map."""
    if seconds < 0:
        raise ValueError("negative time")
    res = score.resolution
    elapsed = 0.0
    prev_tick, prev_bpm = score.tempo_map[0]
    for t, bpm in score.tempo_map[1:]:
        seg = (t - prev_tick) / res * 60.0 / prev_bpm
        if elapsed + seg > seconds:
            break
        elapsed += seg
        prev_tick, prev_bpm = t, bpm
    return prev_tick + round((seconds - elapsed) * prev_bpm / 60.0 * res)


def beats_to_ticks(beat, resolution: int) -> int:
    """The tick nearest `beat` at `resolution`; a half tick rounds up."""
    return int((2 * Fraction(beat) * resolution + 1) // 2)


def quantize(score: MidiScore, grid: int) -> MidiScore:
    """Snap onsets and durations to the nearest 1/grid beat, half up (durations
    >= 1/grid). Idempotent. The result keeps the score's resolution when grid
    divides it, else takes lcm(resolution, grid), with the tempo ticks scaled to
    match; the time signatures carry over."""
    if grid < 1:
        raise ValueError("grid must be positive")
    res = score.resolution
    out = res if res % grid == 0 else math.lcm(res, grid)
    scale, twice = out // grid, 2 * res
    # round_half_up(t * grid / res) == (2 * t * grid + res) // (2 * res)
    ticks = [((2 * on * grid + res) // twice * scale, p,
              max((2 * dur * grid + res) // twice, 1) * scale, vel)
             for on, p, dur, vel in score.tick_notes]
    tempos = [(t * (out // res), bpm) for t, bpm in score.tempo_map]
    return score_from_ticks(ticks, tempos, score.time_signatures, out)


def slice_ticks(score: MidiScore, lo: int, hi: int) -> MidiScore:
    """Notes with lo <= onset < hi (ticks), re-based to 0, with tempo/signature
    context at `lo` carried into the slice. A later signature change keeps its
    place in the slice, and like any change inside a bar it takes effect at
    that bar's start."""
    if lo < 0 or hi <= lo:
        raise ValueError(f"bad slice range [{lo}, {hi})")
    res = score.resolution
    notes = score.tick_notes
    ticks = [(on - lo, p, dur, vel)
             for on, p, dur, vel in notes[bisect_left(notes, (lo,)):bisect_left(notes, (hi,))]]

    tempos = [(0, tempo_at(score, lo))]
    tempos += [(t - lo, bpm) for t, bpm in score.tempo_map if lo < t < hi]

    runs = list(_signature_runs(score))
    start, end = 16 * lo, 16 * hi
    _, _, num, den = next(r for r in reversed(runs) if r[1] <= start)
    changes = [(0, num, den)] + [(at - start, n, d) for _, at, n, d in runs if start < at < end]
    return score_from_ticks(ticks, tempos, _bar_signatures(changes, res), res)


def transpose(score: MidiScore, semitones: int) -> MidiScore:
    """Shift every pitch; notes pushed outside 0-127 fold back by octaves.
    Tempo map and time signatures carry over."""
    ticks = []
    for on, p, dur, vel in score.tick_notes:
        p += semitones
        while p > 127:
            p -= 12
        while p < 0:
            p += 12
        ticks.append((on, p, dur, vel))
    return score_from_ticks(ticks, score.tempo_map, score.time_signatures, score.resolution)


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
    tempos: list[tuple[int, float]] = []  # (tick, bpm) in file order
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
    note_events.sort(key=itemgetter(0, 1))
    open_notes: dict[int, list[tuple[int, int]]] = {}
    ticks: list[tuple[int, int, int, int]] = []  # (onset, pitch, duration, velocity)
    for tick, kind, pitch, velocity in note_events:
        if kind == _ON:
            open_notes.setdefault(pitch, []).append((tick, min(velocity, 127)))
        else:
            queue = open_notes.get(pitch)
            if not queue:
                log.warning("dangling note-off for pitch %d at tick %d", pitch, tick)
                continue
            on_tick, vel = queue.pop(0)
            ticks.append((on_tick, pitch, max(tick - on_tick, 1), vel))
    for pitch, queue in open_notes.items():
        for on_tick, vel in queue:
            log.warning("dangling note-on for pitch %d at tick %d; clipped", pitch, on_tick)
            ticks.append((on_tick, pitch, max(max_tick - on_tick, 1), vel))

    # Of two changes at one tick the later in the file wins: both sorts are stable.
    changes = [(16 * t, num, den) for t, num, den in sorted(sig_ticks, key=itemgetter(0))]
    return score_from_ticks(ticks, tempos, _bar_signatures(changes, resolution), resolution)


def _parse_track(body, note_events, tempos, sig_ticks) -> int:
    """Append one track's events; returns its last tick. Only channel events
    set the running status: meta and sysex events leave it in place."""
    pos = 0
    tick = 0
    status = None
    while pos < len(body):
        if body[pos] < 0x80:  # nearly every delta is one byte
            tick += body[pos]
            pos += 1
        else:
            delta, pos = _read_varlen(body, pos)
            tick += delta
        if pos >= len(body):
            raise MidiParseError("truncated event")
        kind = body[pos]
        if kind & 0x80:
            pos += 1
            if kind < 0xF0:
                status = kind
        elif status is None:
            raise MidiParseError("data byte with no running status")
        else:
            kind = status

        if kind == 0xFF:
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
        elif kind in (0xF0, 0xF7):
            length, pos = _read_varlen(body, pos)
            pos += length
            if pos > len(body):
                raise MidiParseError("truncated sysex event")
        else:
            hi = kind & 0xF0
            n_data = 1 if hi in (0xC0, 0xD0) else 2
            if pos + n_data > len(body):
                raise MidiParseError("truncated channel event")
            d = body[pos : pos + n_data]
            pos += n_data
            if hi == 0x80 or hi == 0x90:
                if d[0] > 0x7F:
                    raise MidiParseError(f"note event with pitch byte {d[0]}")
                if hi == 0x90 and d[1] > 0:
                    note_events.append((tick, _ON, d[0], d[1]))
                else:
                    note_events.append((tick, _OFF, d[0], 0))
    return tick


def write_midi(score: MidiScore) -> bytes:
    """Serialize to SMF format 0 at the score's resolution. Notes and tempos
    are written at their ticks; a signature's bar start rounds half up to the
    tick grid."""
    res = score.resolution
    # (tick, priority, payload); priority: meta 0, note-on 1, note-off 2 so a
    # re-parse reproduces FIFO pairing (see parse_midi).
    events: list[tuple[int, int, bytes]] = []
    for _, at, num, den in _signature_runs(score):
        meta = bytes([0xFF, _META_TIME_SIGNATURE, 4, num, den.bit_length() - 1, 24, 8])
        events.append(((at + 8) // 16, 0, meta))
    for tick, bpm in score.tempo_map:
        usec = round(60_000_000.0 / bpm)
        events.append((tick, 0, bytes([0xFF, _META_TEMPO, 3]) + usec.to_bytes(3, "big")))
    for on, pitch, dur, vel in score.tick_notes:
        events.append((on, 1, bytes((0x90, pitch, vel))))
        events.append((on + dur, 2, bytes((0x80, pitch, 0))))

    events.sort(key=itemgetter(0, 1))
    out = bytearray()
    prev_tick = 0
    for tick, _, payload in events:
        delta = tick - prev_tick
        out += _write_varlen(delta) if delta > 0x7F else bytes((delta,))
        out += payload
        prev_tick = tick
    out += _write_varlen(0) + bytes([0xFF, _META_END_OF_TRACK, 0])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, res)
    return header + b"MTrk" + struct.pack(">I", len(out)) + bytes(out)


def load_midi(path) -> MidiScore:
    with open(path, "rb") as fh:
        return parse_midi(fh.read())


def save_midi(score: MidiScore, path) -> None:
    """Write `score` to a new file at `path`: an existing file is unlinked first,
    never written through, so another name linked to its bytes keeps them."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "xb") as fh:
        fh.write(write_midi(score))
