"""Plain-text lead sheets: chord symbols on a bar grid plus an optional melody.

File format, one song per file::

    title: Example Tune
    key: Eb major
    time: 4/4
    | Cmaj7 . A7 . |
    | Dm7 G7 . . |
    melody:
    0.0 C5 1
    0.2 E5 0.5

Each `|` line is one bar. Chord tokens sit on an even subdivision of the bar
('.' holds the previous chord; the token count must divide the numerator).
Melody rows are "bar.beat pitch duration [velocity]" with beat and duration in
quarter notes; pitch is a MIDI number or a note name like Eb5 (C4 = 60).
Bars count from 0 in melody rows, matching the order of the `|` lines.

Parsing places chords and melody on the tick grid of DEFAULT_RESOLUTION once:
a chord sits at its exact tick (a chord slot is a whole number of ticks in
every supported meter), and a melody note rounds as `make_score` rounds one
(half up, at least one tick). Realization and alignment then work on ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .midi_io import (
    DEFAULT_RESOLUTION,
    NUMERATOR_MAX,
    SUPPORTED_DENOMINATORS,
    MidiScore,
    bar_ticks,
    score_from_ticks,
)


class ChordParseError(ValueError):
    """Unparseable chord symbol; carries the offending position."""

    def __init__(self, message: str, text: str = "", pos: int = 0):
        super().__init__(f"{message} in chord {text!r} at position {pos}")
        self.text = text
        self.pos = pos


class LeadSheetError(ValueError):
    """Malformed lead-sheet text; message names the line."""


_LETTER_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Root-relative pitch classes per chord quality.
QUALITY_TONES: dict[str, tuple[int, ...]] = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "dom7": (0, 4, 7, 10),
    "maj7": (0, 4, 7, 11),
    "min7": (0, 3, 7, 10),
    "min7b5": (0, 3, 6, 10),
    "dim": (0, 3, 6),
    "dim7": (0, 3, 6, 9),
    "aug": (0, 4, 8),
    "sus4": (0, 5, 7),
    "sus2": (0, 2, 7),
    "maj6": (0, 4, 7, 9),
    "min6": (0, 3, 7, 9),
}

EXTENSION_OFFSETS = {"b9": 1, "9": 2, "#11": 6, "13": 9, "b13": 8}

# Surface spellings accepted for each quality, matched longest-first.
_QUALITY_SURFACES: list[tuple[str, str]] = sorted(
    [
        ("maj7", "maj7"), ("M7", "maj7"),
        ("m7b5", "min7b5"), ("min7b5", "min7b5"),
        ("min7", "min7"), ("m7", "min7"), ("-7", "min7"),
        ("dim7", "dim7"), ("o7", "dim7"),
        ("dim", "dim"), ("o", "dim"),
        ("maj6", "maj6"), ("6", "maj6"),
        ("min6", "min6"), ("m6", "min6"),
        ("sus4", "sus4"), ("sus2", "sus2"),
        ("aug", "aug"), ("+", "aug"),
        ("min", "min"), ("m", "min"), ("-", "min"),
        ("maj", "maj"), ("M", "maj"),
        ("7", "dom7"),
    ],
    key=lambda s: -len(s[0]),
)

_EXTENSION_SURFACES = sorted(EXTENSION_OFFSETS, key=len, reverse=True)


@dataclass(frozen=True)
class ChordSymbol:
    root: int
    quality: str = "maj"
    extensions: frozenset[str] = frozenset()
    bass: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.root <= 11:
            raise ValueError(f"root out of range: {self.root}")
        if self.quality not in QUALITY_TONES:
            raise ValueError(f"unknown quality: {self.quality}")
        bad = set(self.extensions) - set(EXTENSION_OFFSETS)
        if bad:
            raise ValueError(f"unknown extensions: {sorted(bad)}")
        if self.bass is not None and not 0 <= self.bass <= 11:
            raise ValueError(f"bass out of range: {self.bass}")
        object.__setattr__(self, "extensions", frozenset(self.extensions))


def _parse_pitch_class(text: str, pos: int, whole: str) -> tuple[int, int]:
    if pos >= len(text) or text[pos].upper() not in _LETTER_PC:
        raise ChordParseError("expected note letter A-G", whole, pos)
    pc = _LETTER_PC[text[pos].upper()]
    pos += 1
    if pos < len(text) and text[pos] in "#b":
        pc = (pc + 1) % 12 if text[pos] == "#" else (pc - 1) % 12
        pos += 1
    return pc, pos


def parse_chord(text: str) -> ChordSymbol:
    """Parse Root[#|b] Quality? Extension* (/Bass)? e.g. C, F#m7b5, Bb7b9/D."""
    text = text.strip()
    if not text:
        raise ChordParseError("empty chord", text, 0)
    root, pos = _parse_pitch_class(text, 0, text)

    body, bass = text[pos:], None
    if "/" in body:
        body, bass_text = body.split("/", 1)
        bass, end = _parse_pitch_class(bass_text, 0, text)
        if end != len(bass_text):
            raise ChordParseError("trailing characters after bass", text, pos)

    quality = "maj"
    for surface, name in _QUALITY_SURFACES:
        if body.startswith(surface):
            quality = name
            body = body[len(surface):]
            break

    extensions = set()
    while body:
        for surface in _EXTENSION_SURFACES:
            if body.startswith(surface):
                extensions.add(surface)
                body = body[len(surface):]
                break
        else:
            raise ChordParseError("unrecognized characters", text, len(text) - len(body))
    return ChordSymbol(root, quality, frozenset(extensions), bass)


def chord_tones(chord: ChordSymbol) -> list[int]:
    """Root-relative intervals sounded by the chord, bass folded in, sorted."""
    tones = set(QUALITY_TONES[chord.quality])
    tones.update(EXTENSION_OFFSETS[e] for e in chord.extensions)
    if chord.bass is not None:
        tones.add((chord.bass - chord.root) % 12)
    return sorted(tones)


def chord_template(chord: ChordSymbol) -> np.ndarray:
    """Unit-norm 12-dim chroma template: weight 1 on each chord tone."""
    v = np.zeros(12)
    for interval in chord_tones(chord):
        v[(chord.root + interval) % 12] = 1.0
    return v / np.linalg.norm(v)


# --- lead sheet text ----------------------------------------------------------


@dataclass
class LeadSheet:
    title: str
    time_signature: tuple[int, int] = (4, 4)
    key: tuple[int, str] | None = None  # (tonic pitch class, "major"|"minor")
    # (tick, chord) and sorted (onset, pitch, duration, velocity), in ticks
    # at DEFAULT_RESOLUTION from the sheet's start
    chords: list[tuple[int, ChordSymbol]] = field(default_factory=list)
    melody: list[tuple[int, int, int, int]] | None = None

    @property
    def bar_ticks(self) -> int:
        """Ticks per bar at DEFAULT_RESOLUTION."""
        return bar_ticks(*self.time_signature, DEFAULT_RESOLUTION)

    @property
    def n_bars(self) -> int:
        last = [self.chords[-1][0]] if self.chords else []
        last += [self.melody[-1][0]] if self.melody else []
        return max(last, default=0) // self.bar_ticks + 1


def _parse_note_name(token: str, line_no: int) -> int:
    m = re.fullmatch(r"([A-Ga-g])([#b]?)(-?\d+)", token)
    if m is None:
        raise LeadSheetError(f"line {line_no}: bad pitch {token!r}")
    pc = _LETTER_PC[m.group(1).upper()]
    if m.group(2) == "#":
        pc += 1
    elif m.group(2) == "b":
        pc -= 1
    return 12 * (int(m.group(3)) + 1) + pc


def _parse_fraction(token: str, line_no: int, what: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise LeadSheetError(f"line {line_no}: bad {what} {token!r}") from None


def _half_up_ticks(numerator: int, denominator: int) -> int:
    """The tick nearest numerator/denominator beats at DEFAULT_RESOLUTION, a
    half tick up, as `midi_io.beats_to_ticks` rounds, in integer arithmetic."""
    return (2 * numerator * DEFAULT_RESOLUTION + denominator) // (2 * denominator)


def parse_leadsheet(text: str) -> LeadSheet:
    sheet = LeadSheet(title="")
    bar = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if sheet.melody is not None:
            parts = line.split()
            if len(parts) not in (3, 4):
                raise LeadSheetError(f"line {line_no}: melody rows are 'bar.beat pitch dur [vel]'")
            where, pitch_tok, dur_tok = parts[:3]
            bar_txt, _, beat_txt = where.partition(".")
            try:
                m_bar = int(bar_txt)
            except ValueError:
                raise LeadSheetError(f"line {line_no}: bad bar index {bar_txt!r}") from None
            beat = _parse_fraction(beat_txt or "0", line_no, "beat")
            (n, d), bar_start = beat.as_integer_ratio(), m_bar * sheet.bar_ticks
            if m_bar < 0 or n < 0 or n * DEFAULT_RESOLUTION >= sheet.bar_ticks * d:
                raise LeadSheetError(f"line {line_no}: position {where!r} outside its bar")
            pitch = int(pitch_tok) if pitch_tok.lstrip("-").isdigit() else _parse_note_name(pitch_tok, line_no)
            if not 0 <= pitch <= 127:
                raise LeadSheetError(f"line {line_no}: pitch {pitch_tok!r} out of MIDI range")
            dn, dd = _parse_fraction(dur_tok, line_no, "duration").as_integer_ratio()
            if dn <= 0:
                raise LeadSheetError(f"line {line_no}: non-positive duration")
            vel_tok = parts[3] if len(parts) == 4 else "80"
            if not (vel_tok.isdigit() and 1 <= int(vel_tok) <= 127):
                raise LeadSheetError(f"line {line_no}: velocity {vel_tok!r} not an integer 1-127")
            on = bar_start + _half_up_ticks(n, d)
            off = bar_start + _half_up_ticks(n * dd + dn * d, d * dd)
            sheet.melody.append((on, pitch, max(off - on, 1), int(vel_tok)))
            continue

        if line.startswith("|"):
            _parse_bar_line(sheet, line, bar, line_no)
            bar += 1
        elif line.lower().rstrip(":") == "melody":
            sheet.melody = []
        elif bar > 0:
            raise LeadSheetError(f"line {line_no}: headers must precede bar lines")
        elif line.lower().startswith("title:"):
            sheet.title = line[6:].strip()
        elif line.lower().startswith("time:"):
            m = re.fullmatch(r"(\d+)\s*/\s*(\d+)", line[5:].strip())
            if m is None:
                raise LeadSheetError(f"line {line_no}: bad time signature")
            num, den = int(m.group(1)), int(m.group(2))
            if not 1 <= num <= NUMERATOR_MAX or den not in SUPPORTED_DENOMINATORS:
                raise LeadSheetError(f"line {line_no}: unsupported time signature {num}/{den}")
            sheet.time_signature = (num, den)
        elif line.lower().startswith("key:"):
            parts = line[4:].strip().split()
            if len(parts) != 2 or parts[1].lower() not in ("major", "minor"):
                raise LeadSheetError(f"line {line_no}: key is e.g. 'Eb major'")
            try:
                tonic, _ = _parse_pitch_class(parts[0], 0, parts[0])
            except ChordParseError as exc:
                raise LeadSheetError(f"line {line_no}: bad key tonic: {exc}") from exc
            sheet.key = (tonic, parts[1].lower())
        else:
            raise LeadSheetError(f"line {line_no}: unrecognized line {line!r}")

    if not sheet.chords:
        raise LeadSheetError("lead sheet has no chords")
    if sheet.melody:
        sheet.melody.sort()
    return sheet


def _parse_bar_line(sheet: LeadSheet, line: str, bar: int, line_no: int) -> None:
    if not line.endswith("|"):
        raise LeadSheetError(f"line {line_no}: bar line must end with '|'")
    tokens = line[1:-1].split()
    if not tokens:
        raise LeadSheetError(f"line {line_no}: empty bar")
    numerator = sheet.time_signature[0]
    if numerator % len(tokens) != 0:
        raise LeadSheetError(
            f"line {line_no}: {len(tokens)} chord slots do not divide {numerator} beats"
        )
    stride = sheet.bar_ticks // len(tokens)
    for i, token in enumerate(tokens):
        if token == ".":
            continue
        try:
            chord = parse_chord(token)
        except ChordParseError as exc:
            raise LeadSheetError(f"line {line_no}: {exc}") from exc
        sheet.chords.append((bar * sheet.bar_ticks + i * stride, chord))


def load_leadsheet(path) -> LeadSheet:
    with open(path, encoding="utf-8") as fh:
        return parse_leadsheet(fh.read())


# --- original segment realization --------------------------------------------

_CHORD_VELOCITY = 64
_CHORD_BASE_PITCH = 48  # C3; root position keeps voicings inside octaves 3-4


@dataclass
class Segment:
    """A window of the lead sheet realized as a quantizable score."""

    start_bar: int
    score: MidiScore


def original_segments(sheet: LeadSheet, window: int = 4) -> list[Segment]:
    """Tile the sheet into consecutive `window`-bar segments at
    DEFAULT_RESOLUTION. Melody notes are carried as-is; each chord sounds as a
    root position block from its tick to the next chord or the window end."""
    if window < 1:
        raise ValueError("window must be positive")

    segments = []
    for start in range(0, sheet.n_bars - window + 1, window):
        lo, hi = start * sheet.bar_ticks, (start + window) * sheet.bar_ticks
        notes = [(on - lo, pitch, dur, vel)
                 for on, pitch, dur, vel in sheet.melody or () if lo <= on < hi]
        blocks = [(tick - lo, chord) for tick, chord in sheet.chords if lo <= tick < hi]
        ends = [onset for onset, _ in blocks[1:]] + [hi - lo]
        for (onset, chord), until in zip(blocks, ends):
            base = _CHORD_BASE_PITCH + chord.root
            notes += [(onset, base + interval, until - onset, _CHORD_VELOCITY)
                      for interval in chord_tones(chord)]

        score = score_from_ticks(notes, time_signatures=[(0, *sheet.time_signature)],
                                 resolution=DEFAULT_RESOLUTION)
        segments.append(Segment(start, score))
    return segments
