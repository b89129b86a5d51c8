"""Fraction-valued score operations used only to cross-check the tick paths.

The same rules `overpaint.midi_io` and `overpaint.tokenizer` implemented when
scores kept beat values as exact fractions: notes are plain
(pitch, onset, duration, velocity) rows and tempos plain (beat, bpm) rows, both
in beats, and nothing here but the `beat_notes` view reads a score's
`tick_notes`. Time signatures are read from the (bar, num, den) entries of the
score they came with, and a bar of num/den is 4 * num / den beats; nothing here
calls the package's bar geometry.
"""

import struct
from fractions import Fraction

from overpaint.midi_io import NoteEvent

GRID = 12


def bar_beats(num, den):
    """Beats in a bar of num/den."""
    return Fraction(4 * num, den)


def signature_at_bar(score, bar):
    """(num, den) of the last signature entry at or before `bar`."""
    return [(n, d) for b, n, d in score.time_signatures if b <= bar][-1]


def signature_beats(score):
    """(beat, num, den) at which each of `score`'s signature entries starts."""
    out, beat, prev_bar, length = [], Fraction(0), 0, Fraction(0)
    for bar, num, den in score.time_signatures:
        beat += (bar - prev_bar) * length
        out.append((beat, num, den))
        prev_bar, length = bar, bar_beats(num, den)
    return out


def beat_notes(score):
    """A score's notes as beat-valued NoteEvents, in `tick_notes` order."""
    res = score.resolution
    return [NoteEvent(p, Fraction(on, res), Fraction(dur, res), vel)
            for on, p, dur, vel in score.tick_notes]


def rows(tick_notes, resolution):
    """(pitch, onset, duration, velocity) beat rows of (onset, pitch, duration, velocity) ticks."""
    return [(p, Fraction(on, resolution), Fraction(dur, resolution), vel)
            for on, p, dur, vel in tick_notes]


def tempo_rows(score):
    """(beat, bpm) rows of a score's (tick, bpm) tempo map."""
    return [(Fraction(t, score.resolution), bpm) for t, bpm in score.tempo_map]


def tempo_at(tempos, beat):
    """The bpm of the last tempo row at or before `beat`."""
    return [bpm for b, bpm in tempos if b <= beat][-1]


def seconds_at(tempos, beat):
    """Seconds at `beat` as the beat-valued code summed them: float() of each
    exact segment's beats, times 60, over its bpm."""
    total, (prev, bpm) = 0.0, tempos[0]
    for b, next_bpm in tempos[1:]:
        if b >= beat:
            break
        total += float(b - prev) * 60.0 / bpm
        prev, bpm = b, next_bpm
    return total + float(beat - prev) * 60.0 / bpm


def _round_half_up(x: Fraction) -> int:
    return int((2 * x + 1) // 2)


def _sort(note_rows):
    return sorted(note_rows, key=lambda n: (n[1], n[0], n[2], n[3]))


def quantize(note_rows, grid):
    """Onsets and durations to the nearest 1/grid beat, half up, durations >= 1/grid."""
    return _sort((p, Fraction(_round_half_up(on * grid), grid),
                  Fraction(max(_round_half_up(dur * grid), 1), grid), vel)
                 for p, on, dur, vel in note_rows)


def tokenize(note_rows, score, vocab):
    """REMI ids of grid-quantized beat rows under `score`'s maps."""
    tempos = tempo_rows(score)
    notes = _sort(note_rows)
    last_onset = notes[-1][1] if notes else Fraction(0)
    tokens, prev_sig, prev_tempo = [], None, None
    note_i, bar, bar_start = 0, 0, Fraction(0)
    while bar_start <= last_onset or bar == 0:
        sig = signature_at_bar(score, bar)
        tokens.append(vocab.bar)
        if sig != prev_sig:
            tokens.append(vocab.timesig(*sig))
            prev_sig = sig
        tempo = vocab.tempo_bin(tempo_at(tempos, bar_start))
        if tempo != prev_tempo:
            tokens.append(vocab.tempo(tempo))
            prev_tempo = tempo
        bar_end = bar_start + bar_beats(*sig)
        position = None
        while note_i < len(notes) and notes[note_i][1] < bar_end:
            p, on, dur, vel = notes[note_i]
            step = (on - bar_start) * GRID
            steps = dur * GRID
            assert step.denominator == 1 and steps.denominator == 1, "off the grid"
            if step != position:
                tokens.append(vocab.position(int(step)))
                position = step
            tokens += [vocab.pitch(p), vocab.velocity(min(vel // 4, 31)),
                       vocab.duration(int(steps))]
            note_i += 1
        bar_start, bar = bar_end, bar + 1
    return tokens


def _varlen(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def write_midi(note_rows, tempos, score):
    """Format-0 SMF bytes of beat rows and (beat, bpm) tempos under `score`'s
    signatures and resolution: every beat value rounds half up to the tick
    grid, notes last >= 1 tick."""
    res = score.resolution

    def tick(beat):
        return _round_half_up(Fraction(beat) * res)

    events = []
    for beat, num, den in signature_beats(score):
        meta = bytes([0xFF, 0x58, 4, num, den.bit_length() - 1, 24, 8])
        events.append((tick(beat), 0, meta))
    for beat, bpm in tempos:
        usec = round(60_000_000.0 / bpm)
        events.append((tick(beat), 0, bytes([0xFF, 0x51, 3]) + usec.to_bytes(3, "big")))
    for p, on, dur, vel in _sort(note_rows):
        start = tick(on)
        events.append((start, 1, bytes([0x90, p, vel])))
        events.append((max(tick(on + dur), start + 1), 2, bytes([0x80, p, 0])))
    events.sort(key=lambda e: (e[0], e[1]))
    body, prev = bytearray(), 0
    for t, _, payload in events:
        body += _varlen(t - prev) + payload
        prev = t
    body += bytes([0, 0xFF, 0x2F, 0])
    return (b"MThd" + struct.pack(">IHHH", 6, 0, 1, res)
            + b"MTrk" + struct.pack(">I", len(body)) + bytes(body))


def slice_context(score, start, end):
    """(tempo rows, (bar, num, den) signatures) of the slice [start, end) in
    beats. The tempo at `start` opens the slice and each later change keeps its
    beat minus `start`. The signature at `start` opens bar 0, and each later
    change sits at its beat minus `start`; bars run from 0 in the signature in
    force, and a change inside a bar takes effect at that bar's start (of two
    changes in one bar the later wins)."""
    tempos = tempo_rows(score)
    sliced = [(Fraction(0), tempo_at(tempos, start))]
    sliced += [(b - start, bpm) for b, bpm in tempos if start < b < end]
    runs = signature_beats(score)
    _, num, den = [r for r in runs if r[0] <= start][-1]
    changes = [(Fraction(0), num, den)] + [(b - start, n, d) for b, n, d in runs
                                           if start < b < end]
    bars, bar, bar_start, length = {}, 0, Fraction(0), Fraction(0)
    for beat, num, den in changes:
        while length and bar_start + length <= beat:
            bar, bar_start = bar + 1, bar_start + length
        bars[bar] = (num, den)
        length = bar_beats(num, den)
    return sliced, [(b, n, d) for b, (n, d) in sorted(bars.items())]
