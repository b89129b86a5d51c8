"""Lead-sheet realization and window lookup, on ticks, against the Fraction
reference in reference_leadsheet.py, in meters other than 4/4."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import reference_leadsheet as ref
from overpaint.alignment import chroma_frames, extract_pairs, viterbi_align
from overpaint.leadsheet import (
    _half_up_ticks,
    chord_template,
    chord_tones,
    original_segments,
    parse_chord,
    parse_leadsheet,
)
from overpaint.midi_io import DEFAULT_RESOLUTION, beats_to_ticks, score_from_ticks

SIGNATURES = [(3, 4), (6, 8), (5, 16), (7, 8), (12, 16)]
CHORDS = ["C", "Am7", "Dm7", "G7", "Fmaj7", "Bb7b9", "E7/G#", "F#m7b5"]
CHORD_BARS = 9
MELODY_BARS = 11  # the melody runs two bars past the last chord line


def tones(token):
    chord = parse_chord(token)
    return [48 + chord.root + interval for interval in chord_tones(chord)]


def random_sheet(seed, num, den):
    """(text, reference chords, reference melody rows) of a seeded sheet: chord
    slots at every stride the meter allows, bars 4 and 5 chordless, melody
    onsets on thirds, quarters, fifths and sevenths of a beat."""
    rng = np.random.default_rng(seed)
    divisors = [d for d in range(1, num + 1) if num % d == 0]
    bars = []
    for bar in range(CHORD_BARS):
        slots = int(rng.choice(divisors))
        bars.append([str(rng.choice(CHORDS)) if rng.random() < 0.5 else "." for _ in range(slots)])
    bars[0][0] = "C"
    bars[4] = bars[5] = ["."]
    bpb = F(4 * num, den)
    lines = [f"title: t{seed}", f"time: {num}/{den}"] + [f"| {' '.join(b)} |" for b in bars]
    lines.append("melody:")
    melody = []
    for bar in range(MELODY_BARS):
        for _ in range(int(rng.integers(1 if bar == MELODY_BARS - 1 else 0, 4))):
            step = F(1, int(rng.choice([3, 4, 5, 7])))
            beat = step * int(rng.integers(0, math.ceil(bpb / step)))
            duration = F(int(rng.integers(1, 9)), int(rng.choice([2, 3, 7])))
            pitch, velocity = int(rng.integers(60, 85)), int(rng.integers(70, 111))
            lines.append(f"{bar}.{beat} {pitch} {duration} {velocity}")
            melody.append((pitch, bar * bpb + beat, duration, velocity))
    return "\n".join(lines) + "\n", ref.chord_beats(bars, num, den), melody


@pytest.mark.parametrize("num, den", SIGNATURES)
def test_original_segments_match_fraction_reference(num, den):
    for seed in range(4):
        text, chords, melody = random_sheet(seed, num, den)
        sheet = parse_leadsheet(text)
        assert sheet.n_bars == ref.n_bars(chords, melody, (num, den)) == MELODY_BARS
        for window in (1, 2, 4, MELODY_BARS):
            got = [(s.start_bar, s.score.tick_notes) for s in original_segments(sheet, window)]
            assert got == ref.segments(chords, melody, (num, den), window, tones), (seed, window)


@pytest.mark.parametrize("num, den", SIGNATURES)
def test_extract_pairs_windows_match_linear_scan(num, den):
    """Each window's chord slots, seen through its confidence (the mean
    similarity of the frames the path puts on them) and the chordless drop."""
    text, chords, melody = random_sheet(7, num, den)
    sheet = parse_leadsheet(text)
    (_, whole), = ref.segments(chords, melody, (num, den), sheet.n_bars, tones)
    performance = score_from_ticks(whole, time_signatures=[(0, num, den)])
    frames = chroma_frames(performance)
    templates = np.stack([chord_template(parse_chord(token)) for _, _, token in chords])
    path = viterbi_align(frames, templates)
    sim = frames.frames @ templates.T

    window = 2
    expected, expected_dropped = [], []
    for start in range(0, sheet.n_bars - window + 1, window):
        lo, hi = ref.slot_range(chords, start, window)
        if lo >= hi:
            expected_dropped.append(f"s_w{start:03d}: no chords in window")
            continue
        on_slots = np.nonzero((path.states >= lo) & (path.states < hi))[0]
        expected.append((f"s_w{start:03d}", float(np.mean(sim[on_slots, path.states[on_slots]]))))

    pairs, dropped = extract_pairs(performance, sheet, "s", window=window)
    assert [(p.pair_id, p.confidence) for p in pairs] == expected
    assert dropped == expected_dropped == ["s_w004: no chords in window"]


def test_half_up_ticks_rounds_as_beats_to_ticks():
    """The lead-sheet parser's integer rounding and midi_io.beats_to_ticks
    state one rule: the tick nearest n/d beats, a half tick up."""
    rng = np.random.default_rng(31)
    n, d = rng.integers(0, 10**6, 2000), rng.integers(1, 10**4, 2000)
    # n/d beats = k + 1/2 ticks exactly: n = (2k + 1) * m, d = 2 * DEFAULT_RESOLUTION * m
    k, m = rng.integers(0, 10**4, 500), rng.integers(1, 50, 500)
    halves = [((2 * a + 1) * b, 2 * DEFAULT_RESOLUTION * b) for a, b in zip(k.tolist(), m.tolist())]
    for num, den in [*zip(n.tolist(), d.tolist()), *halves, (0, 1), (1, 960)]:
        assert _half_up_ticks(num, den) == beats_to_ticks(F(num, den), DEFAULT_RESOLUTION), (num, den)
