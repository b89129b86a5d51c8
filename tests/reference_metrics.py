"""Brute-force metric implementations used only to cross-check the real ones.

Same definitions, deliberately different structure: everything works from
plain (pitch, onset, duration) tuples with exact Fraction arithmetic and
no shared code with overpaint.metrics.
"""

import math
from fractions import Fraction

from reference_score import beat_notes

MAJOR = (0, 2, 4, 5, 7, 9, 11)
MINOR = (0, 2, 3, 5, 7, 8, 10)


def _as_rows(score):
    return [(n.pitch, Fraction(n.onset), Fraction(n.duration)) for n in beat_notes(score)]


def pce(score) -> float:
    rows = _as_rows(score)
    histogram = {}
    for pitch, _, _ in rows:
        histogram[pitch % 12] = histogram.get(pitch % 12, 0) + 1
    total = len(rows)
    return -math.fsum(
        (c / total) * math.log2(c / total) for c in histogram.values()
    )


def pitch_range(score) -> float:
    pitches = sorted(pitch for pitch, _, _ in _as_rows(score))
    return float(pitches[-1] - pitches[0])


def polyphony(score) -> float:
    """Mean simultaneous notes over occupied 1/12-beat sample points.

    Sample point k (at k/12 quarter beats) counts a note iff
    onset <= k/12 < onset + duration.
    """
    rows = _as_rows(score)
    last = max(onset + duration for _, onset, duration in rows)
    occupied = []
    k = 0
    while Fraction(k, 12) < last:
        t = Fraction(k, 12)
        sounding = sum(1 for _, onset, duration in rows if onset <= t < onset + duration)
        if sounding:
            occupied.append(sounding)
        k += 1
    if not occupied:
        return 0.0
    return math.fsum(occupied) / len(occupied)


def n_pitches(score) -> float:
    return float(len({pitch for pitch, _, _ in _as_rows(score)}))


def pitch_in_scale(score, key=None) -> float:
    rows = _as_rows(score)
    if key is not None:
        tonic, mode = key
        members = {(tonic + d) % 12 for d in (MAJOR if mode == "major" else MINOR)}
        return sum(1 for pitch, _, _ in rows if pitch % 12 in members) / len(rows)
    best = 0.0
    for tonic in range(12):
        for mode in ("major", "minor"):
            best = max(best, pitch_in_scale(score, (tonic, mode)))
    return best
