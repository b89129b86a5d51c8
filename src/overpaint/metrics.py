"""Symbolic-music evaluation metrics and corpus-level reporting.

Five per-score features: pitch class entropy, pitch range, polyphony over a
1/12-beat grid, number of distinct pitches, and pitch-in-scale rate. Corpus
reports aggregate each feature as mean and population standard deviation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .midi_io import MidiScore

GRID = 12  # grid steps per quarter note for polyphony

MAJOR_SCALE = frozenset({0, 2, 4, 5, 7, 9, 11})
NATURAL_MINOR_SCALE = frozenset({0, 2, 3, 5, 7, 8, 10})

METRIC_NAMES = (
    ("pce", "Pitch Class Entropy"),
    ("pr", "Pitch Range"),
    ("poly", "Polyphony"),
    ("nop", "Number of Pitches"),
    ("ps", "Pitch in Scale"),
)


@dataclass(frozen=True)
class FeatureVector:
    pce: float
    pr: float
    poly: float
    nop: float
    ps: float


def _pitch_classes(score: MidiScore) -> list[int]:
    """Note count per pitch class 0-11."""
    if not score.tick_notes:
        raise ValueError("empty score")
    counts = [0] * 12
    for _, pitch, _, _ in score.tick_notes:
        counts[pitch % 12] += 1
    return counts


def pitch_class_entropy(score: MidiScore) -> float:
    """Shannon entropy (bits) of the note-count pitch-class histogram.

    Terms are summed over sorted counts so transposition, which only permutes
    bins, leaves the result bitwise identical.
    """
    counts = _pitch_classes(score)
    total = len(score.tick_notes)
    h = 0.0
    for c in sorted(counts):
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def pitch_range(score: MidiScore) -> float:
    if not score.tick_notes:
        raise ValueError("empty score")
    pitches = [n[1] for n in score.tick_notes]
    return float(max(pitches) - min(pitches))


def polyphony(score: MidiScore) -> float:
    """Mean number of simultaneously sounding notes over occupied grid steps.

    A note covers the 1/12-beat steps k with k/12 in [onset, onset + duration),
    that is from ceil(onset * 12) up to ceil(end * 12), in ticks ceil-divided
    by the resolution. Notes come sorted by onset, so the occupied steps are
    one running union of those ranges.
    """
    if not score.tick_notes:
        raise ValueError("empty score")
    res = score.resolution
    sounding = occupied = reach = 0  # reach: the end of the union so far
    for on, _, dur, _ in score.tick_notes:
        first, last = -(-on * GRID // res), -(-(on + dur) * GRID // res)  # last exclusive
        if last > first:
            sounding += last - first
            occupied += max(last - max(first, reach), 0)
            reach = max(reach, last)
    if not occupied:
        # every duration shorter than one step and straddling no grid line
        return 0.0
    return sounding / occupied


def n_pitches(score: MidiScore) -> float:
    if not score.tick_notes:
        raise ValueError("empty score")
    return float(len({n[1] for n in score.tick_notes}))


def _scale_set(tonic: int, mode: str) -> frozenset[int]:
    base = MAJOR_SCALE if mode == "major" else NATURAL_MINOR_SCALE
    return frozenset((tonic + d) % 12 for d in base)


def pitch_in_scale(score: MidiScore, key: tuple[int, str] | None = None) -> float:
    """Fraction of notes whose pitch class lies in the key's scale.

    With no key, the best fit over all 24 major/natural-minor keys is used.
    """
    counts = _pitch_classes(score)
    total = len(score.tick_notes)
    if key is not None:
        tonic, mode = key
        if mode not in ("major", "minor"):
            raise ValueError(f"bad mode: {mode}")
        keys = [key]
    else:
        keys = [(tonic, mode) for mode in ("major", "minor") for tonic in range(12)]
    return max(sum(counts[pc] for pc in _scale_set(*k)) / total for k in keys)


def feature_vector(score: MidiScore, key: tuple[int, str] | None = None) -> FeatureVector:
    return FeatureVector(
        pce=pitch_class_entropy(score),
        pr=pitch_range(score),
        poly=polyphony(score),
        nop=n_pitches(score),
        ps=pitch_in_scale(score, key),
    )


# --- corpus aggregation -------------------------------------------------------


@dataclass
class FeatureReport:
    label: str
    count: int
    skipped: int
    stats: dict[str, tuple[float, float]]  # metric key -> (mean, population std)


def report(
    scores,
    label: str,
    keys=None,
) -> FeatureReport:
    """Aggregate features over a corpus. Empty scores are skipped and counted.

    `keys` is an optional parallel sequence of per-score keys for the
    pitch-in-scale metric (None entries fall back to the 24-key maximum).
    Each distinct (score object, key) is measured once.
    """
    scores = list(scores)
    keys = [None] * len(scores) if keys is None else list(keys)
    if len(keys) != len(scores):
        raise ValueError("keys must parallel scores")

    vectors = []
    skipped = 0
    measured = {}  # (id(score), key) -> its features
    for score, key in zip(scores, keys):
        if not score.tick_notes:
            skipped += 1
            continue
        if (id(score), key) not in measured:
            measured[id(score), key] = feature_vector(score, key)
        vectors.append(measured[id(score), key])

    stats: dict[str, tuple[float, float]] = {}
    for metric_key, _ in METRIC_NAMES:
        values = [getattr(v, metric_key) for v in vectors]
        if values:
            mean = sum(values) / len(values)
            var = sum((x - mean) ** 2 for x in values) / len(values)
            stats[metric_key] = (mean, math.sqrt(var))
        else:
            stats[metric_key] = (math.nan, math.nan)
    return FeatureReport(label, len(vectors), skipped, stats)


def format_cell(mean: float, std: float) -> str:
    if math.isnan(mean):
        return "-"
    return f"{mean:.2f} ± {std:.2f}"


def render_table(reports: list[FeatureReport]) -> str:
    """Fixed-width text grid: metric rows by corpus columns, then a count row."""
    header = ["Feature"] + [r.label for r in reports]
    rows = [header]
    for metric_key, metric_name in METRIC_NAMES:
        rows.append([metric_name] + [format_cell(*r.stats[metric_key]) for r in reports])
    rows.append(["Count"] + [str(r.count) for r in reports])

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(header))))
    return "\n".join(lines)


def write_report_csv(reports: list[FeatureReport], path) -> None:
    """CSV grid: metric rows by corpus columns, cells "mean,std"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Feature"] + [r.label for r in reports])
        for metric_key, metric_name in METRIC_NAMES:
            row = [metric_name]
            for r in reports:
                mean, std = r.stats[metric_key]
                row.append("" if math.isnan(mean) else f"{mean!r},{std!r}")
            writer.writerow(row)
        writer.writerow(["Count"] + [str(r.count) for r in reports])
        writer.writerow(["Skipped"] + [str(r.skipped) for r in reports])
