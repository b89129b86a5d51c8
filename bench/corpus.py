"""Seeded synthetic inputs for the benchmark, built only on overpaint's public API.

A song is a 32-bar 4/4 lead sheet (diatonic seventh chords, a melody whose
density varies by song) plus a "performance" of it: re-struck comping with a
bass note, onset jitter, velocity spread, octave ornaments on the melody, and
a tempo between 90 and 170 bpm. A seeded share of 4-bar windows is played over
chords a tritone away from the sheet, so the aligner's confidence gate flags
them for review. Everything is a pure function of (seed, stream, song index).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from overpaint.leadsheet import original_segments, parse_leadsheet
from overpaint.midi_io import MidiScore, NoteEvent, make_score, quantize, save_midi
from overpaint.tokenizer import GRID, assemble_pair, tokenize, write_token_file

N_BARS = 32
WINDOW = 4  # bars per pair; the CLI's extract-pairs default
BEATS = 4
POOL_SONGS = 16  # songs per split whose windows the token workloads pick from

_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
_SCALES = {"major": (0, 2, 4, 5, 7, 9, 11), "minor": (0, 2, 3, 5, 7, 8, 10)}
# Diatonic seventh chord on each scale degree: (semitones above tonic, surface).
_DEGREES = {
    "major": ((0, "maj7"), (2, "m7"), (4, "m7"), (5, "maj7"), (7, "7"), (9, "m7"), (11, "m7b5")),
    "minor": ((0, "m7"), (2, "m7b5"), (3, "maj7"), (5, "m7"), (7, "7"), (8, "maj7"), (10, "7")),
}
_TONES = {"maj7": (0, 4, 7, 11), "m7": (0, 3, 7, 10), "7": (0, 4, 7, 10), "m7b5": (0, 3, 6, 10)}


@dataclass
class Song:
    stem: str  # lead sheet file stem
    title: str  # performance file stem; differs in case and separators
    text: str  # lead sheet text
    performance: MidiScore
    variations: list[MidiScore]  # the performance cut at each window, re-based to 0
    off_sheet: set[int]  # window start bars played over the wrong chords




def _chord_slots(rng, tonic: int, mode: str):
    """[(bar, beat, root pc, surface)] with one or two chords per bar."""
    slots = []
    degree = 0
    for bar in range(N_BARS):
        beats = (0,) if rng.random() < 0.7 else (0, 2)
        for beat in beats:
            step, surface = _DEGREES[mode][degree]
            slots.append((bar, beat, (tonic + step) % 12, surface))
            degree = int(rng.integers(7))
    return slots


def _melody(rng, tonic: int, mode: str, density: float):
    """[(bar, beat Fraction, pitch, duration Fraction)] on an eighth-note grid."""
    scale = _SCALES[mode]
    base = 60 + tonic
    rows = []
    for bar in range(N_BARS):
        k = int(np.clip(rng.poisson(3 * density), 1, 8))
        steps = sorted(int(s) for s in rng.choice(8, size=k, replace=False))
        for i, s in enumerate(steps):
            end = steps[i + 1] if i + 1 < len(steps) else 8
            pitch = base + scale[int(rng.integers(7))] + 12 * int(rng.integers(2))
            rows.append((bar, Fraction(s, 2), pitch, Fraction(end - s, 2)))
    return rows


def _sheet_text(title: str, tonic: int, mode: str, slots, melody) -> str:
    lines = [f"title: {title}", f"key: {_NAMES[tonic]} {mode}", "time: 4/4"]
    for bar in range(N_BARS):
        cells = ["."] * BEATS
        for b, beat, root, surface in slots:
            if b == bar:
                cells[beat] = _NAMES[root] + surface
        lines.append("| " + " ".join(cells if cells[2] != "." else cells[:1]) + " |")
    lines.append("melody:")
    lines += [f"{bar}.{beat} {pitch} {dur}" for bar, beat, pitch, dur in melody]
    return "\n".join(lines) + "\n"


def _velocity(rng, centre: float) -> int:
    return int(np.clip(round(rng.normal(centre, 12)), 1, 127))


def _jitter(rng, onset: Fraction) -> Fraction:
    return max(Fraction(0), onset + Fraction(int(rng.integers(-24, 25)), 480))


def _perform_window(rng, start_bar: int, slots, melody, off_sheet: bool, density: float):
    """Performance notes of bars [start_bar, start_bar + WINDOW), onsets re-based."""
    notes = []
    window = [s for s in slots if start_bar <= s[0] < start_bar + WINDOW]
    for i, (bar, beat, root, surface) in enumerate(window):
        onset = Fraction((bar - start_bar) * BEATS + beat)
        if i + 1 < len(window):
            nb, nbeat = window[i + 1][:2]
            until = Fraction((nb - start_bar) * BEATS + nbeat)
        else:
            until = Fraction(WINDOW * BEATS)
        if off_sheet:
            root = (root + 6) % 12
        notes.append(NoteEvent(36 + root, _jitter(rng, onset), until - onset, _velocity(rng, 72)))
        stride = Fraction(1) if density > 1.15 else Fraction(2)
        hit = onset
        while hit < until:
            length = min(stride, until - hit) * Fraction(3, 4)
            for interval in _TONES[surface]:
                notes.append(NoteEvent(48 + root + interval, _jitter(rng, hit), length,
                                       _velocity(rng, 60)))
            hit += stride
    for bar, beat, pitch, dur in melody:
        if not start_bar <= bar < start_bar + WINDOW:
            continue
        onset = _jitter(rng, (bar - start_bar) * BEATS + beat)
        notes.append(NoteEvent(pitch, onset, dur, _velocity(rng, 84)))
        if rng.random() < 0.2 and pitch + 12 <= 127:
            notes.append(NoteEvent(pitch + 12, onset, dur / 2, _velocity(rng, 70)))
    return notes


def make_song(seed: int, index: int, stream: int = 0) -> Song:
    """Song `index` of a seed's `stream`; note density cycles through four strata
    so any four consecutive songs span the whole range."""
    rng = np.random.default_rng([seed, stream, index])
    tonic = int(rng.integers(12))
    mode = "major" if rng.random() < 0.7 else "minor"
    density = 0.4 + 0.9 * (index % 4 + float(rng.random())) / 4
    bpm = float(rng.uniform(90, 170))
    slots = _chord_slots(rng, tonic, mode)
    melody = _melody(rng, tonic, mode, density)
    title = f"Song {index:03d}"
    text = _sheet_text(title, tonic, mode, slots, melody)

    starts = range(0, N_BARS, WINDOW)
    off_sheet = {s for s in starts if s > 0 and rng.random() < 0.15}
    notes = []
    variations = []
    for start in starts:
        window_notes = _perform_window(rng, start, slots, melody, start in off_sheet, density)
        shift = Fraction(start * BEATS)
        notes += [NoteEvent(n.pitch, n.onset + shift, n.duration, n.velocity)
                  for n in window_notes]
        variations.append(make_score(window_notes, tempo_map=[(0, bpm)],
                                     time_signatures=[(0, 4, 4)]))
    performance = make_score(notes, tempo_map=[(0, bpm)], time_signatures=[(0, 4, 4)])
    return Song(f"song_{index:03d}", title, text, performance, variations, off_sheet)


def write_prep_corpus(root: Path, seed: int, n_songs: int) -> tuple[list[Song], Path, Path]:
    """Write leadsheets/*.txt and performances/*.mid under `root`."""
    sheets_dir = root / "leadsheets"
    perf_dir = root / "performances"
    sheets_dir.mkdir(parents=True, exist_ok=True)
    perf_dir.mkdir(parents=True, exist_ok=True)
    songs = [make_song(seed, i) for i in range(n_songs)]
    for song in songs:
        (sheets_dir / f"{song.stem}.txt").write_text(song.text, encoding="utf-8")
        save_midi(song.performance, perf_dir / f"{song.title}.mid")
    return songs, sheets_dir, perf_dir


def pair_pool(seed: int, stream: int, n_songs: int, vocab) -> list[list[int]]:
    """BOS + original + SEP + variation + EOS for every on-sheet window of `n_songs` songs."""
    pool = []
    for index in range(n_songs):
        song = make_song(seed, index, stream)
        sheet = parse_leadsheet(song.text)
        for segment, variation in zip(original_segments(sheet, window=WINDOW), song.variations):
            if segment.start_bar in song.off_sheet:
                continue
            original = tokenize(quantize(segment.score, GRID), vocab)
            performed = tokenize(quantize(variation, GRID), vocab)
            pool.append(assemble_pair(original, performed))
    return pool


def pick_by_length(pool: list, targets, measure=len) -> list:
    """For each target in turn, the unused sequence whose measure is closest to it,
    preferring sequences inside the targets' range.

    This fixes the size distribution of a workload across seeds (and so its
    longest sequence, which sets peak memory) while the seed still chooses
    every note.
    """
    lo, hi = min(targets), max(targets)
    left = list(pool)
    picked = []
    for target in targets:
        best = min(range(len(left)), key=lambda i: (not lo <= measure(left[i]) <= hi,
                                                    abs(measure(left[i]) - target)))
        picked.append(left.pop(best))
    return picked


def write_token_corpus(out_dir, seed: int, targets: dict[str, list[int]], vocab,
                       measure=len) -> dict[str, list]:
    """tokens_<split>.bin and vocab.json under `out_dir`, as `overpaint tokenize` lays
    them out, with one sequence per target length. Each split draws from its own songs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.json")
    corpus = {}
    for stream, (split, wanted) in enumerate(sorted(targets.items()), start=1):
        pool = pair_pool(seed, stream, POOL_SONGS, vocab)
        corpus[split] = pick_by_length(pool, wanted, measure)
        write_token_file(out_dir / f"tokens_{split}.bin", corpus[split], vocab)
    return corpus
