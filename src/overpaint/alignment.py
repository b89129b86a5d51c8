"""Align performances to lead-sheet chord sequences and cut aligned pairs.

Chroma frames summarize the performance at a fixed hop; a monotone Viterbi
path maps every frame to one chord slot (all slots visited, in order). Frame
spans per lead-sheet window then locate the matching performance excerpt: a
window's slots are the chords whose ticks fall in its bars, and the frames
on them map back to performance ticks.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import STATUSES, PairRecord
from .leadsheet import LeadSheet, chord_template, original_segments
from .midi_io import (
    MidiScore,
    note_seconds,
    seconds_to_ticks,
    slice_ticks,
)

log = logging.getLogger("overpaint.alignment")

DEFAULT_HOP_SECONDS = 0.1
DEFAULT_SELF_LOOP = 0.9
DEFAULT_EMISSION_WEIGHT = 5.0
DEFAULT_MIN_CONFIDENCE = 0.5

_SILENT_NORM = 1e-12


class AlignmentError(ValueError):
    """Infeasible or malformed alignment problem."""


@dataclass
class FrameSequence:
    """Unit-norm chroma rows (silent rows are zero)."""

    frames: np.ndarray  # (n, 12) float64
    hop: float

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != 12:
            raise ValueError(f"frames must be (n, 12), got {self.frames.shape}")
        if self.hop <= 0:
            raise ValueError("hop must be positive")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class AlignmentPath:
    states: np.ndarray  # (n,) chord slot per frame, monotone
    score: float
    confidence: float  # mean per-frame cosine similarity, in [-1, 1]


def chroma_frames(performance: MidiScore, hop: float = DEFAULT_HOP_SECONDS) -> FrameSequence:
    """Velocity- and coverage-weighted pitch-class profile per hop window.

    Each note adds velocity/127 times the fraction of the frame it covers to
    its pitch class; frames are then L2-normalized (silent frames stay zero).
    Every (note, frame) pair is one array element, and one `np.add.at` adds
    them in note order, so each cell sums as a note-by-note loop would.
    """
    if hop <= 0:
        raise ValueError("hop must be positive")
    if not performance.tick_notes:
        raise AlignmentError("empty performance")

    a, b = np.array(note_seconds(performance)).T
    _, pitch, _, velocity = np.array(performance.tick_notes).T
    n_frames = max(1, math.ceil(b.max() / hop - 1e-9))
    first = np.maximum((a / hop).astype(np.int64), 0)
    last = np.minimum(np.ceil(b / hop).astype(np.int64), n_frames)
    counts = np.maximum(last - first, 0)
    note = np.repeat(np.arange(len(a)), counts)
    # frame k of each pair: first frame of its note plus its rank among the note's pairs
    k = np.arange(len(note)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    overlap = np.minimum(b[note], (k + 1) * hop) - np.maximum(a[note], k * hop)
    on = overlap > 0
    frames = np.zeros((n_frames, 12))
    np.add.at(frames, (k[on], pitch[note[on]] % 12),
              (velocity[note[on]] / 127.0) * (overlap[on] / hop))

    norms = np.linalg.norm(frames, axis=1)
    silent = norms <= _SILENT_NORM
    frames[~silent] /= norms[~silent, None]
    frames[silent] = 0.0
    return FrameSequence(frames, hop)


def viterbi_align(
    frames: FrameSequence,
    templates,
    self_loop: float = DEFAULT_SELF_LOOP,
) -> AlignmentPath:
    """Best monotone frame-to-slot path (start slot 0, end last slot, steps
    stay/advance).

    Maximizes summed weighted cosine emissions plus log transition terms. On
    exact score ties the path staying longest in early slots wins (boundaries
    as late as possible), realized as a secondary minimization of the summed
    state indices.
    """
    if not 0 < self_loop < 1:
        raise ValueError("self_loop must be in (0, 1)")
    templates = np.asarray(templates, dtype=np.float64)
    if templates.ndim != 2 or templates.shape[1] != 12:
        raise AlignmentError(f"templates must be (S, 12), got {templates.shape}")
    n_states = len(templates)
    n = len(frames)
    if n_states < 1:
        raise AlignmentError("need at least one chord slot")
    if n < n_states:
        raise AlignmentError(f"infeasible: {n} frames for {n_states} slots")

    sim = frames.frames @ templates.T  # silent rows are zero vectors: emission 0
    emit = DEFAULT_EMISSION_WEIGHT * sim
    log_stay = math.log(self_loop)
    log_advance = math.log(1.0 - self_loop)

    big = np.int64(1) << 62
    score = np.full(n_states, -np.inf)
    score[0] = emit[0, 0]
    state_sum = np.full(n_states, big, dtype=np.int64)
    state_sum[0] = 0
    came_via_advance = np.zeros((n, n_states), dtype=bool)
    state_index = np.arange(n_states, dtype=np.int64)

    # One set of buffers (and views of them) for every frame; adv[0] and
    # adv_sum[0] never change.
    stay = np.empty(n_states)
    adv = np.full(n_states, -np.inf)
    adv_sum = np.full(n_states, big, dtype=np.int64)
    tie = np.empty(n_states, dtype=bool)
    from_score, to_adv = score[:-1], adv[1:]
    from_sum, to_adv_sum = state_sum[:-1], adv_sum[1:]
    for take, row in zip(came_via_advance[1:], emit[1:]):
        np.add(score, log_stay, out=stay)
        np.add(from_score, log_advance, out=to_adv)
        np.copyto(to_adv_sum, from_sum)
        np.greater(adv, stay, out=take)
        np.equal(adv, stay, out=tie)
        if np.count_nonzero(tie):  # then the smaller state sum decides
            take |= tie & (adv_sum < state_sum)
        np.copyto(stay, adv, where=take)
        np.add(stay, row, out=score)
        np.copyto(state_sum, adv_sum, where=take)
        state_sum += state_index

    if not np.isfinite(score[n_states - 1]):
        raise AlignmentError("no feasible complete path")

    states = np.empty(n, dtype=np.int64)
    s = n_states - 1
    states[n - 1] = s
    for k in range(n - 1, 0, -1):
        if came_via_advance[k, s]:
            s -= 1
        states[k - 1] = s

    confidence = float(np.mean(sim[np.arange(n), states]))
    return AlignmentPath(states, float(score[n_states - 1]), confidence)


def extract_pairs(
    performance: MidiScore,
    sheet: LeadSheet,
    song_id: str,
    window: int = 4,
    hop: float = DEFAULT_HOP_SECONDS,
    self_loop: float = DEFAULT_SELF_LOOP,
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> tuple[list[PairRecord], list[str]]:
    """Align one performance to its lead sheet and cut window-aligned pairs.

    Returns (pairs, dropped) where dropped holds one reason string per window
    that produced no usable pair. Pairs below `min_confidence` are kept with
    status needs_review.
    """
    frames = chroma_frames(performance, hop)
    slots = sheet.chords
    if not slots:
        raise AlignmentError("lead sheet has no chords")
    templates = np.stack([chord_template(ch) for _, ch in slots])
    slot_ticks = [tick for tick, _ in slots]
    path = viterbi_align(frames, templates, self_loop)
    sim = frames.frames @ templates.T

    pairs: list[PairRecord] = []
    dropped: list[str] = []
    for segment in original_segments(sheet, window=window):
        start_bar = segment.start_bar
        name = f"{song_id}_w{start_bar:03d}"
        slot_lo = bisect_left(slot_ticks, start_bar * sheet.bar_ticks)
        slot_hi = bisect_left(slot_ticks, (start_bar + window) * sheet.bar_ticks)
        if slot_lo >= slot_hi:
            dropped.append(f"{name}: no chords in window")
            continue
        # the path visits every slot, so each window with a slot has frames
        in_window = np.nonzero((path.states >= slot_lo) & (path.states < slot_hi))[0]
        t0 = in_window[0] * frames.hop
        t1 = (in_window[-1] + 1) * frames.hop
        lo, hi = seconds_to_ticks(performance, t0), seconds_to_ticks(performance, t1)
        if hi <= lo:
            dropped.append(f"{name}: degenerate beat span")
            continue
        variation = slice_ticks(performance, lo, hi)
        if not variation.tick_notes:
            dropped.append(f"{name}: empty variation slice")
            continue
        confidence = float(np.mean(sim[in_window, path.states[in_window]]))
        pairs.append(
            PairRecord(
                pair_id=name,
                song_id=song_id,
                original=segment.score,
                variation=variation,
                transposition=0,
                confidence=confidence,
                status="accepted" if confidence >= min_confidence else "needs_review",
                window_start_bar=start_bar,
                key=sheet.key,
            )
        )
    for reason in dropped:
        log.info("dropped window: %s", reason)
    return pairs, dropped


# --- human review round-trip --------------------------------------------------


def write_review_manifest(pairs, path) -> None:
    """JSONL review sheet: one editable status line per pair."""
    lines = []
    for p in pairs:
        lines.append(
            json.dumps(
                {
                    "pair_id": p.pair_id,
                    "song_id": p.song_id,
                    "window_start_bar": p.window_start_bar,
                    "confidence": p.confidence,
                    "status": p.status,
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_review_manifest(path) -> dict[str, str]:
    """pair_id -> status from an edited review sheet."""
    out: dict[str, str] = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict) or not isinstance(rec.get("pair_id"), str):
            raise ValueError(f"review line {i}: not a record with a string pair_id")
        status = rec.get("status")
        if status not in STATUSES:
            raise ValueError(f"review line {i}: bad status {status!r}")
        out[rec["pair_id"]] = status
    return out


def apply_review(pairs, statuses: dict[str, str]) -> list[PairRecord]:
    for p in pairs:
        if p.pair_id in statuses:
            p.status = statuses[p.pair_id]
    return list(pairs)
