"""The integer-tick score paths against the Fraction reference in reference_score.py."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import reference_metrics
import reference_score as ref

from overpaint.metrics import polyphony
from overpaint.midi_io import (
    NoteEvent,
    make_score,
    note_seconds,
    parse_midi,
    quantize,
    score_from_ticks,
    seconds_at,
    seconds_to_ticks,
    slice_ticks,
    write_midi,
)
from overpaint.tokenizer import GRID, build_vocabulary, tokenize

VOCAB = build_vocabulary()
# At 30 and 98 ticks a beat some bar starts fall between ticks (a 1/16 bar is
# 7.5 and 24.5 ticks).
RESOLUTIONS = (480, 96, 100, 30, 98)


def random_tick_score(rng, res):
    """Distinct pitches (so FIFO pairing re-reads every note as written), random
    ticks, two or three tempo changes off the 1/12-beat grid and up to two
    signature changes."""
    n = int(rng.integers(1, 40))
    pitches = rng.choice(128, size=n, replace=False)
    ticks = [(int(rng.integers(0, 24 * res)), int(p), int(rng.integers(1, 4 * res)),
              int(rng.integers(1, 128))) for p in pitches]
    off_grid = [t for t in range(1, 24 * res) if t * GRID % res]
    changes = sorted(rng.choice(off_grid, size=int(rng.integers(2, 4)), replace=False))
    tempo = [(0, 120.0)] + [(int(t), float(rng.uniform(40, 200))) for t in changes]
    sigs = [(0, 4, 4)]
    for bar in sorted(rng.choice(np.arange(1, 8), size=int(rng.integers(0, 3)), replace=False)):
        sigs.append((int(bar), int(rng.integers(1, 13)), int(rng.choice([4, 8, 16]))))
    return score_from_ticks(ticks, tempo, sigs, res)


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_tick_paths_match_the_fraction_reference(res):
    rng = np.random.default_rng(res)
    for _ in range(20):
        score = random_tick_score(rng, res)
        beat_rows = ref.rows(score.tick_notes, res)
        tempos = ref.tempo_rows(score)
        assert ref.beat_notes(score) == [NoteEvent(*row) for row in beat_rows]

        data = write_midi(score)
        assert data == ref.write_midi(beat_rows, tempos, score)
        back = parse_midi(data)
        assert back.tick_notes == score.tick_notes and back.resolution == res
        assert back.time_signatures == score.time_signatures
        assert [b for b, _ in back.tempo_map] == [b for b, _ in score.tempo_map]
        assert write_midi(back) == data

        seconds = note_seconds(score)
        assert seconds == [(ref.seconds_at(tempos, on), ref.seconds_at(tempos, on + dur))
                           for _, on, dur, _ in beat_rows]
        for tick in [t for t, _ in score.tempo_map] + [on for on, _, _, _ in score.tick_notes]:
            assert seconds_to_ticks(score, seconds_at(score, tick)) == tick

        q = quantize(score, 12)
        assert q.resolution == (res if res % 12 == 0 else math.lcm(res, 12))
        assert ref.tempo_rows(q) == tempos
        want = ref.quantize(beat_rows, 12)
        assert ref.rows(q.tick_notes, q.resolution) == want
        assert quantize(q, 12).tick_notes == q.tick_notes
        assert tokenize(q, VOCAB) == ref.tokenize(want, q, VOCAB)
        assert polyphony(score) == reference_metrics.polyphony(score)
        assert polyphony(q) == reference_metrics.polyphony(q)

        # bounds at, just past and between the signature starts and tempo changes
        edges = {int(beat * res) for beat, _, _ in ref.signature_beats(score)}
        edges |= {t for t, _ in score.tempo_map}
        bounds = sorted(edges | {t + 1 for t in edges} | set(rng.integers(0, 80 * res, 6).tolist()))
        for _ in range(5):
            lo, hi = sorted(int(t) for t in rng.choice(bounds, size=2, replace=False))
            window = slice_ticks(score, lo, hi)
            start, end = F(lo, res), F(hi, res)
            want_rows = [(p, on - start, dur, vel) for p, on, dur, vel in beat_rows
                         if start <= on < end]
            want_tempos, want_sigs = ref.slice_context(score, start, end)
            assert ref.rows(window.tick_notes, res) == want_rows
            assert ref.tempo_rows(window) == want_tempos
            assert window.time_signatures == want_sigs
            assert write_midi(window) == ref.write_midi(want_rows, want_tempos, window)


def test_quantize_lifts_a_resolution_the_grid_does_not_divide():
    """100 ticks a beat hold no 1/12 beat: the quantized score is at 300, its
    tempo changes at the same beats."""
    score = score_from_ticks([(33, 60, 10, 64), (50, 62, 17, 64)], [(0, 90.0), (33, 150.0)],
                             resolution=100)
    q = quantize(score, 12)
    assert q.resolution == 300
    assert q.tick_notes == [(100, 60, 25, 64), (150, 62, 50, 64)]
    assert q.tempo_map == [(0, 90.0), (99, 150.0)]
    assert [(n.onset, n.duration) for n in ref.beat_notes(q)] == [(F(1, 3), F(1, 12)), (F(1, 2), F(1, 6))]
    assert parse_midi(write_midi(q)).tick_notes == q.tick_notes


def test_make_score_rounds_beats_as_the_writer_did():
    """Beat values off the tick grid round half up once, in make_score, to the
    ticks the Fraction writer gave them; a note keeps at least one tick."""
    rng = np.random.default_rng(5)
    for res in RESOLUTIONS:
        # one note per tick slot, so rounding cannot reorder notes
        slots = rng.choice(30 * res, size=12, replace=False)
        rows = [(int(p), F(int(k), res) + F(int(rng.integers(-49, 50)), 100 * res),
                 F(int(rng.integers(1, 400)), 7 * res), int(rng.integers(1, 128)))
                for p, k in zip(rng.choice(128, size=12, replace=False), slots)]
        rows = [(p, max(on, F(0)), dur, vel) for p, on, dur, vel in rows]
        # tempos off the tick grid, each in its own tick slot
        tempo_slots = sorted(rng.choice(np.arange(1, 30 * res), size=3, replace=False))
        tempos = [(F(0), 120.0)] + [(F(int(k), res) + F(int(rng.integers(-49, 50)), 100 * res),
                                     float(rng.uniform(40, 200))) for k in tempo_slots]
        score = make_score([NoteEvent(*row) for row in rows], tempos, resolution=res)
        assert write_midi(score) == ref.write_midi(rows, tempos, score)
        assert all(dur >= 1 for _, _, dur, _ in score.tick_notes)


def test_tokenize_reads_tempo_at_bar_starts_between_ticks():
    """At 30 ticks a beat a 1/16 bar is 7.5 ticks long: a tempo change at tick
    7 takes effect with bar 1 (from 7.5), one at tick 8 only with bar 2."""
    fast = VOCAB.tempo(VOCAB.tempo_bin(200.0))
    for tick, bar in [(7, 1), (8, 2)]:
        score = score_from_ticks([(0, 60, 5, 64), (15, 62, 5, 64)], [(0, 60.0), (tick, 200.0)],
                                 [(0, 1, 16)], resolution=30)
        tokens = tokenize(score, VOCAB)
        assert tokens == ref.tokenize(ref.rows(score.tick_notes, 30), score, VOCAB)
        assert tokens[:tokens.index(fast)].count(VOCAB.bar) - 1 == bar


def test_write_midi_rounds_a_signature_start_between_ticks_half_up():
    """At 30 ticks a beat a 1/16 bar is 7.5 ticks long: the 4/4 from bar 1 is
    written at tick 8 and reads back at bar 1."""
    score = score_from_ticks(time_signatures=[(0, 1, 16), (1, 4, 4)], resolution=30)
    data = write_midi(score)
    assert data == ref.write_midi([], ref.tempo_rows(score), score)
    assert bytes([8, 0xFF, 0x58, 4, 4, 2]) in data
    assert parse_midi(data).time_signatures == score.time_signatures


def test_slice_takes_tick_bounds():
    score = score_from_ticks([(0, 60, 100, 64), (100, 62, 100, 64)], resolution=100)
    assert slice_ticks(score, 100, 200).tick_notes == [(0, 62, 100, 64)]
