import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

import helpers
import reference_alignment as ref
from reference_score import beat_notes

from overpaint.alignment import (
    DEFAULT_EMISSION_WEIGHT,
    AlignmentError,
    FrameSequence,
    apply_review,
    chroma_frames,
    extract_pairs,
    read_review_manifest,
    viterbi_align,
    write_review_manifest,
)
from overpaint.leadsheet import LeadSheet, original_segments, parse_leadsheet
from overpaint.midi_io import NoteEvent, make_score, score_from_ticks


# --- exhaustive oracle -------------------------------------------------------------

def all_monotone_paths(n_frames, n_states):
    """Every complete monotone path, encoded by its advance positions."""
    for advances in combinations(range(1, n_frames), n_states - 1):
        states = np.zeros(n_frames, dtype=np.int64)
        for a in advances:
            states[a:] += 1
        yield states


def oracle_align(emit, self_loop):
    """Brute-force best path, mirroring the incremental score accumulation."""
    log_stay = math.log(self_loop)
    log_advance = math.log(1.0 - self_loop)
    n, _ = emit.shape
    best_key, best_states = None, None
    for states in all_monotone_paths(n, emit.shape[1]):
        score = emit[0, states[0]]
        for k in range(1, n):
            score = score + (log_advance if states[k] != states[k - 1] else log_stay)
            score = score + emit[k, states[k]]
        key = (-score, int(states.sum()))
        if best_key is None or key < best_key:
            best_key, best_states = key, states
    return best_states, -best_key[0]


def random_instance(rng, max_frames=12, max_states=4, silence=0.0):
    n_states = int(rng.integers(1, max_states + 1))
    n_frames = int(rng.integers(n_states, max_frames + 1))
    frames = np.abs(rng.normal(size=(n_frames, 12)))
    for i in range(n_frames):
        if rng.random() < silence:
            frames[i] = 0.0
    norms = np.linalg.norm(frames, axis=1)
    loud = norms > 1e-12
    frames[loud] /= norms[loud, None]
    templates = np.abs(rng.normal(size=(n_states, 12))) + 1e-3
    templates /= np.linalg.norm(templates, axis=1, keepdims=True)
    return FrameSequence(frames, hop=0.1), templates, float(rng.uniform(0.2, 0.95))


def path_score(emit, states, self_loop):
    """Score of one specific path, same accumulation as the oracle."""
    log_stay = math.log(self_loop)
    log_advance = math.log(1.0 - self_loop)
    score = emit[0, states[0]]
    for k in range(1, len(states)):
        score = score + (log_advance if states[k] != states[k - 1] else log_stay)
        score = score + emit[k, states[k]]
    return score


def test_oracle_enumerates_all_paths():
    assert sum(1 for _ in all_monotone_paths(8, 3)) == math.comb(7, 2)
    only = list(all_monotone_paths(5, 1))
    assert len(only) == 1 and only[0].tolist() == [0, 0, 0, 0, 0]


def test_viterbi_matches_exhaustive_search():
    rng = np.random.default_rng(21)
    for _ in range(120):
        fs, templates, self_loop = random_instance(rng)
        path = viterbi_align(fs, templates, self_loop)
        emit = DEFAULT_EMISSION_WEIGHT * (fs.frames @ templates.T)
        want_states, want_score = oracle_align(emit, self_loop)
        assert np.array_equal(path.states, want_states)
        assert path.score == pytest.approx(want_score, abs=1e-12)


def test_viterbi_stays_optimal_with_silent_frames():
    # Silent frames emit zero in every slot, creating exact-score ties that
    # float accumulation order can break either way; the returned path must
    # still score within rounding noise of the exhaustive optimum.
    rng = np.random.default_rng(24)
    disagreements = 0
    for _ in range(60):
        fs, templates, self_loop = random_instance(rng, silence=0.3)
        path = viterbi_align(fs, templates, self_loop)
        emit = DEFAULT_EMISSION_WEIGHT * (fs.frames @ templates.T)
        want_states, want_score = oracle_align(emit, self_loop)
        if not np.array_equal(path.states, want_states):
            disagreements += 1
            replayed = path_score(emit, path.states, self_loop)
            assert replayed == pytest.approx(want_score, abs=1e-10)
        assert path.score == pytest.approx(want_score, abs=1e-10)
    assert disagreements < 20  # ties are the exception, not the rule


def test_viterbi_path_shape_properties():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n_states = int(rng.integers(1, 9))
        n_frames = int(rng.integers(n_states, 51))
        frames = np.abs(rng.normal(size=(n_frames, 12)))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        fs = FrameSequence(frames, hop=0.05)
        templates = np.abs(rng.normal(size=(n_states, 12))) + 1e-3
        templates /= np.linalg.norm(templates, axis=1, keepdims=True)
        path = viterbi_align(fs, templates)
        states = path.states
        assert states[0] == 0 and states[-1] == n_states - 1
        steps = np.diff(states)
        assert set(steps.tolist()) <= {0, 1}
        sim = fs.frames @ templates.T
        want_conf = float(np.mean(sim[np.arange(n_frames), states]))
        assert path.confidence == pytest.approx(want_conf, abs=1e-12)


def test_viterbi_tie_break_keeps_boundaries_late():
    # All-silent frames emit zero in every slot, so every complete path ties
    # on score at self_loop=0.5; the advance must then land as late as possible.
    fs = FrameSequence(np.zeros((6, 12)), hop=0.1)
    templates = np.zeros((3, 12))
    templates[:, 0] = 1.0
    path = viterbi_align(fs, templates, self_loop=0.5)
    assert path.states.tolist() == [0, 0, 0, 0, 1, 2]

    # Identical templates tie on every frame too, even with real content.
    rng = np.random.default_rng(23)
    frames = np.abs(rng.normal(size=(5, 12)))
    frames /= np.linalg.norm(frames, axis=1, keepdims=True)
    fs = FrameSequence(frames, hop=0.1)
    template = np.abs(rng.normal(size=12))
    template /= np.linalg.norm(template)
    path = viterbi_align(fs, np.stack([template, template]), self_loop=0.5)
    assert path.states.tolist() == [0, 0, 0, 0, 1]


def test_viterbi_matches_the_loop_reference_bitwise():
    """States, score and confidence equal the frame-by-frame loop's, on
    instances full of exact ties: silent frames, repeated templates and
    self_loop 0.5, where staying and advancing cost the same."""
    rng = np.random.default_rng(30)
    for trial in range(400):
        fs, templates, self_loop = random_instance(rng, max_frames=60, max_states=10,
                                                   silence=float(rng.uniform(0, 0.7)))
        if trial % 3 == 0:
            templates[:] = templates[int(rng.integers(len(templates)))]
        if trial % 2 == 0:
            self_loop = 0.5
        path = viterbi_align(fs, templates, self_loop)
        states, score, confidence = ref.viterbi_align(fs, templates, self_loop)
        assert np.array_equal(path.states, states)
        assert (path.score, path.confidence) == (score, confidence)


def test_viterbi_rejects_bad_inputs():
    fs = FrameSequence(np.zeros((3, 12)), hop=0.1)
    good = np.full((2, 12), 1 / math.sqrt(12))
    for bad_loop in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            viterbi_align(fs, good, self_loop=bad_loop)
    with pytest.raises(AlignmentError, match="at least one"):
        viterbi_align(fs, np.zeros((0, 12)))
    with pytest.raises(AlignmentError, match="templates"):
        viterbi_align(fs, np.zeros(12))
    with pytest.raises(AlignmentError, match="infeasible"):
        viterbi_align(fs, np.full((4, 12), 0.5))


def test_frame_sequence_validation():
    with pytest.raises(ValueError):
        FrameSequence(np.zeros((3, 7)), hop=0.1)
    with pytest.raises(ValueError):
        FrameSequence(np.zeros((3, 12)), hop=0.0)


# --- chroma frames -----------------------------------------------------------------

def test_chroma_sustained_note():
    # Two beats at the default 120 bpm last one second: ten frames, all unit
    # mass on pitch class 0.
    score = make_score([NoteEvent(60, F(0), F(2), 127)])
    fs = chroma_frames(score)
    assert len(fs) == 10
    assert np.all(fs.frames.any(axis=1))
    want = np.zeros(12)
    want[0] = 1.0
    assert np.allclose(fs.frames, want[None, :])


def test_chroma_velocity_and_coverage_weighting():
    score = make_score([
        NoteEvent(60, F(0), F(1, 5), 127),   # pc 0, covers the whole frame
        NoteEvent(64, F(0), F(1, 5), 64),    # pc 4, same span, half velocity
        NoteEvent(69, F(0), F(1, 10), 127),  # pc 9, covers half the frame
    ])
    fs = chroma_frames(score)
    assert len(fs) == 1
    row = fs.frames[0]
    assert row[4] / row[0] == pytest.approx(64 / 127, abs=1e-12)
    assert row[9] / row[0] == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_chroma_marks_silence():
    score = make_score([
        NoteEvent(60, F(0), F(1), 90),
        NoteEvent(62, F(4), F(1), 90),
    ])
    fs = chroma_frames(score)  # 2.5 s total
    assert len(fs) == 25
    sounding = fs.frames.any(axis=1)
    assert sounding[:5].all() and sounding[20:].all()
    assert np.all(fs.frames[5:20] == 0.0)


def random_performance(rng):
    """A score of up to four tempo segments, with silent stretches between
    clusters of notes. Half the notes sit on an eighth-note grid, which at
    60, 120 and 150 bpm puts their ends on frame edges of most hops below."""
    res = int(rng.choice([480, 96, 7]))
    tempos = [(0, float(rng.choice([60.0, 120.0, 150.0, rng.uniform(40, 240)])))]
    for _ in range(int(rng.integers(0, 4))):
        tempos.append((int(rng.integers(1, 30 * res)), float(rng.uniform(40, 240))))
    notes = []
    start = 0
    for _ in range(int(rng.integers(1, 5))):  # clusters, each after a gap
        start += int(rng.integers(0, 8 * res))
        for _ in range(int(rng.integers(1, 12))):
            on = start + int(rng.integers(0, 4 * res))
            dur = int(rng.integers(1, 4 * res))
            if rng.random() < 0.5:
                on, dur = on - on % max(res // 2, 1), max(res // 2, 1) * int(rng.integers(1, 6))
            notes.append((on, int(rng.integers(0, 128)), dur, int(rng.integers(1, 128))))
        start += 4 * res
    return score_from_ticks(notes, sorted(dict(tempos).items()), resolution=res)


def test_chroma_matches_the_loop_reference_bitwise():
    """One scatter-add over (note, frame) pairs gives the note-by-note loop's
    frames bit for bit, at hops from 0.01 to 1 s."""
    rng = np.random.default_rng(31)
    hops = (0.01, 0.05, 0.1, 0.125, 0.25, 0.3, 0.5, 1.0)
    for trial in range(300):
        score = random_performance(rng)
        hop = hops[trial % len(hops)] if trial % 4 else float(rng.uniform(0.01, 1.0))
        frames = chroma_frames(score, hop).frames
        want = ref.chroma_frames(score, hop).frames
        assert frames.shape == want.shape
        assert frames.tobytes() == want.tobytes()


def test_chroma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chroma_frames(make_score([NoteEvent(60, F(0), F(1), 90)]), hop=0.0)
    with pytest.raises(AlignmentError, match="empty"):
        chroma_frames(make_score())


# --- pair extraction ---------------------------------------------------------------

def test_extract_pairs_on_verbatim_performance(corpus_sheets):
    sheet = corpus_sheets["blue_garden"]
    performance = helpers.realize_performance(helpers.corpus_texts()["blue_garden"])
    pairs, dropped = extract_pairs(performance, sheet, "blue_garden", window=4)
    assert dropped == []
    assert [p.pair_id for p in pairs] == ["blue_garden_w000", "blue_garden_w004"]
    segments = original_segments(sheet, window=4)
    for pair, segment in zip(pairs, segments):
        assert pair.window_start_bar == segment.start_bar
        assert pair.status == "accepted"
        assert pair.confidence > 0.8
        assert pair.transposition == 0
        assert pair.key == sheet.key == (0, "major")
        assert beat_notes(pair.original) == beat_notes(segment.score)
        # a verbatim performance slices back to exactly the window content
        assert beat_notes(pair.variation) == beat_notes(segment.score)


def test_extract_pairs_low_confidence_is_kept_for_review():
    sheet = parse_leadsheet("title: clash\n" + "| C . . . |\n" * 4)
    # an F sharp major wash shares no pitch class with a C major template
    performance = make_score([
        NoteEvent(54, F(0), F(16), 100),
        NoteEvent(58, F(0), F(16), 100),
        NoteEvent(61, F(0), F(16), 100),
    ])
    pairs, dropped = extract_pairs(performance, sheet, "clash", window=4)
    assert dropped == []
    assert len(pairs) == 1
    assert pairs[0].confidence == pytest.approx(0.0, abs=1e-12)
    assert pairs[0].status == "needs_review"
    again, _ = extract_pairs(performance, sheet, "clash", window=4, min_confidence=0.0)
    assert again[0].status == "accepted"


def test_extract_pairs_drops_chordless_window():
    lines = ["title: sparse", "| C . . . |"] + ["| . . . . |"] * 7 + ["melody:"]
    lines += [f"{bar}.0 {60 + bar} 1" for bar in range(8)]
    sheet = parse_leadsheet("\n".join(lines) + "\n")
    assert sheet.n_bars == 8 and len(sheet.chords) == 1
    performance = helpers.realize_performance("\n".join(lines) + "\n")
    pairs, dropped = extract_pairs(performance, sheet, "sparse", window=4)
    assert [p.pair_id for p in pairs] == ["sparse_w000"]
    assert len(dropped) == 1 and "no chords in window" in dropped[0]


def test_extract_pairs_requires_chords():
    # the parser refuses chordless sheets, so build the degenerate one by hand
    melody = [(1920 * i, 60 + i, 480, 80) for i in range(4)]
    sheet = LeadSheet(title="bare", chords=[], melody=melody)
    performance = make_score([NoteEvent(60, F(0), F(16), 90)])
    with pytest.raises(AlignmentError, match="no chords"):
        extract_pairs(performance, sheet, "bare", window=4)


# --- review round trip -------------------------------------------------------------

def test_review_manifest_round_trip(tmp_path, corpus_sheets):
    sheet = corpus_sheets["red_harbor"]
    performance = helpers.realize_performance(helpers.corpus_texts()["red_harbor"])
    pairs, _ = extract_pairs(performance, sheet, "red_harbor", window=4)
    path = tmp_path / "review.jsonl"
    write_review_manifest(pairs, path)

    statuses = read_review_manifest(path)
    assert statuses == {p.pair_id: p.status for p in pairs}

    statuses["red_harbor_w004"] = "rejected"
    out = apply_review(pairs, statuses)
    assert out is not pairs or isinstance(out, list)
    by_id = {p.pair_id: p.status for p in pairs}
    assert by_id["red_harbor_w004"] == "rejected"
    assert by_id["red_harbor_w000"] == "accepted"
    # ids not mentioned in the sheet stay untouched
    apply_review(pairs, {"unknown_w000": "rejected"})
    assert {p.status for p in pairs} == {"accepted", "rejected"}


def test_review_manifest_tolerates_blank_lines(tmp_path):
    path = tmp_path / "review.jsonl"
    path.write_text(
        '{"pair_id": "a_w000", "status": "accepted"}\n\n'
        '{"pair_id": "a_w004", "status": "needs_review"}\n',
        encoding="utf-8",
    )
    assert read_review_manifest(path) == {"a_w000": "accepted", "a_w004": "needs_review"}


def test_review_manifest_rejects_bad_status(tmp_path):
    path = tmp_path / "review.jsonl"
    path.write_text('{"pair_id": "a_w000", "status": "maybe"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad status"):
        read_review_manifest(path)


def test_review_manifest_empty(tmp_path):
    path = tmp_path / "review.jsonl"
    write_review_manifest([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert read_review_manifest(path) == {}
