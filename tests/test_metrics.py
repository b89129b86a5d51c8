import csv
import math
from fractions import Fraction as F

import numpy as np
import pytest

import helpers
import reference_metrics as ref

from overpaint.metrics import (
    FeatureReport,
    feature_vector,
    format_cell,
    n_pitches,
    pitch_class_entropy,
    pitch_in_scale,
    pitch_range,
    polyphony,
    render_table,
    report,
    write_report_csv,
)
from overpaint.midi_io import NoteEvent, make_score, transpose


def random_score(rng, n_notes=None, off_grid=False):
    n = n_notes or int(rng.integers(1, 40))
    notes = []
    for _ in range(n):
        denominator = int(rng.choice([7, 5, 3])) if off_grid else 12
        onset = F(int(rng.integers(0, 16 * denominator)), denominator)
        duration = F(int(rng.integers(1, 4 * denominator)), denominator)
        notes.append(NoteEvent(int(rng.integers(0, 128)), onset, duration,
                               int(rng.integers(1, 128))))
    return make_score(notes)


# --- closed-form values -----------------------------------------------------------

def test_pitch_class_entropy_known_values():
    uniform = helpers.simple_score(list(range(60, 72)))  # all 12 classes once
    assert pitch_class_entropy(uniform) == pytest.approx(math.log2(12))
    assert pitch_class_entropy(helpers.simple_score([60, 60, 72])) == pytest.approx(0.0)
    assert pitch_class_entropy(helpers.simple_score([60, 61])) == pytest.approx(1.0)


def test_pitch_range_and_n_pitches():
    assert pitch_range(helpers.simple_score([60])) == 0.0
    assert pitch_range(helpers.simple_score([48, 60, 72])) == 24.0
    assert n_pitches(helpers.simple_score([60, 60, 72, 60])) == 2.0


def test_polyphony_worked_example():
    # Two overlapping one-beat notes offset by half a beat: 6 steps alone,
    # 6 steps together, 6 steps alone -> mean 4/3.
    score = helpers.score_from_tuples([
        (60, 0, 1, 80),
        (64, F(1, 2), 1, 80),
    ])
    assert polyphony(score) == pytest.approx(4 / 3)
    assert polyphony(helpers.simple_score([60, 62, 64])) == pytest.approx(1.0)
    chord = helpers.score_from_tuples([(60, 0, 2, 80), (64, 0, 2, 80), (67, 0, 2, 80)])
    assert polyphony(chord) == pytest.approx(3.0)


def test_polyphony_sub_step_note_counts_nothing():
    # A note shorter than one grid step that straddles no sample point.
    score = helpers.score_from_tuples([(60, F(1, 24), F(1, 48), 80)])
    assert polyphony(score) == 0.0


def test_pitch_in_scale_keyed_and_free():
    c_major = helpers.simple_score([60, 62, 64, 65, 67, 69, 71])
    assert pitch_in_scale(c_major, (0, "major")) == pytest.approx(1.0)
    with_chromatic = helpers.simple_score([60, 62, 64, 66])  # F# out of C major
    assert pitch_in_scale(with_chromatic, (0, "major")) == pytest.approx(3 / 4)
    a_minor = helpers.simple_score([57, 59, 60, 62, 64, 65, 67])
    assert pitch_in_scale(a_minor, (9, "minor")) == pytest.approx(1.0)
    chromatic = helpers.simple_score(list(range(60, 72)))
    assert pitch_in_scale(chromatic) == pytest.approx(7 / 12)
    assert pitch_in_scale(c_major) == pytest.approx(1.0)  # best of 24 keys
    with pytest.raises(ValueError):
        pitch_in_scale(c_major, (0, "dorian"))


def test_empty_score_raises_everywhere():
    empty = make_score()
    for fn in (pitch_class_entropy, pitch_range, polyphony, n_pitches, pitch_in_scale):
        with pytest.raises(ValueError):
            fn(empty)


# --- cross-checks against the brute-force reference -------------------------------

def test_metrics_match_reference_on_random_scores():
    rng = np.random.default_rng(11)
    for trial in range(60):
        score = random_score(rng, off_grid=(trial % 3 == 0))
        assert pitch_class_entropy(score) == pytest.approx(ref.pce(score), abs=1e-9)
        assert pitch_range(score) == ref.pitch_range(score)
        assert polyphony(score) == pytest.approx(ref.polyphony(score), abs=1e-9)
        assert n_pitches(score) == ref.n_pitches(score)
        key = (int(rng.integers(0, 12)), "major" if trial % 2 else "minor")
        assert pitch_in_scale(score, key) == pytest.approx(
            ref.pitch_in_scale(score, key), abs=1e-12
        )
        if trial % 5 == 0:
            assert pitch_in_scale(score) == pytest.approx(
                ref.pitch_in_scale(score), abs=1e-12
            )


def test_transposition_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        # keep pitches clear of the fold boundaries so transposing is a pure shift
        notes = [
            NoteEvent(int(rng.integers(24, 104)), F(int(rng.integers(0, 96)), 12),
                      F(int(rng.integers(1, 24)), 12), 80)
            for _ in range(int(rng.integers(1, 25)))
        ]
        score = make_score(notes)
        shift = int(rng.integers(-5, 7))
        moved = transpose(score, shift)
        assert pitch_class_entropy(moved) == pitch_class_entropy(score)  # bitwise
        assert pitch_range(moved) == pitch_range(score)
        assert polyphony(moved) == polyphony(score)
        assert n_pitches(moved) == n_pitches(score)
        key = (4, "major")
        co_key = ((key[0] + shift) % 12, key[1])
        assert pitch_in_scale(moved, co_key) == pitch_in_scale(score, key)
        assert pitch_in_scale(moved) == pitch_in_scale(score)  # the 24-key maximum
        assert feature_vector(moved, co_key) == feature_vector(score, key)
        assert feature_vector(moved) == feature_vector(score)

    # A fold moves a note by octaves, not by the shift: pitch classes and timing
    # still follow the shift, range and distinct pitches need not. So a
    # transposed record whose notes fold is measured, not derived.
    score = helpers.simple_score([60, 115, 127, 64])
    moved = transpose(score, 6)  # 127 + 6 folds down to 121, onto 115 + 6
    assert [n[1] for n in moved.tick_notes] == [66, 121, 121, 70]
    key, co_key = (9, "minor"), (3, "minor")
    assert pitch_class_entropy(moved) == pitch_class_entropy(score)
    assert polyphony(moved) == polyphony(score)
    assert pitch_in_scale(moved, co_key) == pitch_in_scale(score, key)
    assert pitch_in_scale(moved) == pitch_in_scale(score)
    assert (pitch_range(moved), n_pitches(moved)) == (55.0, 3.0)
    assert (pitch_range(score), n_pitches(score)) == (67.0, 4.0)


# --- aggregation ------------------------------------------------------------------

def test_report_aggregates_and_skips_empty():
    scores = [
        helpers.simple_score([60]),
        helpers.simple_score([60, 64]),
        make_score(),
        helpers.simple_score([60, 64, 67]),
    ]
    rep = report(scores, "demo")
    assert rep.label == "demo"
    assert rep.count == 3
    assert rep.skipped == 1
    mean, std = rep.stats["nop"]
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(math.sqrt(2 / 3))  # population std of 1, 2, 3


def test_report_keys_are_per_score():
    scores = [helpers.simple_score([60, 64, 67]), helpers.simple_score([61, 63])]
    rep = report(scores, "keys", keys=[(0, "major"), None])
    assert rep.stats["ps"][0] == pytest.approx((1.0 + 1.0) / 2)
    with pytest.raises(ValueError):
        report(scores, "bad", keys=[(0, "major")])


def test_report_all_empty_gives_nan():
    rep = report([make_score()], "none")
    assert rep.count == 0 and rep.skipped == 1
    assert all(math.isnan(mean) for mean, _ in rep.stats.values())


def test_feature_vector_fields():
    vec = feature_vector(helpers.simple_score([60, 64, 67]), key=(0, "major"))
    assert vec.nop == 3.0 and vec.ps == 1.0


def test_format_cell_and_table_layout():
    assert format_cell(1.2345, 0.549) == "1.23 ± 0.55"
    assert format_cell(math.nan, math.nan) == "-"
    reports = [
        report([helpers.simple_score([60, 64])], "a"),
        report([helpers.simple_score([60])], "b"),
    ]
    table = render_table(reports)
    lines = table.splitlines()
    assert lines[0].split() == ["Feature", "a", "b"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[-1].startswith("Count")
    assert any("Pitch Class Entropy" in line for line in lines)
    assert all(len(line.rstrip()) == len(line) for line in lines)


def test_write_report_csv_round_trip(tmp_path):
    reports = [report([helpers.simple_score([60, 64, 67])], "x")]
    out = tmp_path / "report.csv"
    write_report_csv(reports, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Feature", "x"]
    by_name = {row[0]: row[1:] for row in rows}
    mean_text, std_text = by_name["Number of Pitches"][0].split(",")
    assert float(mean_text) == 3.0 and float(std_text) == 0.0
    assert by_name["Count"] == ["1"]
    assert by_name["Skipped"] == ["0"]
