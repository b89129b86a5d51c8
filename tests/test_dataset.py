import csv
import json
from fractions import Fraction as F

import pytest

import helpers

from overpaint.dataset import (
    TRANSPOSITIONS,
    ManifestError,
    PairRecord,
    augment,
    export_csv,
    load_manifest,
    save_manifest,
    split_by_song,
)
from overpaint.midi_io import NoteEvent, make_score


def make_pair(pair_id="song_w000", song_id="song", key=(0, "major"), **kw):
    return PairRecord(
        pair_id=pair_id,
        song_id=song_id,
        original=helpers.simple_score([60, 64, 67]),
        variation=helpers.simple_score([60, 62, 64, 65]),
        window_start_bar=0,
        key=key,
        **kw,
    )


def test_pair_record_validation():
    with pytest.raises(ValueError, match="status"):
        make_pair(status="fine")
    with pytest.raises(ValueError, match="split"):
        make_pair(split="dev")
    for bad in (-6, 7):
        with pytest.raises(ValueError, match="transposition"):
            make_pair(transposition=bad)
    pair = make_pair()
    assert pair.status == "accepted" and pair.split == "unassigned"


# --- augmentation ------------------------------------------------------------------

def test_augment_produces_twelve_shifts_per_pair():
    pairs = [make_pair("a_w000", "a"), make_pair("b_w004", "b")]
    out = augment(pairs)
    assert len(out) == 24
    assert [p.pair_id for p in out[:12]] == [f"a_w000_t{t:+d}" for t in range(-5, 7)]
    assert [p.transposition for p in out[:12]] == list(range(-5, 7))
    assert TRANSPOSITIONS == tuple(range(-5, 7))
    # inputs stay untouched
    assert all(p.transposition == 0 for p in pairs)


def test_augment_identity_shift_preserves_scores():
    pair = make_pair()
    out = augment([pair])
    identity = next(p for p in out if p.transposition == 0)
    assert identity.pair_id == "song_w000_t+0"
    assert identity.original == pair.original
    assert identity.variation == pair.variation


def test_augment_shifts_pitches_and_key_together():
    pair = make_pair(key=(3, "major"))
    by_t = {p.transposition: p for p in augment([pair])}
    up = by_t[6]
    assert [n.pitch for n in up.original.notes] == [66, 70, 73]
    assert up.key == (9, "major")
    down = by_t[-5]
    assert [n.pitch for n in down.original.notes] == [55, 59, 62]
    assert down.key == (10, "major")
    no_key = augment([make_pair(key=None)])
    assert all(p.key is None for p in no_key)


def test_augment_folds_pitches_back_into_range():
    high = PairRecord(
        pair_id="hi_w000",
        song_id="hi",
        original=make_score([NoteEvent(125, F(0), F(1), 80)]),
        variation=make_score([NoteEvent(125, F(0), F(1), 80)]),
    )
    by_t = {p.transposition: p for p in augment([high])}
    assert by_t[6].original.notes[0].pitch == 119  # 131 folds down an octave


def test_augment_carries_split_assignment():
    pair = make_pair(split="val")
    assert all(p.split == "val" for p in augment([pair]))


def test_augment_rejects_already_transposed_input():
    pair = make_pair(transposition=2, pair_id="x_w000_t+2")
    with pytest.raises(ValueError, match="already transposed"):
        augment([pair])


# --- song-level splits -------------------------------------------------------------

def corpus_of(n_songs, pairs_per_song=2):
    pairs = []
    for s in range(n_songs):
        for w in range(pairs_per_song):
            pairs.append(make_pair(f"s{s:02d}_w{4 * w:03d}", f"s{s:02d}"))
    return pairs


def test_split_counts_largest_remainder_with_floor():
    def counts_for(n_songs):
        pairs = corpus_of(n_songs, pairs_per_song=1)
        split_by_song(pairs)
        by_split = {s: 0 for s in ("train", "val", "test")}
        for p in pairs:
            by_split[p.split] += 1
        return [by_split["train"], by_split["val"], by_split["test"]]

    assert counts_for(3) == [1, 1, 1]
    assert counts_for(5) == [3, 1, 1]
    assert counts_for(10) == [8, 1, 1]
    assert counts_for(20) == [16, 2, 2]


def test_split_keeps_songs_whole_and_is_deterministic():
    pairs = corpus_of(7, pairs_per_song=3)
    split_by_song(pairs, seed=5)
    per_song = {}
    for p in pairs:
        per_song.setdefault(p.song_id, set()).add(p.split)
    assert all(len(s) == 1 for s in per_song.values())
    assert {p.split for p in pairs} == {"train", "val", "test"}

    again = corpus_of(7, pairs_per_song=3)
    again.reverse()  # input order must not matter
    split_by_song(again, seed=5)
    assert {p.song_id: p.split for p in again} == {
        p.song_id: p.split for p in pairs
    }

    reseeded = corpus_of(7, pairs_per_song=3)
    split_by_song(reseeded, seed=6)
    assert {p.song_id: p.split for p in reseeded} != {
        p.song_id: p.split for p in pairs
    }


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError, match="at least 3 songs"):
        split_by_song(corpus_of(2))
    pairs = corpus_of(4)
    for ratios in ((0.5, 0.5), (0.8, 0.1, 0.2), (1.0, 0.0, 0.0), (0.8, 0.1, -0.1)):
        with pytest.raises(ValueError, match="ratios"):
            split_by_song(pairs, ratios=ratios)


# --- manifests ---------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    pairs = [
        make_pair("a_w000", "a", split="train"),
        make_pair("b_w004", "b", key=None, confidence=0.75, status="needs_review"),
        make_pair("c_w000_t+3", "c", transposition=3, key=(3, "minor"), split="test"),
    ]
    path = tmp_path / "corpus.jsonl"
    save_manifest(pairs, path)

    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {"midi_dir": "corpus_midi", "schema_version": 1}
    assert len(lines) == 4
    midi_dir = tmp_path / "corpus_midi"
    assert sorted(f.name for f in midi_dir.iterdir()) == sorted(
        f"{p.pair_id.replace('+', '+')}{suffix}"
        for p in pairs
        for suffix in (".orig.mid", ".var.mid")
    )

    loaded = load_manifest(path)
    assert loaded == pairs


def test_manifest_sanitizes_file_names(tmp_path):
    pair = make_pair("we ird/id_w000", "we ird/id")
    path = tmp_path / "m.jsonl"
    save_manifest([pair], path)
    assert (tmp_path / "m_midi" / "we_ird_id_w000.orig.mid").exists()
    assert load_manifest(path)[0].pair_id == "we ird/id_w000"


def test_manifest_load_is_all_or_nothing(tmp_path):
    pairs = [make_pair("a_w000", "a"), make_pair("b_w000", "b")]
    path = tmp_path / "m.jsonl"
    save_manifest(pairs, path)
    (tmp_path / "m_midi" / "b_w000.var.mid").unlink()
    with pytest.raises(ManifestError, match="missing MIDI payload"):
        load_manifest(path)


def test_manifest_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(missing)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ManifestError, match="empty"):
        load_manifest(empty)

    bad_header = tmp_path / "hdr.jsonl"
    bad_header.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="header"):
        load_manifest(bad_header)

    wrong_version = tmp_path / "ver.jsonl"
    wrong_version.write_text('{"schema_version": 9}\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="schema_version"):
        load_manifest(wrong_version)

    bad_line = tmp_path / "line.jsonl"
    bad_line.write_text('{"schema_version": 1, "midi_dir": "x"}\n{oops\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(bad_line)


def test_manifest_tolerates_blank_lines(tmp_path):
    pairs = [make_pair()]
    path = tmp_path / "m.jsonl"
    save_manifest(pairs, path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert load_manifest(path) == pairs


def test_export_csv(tmp_path):
    pairs = [make_pair(confidence=0.8125, split="train")]
    out = tmp_path / "pairs.csv"
    export_csv(pairs, out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair_id", "song_id", "transposition", "confidence", "status", "split"]
    assert rows[1] == ["song_w000", "song", "0", "0.8125", "accepted", "train"]
