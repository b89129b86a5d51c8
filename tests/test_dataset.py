import csv
import errno
import json
import logging
import os
from dataclasses import replace
from fractions import Fraction as F

import pytest

import helpers
from reference_score import beat_notes

from overpaint import cli, dataset, metrics, midi_io
from overpaint.dataset import (
    TRANSPOSITIONS,
    ManifestError,
    PairRecord,
    augment,
    export_csv,
    load_manifest,
    save_manifest,
    split_by_song,
    transposition_bases,
)
from overpaint.metrics import report, write_report_csv
from overpaint.midi_io import NoteEvent, load_midi, make_score, quantize, transpose
from overpaint.tokenizer import GRID, assemble_pair, build_vocabulary, tokenize, write_token_file


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


def _pitches(pairs):
    """Each record's original pitches by transposition, as transposition_bases
    gives them: its base's pitches moved by the shift."""
    return {p.transposition: [n[1] + t for n in b.original.tick_notes]
            for p, b, t in transposition_bases(pairs)}


def test_augment_shifts_pitches_and_key_together():
    """augment moves the key and shares the pair's scores; transposition_bases
    moves the pitches by the same shift."""
    pair = make_pair(key=(3, "major"))
    out = augment([pair])
    assert all(p.original is pair.original and p.variation is pair.variation for p in out)
    by_t = {p.transposition: p for p in out}
    assert by_t[6].key == (9, "major")
    assert by_t[-5].key == (10, "major")
    assert _pitches(out)[6] == [66, 70, 73]
    assert _pitches(out)[-5] == [55, 59, 62]
    no_key = augment([make_pair(key=None)])
    assert all(p.key is None for p in no_key)


def test_augment_folds_pitches_back_into_range():
    high = PairRecord(
        pair_id="hi_w000",
        song_id="hi",
        original=make_score([NoteEvent(125, F(0), F(1), 80)]),
        variation=make_score([NoteEvent(125, F(0), F(1), 80)]),
    )
    by_t = {p.transposition: (b, t) for p, b, t in transposition_bases(augment([high]))}
    base, shift = by_t[6]
    assert shift == 0 and base.source is None
    assert beat_notes(base.original)[0].pitch == beat_notes(base.variation)[0].pitch == 119  # 131 folds down an octave
    assert _pitches(augment([high]))[-5] == [120]  # no fold: the shared score moved by -5


def test_augment_carries_split_assignment():
    pair = make_pair(split="val")
    assert all(p.split == "val" for p in augment([pair]))


def test_augment_rejects_already_transposed_input():
    pair = make_pair(transposition=2, pair_id="x_w000_t+2", source="x_w000")
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
    c_untransposed, c_up3 = (
        p for p in augment([make_pair("c_w000", "c", key=(0, "minor"), split="test")])
        if p.transposition in (0, 3)
    )
    pairs = [
        make_pair("a_w000", "a", split="train"),
        make_pair("b_w004", "b", key=None, confidence=0.75, status="needs_review"),
        c_untransposed,
        c_up3,
    ]
    assert c_up3.pair_id == "c_w000_t+3" and c_up3.key == (3, "minor")
    path = tmp_path / "corpus.jsonl"
    save_manifest(pairs, path)

    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {"midi_dir": "corpus_midi", "schema_version": 2}
    assert len(lines) == 5
    midi_dir = tmp_path / "corpus_midi"
    assert sorted(f.name for f in midi_dir.iterdir()) == sorted(
        f"{base}{suffix}"
        for base in ("a_w000", "b_w004", "c_w000")
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
    bad_line.write_text('{"schema_version": 2, "midi_dir": "x"}\n{oops\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(bad_line)

    save_manifest([make_pair()], tmp_path / "key.jsonl")
    for key in ([0, "dorian"], [40, "major"], [True, "major"], [0, 1]):
        bad_key = _edit_manifest(tmp_path / "key.jsonl", tmp_path / "bad_key.jsonl",
                                 lambda records: [{**r, "key": key} for r in records])
        with pytest.raises(ManifestError, match="pair 'song_w000': bad key"):
            load_manifest(bad_key)


def _edge_pairs():
    """Two base pairs whose pitches sit near 0 and near 127, so transposing folds octaves."""
    low = PairRecord("low_w000", "low", helpers.simple_score([1, 4, 60]),
                     helpers.simple_score([0, 2, 5, 7]), key=(0, "major"), split="train")
    high = PairRecord("high_w004", "high", helpers.simple_score([120, 124, 127]),
                      helpers.simple_score([118, 122, 125, 126]), key=(9, "minor"), split="val")
    return [low, high]


def test_augmented_manifest_writes_and_parses_each_payload_once(tmp_path, monkeypatch):
    pairs = augment(_edge_pairs())
    assert {p.source for p in pairs} == {"low_w000", "high_w004"}
    path = tmp_path / "aug.jsonl"
    save_manifest(pairs, path)
    assert sorted(f.name for f in (tmp_path / "aug_midi").iterdir()) == [
        "high_w004.orig.mid", "high_w004.var.mid", "low_w000.orig.mid", "low_w000.var.mid",
    ]

    read = []

    def counting_load_midi(file):
        read.append(file.name)
        return load_midi(file)

    monkeypatch.setattr(dataset, "load_midi", counting_load_midi)
    loaded = load_manifest(path)
    assert sorted(read) == sorted(f.name for f in (tmp_path / "aug_midi").iterdir())
    assert loaded == pairs
    by_t = {(p.source, p.transposition): (b, t) for p, b, t in transposition_bases(loaded)}
    assert by_t["low_w000", -5][0].original.tick_notes[0][1] == 8  # 1 - 5 folds up an octave
    assert by_t["high_w004", 6][0].original.tick_notes[-1][1] == 121  # 127 + 6 folds down
    assert by_t["low_w000", -5][1] == by_t["high_w004", 6][1] == 0


def _tokens_and_report(manifest, out):
    """Run tokenize and report on `manifest`, writing into directory `out`."""
    assert cli.main(["--quiet", "tokenize", "--pairs", str(manifest), "--out-dir", str(out)]) == 0
    assert cli.main(["--quiet", "report", "--corpus", f"orig={manifest}:originals",
                     "--corpus", f"var={manifest}:variations", "--csv", str(out / "report.csv")]) == 0


def _edit_manifest(path, out, edit):
    """Copy manifest `path` to `out` with `edit(records)` applied to its records;
    the copy's header points at the original payload directory."""
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    header["midi_dir"] = str(path.parent / header["midi_dir"])
    out.write_text("".join(json.dumps(r) + "\n" for r in [header, *edit(records)]))
    return out


def test_load_refuses_what_save_refuses_to_write(tmp_path):
    """A source has one untransposed record, and its transposed records name
    that record's payloads: load_manifest refuses a hand-edited manifest that
    breaks either, as save_manifest refuses to write one."""
    path = tmp_path / "aug.jsonl"
    save_manifest(augment(_edge_pairs()), path)

    def twice(records):  # low_w000_t+1 claims to be untransposed
        return [{**r, "transposition": 0} if r["pair_id"] == "low_w000_t+1" else r for r in records]

    def borrowed(records):  # high_w004_t+2 names low_w000's original
        return [{**r, "original": "low_w000.orig.mid"} if r["pair_id"] == "high_w004_t+2" else r
                for r in records]

    with pytest.raises(ManifestError, match="'low_w000' has two untransposed records"):
        load_manifest(_edit_manifest(path, tmp_path / "twice.jsonl", twice))
    with pytest.raises(ManifestError, match="'high_w004_t\\+2' names other payloads"):
        load_manifest(_edit_manifest(path, tmp_path / "borrowed.jsonl", borrowed))
    assert cli.main(["--quiet", "tokenize", "--pairs", str(tmp_path / "borrowed.jsonl"),
                     "--out-dir", str(tmp_path / "tok")]) == 2
    assert not (tmp_path / "tok").exists()

    # A source whose untransposed record was deleted is refused, as is a v1 header.
    orphans = _edit_manifest(path, tmp_path / "orphans.jsonl",
                             lambda records: [r for r in records if r["pair_id"] != "low_w000_t+0"])
    with pytest.raises(ManifestError, match="'low_w000_t-5' has no untransposed record of its source 'low_w000'"):
        load_manifest(orphans)
    v1 = _edit_manifest(path, tmp_path / "v1.jsonl", lambda records: records)
    v1.write_text(v1.read_text().replace('"schema_version": 2', '"schema_version": 1', 1))
    with pytest.raises(ManifestError, match=r"unsupported schema_version 1 \(expected 2\)"):
        load_manifest(v1)


def test_load_refuses_a_transposed_record_without_a_source(tmp_path):
    """A transposed record with no source cannot be built, so save_manifest
    cannot write one and load_manifest refuses to read one: its payloads would
    pass for its scores."""
    path = tmp_path / "aug.jsonl"
    save_manifest(augment(_edge_pairs()), path)
    unsourced = _edit_manifest(path, tmp_path / "unsourced.jsonl", lambda records: [
        {k: v for k, v in r.items() if k != "source"} if r["pair_id"] == "high_w004_t-3" else r
        for r in records])
    with pytest.raises(ManifestError, match="'high_w004_t-3': transposition -3 without a source"):
        load_manifest(unsourced)
    assert cli.main(["--quiet", "tokenize", "--pairs", str(unsourced),
                     "--out-dir", str(tmp_path / "tok")]) == 2
    assert not (tmp_path / "tok").exists()


def _edit_one(pair_id, edit):
    """A manifest edit that applies `edit` to the record of `pair_id` alone."""
    return lambda header, records: (header, [edit(r) if r["pair_id"] == pair_id else r for r in records])


_BROKEN_MANIFESTS = {  # hand edits of an augmented manifest that save_manifest would not write
    "v1 header": lambda header, records: ({**header, "schema_version": 1}, records),
    "no t+0 record": lambda header, records: (header, [r for r in records if r["pair_id"] != "low_w000_t+0"]),
    "transposed, no source": _edit_one("high_w004_t-3", lambda r: {k: v for k, v in r.items() if k != "source"}),
    "two untransposed records": _edit_one("low_w000_t+1", lambda r: {**r, "transposition": 0}),
    "borrowed payload": _edit_one("high_w004_t+2", lambda r: {**r, "original": "low_w000.orig.mid"}),
    "dorian key": _edit_one("low_w000_t+3", lambda r: {**r, "key": [0, "dorian"]}),
    "tonic 40": _edit_one("high_w004_t+0", lambda r: {**r, "key": [40, "major"]}),
}


@pytest.mark.parametrize("case", list(_BROKEN_MANIFESTS))
def test_every_command_refuses_what_save_would_not_write(tmp_path, caplog, case):
    """review, augment, tokenize and report read a manifest alike: on each
    broken manifest every one exits 2 with load_manifest's message and writes nothing."""
    path = tmp_path / "aug.jsonl"
    save_manifest(augment(_edge_pairs()), path)
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    header, records = _BROKEN_MANIFESTS[case](header, records)
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
    with pytest.raises(ManifestError) as refused:
        load_manifest(path)
    decisions = tmp_path / "decisions.jsonl"
    decisions.write_text("")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "out"
    for argv in (["review", "--pairs", str(path), "--decisions", str(decisions), "--out", str(out / "r.jsonl")],
                 ["augment", "--pairs", str(path), "--out", str(out / "a.jsonl")],
                 ["tokenize", "--pairs", str(path), "--out-dir", str(out)],
                 ["report", "--corpus", f"orig={path}:originals", "--csv", str(out / "report.csv")]):
        caplog.clear()
        assert cli.main(["--quiet", *argv]) == 2, argv[0]
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [str(refused.value)]
        assert sorted(tmp_path.rglob("*")) == before, argv[0]


def test_an_augmented_manifest_saves_back_byte_for_byte(tmp_path):
    """What loads, saves: an augmented manifest loaded without scores and saved
    under its own name in another directory gives the same manifest bytes and
    payloads."""
    pairs = augment([*_edge_pairs(), _mid_pair()])
    pairs = [replace(p, status="rejected") if p.pair_id == "mid_w008_t+1" else p for p in pairs]
    path, copy = tmp_path / "a" / "aug.jsonl", tmp_path / "b" / "aug.jsonl"
    path.parent.mkdir()
    copy.parent.mkdir()
    save_manifest(pairs, path)
    save_manifest(load_manifest(path, scores=False), copy)
    assert copy.read_bytes() == path.read_bytes()
    payloads = {name: f.read_bytes() for name, f in _payload_files(path.parent / "aug_midi").items()}
    assert {name: f.read_bytes() for name, f in _payload_files(copy.parent / "aug_midi").items()} == payloads


def test_transposition_bases_derive_only_records_that_do_not_fold():
    pairs = augment(_edge_pairs())
    bases = {p.pair_id: (b.pair_id, t) for p, b, t in transposition_bases(pairs)}
    # low_w000's notes span 0-60: a downward shift past 0 folds, so those take
    # the slow path; high_w004's span 118-127: any upward shift folds.
    assert bases["low_w000_t-1"] == ("low_w000_t-1", 0)
    assert bases["low_w000_t+6"] == ("low_w000_t+0", 6)
    assert bases["high_w004_t+1"] == ("high_w004_t+1", 0)
    assert bases["high_w004_t-5"] == ("high_w004_t+0", -5)
    assert sum(b != pair_id for pair_id, (b, _) in bases.items()) == 6 + 5


def _mid_pair():
    """A base pair whose notes stay inside 0-127 under every shift."""
    return PairRecord("mid_w008", "mid", helpers.simple_score([48, 55, 60, 64]),
                      helpers.simple_score([50, 57, 62, 65, 67]), key=None, split="test")


def _slow_tokens_and_report(manifest, out):
    """Token files and report.csv computed record by record, each record's two
    scores transposed here: the path that the derivation in tokenize and report replaces."""
    accepted = [p for p in load_manifest(manifest) if p.status == "accepted"]
    scores = [(transpose(p.original, p.transposition), transpose(p.variation, p.transposition))
              for p in accepted]
    vocab = build_vocabulary()
    out.mkdir()
    for split in ("train", "val", "test"):
        seqs = [assemble_pair(tokenize(quantize(original, GRID), vocab),
                              tokenize(quantize(variation, GRID), vocab))
                for p, (original, variation) in zip(accepted, scores) if p.split == split]
        write_token_file(out / f"tokens_{split}.bin", seqs, vocab)
    keys = [p.key for p in accepted]
    write_report_csv([report([o for o, _ in scores], "orig", keys=keys),
                      report([v for _, v in scores], "var", keys=keys)], out / "report.csv")


def test_tokenize_and_report_match_the_record_by_record_oracle(tmp_path):
    """Derived records (no fold) and measured ones (every fold) together give
    the bytes of encoding and measuring each record on its own."""
    pairs = augment([*_edge_pairs(), _mid_pair()])
    # mid's untransposed record is not accepted, yet its siblings derive from it
    pairs = [replace(p, status="rejected") if p.pair_id == "mid_w008_t+0" else p for p in pairs]
    manifest = tmp_path / "aug.jsonl"
    save_manifest(pairs, manifest)
    derived = sum(t != 0 for _, _, t in transposition_bases(load_manifest(manifest)))
    assert derived == 11 + 11  # the 11 folding records are copies at shift 0

    fast = tmp_path / "fast"
    _tokens_and_report(manifest, fast)
    slow = tmp_path / "slow"
    _slow_tokens_and_report(manifest, slow)
    for name in ("tokens_train.bin", "tokens_val.bin", "tokens_test.bin", "report.csv"):
        assert (fast / name).read_bytes() == (slow / name).read_bytes(), name


def _counting(calls, name, fn):
    """`fn`, counting each call in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_tokenize_and_report_encode_and_measure_each_source_once(tmp_path, monkeypatch):
    """With no fold, tokenize encodes each source's two scores once and report
    measures each distinct (score, key) once, however many transpositions share them."""
    sources = [_mid_pair(), replace(_mid_pair(), pair_id="mid_w012", key=(2, "major")),
               replace(_mid_pair(), pair_id="other_w000", song_id="other", split="train")]
    manifest = tmp_path / "aug.jsonl"
    save_manifest(augment(sources), manifest)
    calls = {"tokenize": 0, "feature_vector": 0}
    monkeypatch.setattr(cli, "tokenize", _counting(calls, "tokenize", cli.tokenize))
    monkeypatch.setattr(metrics, "feature_vector", _counting(calls, "feature_vector", metrics.feature_vector))
    assert cli.main(["--quiet", "tokenize", "--pairs", str(manifest),
                     "--out-dir", str(tmp_path / "tok")]) == 0
    assert calls["tokenize"] == 2 * len(sources)
    assert cli.main(["--quiet", "report", "--corpus", f"orig={manifest}:originals",
                     "--corpus", f"var={manifest}:variations"]) == 0
    assert calls["feature_vector"] == 2 * len(sources)  # (score, key) per source and side


def test_prep_transposes_only_the_records_that_fold(tmp_path, monkeypatch):
    """From augment through report, a score is transposed only where a note
    folds: twice (original and variation) per folding record, each time
    transposition_bases runs, and never for records that derive."""
    calls = {"transpose": 0, "transposition_bases": 0}
    monkeypatch.setattr(midi_io, "transpose", _counting(calls, "transpose", midi_io.transpose))
    monkeypatch.setattr(dataset, "transpose", midi_io.transpose)
    monkeypatch.setattr(cli, "transposition_bases", _counting(calls, "transposition_bases", transposition_bases))
    for sources, folding in (([_mid_pair(), replace(_mid_pair(), pair_id="other_w000", song_id="other",
                                                     split="train")], 0),
                             (_edge_pairs(), 11)):
        calls.update(transpose=0, transposition_bases=0)
        manifest = tmp_path / f"aug{folding}.jsonl"
        save_manifest(augment(sources), manifest)
        _tokens_and_report(manifest, tmp_path / f"out{folding}")
        assert calls == {"transpose": 2 * folding * 2, "transposition_bases": 2}


def test_transposed_record_without_its_untransposed_sibling_writes_nothing(tmp_path):
    orphan = [p for p in augment(_edge_pairs()) if p.pair_id != "high_w004_t+0"]
    with pytest.raises(ManifestError, match="'high_w004_t-5' has no untransposed record"):
        save_manifest(orphan, tmp_path / "m.jsonl")
    with pytest.raises(ValueError, match="transposition 2 without a source"):
        make_pair("x_w000_t+2", "x", transposition=2)
    # x_y's payload name is x y's, but the record there is x y's, not x_y's
    other_source = [augment([make_pair("x y", "x")])[5], augment([make_pair("x_y", "x")])[6]]
    with pytest.raises(ManifestError, match="no untransposed record"):
        save_manifest(other_source, tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_a_transposed_record_holding_other_scores_writes_nothing(tmp_path):
    """Only the untransposed record's scores are written, so a transposed record
    that holds other scores in memory is refused rather than silently dropped."""
    pairs = augment([make_pair()])
    pairs[3] = replace(pairs[3], variation=helpers.simple_score([48, 50]))
    with pytest.raises(ManifestError, match="'song_w000_t-2' names other payloads than its source"):
        save_manifest(pairs, tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_two_sources_sharing_a_payload_name_write_nothing(tmp_path):
    clash = augment([make_pair("x y", "x"), make_pair("x_y", "x")])
    with pytest.raises(ManifestError, match="share the payload name x_y"):
        save_manifest(clash, tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


# --- payloads loaded without scores -------------------------------------------------

def _payload_files(midi_dir):
    return {f.name: f for f in midi_dir.iterdir()}


def _unreadable(*_):
    raise AssertionError("a payload loaded without scores was parsed or encoded")


def test_records_loaded_without_scores_are_saved_as_links(tmp_path, monkeypatch):
    pairs = augment(_edge_pairs())
    save_manifest(pairs, tmp_path / "aug.jsonl")
    monkeypatch.setattr(dataset, "load_midi", _unreadable)
    monkeypatch.setattr(dataset, "save_midi", _unreadable)
    bare = load_manifest(tmp_path / "aug.jsonl", scores=False)
    assert all(p.original is None and p.variation is None for p in bare)
    assert [(p.pair_id, p.source, p.transposition, p.key) for p in bare] == [
        (p.pair_id, p.source, p.transposition, p.key) for p in pairs]
    assert {f.name for p in bare for f in p.payloads} == set(_payload_files(tmp_path / "aug_midi"))

    save_manifest(bare, tmp_path / "copy.jsonl")
    monkeypatch.undo()
    source, linked = _payload_files(tmp_path / "aug_midi"), _payload_files(tmp_path / "copy_midi")
    assert sorted(linked) == sorted(source)
    for name, file in linked.items():
        assert os.path.samefile(file, source[name])
    assert load_manifest(tmp_path / "copy.jsonl") == pairs


def test_payloads_are_copied_where_a_link_fails(tmp_path, monkeypatch):
    save_manifest(augment(_edge_pairs()), tmp_path / "aug.jsonl")
    bare = load_manifest(tmp_path / "aug.jsonl", scores=False)

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link", str(src))

    monkeypatch.setattr(os, "link", cross_device)
    save_manifest(bare, tmp_path / "copy.jsonl")
    source, copied = _payload_files(tmp_path / "aug_midi"), _payload_files(tmp_path / "copy_midi")
    assert sorted(copied) == sorted(source)
    for name, file in copied.items():
        assert not os.path.samefile(file, source[name])
        assert file.read_bytes() == source[name].read_bytes()


def test_saving_over_the_loaded_manifest_keeps_every_payload(tmp_path):
    path = tmp_path / "aug.jsonl"
    save_manifest(augment(_edge_pairs()), path)
    before = {name: f.read_bytes() for name, f in _payload_files(tmp_path / "aug_midi").items()}
    save_manifest(load_manifest(path, scores=False), path)
    assert {name: f.read_bytes() for name, f in _payload_files(tmp_path / "aug_midi").items()} == before
    assert load_manifest(path) == augment(_edge_pairs())


def test_saving_in_place_keeps_payloads_that_another_record_names(tmp_path):
    """A hand-edited manifest whose records name each other's files: every
    payload is linked before any file is replaced, so each record keeps the
    score its manifest named."""
    path = tmp_path / "m.jsonl"
    save_manifest([make_pair("a_w000", "a"),
                   replace(make_pair("b_w000", "b"), original=helpers.simple_score([70, 72]))], path)
    header, a, b = path.read_text().splitlines()
    a, b = json.loads(a), json.loads(b)
    a["original"], b["original"] = b["original"], a["original"]
    path.write_text("\n".join([header, json.dumps(a), json.dumps(b)]) + "\n")
    named = load_manifest(path)
    save_manifest(load_manifest(path, scores=False), path)
    assert load_manifest(path) == named
    assert named[0].original == helpers.simple_score([70, 72])
    assert sorted(_payload_files(tmp_path / "m_midi")) == [
        "a_w000.orig.mid", "a_w000.var.mid", "b_w000.orig.mid", "b_w000.var.mid"]


def test_a_record_with_scores_is_encoded_though_it_has_payloads(tmp_path):
    """An in-memory edit of a loaded record is written, not replaced by its old file."""
    save_manifest([make_pair()], tmp_path / "m.jsonl")
    edited = load_manifest(tmp_path / "m.jsonl")
    edited[0].variation = helpers.simple_score([48, 50])
    save_manifest(edited, tmp_path / "edited.jsonl")
    assert load_manifest(tmp_path / "edited.jsonl")[0].variation == edited[0].variation
    assert load_manifest(tmp_path / "m.jsonl") == [make_pair()]


def test_a_missing_payload_fails_the_load_with_or_without_scores(tmp_path):
    save_manifest(augment(_edge_pairs()), tmp_path / "aug.jsonl")
    (tmp_path / "aug_midi" / "high_w004.var.mid").unlink()
    messages = []
    for scores in (True, False):
        with pytest.raises(ManifestError, match="'high_w004_t-5': missing MIDI payload") as info:
            load_manifest(tmp_path / "aug.jsonl", scores=scores)
        messages.append(str(info.value))
    assert messages[0] == messages[1]

    (tmp_path / "aug_midi" / "high_w004.var.mid").mkdir()  # there, but not a readable file
    with pytest.raises(ManifestError, match="'high_w004_t-5': missing MIDI payload"):
        load_manifest(tmp_path / "aug.jsonl")


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
