import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from reference_score import beat_notes
from overpaint.midi_io import MidiScore, NoteEvent, bar_ticks, make_score, transpose, write_midi
from overpaint.tokenizer import (
    BOS,
    EOS,
    GRID,
    MAX_LEN,
    MAX_POSITIONS,
    PAD,
    SEP,
    TokenizeError,
    VocabularyMismatchError,
    assemble_pair,
    build_vocabulary,
    detokenize_with_report,
    load_vocabulary,
    read_token_file,
    tokenize,
    transpose_tokens,
    velocity_bin,
    velocity_center,
    write_token_file,
)

VOCAB = build_vocabulary()

# Pinned so silent vocabulary drift breaks loudly; every artifact embeds this.
VOCAB_DIGEST = "570683b2d0f4eb1cd40ebb4be7bbc875bed74b3f66791da2ba89b63817e50254"


# --- vocabulary layout -------------------------------------------------------------

def test_vocabulary_size_and_family_layout():
    # 5 specials, 12*5 signatures, 32 tempi, 576 positions, 128 pitches,
    # 32 velocity bins, 96 durations
    assert len(VOCAB) == 5 + 60 + 32 + 576 + 128 + 32 + 96 == 929
    assert (PAD, BOS, EOS, SEP) == (0, 1, 2, 3)
    assert VOCAB.names[:5] == ("PAD", "BOS", "EOS", "SEP", "Bar")
    assert VOCAB.family_start == {
        "Bar": 4,
        "TimeSig": 5,
        "Tempo": 65,
        "Position": 97,
        "Pitch": 673,
        "Velocity": 801,
        "Duration": 833,
    }
    assert MAX_POSITIONS == 12 * 4 * GRID // 1 == 576
    assert len(set(VOCAB.names)) == len(VOCAB.names)
    assert all(VOCAB.index[name] == i for i, name in enumerate(VOCAB.names))


def test_vocabulary_digest_is_stable():
    assert VOCAB.digest == VOCAB_DIGEST
    assert build_vocabulary() is VOCAB  # cached singleton


def test_velocity_binning():
    assert [velocity_bin(v) for v in (0, 3, 4, 64, 127)] == [0, 0, 1, 16, 31]
    assert velocity_center(0) == 2 and velocity_center(31) == 126
    for b in range(32):
        assert velocity_bin(velocity_center(b)) == b


def test_family_encoders():
    assert VOCAB.bar == 4
    assert VOCAB.timesig(4, 4) == VOCAB.index["TimeSig_4/4"] == 22
    assert VOCAB.position(0) == 97 and VOCAB.position(575) == 672
    assert VOCAB.pitch(0) == 673 and VOCAB.pitch(127) == 800
    assert VOCAB.velocity(0) == 801 and VOCAB.velocity(31) == 832
    assert VOCAB.duration(1) == 833 and VOCAB.duration(96) == 928
    assert VOCAB.duration(0) == 833 and VOCAB.duration(500) == 928  # clamped
    for step in (-1, 576):
        with pytest.raises(TokenizeError):
            VOCAB.position(step)
    with pytest.raises(TokenizeError):
        VOCAB.timesig(13, 4)
    with pytest.raises(TokenizeError):
        VOCAB.timesig(4, 3)


def test_tempo_binning_is_log_spaced():
    centers = VOCAB.tempo_centers
    assert centers[0] == 30.0 and centers[-1] == 300.0
    ratios = [centers[i + 1] / centers[i] for i in range(31)]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)
    assert VOCAB.tempo_bin(30.0) == 0
    assert VOCAB.tempo_bin(300.0) == 31
    assert VOCAB.tempo_bin(5.0) == 0 and VOCAB.tempo_bin(999.0) == 31  # clamped
    # nearest neighbor in log space: just above the geometric midpoint flips
    mid = math.sqrt(centers[10] * centers[11])
    assert VOCAB.tempo_bin(mid * 0.999) == 10
    assert VOCAB.tempo_bin(mid * 1.001) == 11


def test_decode_inverts_encoders():
    assert VOCAB.decode(0) == ("PAD", None)
    assert VOCAB.decode(4) == ("Bar", None)
    assert VOCAB.decode(VOCAB.timesig(3, 8)) == ("TimeSig", (3, 8))
    assert VOCAB.decode(VOCAB.tempo(5)) == ("Tempo", 5)
    assert VOCAB.decode(VOCAB.position(17)) == ("Position", 17)
    assert VOCAB.decode(VOCAB.pitch(60)) == ("Pitch", 60)
    assert VOCAB.decode(VOCAB.velocity(9)) == ("Velocity", 9)
    assert VOCAB.decode(VOCAB.duration(7)) == ("Duration", 7)
    for bad in (-1, 929):
        with pytest.raises(TokenizeError):
            VOCAB.decode(bad)


def _decode_by_name(token):
    """Reference decode: parse the family and value back out of the token name."""
    name = VOCAB.names[token]
    family, _, payload = name.partition("_")
    if family in ("PAD", "BOS", "EOS", "SEP", "Bar"):
        return name, None
    if family == "TimeSig":
        num, den = payload.split("/")
        return "TimeSig", (int(num), int(den))
    return family, int(payload)


def test_decode_matches_token_names_for_every_id():
    for token in range(len(VOCAB)):
        assert VOCAB.decode(token) == _decode_by_name(token), token


def test_timesig_family_is_exactly_the_normalized_signatures():
    normalized = {
        tuple(make_score(time_signatures=[(0, n, d)]).time_signatures[0][1:])
        for n in range(-2, 20)
        for d in range(0, 40)
    }
    start = VOCAB.family_start["TimeSig"]
    timesigs = [VOCAB.decode(t)[1] for t in range(start, VOCAB.family_start["Tempo"])]
    assert len(set(timesigs)) == len(timesigs)
    assert set(timesigs) == normalized
    assert all(VOCAB.timesig(*sig) == start + i for i, sig in enumerate(timesigs))
    assert MAX_POSITIONS == max(bar_ticks(*sig, GRID) for sig in timesigs)


def test_vocabulary_save_load_and_mismatch(tmp_path):
    path = tmp_path / "vocab.json"
    VOCAB.save(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == 1 and data["grid"] == 12
    assert len(data["tokens"]) == 929
    assert [float(c) for c in data["tempo_centers"]][0] == 30.0
    assert load_vocabulary(path) is VOCAB

    data["hash"] = "0" * 64
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(VocabularyMismatchError):
        load_vocabulary(path)

    data["hash"] = VOCAB_DIGEST
    data["version"] = 2
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(VocabularyMismatchError, match="version"):
        load_vocabulary(path)
    assert issubclass(VocabularyMismatchError, TokenizeError)

    for not_an_object in ([], "x", 3):
        path.write_text(json.dumps(not_an_object), encoding="utf-8")
        with pytest.raises(VocabularyMismatchError, match="not a JSON object"):
            load_vocabulary(path)


# --- encoding ----------------------------------------------------------------------

def test_tokenize_grammar_by_hand():
    score = make_score([
        NoteEvent(60, F(0), F(1), 80),
        NoteEvent(64, F(0), F(1), 80),
        NoteEvent(67, F(3, 2), F(1, 2), 100),
    ])
    tempo_token = VOCAB.tempo(VOCAB.tempo_bin(120.0))
    assert tokenize(score) == [
        VOCAB.bar,
        VOCAB.timesig(4, 4),
        tempo_token,
        VOCAB.position(0),
        VOCAB.pitch(60), VOCAB.velocity(20), VOCAB.duration(12),
        VOCAB.pitch(64), VOCAB.velocity(20), VOCAB.duration(12),
        VOCAB.position(18),
        VOCAB.pitch(67), VOCAB.velocity(25), VOCAB.duration(6),
    ]


def test_tokenize_spans_empty_bars():
    score = make_score([NoteEvent(60, F(4), F(1), 80)])
    tokens = tokenize(score)
    assert tokens.count(VOCAB.bar) == 2
    # bar 0 carries the signature and tempo, bar 1 only the note
    assert tokens[:3] == [VOCAB.bar, VOCAB.timesig(4, 4), VOCAB.tempo(VOCAB.tempo_bin(120.0))]
    assert tokens[3] == VOCAB.bar and tokens[4] == VOCAB.position(0)


def test_tokenize_empty_score_is_one_bar_of_context():
    tokens = tokenize(make_score())
    assert tokens == [VOCAB.bar, VOCAB.timesig(4, 4), VOCAB.tempo(VOCAB.tempo_bin(120.0))]


def test_tokenize_emits_changes_only():
    score = make_score(
        [NoteEvent(60, F(0), F(1), 80), NoteEvent(62, F(3), F(1), 80)],
        tempo_map=[(F(0), 120.0), (F(3), 240.0)],
        time_signatures=[(0, 3, 4), (1, 4, 4)],
    )
    tokens = tokenize(score)
    names = [VOCAB.names[t] for t in tokens]
    assert names.count("Bar") == 2
    assert names.count("TimeSig_3/4") == 1 and names.count("TimeSig_4/4") == 1
    assert sum(1 for n in names if n.startswith("Tempo_")) == 2

    same_bin = make_score(
        [NoteEvent(60, F(0), F(1), 80), NoteEvent(62, F(4), F(1), 80)],
        tempo_map=[(F(0), 120.0), (F(4), 121.0)],  # under one log-bin apart
    )
    names = [VOCAB.names[t] for t in tokenize(same_bin)]
    assert sum(1 for n in names if n.startswith("Tempo_")) == 1


def test_tokenize_rejects_off_grid():
    bad_onset = make_score([NoteEvent(60, F(1, 7), F(1), 80)])
    with pytest.raises(TokenizeError, match="off the 1/12 grid"):
        tokenize(bad_onset)
    bad_duration = make_score([NoteEvent(60, F(0), F(1, 5), 80)])
    with pytest.raises(TokenizeError, match="off the 1/12 grid"):
        tokenize(bad_duration)


# --- decoding ----------------------------------------------------------------------

def random_center_score(rng, n_notes=12):
    """Grid-aligned score with bin-center velocities and tempo: round trips exactly."""
    sig = (int(rng.integers(1, 13)), int(rng.choice([1, 2, 4, 8, 16])))
    spb = bar_ticks(*sig, GRID)
    bar_beats = F(sig[0] * 4, sig[1])
    notes = []
    for _ in range(n_notes):
        bar = int(rng.integers(0, 4))
        step = int(rng.integers(0, spb))
        onset = bar * bar_beats + F(step, GRID)
        duration = F(int(rng.integers(1, 97)), GRID)
        notes.append(
            NoteEvent(
                int(rng.integers(0, 128)),
                onset,
                duration,
                velocity_center(int(rng.integers(0, 32))),
            )
        )
    tempo = VOCAB.tempo_centers[int(rng.integers(0, 32))]
    return make_score(notes, tempo_map=[(F(0), tempo)], time_signatures=[(0, *sig)])


def test_round_trip_is_exact_at_bin_centers():
    rng = np.random.default_rng(31)
    for _ in range(50):
        score = random_center_score(rng)
        decoded, repairs = detokenize_with_report(tokenize(score))
        assert repairs == []
        assert beat_notes(decoded) == beat_notes(score)
        assert decoded.time_signatures == score.time_signatures
        assert decoded.tempo_map == score.tempo_map


def test_round_trip_snaps_velocity_to_bin_center():
    score = make_score([NoteEvent(60, F(0), F(1), 80)])
    decoded = detokenize_with_report(tokenize(score))[0]
    assert beat_notes(decoded)[0].velocity == 82  # bin 20 center
    assert beat_notes(decoded)[0].pitch == 60
    assert beat_notes(decoded)[0].onset == F(0) and beat_notes(decoded)[0].duration == F(1)


def test_detokenize_repairs_malformed_streams():
    # Position before any Bar
    stream = [VOCAB.position(0), VOCAB.pitch(60), VOCAB.velocity(10), VOCAB.duration(12)]
    score, repairs = detokenize_with_report(stream)
    assert len(beat_notes(score)) == 1 and beat_notes(score)[0].onset == F(0)
    assert any("Bar inserted" in r for r in repairs)

    # Pitch with no active Position
    score, repairs = detokenize_with_report(
        [VOCAB.bar, VOCAB.pitch(60), VOCAB.velocity(10), VOCAB.duration(12)]
    )
    assert beat_notes(score) == [] and any("no active Position" in r for r in repairs)

    # Bar interrupts a pitch-velocity-duration triple
    score, repairs = detokenize_with_report(
        [VOCAB.bar, VOCAB.position(0), VOCAB.pitch(60), VOCAB.bar]
    )
    assert beat_notes(score) == [] and any("interrupts" in r for r in repairs)

    # Position outside the bar for the active signature (1/16 has 3 steps)
    score, repairs = detokenize_with_report(
        [VOCAB.bar, VOCAB.timesig(1, 16), VOCAB.position(5),
         VOCAB.pitch(60), VOCAB.velocity(10), VOCAB.duration(1)]
    )
    assert beat_notes(score) == [] and any("outside" in r for r in repairs)

    # stray Velocity / Duration
    score, repairs = detokenize_with_report([VOCAB.bar, VOCAB.velocity(3)])
    assert any("Velocity out of order" in r for r in repairs)
    score, repairs = detokenize_with_report([VOCAB.bar, VOCAB.duration(3)])
    assert any("Duration out of order" in r for r in repairs)

    # truncated tail
    score, repairs = detokenize_with_report(
        [VOCAB.bar, VOCAB.position(0), VOCAB.pitch(60), VOCAB.velocity(10)]
    )
    assert beat_notes(score) == [] and any("ended inside" in r for r in repairs)


def test_detokenize_stops_at_eos_and_skips_padding():
    body = [
        PAD, BOS, VOCAB.bar, VOCAB.timesig(4, 4), VOCAB.position(0),
        VOCAB.pitch(60), VOCAB.velocity(20), VOCAB.duration(12), SEP,
        VOCAB.bar, VOCAB.position(0),
        VOCAB.pitch(64), VOCAB.velocity(20), VOCAB.duration(12),
        EOS,
        VOCAB.bar, VOCAB.position(0),
        VOCAB.pitch(72), VOCAB.velocity(20), VOCAB.duration(12),
    ]
    score, repairs = detokenize_with_report(body)
    assert repairs == []
    assert [n.pitch for n in beat_notes(score)] == [60, 64]  # the post-EOS 72 is ignored


# Each family's id range, specials first; weights bias the family-biased streams.
_STARTS = [PAD, BOS, EOS, SEP, *VOCAB.family_start.values(), len(VOCAB)]
_FAMILY_RANGES = list(zip(_STARTS, _STARTS[1:]))
_FAMILY_WEIGHTS = np.array([2, 2, 1, 2, 8, 5, 5, 16, 20, 19, 19], dtype=float)
_FAMILY_WEIGHTS /= _FAMILY_WEIGHTS.sum()
# SHA-256 of the detokenizer's repairs, notes and maps over `_fuzz_streams()`, pinned
# from the per-family detokenizer that the family table replaced.
FUZZ_DIGEST = "d23d766bf6cae86e1d78a48884dbe7a1e713b5d147c15aba2cfc999f25f96b59"
# SHA-256 of `write_midi` over the same decoded scores.
FUZZ_MIDI_DIGEST = "fbb726520116360f9095828619825c49b566a56f65a9ae0dc6d51a5f58d330cd"


def _grammar_walk(rng, length):
    """A mostly well-formed stream: bars of position groups and note triples, with
    about one token in ten replaced by a random id or dropped."""
    out = []
    while len(out) < length:
        out.append(VOCAB.bar)
        if rng.random() < 0.3:
            out.append(VOCAB.timesig(int(rng.integers(1, 13)), int(rng.choice([1, 2, 4, 8, 16]))))
        if rng.random() < 0.3:
            out.append(VOCAB.tempo(int(rng.integers(0, 32))))
        for _ in range(int(rng.integers(0, 4))):
            out.append(VOCAB.position(int(rng.integers(0, 60))))
            for _ in range(int(rng.integers(1, 4))):
                out += [
                    VOCAB.pitch(int(rng.integers(0, 128))),
                    VOCAB.velocity(int(rng.integers(0, 32))),
                    VOCAB.duration(int(rng.integers(1, 97))),
                ]
    noisy = []
    for token in out[:length]:
        roll = rng.random()
        if roll < 0.05:
            noisy.append(int(rng.integers(0, len(VOCAB))))
        elif roll >= 0.1:
            noisy.append(token)
    return noisy


def _fuzz_streams(count=2000, seed=33):
    """Uniform, family-biased and grammar-walk streams, a third of each."""
    rng = np.random.default_rng(seed)
    streams = []
    for k in range(count):
        length = int(rng.integers(0, 120))
        if k % 3 == 0:
            stream = rng.integers(0, len(VOCAB), size=length).tolist()
        elif k % 3 == 1:
            families = rng.choice(len(_FAMILY_RANGES), size=length, p=_FAMILY_WEIGHTS)
            stream = [int(rng.integers(*_FAMILY_RANGES[f])) for f in families]
        else:
            stream = _grammar_walk(rng, length)
        streams.append(stream)
    return streams


def test_detokenize_fuzz_digest_is_pinned():
    h = hashlib.sha256()
    totals = [0, 0]
    for stream in _fuzz_streams():
        score, repairs = detokenize_with_report(stream)
        totals[0] += len(repairs)
        totals[1] += len(beat_notes(score))
        record = [
            repairs,
            [[n.pitch, str(n.onset), str(n.duration), n.velocity] for n in beat_notes(score)],
            [[str(F(tick, score.resolution)), repr(bpm)] for tick, bpm in score.tempo_map],
            [list(sig) for sig in score.time_signatures],
        ]
        h.update(json.dumps(record).encode())
    assert min(totals) > 0  # the fuzz reaches both the repair and the note paths
    assert h.hexdigest() == FUZZ_DIGEST, (h.hexdigest(), totals)


def test_detokenized_midi_bytes_are_pinned():
    """The bytes `generate` writes: each fuzz stream's decoded score as SMF."""
    h = hashlib.sha256()
    for stream in _fuzz_streams():
        h.update(write_midi(detokenize_with_report(stream)[0]))
    assert h.hexdigest() == FUZZ_MIDI_DIGEST


def test_detokenize_never_raises_on_in_vocab_ids():
    rng = np.random.default_rng(32)
    for _ in range(200):
        stream = rng.integers(0, len(VOCAB), size=int(rng.integers(0, 80)))
        score, repairs = detokenize_with_report(stream.tolist())
        assert isinstance(score, MidiScore)
        for n in beat_notes(score):
            assert 0 <= n.pitch < 128 and n.duration > 0


def test_transpose_tokens_moves_only_pitch_ids():
    """Without a fold, a transposed score's tokens are its source's with the
    Pitch ids moved; every other family, velocities and durations included,
    keeps its ids."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        notes = [NoteEvent(int(rng.integers(5, 122)), F(int(rng.integers(0, 96)), 12),
                           F(int(rng.integers(1, 24)), 12), int(rng.integers(1, 128)))
                 for _ in range(int(rng.integers(1, 30)))]
        score = make_score(notes, tempo_map=[(0, 96.0), (8, 140.0)])
        tokens = tokenize(score, VOCAB)
        for shift in (-5, 0, 6):
            assert transpose_tokens(tokens, shift, VOCAB).tolist() == tokenize(transpose(score, shift), VOCAB)
    edges = [VOCAB.pitch(0) - 1, VOCAB.pitch(0), VOCAB.pitch(127), VOCAB.pitch(127) + 1]
    assert transpose_tokens(edges, 1, VOCAB).tolist() == [edges[0], edges[1] + 1, edges[2] + 1, edges[3]]


# --- pair assembly -----------------------------------------------------------------

def test_assemble_pair_layout():
    seq = assemble_pair([10, 11], [20, 21, 22])
    assert seq == [BOS, 10, 11, SEP, 20, 21, 22, EOS]


def test_assemble_pair_truncates_variation_only():
    orig = list(range(100, 700))
    var = list(range(200, 800))
    seq = assemble_pair(orig, var)
    assert len(seq) == MAX_LEN == 1024
    sep_at = seq.index(SEP)
    assert seq[1:sep_at] == orig
    assert seq[sep_at + 1 : -1] == var[:421]
    assert seq[-1] == EOS


def test_assemble_pair_exact_fit_and_empty_variation():
    seq = assemble_pair(list(range(500)), list(range(521)))
    assert len(seq) == 1024 and seq[-1] == EOS
    seq = assemble_pair([7], [])
    assert seq == [BOS, 7, SEP, EOS]


def test_assemble_pair_rejects_oversized_original():
    with pytest.raises(TokenizeError, match="cannot fit"):
        assemble_pair(list(range(1022)), [])


# --- token files -------------------------------------------------------------------

def test_token_file_round_trip(tmp_path):
    path = tmp_path / "tokens.bin"
    sequences = [[1, 2, 3], [], list(range(929))]
    write_token_file(path, sequences)
    back = read_token_file(path)
    assert [seq.tolist() for seq in back] == sequences
    assert all(seq.dtype == np.int64 for seq in back)


def test_token_file_rejects_corruption(tmp_path):
    path = tmp_path / "tokens.bin"
    write_token_file(path, [[1, 2, 3]])
    blob = bytearray(path.read_bytes())

    (tmp_path / "junk.bin").write_bytes(b"RIFFxxxx")
    with pytest.raises(TokenizeError, match="not a token file"):
        read_token_file(tmp_path / "junk.bin")

    versioned = bytearray(blob)
    versioned[4] = 9
    (tmp_path / "ver.bin").write_bytes(bytes(versioned))
    with pytest.raises(VocabularyMismatchError, match="version"):
        read_token_file(tmp_path / "ver.bin")

    hashed = bytearray(blob)
    hashed[8] ^= 0xFF
    (tmp_path / "hash.bin").write_bytes(bytes(hashed))
    with pytest.raises(VocabularyMismatchError, match="different vocabulary"):
        read_token_file(tmp_path / "hash.bin")

    (tmp_path / "cut.bin").write_bytes(bytes(blob[:-4]))
    with pytest.raises(TokenizeError, match="truncated"):
        read_token_file(tmp_path / "cut.bin")

    (tmp_path / "long.bin").write_bytes(bytes(blob) + b"junk")
    with pytest.raises(TokenizeError, match="4 bytes after the last record"):
        read_token_file(tmp_path / "long.bin")
