import logging
import struct
from fractions import Fraction as F

import numpy as np
import pytest

from overpaint.midi_io import (
    MidiParseError,
    NoteEvent,
    bar_start_beat,
    beat_to_bar,
    beats_to_seconds,
    bar_length,
    make_score,
    note_sort_key,
    parse_midi,
    quantize,
    _round_half_up,
    seconds_to_beats,
    signature_at_bar,
    slice_beats,
    snap_to_resolution,
    tempo_at,
    transpose,
    write_midi,
)


# --- independent SMF byte builder (kept separate from the writer under test) ---

def vlq(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def track_chunk(events, end_of_track=True) -> bytes:
    body = b"".join(vlq(delta) + payload for delta, payload in events)
    if end_of_track:
        body += vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return b"MTrk" + struct.pack(">I", len(body)) + body


def smf(tracks, fmt=1, division=480) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), division)
    return header + b"".join(tracks)


# --- basic structures -----------------------------------------------------------

def test_note_event_validates_fields():
    with pytest.raises(ValueError):
        NoteEvent(pitch=128, onset=F(0), duration=F(1), velocity=64)
    with pytest.raises(ValueError):
        NoteEvent(pitch=60, onset=F(-1), duration=F(1), velocity=64)
    with pytest.raises(ValueError):
        NoteEvent(pitch=60, onset=F(0), duration=F(0), velocity=64)
    with pytest.raises(ValueError):
        NoteEvent(pitch=60, onset=F(0), duration=F(1), velocity=0)
    note = NoteEvent(pitch=60, onset=1, duration="1/3", velocity=64)
    assert note.onset == F(1) and note.duration == F(1, 3)
    assert note.end == F(4, 3)


def test_make_score_sorts_and_anchors():
    notes = [
        NoteEvent(62, F(1), F(1), 64),
        NoteEvent(60, F(0), F(1), 64),
        NoteEvent(60, F(0), F(1, 2), 64),
    ]
    score = make_score(notes, tempo_map=[(F(4), 90.0)], time_signatures=[(2, 3, 4)])
    assert [n.pitch for n in score.notes] == [60, 60, 62]
    assert score.notes[0].duration == F(1, 2)  # shorter duplicate first
    assert score.tempo_map[0] == (F(0), 120.0)  # anchored at beat 0
    assert score.time_signatures[0] == (0, 4, 4)
    assert sorted(score.notes, key=note_sort_key) == score.notes


def test_make_score_clamps_tempo_and_signature():
    score = make_score(
        tempo_map=[(F(0), 5.0), (F(4), 1000.0)],
        time_signatures=[(0, 40, 4), (1, 4, 32)],
    )
    assert score.tempo_map == [(F(0), 20.0), (F(4), 320.0)]
    assert score.time_signatures == [(0, 12, 4), (1, 4, 16)]


# --- bar/beat/time walking ------------------------------------------------------

def test_bar_walk_across_signature_change():
    score = make_score(time_signatures=[(0, 3, 4), (2, 4, 4)])
    assert bar_length(3, 4) == F(3)
    assert signature_at_bar(score, 0) == (3, 4)
    assert signature_at_bar(score, 1) == (3, 4)
    assert signature_at_bar(score, 5) == (4, 4)
    # bars start at 0, 3, 6, 10, 14, ...
    assert [bar_start_beat(score, b) for b in range(5)] == [F(0), F(3), F(6), F(10), F(14)]
    assert beat_to_bar(score, F(0)) == 0
    assert beat_to_bar(score, F(29, 10)) == 0
    assert beat_to_bar(score, F(3)) == 1
    assert beat_to_bar(score, F(6)) == 2
    assert beat_to_bar(score, F(99, 10)) == 2
    assert beat_to_bar(score, F(10)) == 3


def test_time_conversion_piecewise_tempo():
    score = make_score(tempo_map=[(F(0), 120.0), (F(4), 60.0)])
    assert beats_to_seconds(score, F(4)) == pytest.approx(2.0)
    assert beats_to_seconds(score, F(6)) == pytest.approx(4.0)
    assert seconds_to_beats(score, 4.0) == pytest.approx(6.0)
    assert tempo_at(score, F(399, 100)) == 120.0
    assert tempo_at(score, F(4)) == 60.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        beat = F(int(rng.integers(0, 1000)), 100)
        again = seconds_to_beats(score, beats_to_seconds(score, beat))
        assert again == pytest.approx(float(beat), abs=1e-9)


def test_round_half_up_and_snap():
    assert _round_half_up(F(1, 2)) == 1
    assert _round_half_up(F(3, 2)) == 2
    assert _round_half_up(F(5, 2)) == 3
    assert _round_half_up(F(7, 4)) == 2
    assert snap_to_resolution(0.5004, 480) == F(1, 2)
    assert snap_to_resolution(1.0, 480) == F(1)


def test_quantize_snaps_and_keeps_short_notes():
    score = make_score([
        NoteEvent(60, F(13, 50), F(1, 100), 64),  # onset 3.12 steps, tiny duration
        NoteEvent(62, F(1, 2), F(1), 64),
    ])
    q = quantize(score, 12)
    assert q.notes[0].onset == F(3, 12)
    assert q.notes[0].duration == F(1, 12)
    assert q.notes[1].onset == F(6, 12)
    assert quantize(q, 12).notes == q.notes  # idempotent


def test_slice_rebases_and_carries_context():
    notes = [NoteEvent(60 + i, F(i), F(1), 64) for i in range(5)]
    score = make_score(notes, tempo_map=[(F(0), 120.0), (F(2), 90.0)])
    window = slice_beats(score, F(1), F(3))
    assert [(n.pitch, n.onset) for n in window.notes] == [(61, F(0)), (62, F(1))]
    assert window.tempo_map == [(F(0), 120.0), (F(1), 90.0)]
    with pytest.raises(ValueError):
        slice_beats(score, F(3), F(3))


def test_slice_signature_context():
    score = make_score(time_signatures=[(0, 3, 4), (2, 4, 4)])
    # slice starting inside the 4/4 region carries 4/4 to its own bar 0
    window = slice_beats(score, F(6), F(14))
    assert window.time_signatures == [(0, 4, 4)]
    # slice spanning the change keeps the change at the right relative bar
    window = slice_beats(score, F(3), F(10))
    assert window.time_signatures == [(0, 3, 4), (1, 4, 4)]


def test_transpose_folds_octaves():
    score = make_score([
        NoteEvent(120, F(0), F(1), 64),
        NoteEvent(3, F(1), F(1), 64),
    ])
    up = transpose(score, 10)
    assert sorted(n.pitch for n in up.notes) == [13, 118]
    down = transpose(score, -7)
    assert sorted(n.pitch for n in down.notes) == [8, 113]
    assert [n.onset for n in up.notes] == [n.onset for n in score.notes]


# --- file round trips -----------------------------------------------------------

def test_write_parse_round_trip_random_scores():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 30))
        pitches = rng.choice(128, size=n, replace=False)  # distinct: FIFO is exact
        notes = [
            NoteEvent(
                int(p),
                F(int(rng.integers(0, 64 * 12)), 12),
                F(int(rng.integers(1, 48)), 12),
                int(rng.integers(1, 128)),
            )
            for p in pitches
        ]
        tempo = [(F(0), 120.0), (F(8), 100.0)] if trial % 2 else None
        sigs = [(0, 4, 4), (3, 3, 4)] if trial % 3 else None
        score = make_score(notes, tempo, sigs)
        back = parse_midi(write_midi(score))
        assert back.notes == score.notes
        assert back.time_signatures == score.time_signatures
        assert [b for b, _ in back.tempo_map] == [b for b, _ in score.tempo_map]
        for (_, got), (_, want) in zip(back.tempo_map, score.tempo_map):
            assert got == pytest.approx(want, rel=1e-6)


def test_empty_score_round_trip():
    back = parse_midi(write_midi(make_score()))
    assert back.notes == []
    assert back.tempo_map == [(F(0), 120.0)]
    assert back.time_signatures == [(0, 4, 4)]


def test_same_pitch_legato_round_trip():
    notes = [
        NoteEvent(60, F(0), F(2), 80),
        NoteEvent(60, F(2), F(2), 90),  # restruck exactly at the first one's end
    ]
    back = parse_midi(write_midi(make_score(notes)))
    assert back.notes == sorted(notes, key=note_sort_key)


def test_same_pitch_nesting_normalizes_to_crossing():
    # FIFO pairing cannot represent nested same-pitch notes; the earlier off
    # closes the earlier on. Boundary instants survive even though the
    # pairing changes.
    notes = [
        NoteEvent(60, F(0), F(10), 80),
        NoteEvent(60, F(5), F(2), 80),
    ]
    back = parse_midi(write_midi(make_score(notes)))
    assert [(n.onset, n.end) for n in back.notes] == [(F(0), F(7)), (F(5), F(10))]


def test_zero_length_note_clamped_to_one_tick():
    # Duration below one tick rounds to zero ticks; writer forces a 1-tick gap.
    score = make_score([NoteEvent(60, F(0), F(1, 10000), 64)])
    back = parse_midi(write_midi(score))
    assert back.notes[0].duration == F(1, 480)


# --- parser edge cases on hand-built bytes ---------------------------------------

def test_parse_running_status_and_velocity_zero_off():
    events = [
        (0, bytes([0x90, 60, 64])),
        (480, bytes([60, 0])),        # running status: note-on, velocity 0 = off
        (0, bytes([62, 72])),         # still running status: a second note-on
        (240, bytes([0x80, 62, 40])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert [(n.pitch, n.onset, n.duration) for n in score.notes] == [
        (60, F(0), F(1)),
        (62, F(1), F(1, 2)),
    ]


def test_parse_merges_tracks_and_reads_metas():
    meta = track_chunk([
        (0, bytes([0xFF, 0x51, 3]) + (500000).to_bytes(3, "big")),       # 120 bpm
        (960, bytes([0xFF, 0x51, 3]) + (1000000).to_bytes(3, "big")),    # 60 bpm
        (960, bytes([0xFF, 0x58, 4, 3, 2, 24, 8])),                      # 3/4 at bar 1
    ])
    notes = track_chunk([
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
    ])
    score = parse_midi(smf([meta, notes]))
    assert score.tempo_map == [(F(0), 120.0), (F(2), 60.0)]
    assert score.time_signatures == [(0, 4, 4), (1, 3, 4)]
    assert len(score.notes) == 1


def test_parse_clamps_tempo_and_signature_values():
    events = [
        (0, bytes([0xFF, 0x51, 3]) + (6000000).to_bytes(3, "big")),  # 10 bpm
        (0, bytes([0xFF, 0x58, 4, 15, 5, 24, 8])),                   # 15/32
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert score.tempo_map == [(F(0), 20.0)]
    assert score.time_signatures == [(0, 12, 16)]


def test_parse_normalizes_signatures_before_folding_bars():
    """A 20/32 signature (bytes 20, 5) reads as 12/16, three beats a bar, and
    a 0/8 one (bytes 0, 3) at beat 7.5 as 1/8 from bar 2: bars fold with the
    normalized signature (the raw 20/32's 2.5-beat bars would give bar 3),
    as make_score normalizes it."""
    events = [
        (0, bytes([0xFF, 0x58, 4, 20, 5, 24, 8])),
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
        (3120, bytes([0xFF, 0x58, 4, 0, 3, 24, 8])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert score.time_signatures == [(0, 12, 16), (2, 1, 8)]
    again = make_score(score.notes, score.tempo_map, [(0, 20, 32), (2, 0, 8)], 480)
    assert again.time_signatures == score.time_signatures
    assert [bar_start_beat(score, b) for b in range(4)] == [F(0), F(3), F(6), F(13, 2)]


def test_parse_mid_bar_signature_snaps_to_bar():
    events = [
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
        # 3/4 declared at beat 6, i.e. halfway through 4/4 bar 1
        (2400, bytes([0xFF, 0x58, 4, 3, 2, 24, 8])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert score.time_signatures == [(0, 4, 4), (1, 3, 4)]


def test_dangling_note_on_clips_to_track_end(caplog):
    events = [
        (0, bytes([0x90, 60, 64])),   # never released
        (0, bytes([0x90, 64, 64])),
        (960, bytes([0x80, 64, 0])),
    ]
    with caplog.at_level(logging.WARNING, logger="overpaint.midi"):
        score = parse_midi(smf([track_chunk(events)]))
    assert "dangling note-on" in caplog.text
    by_pitch = {n.pitch: n for n in score.notes}
    assert by_pitch[60].duration == F(2)  # clipped to the last tick seen


def test_dangling_note_off_is_dropped(caplog):
    events = [
        (0, bytes([0x80, 72, 0])),
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
    ]
    with caplog.at_level(logging.WARNING, logger="overpaint.midi"):
        score = parse_midi(smf([track_chunk(events)]))
    assert "dangling note-off" in caplog.text
    assert [n.pitch for n in score.notes] == [60]


def test_unknown_chunk_skipped(caplog):
    junk = b"JUNK" + struct.pack(">I", 3) + b"abc"
    notes = track_chunk([(0, bytes([0x90, 60, 64])), (480, bytes([0x80, 60, 0]))])
    data = smf([notes])
    spliced = data[:14] + junk + data[14:]
    with caplog.at_level(logging.WARNING, logger="overpaint.midi"):
        score = parse_midi(spliced)
    assert len(score.notes) == 1
    assert "unknown chunk" in caplog.text


def test_parse_rejects_unsupported_files():
    good = smf([track_chunk([(0, bytes([0x90, 60, 64])), (1, bytes([0x80, 60, 0]))])])
    with pytest.raises(MidiParseError):
        parse_midi(b"RIFFxxxx")
    with pytest.raises(MidiParseError):
        parse_midi(smf([track_chunk([])], fmt=2))
    with pytest.raises(MidiParseError):
        parse_midi(smf([track_chunk([])], division=0x8000 | 25))  # SMPTE
    with pytest.raises(MidiParseError):
        parse_midi(smf([track_chunk([])], division=0))
    with pytest.raises(MidiParseError):
        parse_midi(good[:20])  # truncated track
    header_only = b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480)
    with pytest.raises(MidiParseError):
        parse_midi(header_only)  # no MTrk chunks


def test_write_midi_is_format_zero_single_track():
    data = write_midi(make_score([NoteEvent(60, F(0), F(1), 64)]))
    _, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    assert (fmt, ntrks, division) == (0, 1, 480)
    assert data[14:18] == b"MTrk"
