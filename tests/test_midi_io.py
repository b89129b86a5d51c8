import hashlib
import logging
import struct
from fractions import Fraction as F
from operator import attrgetter

import numpy as np
import pytest

from reference_score import beat_notes
from overpaint.midi_io import (
    MidiParseError,
    NoteEvent,
    _signature_runs,
    bar_ticks,
    beats_to_ticks,
    make_score,
    parse_midi,
    quantize,
    seconds_at,
    seconds_to_ticks,
    signature_at_bar,
    slice_ticks,
    tempo_at,
    transpose,
    write_midi,
)

note_order = attrgetter("onset", "pitch", "duration", "velocity")


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
    assert [n.pitch for n in beat_notes(score)] == [60, 60, 62]
    assert beat_notes(score)[0].duration == F(1, 2)  # shorter duplicate first
    assert score.tempo_map == [(0, 120.0), (4 * 480, 90.0)]  # anchored at tick 0
    assert score.time_signatures[0] == (0, 4, 4)
    assert sorted(beat_notes(score), key=note_order) == beat_notes(score)


def test_make_score_clamps_tempo_and_signature():
    score = make_score(
        tempo_map=[(F(0), 5.0), (F(4), 1000.0)],
        time_signatures=[(0, 40, 4), (1, 4, 32)],
    )
    assert score.tempo_map == [(0, 20.0), (4 * 480, 320.0)]
    assert score.time_signatures == [(0, 12, 4), (1, 4, 16)]


# --- bar/beat/time walking ------------------------------------------------------

def bar_starts(score, count):
    """Start beats of the first `count` bars, read from the signature runs,
    which count 1/16 ticks."""
    runs = list(_signature_runs(score))
    unit = 16 * score.resolution
    starts = []
    for bar in range(count):
        first_bar, first_at, num, den = [r for r in runs if r[0] <= bar][-1]
        starts.append(F(first_at + (bar - first_bar) * bar_ticks(num, den, unit), unit))
    return starts


def slice_beats(score, start, end):
    """`slice_ticks` with its bounds given in beats on the score's tick grid."""
    lo, hi = start * score.resolution, end * score.resolution
    assert lo.denominator == hi.denominator == 1, "bounds off the tick grid"
    return slice_ticks(score, int(lo), int(hi))


def test_bar_walk_across_signature_change():
    score = make_score(time_signatures=[(0, 3, 4), (2, 4, 4)])
    assert bar_ticks(3, 4, 480) == 3 * 480
    assert signature_at_bar(score, 0) == (3, 4)
    assert signature_at_bar(score, 1) == (3, 4)
    assert signature_at_bar(score, 5) == (4, 4)
    # bars start at 0, 3, 6, 10, 14, ...
    assert list(_signature_runs(score)) == [(0, 0, 3, 4), (2, 16 * 6 * 480, 4, 4)]
    assert bar_starts(score, 5) == [F(0), F(3), F(6), F(10), F(14)]
    # the written signature events sit at the runs' first beats
    data = write_midi(score)
    assert data.count(bytes([0xFF, 0x58])) == 2
    assert bytes([0x00, 0xFF, 0x58, 4, 3, 2]) in data
    assert vlq(6 * 480) + bytes([0xFF, 0x58, 4, 4, 2]) in data
    # a slice opens with the signature of the bar holding its start, and a
    # later change takes effect at the slice bar holding its slice beat
    for start, want in [
        (F(0), [(0, 3, 4), (2, 4, 4)]),
        (F(29, 10), [(0, 3, 4), (1, 4, 4)]),
        (F(3), [(0, 3, 4), (1, 4, 4)]),
        (F(6), [(0, 4, 4)]),
        (F(99, 10), [(0, 4, 4)]),
        (F(10), [(0, 4, 4)]),
    ]:
        assert slice_beats(score, start, F(20)).time_signatures == want, start


def test_time_conversion_piecewise_tempo():
    score = make_score(tempo_map=[(F(0), 120.0), (F(4), 60.0)])
    assert seconds_at(score, 4 * 480) == 2.0
    assert seconds_at(score, 6 * 480) == 4.0
    assert seconds_to_ticks(score, 4.0) == 6 * 480
    assert tempo_at(score, 4 * 480 - 1) == 120.0
    assert tempo_at(score, 4 * 480) == 60.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        tick = int(rng.integers(0, 10 * 480))
        assert seconds_to_ticks(score, seconds_at(score, tick)) == tick


def test_round_half_up_and_snap():
    assert beats_to_ticks(F(1, 2), 1) == 1
    assert beats_to_ticks(F(3, 2), 1) == 2
    assert beats_to_ticks(F(5, 2), 1) == 3
    assert beats_to_ticks(F(7, 4), 1) == 2
    assert beats_to_ticks(F(1, 960), 480) == 1 and beats_to_ticks(F(1, 961), 480) == 0
    # seconds snap to the nearest tick: 0.2502 s at 120 bpm is 240.19 ticks
    assert seconds_to_ticks(make_score(), 0.2502) == 240
    assert seconds_to_ticks(make_score(), 0.5) == 480
    with pytest.raises(ValueError, match="negative"):
        seconds_to_ticks(make_score(), -0.1)


def test_quantize_snaps_and_keeps_short_notes():
    score = make_score([
        NoteEvent(60, F(13, 50), F(1, 100), 64),  # onset 3.12 steps, tiny duration
        NoteEvent(62, F(1, 2), F(1), 64),
    ])
    q = quantize(score, 12)
    assert beat_notes(q)[0].onset == F(3, 12)
    assert beat_notes(q)[0].duration == F(1, 12)
    assert beat_notes(q)[1].onset == F(6, 12)
    assert beat_notes(quantize(q, 12)) == beat_notes(q)  # idempotent


def test_slice_rebases_and_carries_context():
    notes = [NoteEvent(60 + i, F(i), F(1), 64) for i in range(5)]
    score = make_score(notes, tempo_map=[(F(0), 120.0), (F(2), 90.0)])
    window = slice_beats(score, F(1), F(3))
    assert [(n.pitch, n.onset) for n in beat_notes(window)] == [(61, F(0)), (62, F(1))]
    assert window.tempo_map == [(0, 120.0), (480, 90.0)]
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
    assert sorted(n.pitch for n in beat_notes(up)) == [13, 118]
    down = transpose(score, -7)
    assert sorted(n.pitch for n in beat_notes(down)) == [8, 113]
    assert [n.onset for n in beat_notes(up)] == [n.onset for n in beat_notes(score)]


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
        assert beat_notes(back) == beat_notes(score)
        assert back.time_signatures == score.time_signatures
        assert [b for b, _ in back.tempo_map] == [b for b, _ in score.tempo_map]
        for (_, got), (_, want) in zip(back.tempo_map, score.tempo_map):
            assert got == pytest.approx(want, rel=1e-6)


def test_empty_score_round_trip():
    back = parse_midi(write_midi(make_score()))
    assert beat_notes(back) == []
    assert back.tempo_map == [(0, 120.0)]
    assert back.time_signatures == [(0, 4, 4)]


def test_same_pitch_legato_round_trip():
    notes = [
        NoteEvent(60, F(0), F(2), 80),
        NoteEvent(60, F(2), F(2), 90),  # restruck exactly at the first one's end
    ]
    back = parse_midi(write_midi(make_score(notes)))
    assert beat_notes(back) == sorted(notes, key=note_order)


def test_same_pitch_nesting_normalizes_to_crossing():
    # FIFO pairing cannot represent nested same-pitch notes; the earlier off
    # closes the earlier on. Boundary instants survive even though the
    # pairing changes.
    notes = [
        NoteEvent(60, F(0), F(10), 80),
        NoteEvent(60, F(5), F(2), 80),
    ]
    back = parse_midi(write_midi(make_score(notes)))
    assert [(n.onset, n.end) for n in beat_notes(back)] == [(F(0), F(7)), (F(5), F(10))]


def test_zero_length_note_clamped_to_one_tick():
    # Duration below one tick rounds to zero ticks; writer forces a 1-tick gap.
    score = make_score([NoteEvent(60, F(0), F(1, 10000), 64)])
    back = parse_midi(write_midi(score))
    assert beat_notes(back)[0].duration == F(1, 480)


# --- parser edge cases on hand-built bytes ---------------------------------------

def test_parse_running_status_and_velocity_zero_off():
    events = [
        (0, bytes([0x90, 60, 64])),
        (480, bytes([60, 0])),        # running status: note-on, velocity 0 = off
        (0, bytes([62, 72])),         # still running status: a second note-on
        (240, bytes([0x80, 62, 40])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert [(n.pitch, n.onset, n.duration) for n in beat_notes(score)] == [
        (60, F(0), F(1)),
        (62, F(1), F(1, 2)),
    ]


def test_running_status_survives_meta_and_sysex_events():
    """Meta and sysex events leave the last channel status in place, so data
    bytes after them continue the note-on running status."""
    events = [
        (0, bytes([0x90, 60, 64])),
        (0, bytes([0xFF, 0x51, 3]) + (500000).to_bytes(3, "big")),  # tempo meta
        (480, bytes([60, 0])),                                        # note-on status kept: off
        (0, bytes([0xF0, 2, 0x7E, 0xF7])),                            # sysex
        (0, bytes([62, 72])),                                         # still note-on
        (240, bytes([62, 0])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert score.tick_notes == [(0, 60, 480, 64), (480, 62, 240, 72)]
    assert score.tempo_map == [(0, 120.0)]
    # a data byte with no channel event before it still has no status to run on
    orphan = [(0, bytes([0xFF, 0x51, 3]) + (500000).to_bytes(3, "big")), (0, bytes([60, 64]))]
    with pytest.raises(MidiParseError, match="no running status"):
        parse_midi(smf([track_chunk(orphan)]))


def test_note_pitch_byte_above_127_is_a_parse_error():
    events = [(0, bytes([0x90, 0x80 | 60, 64])), (480, bytes([0x80, 60, 0]))]
    with pytest.raises(MidiParseError, match="pitch byte 188"):
        parse_midi(smf([track_chunk(events)]))


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
    assert score.tempo_map == [(0, 120.0), (960, 60.0)]
    assert score.time_signatures == [(0, 4, 4), (1, 3, 4)]
    assert len(beat_notes(score)) == 1


def test_parse_clamps_tempo_and_signature_values():
    events = [
        (0, bytes([0xFF, 0x51, 3]) + (6000000).to_bytes(3, "big")),  # 10 bpm
        (0, bytes([0xFF, 0x58, 4, 15, 5, 24, 8])),                   # 15/32
        (0, bytes([0x90, 60, 64])),
        (480, bytes([0x80, 60, 0])),
    ]
    score = parse_midi(smf([track_chunk(events)]))
    assert score.tempo_map == [(0, 20.0)]
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
    again = make_score(beat_notes(score), time_signatures=[(0, 20, 32), (2, 0, 8)])
    assert again.time_signatures == score.time_signatures
    assert bar_starts(score, 4) == [F(0), F(3), F(6), F(13, 2)]


def _tempo_event(usec: int) -> bytes:
    return bytes([0xFF, 0x51, 3]) + usec.to_bytes(3, "big")


def test_same_tick_tempo_and_signature_keep_the_later_event():
    """Of two tempo or two signature events at one tick, the later in the file
    wins, whichever value sorts first."""
    for first, second in [((400000, 6, 3), (600000, 3, 2)), ((600000, 3, 2), (400000, 6, 3))]:
        events = [(0, _tempo_event(first[0])), (0, _tempo_event(second[0])),
                  (0, bytes([0xFF, 0x58, 4, first[1], first[2], 24, 8])),
                  (0, bytes([0xFF, 0x58, 4, second[1], second[2], 24, 8])),
                  (0, bytes([0x90, 60, 64])), (480, bytes([0x80, 60, 0]))]
        score = parse_midi(smf([track_chunk(events)]))
        assert score.tempo_map == [(0, 60_000_000 / second[0])]
        assert score.time_signatures == [(0, second[1], 1 << second[2])]


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
    by_pitch = {n.pitch: n for n in beat_notes(score)}
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
    assert [n.pitch for n in beat_notes(score)] == [60]


def test_unknown_chunk_skipped(caplog):
    junk = b"JUNK" + struct.pack(">I", 3) + b"abc"
    notes = track_chunk([(0, bytes([0x90, 60, 64])), (480, bytes([0x80, 60, 0]))])
    data = smf([notes])
    spliced = data[:14] + junk + data[14:]
    with caplog.at_level(logging.WARNING, logger="overpaint.midi"):
        score = parse_midi(spliced)
    assert len(beat_notes(score)) == 1
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
    with pytest.raises(MidiParseError, match="truncated sysex event"):
        parse_midi(smf([track_chunk([(0, bytes([0xF0, 32, 1, 2]))], end_of_track=False)]))


@pytest.mark.parametrize("resolution", [480, 96, 30, 7])
def test_deltas_of_every_length_land_on_their_ticks(resolution):
    """Note deltas of one to four bytes, half of them under running status, parse
    to the ticks that wrote them; a track cut anywhere is a MidiParseError or a
    parse of what is left, never another error."""
    rng = np.random.default_rng(resolution)
    deltas = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000]
    deltas += [int(d) for d in rng.integers(0, 3 * resolution, 24)]
    rng.shuffle(deltas)
    events, expected, tick = [], [], 0
    for i, (pitch, delta) in enumerate(zip(rng.choice(128, len(deltas), replace=False), deltas)):
        pitch, dur, vel = int(pitch), int(rng.integers(1, 0x90)), int(rng.integers(1, 128))
        events.append((delta, bytes([pitch, vel]) if i % 2 else bytes([0x90, pitch, vel])))
        events.append((dur, bytes([pitch, 0])))  # running status: velocity 0 is a note-off
        expected.append((tick + delta, pitch, dur, vel))
        tick += delta + dur
    data = smf([track_chunk(events)], fmt=0, division=resolution)
    score = parse_midi(data)
    assert score.tick_notes == expected and score.resolution == resolution

    header, body = data[:14], data[22:]
    errors = set()
    for cut in range(len(body)):
        try:
            parse_midi(header + b"MTrk" + struct.pack(">I", cut) + body[:cut])
        except MidiParseError as exc:
            errors.add(str(exc))
    assert {"truncated variable-length quantity", "truncated event",
            "truncated channel event"} <= errors


def test_write_midi_is_format_zero_single_track():
    data = write_midi(make_score([NoteEvent(60, F(0), F(1), 64)]))
    _, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    assert (fmt, ntrks, division) == (0, 1, 480)
    assert data[14:18] == b"MTrk"


# --- multi-signature oracle ----------------------------------------------------------

def _sig_event(num: int, dd: int) -> bytes:
    return bytes([0xFF, 0x58, 4, num, dd, 24, 8])


def _multi_signature_smf() -> bytes:
    """4/4, then 2/4 at bar 1, 20/32 (read as 12/16) at bar 3, 3/8 at bar 5,
    and 6/8 declared mid-bar at beat 17.75 (inside the 3/8 bar at 17), with
    a tempo change and 24 notes."""
    res = 480
    timed = [
        (0, _sig_event(4, 2)),
        (0, bytes([0xFF, 0x51, 3]) + (500000).to_bytes(3, "big")),
        (4 * res, _sig_event(2, 2)),
        (8 * res, _sig_event(20, 5)),
        (10 * res, bytes([0xFF, 0x51, 3]) + (600000).to_bytes(3, "big")),
        (14 * res, _sig_event(3, 3)),
        (17 * res + 360, _sig_event(6, 3)),
    ]
    for i in range(24):
        on = i * res + (i % 3) * 120
        timed += [(on, bytes([0x90, 48 + i, 40 + i])), (on + 300, bytes([0x80, 48 + i, 0]))]
    timed.sort(key=lambda e: e[0])
    ticks = [0] + [t for t, _ in timed]
    events = [(t - prev, payload) for prev, (t, payload) in zip(ticks, timed)]
    return smf([track_chunk(events)])


def test_multi_signature_oracle():
    """Pinned parse, slice and write results for several signature changes."""
    score = parse_midi(_multi_signature_smf())
    assert score.time_signatures == [(0, 4, 4), (1, 2, 4), (3, 12, 16), (5, 3, 8), (7, 6, 8)]
    slices = [
        # mid-bar: each later change sits at its slice beat and takes effect at
        # the start of the slice bar holding it (2/4 at slice beat 3.5 opens bar 0)
        (F(1, 2), F(30), [(0, 2, 4), (3, 12, 16), (5, 3, 8), (8, 6, 8)]),
        (F(3), F(9), [(0, 2, 4), (2, 12, 16)]),
        (F(9), F(30), [(0, 12, 16), (1, 3, 8), (4, 6, 8)]),
        (F(15), F(30), [(0, 3, 8), (1, 6, 8)]),
        (F(35, 2), F(30), [(0, 6, 8)]),
        # on a bar
        (F(4), F(30), [(0, 2, 4), (2, 12, 16), (4, 3, 8), (6, 6, 8)]),
        (F(8), F(30), [(0, 12, 16), (2, 3, 8), (4, 6, 8)]),
    ]
    for start, end, want in slices:
        assert slice_beats(score, start, end).time_signatures == want, start
    digest = hashlib.sha256(write_midi(score)).hexdigest()
    assert digest == "5ee55d96965ebff6bf3b2392a403630aaa2c1b01cbc578d3f697b900774e5364"
    window = write_midi(slice_beats(score, F(1, 2), F(30)))
    assert hashlib.sha256(window).hexdigest() == (
        "5aa83a5c75c63d10ef69ee0db8507f53e1d51ecf16768278bae7dd2384191057"
    )
