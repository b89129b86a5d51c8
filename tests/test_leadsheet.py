from fractions import Fraction as F

import numpy as np
import pytest

from overpaint.leadsheet import (
    ChordParseError,
    ChordSymbol,
    EXTENSION_OFFSETS,
    LeadSheetError,
    _QUALITY_SURFACES,
    chord_template,
    chord_tones,
    original_segments,
    parse_chord,
    parse_leadsheet,
)

import helpers
from reference_score import beat_notes


# --- chord symbols ---------------------------------------------------------------

def test_parse_chord_qualities():
    cases = {
        "C": (0, "maj"),
        "Cm": (0, "min"),
        "C-": (0, "min"),
        "Cmin": (0, "min"),
        "C7": (0, "dom7"),
        "Cmaj7": (0, "maj7"),
        "CM7": (0, "maj7"),
        "Cm7": (0, "min7"),
        "C-7": (0, "min7"),
        "Cm7b5": (0, "min7b5"),
        "Cdim": (0, "dim"),
        "Co": (0, "dim"),
        "Cdim7": (0, "dim7"),
        "Co7": (0, "dim7"),
        "Caug": (0, "aug"),
        "C+": (0, "aug"),
        "Csus4": (0, "sus4"),
        "Csus2": (0, "sus2"),
        "C6": (0, "maj6"),
        "Cm6": (0, "min6"),
        "F#m7": (6, "min7"),
        "Bb7": (10, "dom7"),
        "Ebmaj7": (3, "maj7"),
    }
    for text, (root, quality) in cases.items():
        chord = parse_chord(text)
        assert (chord.root, chord.quality) == (root, quality), text
        assert chord.extensions == frozenset()
        assert chord.bass is None


def test_parse_chord_extensions_and_bass():
    chord = parse_chord("C7b9")
    assert chord.quality == "dom7" and chord.extensions == {"b9"}
    chord = parse_chord("C69")
    assert chord.quality == "maj6" and chord.extensions == {"9"}
    # Root accidentals bind tighter than extensions: Bb13 is Bb + 13, not B + b13.
    chord = parse_chord("Bb13")
    assert (chord.root, chord.quality, chord.extensions) == (10, "maj", {"13"})
    chord = parse_chord("B7b13")
    assert (chord.root, chord.quality, chord.extensions) == (11, "dom7", {"b13"})
    chord = parse_chord("Fmaj7#11")
    assert chord.quality == "maj7" and chord.extensions == {"#11"}
    chord = parse_chord("G7b9b13")
    assert chord.extensions == {"b9", "b13"}
    chord = parse_chord("G7/B")
    assert chord.quality == "dom7" and chord.bass == 11
    chord = parse_chord("C/Bb")
    assert chord.bass == 10


def test_parse_chord_rejects_garbage():
    for bad in ("", "H", "Cx", "C/", "C/Ex", "C##", "Cmaj7zz", "7"):
        with pytest.raises(ChordParseError):
            parse_chord(bad)


def test_chord_symbol_validation():
    with pytest.raises(ValueError):
        ChordSymbol(root=12)
    with pytest.raises(ValueError):
        ChordSymbol(root=0, quality="power")
    with pytest.raises(ValueError):
        ChordSymbol(root=0, extensions=frozenset({"11"}))
    with pytest.raises(ValueError):
        ChordSymbol(root=0, bass=-1)


def test_parse_chord_maps_every_surface():
    for surface, quality in _QUALITY_SURFACES:
        assert parse_chord("D" + surface) == ChordSymbol(2, quality), surface
    for extension in EXTENSION_OFFSETS:
        assert parse_chord("G7" + extension) == ChordSymbol(7, "dom7", {extension}), extension
    assert parse_chord("Ebmaj7#11/Bb") == ChordSymbol(3, "maj7", {"#11"}, 10)


def test_chord_tones_and_template():
    assert chord_tones(parse_chord("C")) == [0, 4, 7]
    assert chord_tones(parse_chord("C7")) == [0, 4, 7, 10]
    assert chord_tones(parse_chord("C/E")) == [0, 4, 7]       # bass already a tone
    assert chord_tones(parse_chord("C/D")) == [0, 2, 4, 7]    # bass interval added
    assert chord_tones(parse_chord("C7b9")) == [0, 1, 4, 7, 10]

    template = chord_template(parse_chord("G7"))
    assert template.shape == (12,)
    assert np.isclose(np.linalg.norm(template), 1.0)
    # G7 tones: G B D F -> pitch classes 7, 11, 2, 5
    assert set(np.nonzero(template)[0]) == {2, 5, 7, 11}
    assert np.allclose(template[template > 0], 0.5)


# --- lead sheet text -------------------------------------------------------------

def test_parse_leadsheet_full_song():
    text = helpers.corpus_texts()["red_harbor"]
    sheet = parse_leadsheet(text)
    assert sheet.title == "Red Harbor"
    assert sheet.key == (3, "major")
    assert sheet.time_signature == (4, 4)
    assert sheet.n_bars == 8
    assert sheet.bar_ticks == 4 * 480
    assert len(sheet.melody) == 32
    # bar 5 holds two chords: Fm7 on beat 0 and Bb7 on beat 2
    bar5 = [(tick, ch) for tick, ch in sheet.chords if tick // sheet.bar_ticks == 5]
    assert bar5 == [(5 * 1920, ChordSymbol(5, "min7")), (5 * 1920 + 960, ChordSymbol(10, "dom7"))]


def test_parse_leadsheet_chord_grid_strides():
    sheet = parse_leadsheet("| C . G7 . |\n| F |\n")
    assert [tick for tick, _ in sheet.chords] == [0, 960, 1920]
    sheet = parse_leadsheet("| C G7 |\n")
    assert [tick for tick, _ in sheet.chords] == [0, 960]
    sheet = parse_leadsheet("time: 3/4\n| C . G7 |\n| F . . |\n")
    assert [tick for tick, _ in sheet.chords] == [0, 960, 1440]
    sheet = parse_leadsheet("time: 6/8\n| C . . G7 . . |\n")
    assert [tick for tick, _ in sheet.chords] == [0, 720]
    sheet = parse_leadsheet("time: 5/16\n| C . . . G7 |\n| F |\n")
    assert [tick for tick, _ in sheet.chords] == [0, 480, 600]


def test_parse_leadsheet_melody_rows():
    text = (
        "| C . . . |\n"
        "melody:\n"
        "0.0 60 1\n"
        "0.1/2 Eb5 1/2\n"
        "0.2 C4 0.5 99\n"
    )
    sheet = parse_leadsheet(text)
    assert sheet.melody == [(0, 60, 480, 80), (240, 75, 240, 80), (960, 60, 240, 99)]


def test_n_bars_covers_melody_extent():
    sheet = parse_leadsheet("| C . . . |\nmelody:\n3.0 60 1\n")
    assert sheet.n_bars == 4


def test_melody_rounds_onto_the_tick_grid():
    # 1/7 beat is off the 480 grid: onset 480/7 ticks rounds to 69, end 960/7 to 137
    sheet = parse_leadsheet("| C . . . |\nmelody:\n0.1/7 60 1/7\n0.2 62 1/1000\n")
    assert sheet.melody == [(69, 60, 68, 80), (960, 62, 1, 80)]
    # an onset that rounds onto a bar line belongs to the next bar
    sheet = parse_leadsheet("| C . . . |\nmelody:\n0.7999/2000 60 1\n")
    assert sheet.melody[0][0] == 1920 and sheet.n_bars == 2
    assert [n[:2] for n in original_segments(sheet, window=1)[1].score.tick_notes] == [(0, 60)]


def test_parse_leadsheet_errors():
    with pytest.raises(LeadSheetError, match="do not divide"):
        parse_leadsheet("| C . G7 |\n")  # 3 slots under 4/4
    with pytest.raises(LeadSheetError, match="must precede"):
        parse_leadsheet("| C . . . |\ntime: 3/4\n")
    with pytest.raises(LeadSheetError, match="unrecognized"):
        parse_leadsheet("what is this\n| C . . . |\n")
    with pytest.raises(LeadSheetError, match="no chords"):
        parse_leadsheet("title: Empty\n")
    with pytest.raises(LeadSheetError, match="bad time"):
        parse_leadsheet("time: four/4\n| C |\n")
    with pytest.raises(LeadSheetError, match="key"):
        parse_leadsheet("key: C lydian\n| C . . . |\n")
    with pytest.raises(LeadSheetError, match="^line 1: bad key tonic"):
        parse_leadsheet("key: H major\n| C . . . |\n")
    with pytest.raises(LeadSheetError, match="outside its bar"):
        parse_leadsheet("| C . . . |\nmelody:\n0.4 60 1\n")
    with pytest.raises(LeadSheetError, match="melody rows"):
        parse_leadsheet("| C . . . |\nmelody:\n60 1\n")
    with pytest.raises(LeadSheetError, match="non-positive"):
        parse_leadsheet("| C . . . |\nmelody:\n0.0 60 0\n")
    with pytest.raises(LeadSheetError, match="end with"):
        parse_leadsheet("| C . . .\n")
    with pytest.raises(LeadSheetError):
        parse_leadsheet("| C . xyz . |\n")  # bad chord names the line


@pytest.mark.parametrize("header", ["4/0", "13/4", "5/3", "4/32", "0/4"])
def test_unsupported_time_header_names_the_line(header):
    """A signature outside 1..12 over 1, 2, 4, 8 or 16 would be renormalized in
    every segment score (13/4 windows would say 12/4), or divide by zero."""
    with pytest.raises(LeadSheetError, match=f"^line 2: unsupported time signature {header}$"):
        parse_leadsheet(f"title: T\ntime: {header}\n| C |\n")


@pytest.mark.parametrize("row, message", [
    ("0.0 200 1", "line 3: pitch '200' out of MIDI range"),
    ("0.0 -1 1", "line 3: pitch '-1' out of MIDI range"),
    ("0.0 G#9 1", "line 3: pitch 'G#9' out of MIDI range"),
    ("0.0 60 1 300", "line 3: velocity '300' not an integer 1-127"),
    ("0.0 60 1 0", "line 3: velocity '0' not an integer 1-127"),
    ("0.0 60 1 x", "line 3: velocity 'x' not an integer 1-127"),
    ("0.0 60 1 64.0", "line 3: velocity '64.0' not an integer 1-127"),
])
def test_melody_row_values_out_of_range_name_the_line(row, message):
    with pytest.raises(LeadSheetError, match=f"^{message}$"):
        parse_leadsheet(f"| C . . . |\nmelody:\n{row}\n")


# --- segment realization ----------------------------------------------------------

def test_original_segments_realize_chord_blocks():
    sheet = parse_leadsheet("| C . G7 . |\n| F . . . |\n")
    segments = original_segments(sheet, window=2)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.start_bar == 0
    spans = {(n.pitch, n.onset, n.duration) for n in beat_notes(seg.score)}
    expected = set()
    for pitch in (48, 52, 55):          # C triad from C3, beats 0-2
        expected.add((pitch, F(0), F(2)))
    for pitch in (55, 59, 62, 65):      # G7 from G3, beats 2-4
        expected.add((pitch, F(2), F(2)))
    for pitch in (53, 57, 60):          # F triad, held to the window end
        expected.add((pitch, F(4), F(4)))
    assert spans == expected
    assert all(n.velocity == 64 for n in beat_notes(seg.score))
    assert seg.score.time_signatures == [(0, 4, 4)]


def test_original_segments_tile_and_rebase_melody():
    text = "| C . . . |\n| G7 . . . |\n| F . . . |\nmelody:\n0.0 72 1\n1.1 74 1\n2.2 76 1\n"
    sheet = parse_leadsheet(text)
    segments = original_segments(sheet, window=1)
    assert [s.start_bar for s in segments] == [0, 1, 2]
    melody_notes = [n for n in beat_notes(segments[1].score) if n.velocity == 80]
    assert [(n.pitch, n.onset) for n in melody_notes] == [(74, F(1))]
    chord_notes = [n for n in beat_notes(segments[2].score) if n.velocity == 64]
    assert {(n.pitch, n.onset, n.duration) for n in chord_notes} == {
        (53, F(0), F(4)), (57, F(0), F(4)), (60, F(0), F(4))}  # F triad, the whole bar

    with pytest.raises(ValueError):
        original_segments(sheet, window=0)
    # window longer than the sheet yields nothing
    assert original_segments(sheet, window=9) == []
