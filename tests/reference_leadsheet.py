"""Fraction-valued lead-sheet realization used only to cross-check the tick paths.

The rules `overpaint.leadsheet` and `overpaint.alignment` implemented when a
sheet kept its chords as (bar, beat, chord) with the beat an exact fraction
and its melody as beat-valued notes: a chord slot is `num / slots` beats of
`4 / den` each, a window's notes round half up to the tick grid only when the
segment is realized, and a window's chord slots are found by a linear scan
over bars. Nothing here reads a sheet's tick fields.
"""

from fractions import Fraction


def _round_half_up(x: Fraction) -> int:
    return int((2 * x + 1) // 2)


def bar_beats(num, den):
    """Beats in a bar of num/den."""
    return Fraction(4 * num, den)


def chord_beats(bars, numerator, denominator):
    """(bar, beat, token) per chord token of `bars`, lists of tokens ('.' holds)."""
    out = []
    for bar, tokens in enumerate(bars):
        stride = Fraction(numerator, len(tokens)) * Fraction(4, denominator)
        out += [(bar, i * stride, token) for i, token in enumerate(tokens) if token != "."]
    return out


def n_bars(chords, melody, signature):
    """Bars the sheet spans: the last chord's bar, or the bar of the latest
    melody onset in beats, plus one. `melody` rows are (pitch, onset, duration,
    velocity) in beats."""
    last = chords[-1][0] if chords else 0
    for _, onset, _, _ in melody:
        last = max(last, int(onset // bar_beats(*signature)))
    return last + 1


def slot_range(chords, start_bar, window):
    """Indices [lo, hi) of the chords in bars start_bar .. start_bar + window - 1."""
    lo = next((i for i, (b, _, _) in enumerate(chords) if b >= start_bar), len(chords))
    hi = next((i for i, (b, _, _) in enumerate(chords) if b >= start_bar + window), len(chords))
    return lo, hi


def segments(chords, melody, signature, window, tones, resolution=480):
    """(start_bar, rows) per `window`-bar segment, rows sorted (onset, pitch,
    duration, velocity) in ticks. `tones(token)` gives a chord's absolute
    block pitches; blocks sound at velocity 64 to the next chord or the
    window end; melody notes round their onset and end half up, >= 1 tick."""
    bpb = bar_beats(*signature)

    def tick(beat):
        return _round_half_up(beat * resolution)

    out = []
    for start in range(0, n_bars(chords, melody, signature) - window + 1, window):
        lo, hi = tick(start * bpb), tick((start + window) * bpb)
        rows = []
        for pitch, onset, duration, velocity in melody:
            on = tick(onset)
            if lo <= on < hi:
                rows.append((on - lo, pitch, max(tick(onset + duration) - on, 1), velocity))
        slot_lo, slot_hi = slot_range(chords, start, window)
        in_window = chords[slot_lo:slot_hi]
        for i, (bar, beat, token) in enumerate(in_window):
            onset = tick((bar - start) * bpb + beat)
            if i + 1 < len(in_window):
                next_bar, next_beat, _ = in_window[i + 1]
                until = tick((next_bar - start) * bpb + next_beat)
            else:
                until = tick(window * bpb)
            rows += [(onset, pitch, until - onset, 64) for pitch in tones(token)]
        out.append((start, sorted(rows)))
    return out
