"""The loop forms of chroma framing and Viterbi alignment, used only as oracles.

These are the note-by-note, frame-by-frame versions that `overpaint.alignment`
replaced with array operations. The array versions must match them bit for
bit: the same frames, and the same states, score and confidence.
"""

import math

import numpy as np

from overpaint.alignment import DEFAULT_EMISSION_WEIGHT, FrameSequence
from overpaint.midi_io import note_seconds

_SILENT_NORM = 1e-12


def chroma_frames(performance, hop):
    """One note at a time, one frame at a time: each covered frame gains
    velocity/127 times the fraction of it the note covers."""
    spans = [(a, b, pitch % 12, velocity) for (a, b), (_, pitch, _, velocity)
             in zip(note_seconds(performance), performance.tick_notes)]
    total = max(b for _, b, _, _ in spans)

    n_frames = max(1, math.ceil(total / hop - 1e-9))
    frames = np.zeros((n_frames, 12))
    for a, b, pc, velocity in spans:
        first = max(0, int(a / hop))
        last = min(n_frames, int(math.ceil(b / hop)))
        for k in range(first, last):
            overlap = min(b, (k + 1) * hop) - max(a, k * hop)
            if overlap > 0:
                frames[k, pc] += (velocity / 127.0) * (overlap / hop)

    norms = np.linalg.norm(frames, axis=1)
    silent = norms <= _SILENT_NORM
    frames[~silent] /= norms[~silent, None]
    frames[silent] = 0.0
    return FrameSequence(frames, hop)


def viterbi_align(frames, templates, self_loop):
    """(states, score, confidence) with fresh arrays at every frame and the
    state-sum tie-break evaluated at every frame."""
    templates = np.asarray(templates, dtype=np.float64)
    n_states = len(templates)
    n = len(frames)
    sim = frames.frames @ templates.T
    emit = DEFAULT_EMISSION_WEIGHT * sim
    log_stay = math.log(self_loop)
    log_advance = math.log(1.0 - self_loop)

    big = np.int64(1) << 62
    score = np.full(n_states, -np.inf)
    score[0] = emit[0, 0]
    state_sum = np.full(n_states, big, dtype=np.int64)
    state_sum[0] = 0
    came_via_advance = np.zeros((n, n_states), dtype=bool)
    state_index = np.arange(n_states, dtype=np.int64)

    for k in range(1, n):
        stay = score + log_stay
        adv = np.empty(n_states)
        adv[0] = -np.inf
        adv[1:] = score[:-1] + log_advance
        adv_sum = np.empty(n_states, dtype=np.int64)
        adv_sum[0] = big
        adv_sum[1:] = state_sum[:-1]
        take = (adv > stay) | ((adv == stay) & (adv_sum < state_sum))
        came_via_advance[k] = take
        score = np.where(take, adv, stay) + emit[k]
        state_sum = np.where(take, adv_sum, state_sum) + state_index

    states = np.empty(n, dtype=np.int64)
    s = n_states - 1
    states[n - 1] = s
    for k in range(n - 1, 0, -1):
        if came_via_advance[k, s]:
            s -= 1
        states[k - 1] = s

    confidence = float(np.mean(sim[np.arange(n), states]))
    return states, float(score[n_states - 1]), confidence
