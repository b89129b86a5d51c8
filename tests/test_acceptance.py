"""Release gates for the whole toolkit, one test per gate.

Each test is self-contained and prints as a single pass/fail line under
`pytest -v`. Numeric tolerances and budgets are pinned as module constants;
shared expensive work (the overfit run, the command pipeline) lives in
module-scoped fixtures.
"""

import csv
import json
import math
import time
import zlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from helpers import grad_check
from overpaint.alignment import DEFAULT_EMISSION_WEIGHT, viterbi_align
from overpaint.autodiff import cross_entropy, no_grad
from overpaint.cli import main
from overpaint.dataset import PairRecord, augment, split_by_song
from overpaint.metrics import (
    n_pitches,
    pitch_class_entropy,
    pitch_in_scale,
    pitch_range,
    polyphony,
)
from overpaint.midi_io import NoteEvent, make_score
from overpaint.model import TrainConfig, TransformerLM, generate_batch, nucleus_sample, preset, train
from overpaint.tokenizer import (
    BOS,
    EOS,
    PAD,
    SEP,
    assemble_pair,
    build_vocabulary,
    detokenize_with_report,
    tokenize,
)

import reference_metrics
from reference_score import beat_notes
from test_alignment import oracle_align, random_instance
from test_autodiff import OPS, op_instances
from test_metrics import random_score
from test_tokenizer import random_center_score

# pinned numeric gates
GRAD_INSTANCES_PER_OP = 20
GRAD_TOLERANCE = 1e-4
GRAD_TIME_BUDGET = 120.0
OVERFIT_PAIRS = 16
OVERFIT_MAX_EPOCHS = 500
OVERFIT_TARGET_LOSS = 0.1
OVERFIT_LR = 1e-3
OVERFIT_TIME_BUDGET = 900.0
INIT_LOSS_REL_TOL = 0.05
MEMORIZATION_MIN = 0.9
ROUND_TRIP_SCORES = 1_000
REPAIR_STRINGS = 10_000
VITERBI_INSTANCES = 200
METRIC_SCORES = 100
METRIC_TOLERANCE = 1e-9
TRANSPOSE_SCORES = 100
SPLIT_CORPORA = 50
SAMPLER_DRAWS = 10_000
SAMPLER_SIGMA = 3.0
PIPELINE_TIME_BUDGET = 1_200.0
AUGMENT_TIME_BUDGET = 60.0

VOCAB = build_vocabulary()


# --- shared fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit():
    """16 grammatical token pairs memorized by the small preset."""
    rng = np.random.default_rng(42)
    pairs = []
    seqs = []
    for _ in range(OVERFIT_PAIRS):
        orig = tokenize(random_center_score(rng, n_notes=6), VOCAB)
        var = tokenize(random_center_score(rng, n_notes=6), VOCAB)
        pairs.append((orig, var))
        seqs.append(assemble_pair(orig, var))

    config = preset("model1", len(VOCAB), dropout=0.0)
    width = max(len(s) for s in seqs)
    batch = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        batch[i, : len(s)] = s
    fresh = TransformerLM(config, seed=0)
    with no_grad():
        logits = fresh.forward(batch[:, :-1])
    init_loss = cross_entropy(logits, batch[:, 1:], ignore_index=PAD).item()

    t0 = time.monotonic()
    result = train(
        seqs,
        seqs,
        config,
        TrainConfig(
            max_epochs=OVERFIT_MAX_EPOCHS,
            batch_size=16,
            lr=OVERFIT_LR,
            seed=0,
            scheduler_patience=OVERFIT_MAX_EPOCHS - 1,
            early_stop_patience=OVERFIT_MAX_EPOCHS,
        ),
        stop_at_train_loss=OVERFIT_TARGET_LOSS,
    )
    elapsed = time.monotonic() - t0
    return SimpleNamespace(pairs=pairs, result=result, init_loss=init_loss, elapsed=elapsed)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Command pipeline over the three-song corpus with the published preset."""
    root = tmp_path_factory.mktemp("acceptance")
    sheets, perfs = helpers.write_corpus(root)
    paths = SimpleNamespace(
        root=root,
        sheets=sheets,
        perfs=perfs,
        pairs=root / "pairs.jsonl",
        aug=root / "aug.jsonl",
        tokens=root / "tokens",
        model=root / "model.ovpt",
        gen=root / "gen",
        eval_csv=root / "eval.csv",
        report_csv=root / "report.csv",
    )
    t0 = time.monotonic()
    codes = [
        main(["--quiet", "extract-pairs", "--performances", str(perfs),
              "--leadsheets", str(sheets), "--out", str(paths.pairs)]),
        main(["--quiet", "augment", "--pairs", str(paths.pairs),
              "--out", str(paths.aug), "--seed", "0"]),
        main(["--quiet", "tokenize", "--pairs", str(paths.aug),
              "--out-dir", str(paths.tokens)]),
        main(["--quiet", "train", "--tokens", str(paths.tokens),
              "--model", "model1", "--out", str(paths.model),
              "--epochs", "50", "--seed", "0"]),
        main(["--quiet", "generate", "--checkpoint", str(paths.model),
              "--tokens", str(paths.tokens / "tokens_test.bin"),
              "--out-dir", str(paths.gen), "--limit", "3",
              "--max-new", "64", "--seed", "0"]),
        main(["--quiet", "evaluate", "--dir", str(paths.gen),
              "--label", "generated", "--csv", str(paths.eval_csv)]),
        main(["--quiet", "report",
              "--corpus", f"performances={perfs}",
              "--corpus", f"originals={paths.aug}:originals",
              "--corpus", f"variations={paths.aug}:variations",
              "--corpus", f"generated={paths.gen}",
              "--csv", str(paths.report_csv)]),
    ]
    paths.exit_codes = codes
    paths.elapsed = time.monotonic() - t0
    return paths


# --- the twelve gates ---------------------------------------------------------------


def test_01_augmentation_arithmetic():
    def corpus(n_pairs):
        note = [NoteEvent(60, Fraction(0), Fraction(1), 80)]
        score = make_score(notes=note)
        return [
            PairRecord(
                pair_id=f"s{i:04d}_w000",
                song_id=f"s{i:04d}",
                original=score,
                variation=score,
                window_start_bar=0,
                key=(0, "major"),
            )
            for i in range(n_pairs)
        ]

    t0 = time.monotonic()
    assert len(augment(corpus(4_352))) == 52_224
    assert len(augment(corpus(505))) == 6_060
    assert time.monotonic() - t0 < AUGMENT_TIME_BUDGET


def test_02_gradient_checks():
    t0 = time.monotonic()
    worst = 0.0
    for name in OPS:
        for seed in range(GRAD_INSTANCES_PER_OP):
            # Seeded by the name, so adding or deleting an entry redraws no other's instances.
            rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
            func, tensors = op_instances(name, rng)
            worst = max(worst, grad_check(func, tensors, seed=seed))
    assert worst < GRAD_TOLERANCE
    assert time.monotonic() - t0 < GRAD_TIME_BUDGET


def test_03_overfit_smoke(overfit):
    rel = abs(overfit.init_loss - math.log(len(VOCAB))) / math.log(len(VOCAB))
    assert rel < INIT_LOSS_REL_TOL
    logs = overfit.result.logs
    assert len(logs) <= OVERFIT_MAX_EPOCHS
    assert logs[-1].train_loss < OVERFIT_TARGET_LOSS
    assert overfit.elapsed < OVERFIT_TIME_BUDGET


def test_04_memorized_generation(overfit):
    model = overfit.result.model
    for orig, var in overfit.pairs:
        out = generate_batch(model, [[BOS] + orig + [SEP]], p=0.0, max_new=len(var) + 40)[0]
        matches = sum(a == b for a, b in zip(out, var))
        assert matches / len(var) >= MEMORIZATION_MIN
        _, repairs = detokenize_with_report(out, VOCAB)
        assert repairs == []


def test_05_tokenizer_round_trips_and_repair():
    rng = np.random.default_rng(5)
    for _ in range(ROUND_TRIP_SCORES):
        score = random_center_score(rng, n_notes=int(rng.integers(1, 12)))
        decoded, repairs = detokenize_with_report(tokenize(score, VOCAB), VOCAB)
        assert repairs == []
        assert beat_notes(decoded) == beat_notes(score)
    for _ in range(REPAIR_STRINGS):
        ids = rng.integers(0, len(VOCAB), size=int(rng.integers(1, 80)))
        detokenize_with_report([int(t) for t in ids], VOCAB)  # must never raise


def test_06_viterbi_matches_exhaustive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(VITERBI_INSTANCES):
        frames, templates, self_loop = random_instance(rng, max_frames=12, max_states=4)
        path = viterbi_align(frames, templates, self_loop)
        emit = DEFAULT_EMISSION_WEIGHT * (frames.frames @ templates.T)
        want_states, _ = oracle_align(emit, self_loop)
        assert np.array_equal(path.states, want_states)


def test_07_metrics_match_reference():
    rng = np.random.default_rng(7)
    for trial in range(METRIC_SCORES):
        score = random_score(rng, off_grid=bool(trial % 3 == 0))
        key = (int(rng.integers(0, 12)), str(rng.choice(["major", "minor"])))
        assert abs(pitch_class_entropy(score) - reference_metrics.pce(score)) <= METRIC_TOLERANCE
        assert abs(pitch_range(score) - reference_metrics.pitch_range(score)) <= METRIC_TOLERANCE
        assert abs(polyphony(score) - reference_metrics.polyphony(score)) <= METRIC_TOLERANCE
        assert abs(n_pitches(score) - reference_metrics.n_pitches(score)) <= METRIC_TOLERANCE
        assert abs(
            pitch_in_scale(score) - reference_metrics.pitch_in_scale(score)
        ) <= METRIC_TOLERANCE
        assert abs(
            pitch_in_scale(score, key) - reference_metrics.pitch_in_scale(score, key)
        ) <= METRIC_TOLERANCE
    # closed forms hold exactly
    assert pitch_class_entropy(helpers.simple_score(list(range(60, 72)))) == math.log2(12)
    scale = helpers.simple_score([60, 62, 64, 65, 67, 69, 71])
    assert pitch_in_scale(scale, key=(0, "major")) == 1.0
    assert polyphony(helpers.simple_score([60, 62, 64, 65])) == 1.0


def test_08_transposition_invariants():
    rng = np.random.default_rng(8)
    for _ in range(TRANSPOSE_SCORES):
        notes = [
            NoteEvent(
                int(rng.integers(5, 122)),
                Fraction(int(rng.integers(0, 64)), 12),
                Fraction(int(rng.integers(1, 24)), 12),
                int(rng.integers(1, 128)),
            )
            for _ in range(int(rng.integers(1, 30)))
        ]
        score = make_score(notes=notes)
        key = (int(rng.integers(0, 12)), str(rng.choice(["major", "minor"])))
        base = (
            pitch_class_entropy(score),
            pitch_range(score),
            polyphony(score),
            n_pitches(score),
            pitch_in_scale(score, key),
        )
        for shift in range(-5, 7):
            moved = make_score(
                notes=[
                    NoteEvent(n.pitch + shift, n.onset, n.duration, n.velocity)
                    for n in notes
                ]
            )
            co_key = ((key[0] + shift) % 12, key[1])
            assert pitch_class_entropy(moved) == base[0]
            assert pitch_range(moved) == base[1]
            assert polyphony(moved) == base[2]
            assert n_pitches(moved) == base[3]
            assert pitch_in_scale(moved, co_key) == base[4]


def test_09_split_hygiene():
    rng = np.random.default_rng(9)
    note = [NoteEvent(60, Fraction(0), Fraction(1), 80)]
    score = make_score(notes=note)
    for trial in range(SPLIT_CORPORA):
        pairs = []
        for s in range(int(rng.integers(3, 13))):
            for w in range(int(rng.integers(1, 4))):
                pairs.append(
                    PairRecord(
                        pair_id=f"song{s}_w{w * 4:03d}",
                        song_id=f"song{s}",
                        original=score,
                        variation=score,
                        window_start_bar=w * 4,
                        key=(0, "major"),
                    )
                )
        split = split_by_song(pairs, seed=trial)
        expanded = augment(split)
        assert len(expanded) == 12 * len(pairs)
        song_split = {}
        for p in expanded:
            song_split.setdefault(p.song_id, set()).add(p.split)
        assert all(len(s) == 1 for s in song_split.values())
        by_pair = {}
        for p in expanded:
            by_pair.setdefault(p.pair_id.rsplit("_t", 1)[0], set()).add(p.split)
        assert all(len(s) == 1 for s in by_pair.values())


def test_10_sampler_statistics():
    logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
    rng = np.random.default_rng(10)

    draws = [nucleus_sample(logits, 0.8, rng=rng) for _ in range(SAMPLER_DRAWS)]
    assert set(draws) == {0, 1}
    for token, expect in ((0, 0.625), (1, 0.375)):
        freq = draws.count(token) / SAMPLER_DRAWS
        se = math.sqrt(expect * (1 - expect) / SAMPLER_DRAWS)
        assert abs(freq - expect) < SAMPLER_SIGMA * se

    draws = [nucleus_sample(logits, 1.0, rng=rng) for _ in range(SAMPLER_DRAWS)]
    for token, expect in enumerate((0.5, 0.3, 0.15, 0.05)):
        freq = draws.count(token) / SAMPLER_DRAWS
        se = math.sqrt(expect * (1 - expect) / SAMPLER_DRAWS)
        assert abs(freq - expect) < SAMPLER_SIGMA * se


def test_11_end_to_end_pipeline(pipeline):
    assert pipeline.exit_codes == [0] * 7
    assert pipeline.elapsed < PIPELINE_TIME_BUDGET
    with open(pipeline.report_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Feature", "performances", "originals", "variations", "generated"]
    assert [r[0] for r in rows[1:6]] == [
        "Pitch Class Entropy",
        "Pitch Range",
        "Polyphony",
        "Number of Pitches",
        "Pitch in Scale",
    ]
    assert all(len(r) == 5 for r in rows)


def test_12_seeded_reruns_are_byte_identical(pipeline, tmp_path):
    aug2 = tmp_path / "aug.jsonl"
    assert main(["--quiet", "augment", "--pairs", str(pipeline.pairs),
                 "--out", str(aug2), "--seed", "0"]) == 0
    assert aug2.read_bytes() == pipeline.aug.read_bytes()

    tokens2 = tmp_path / "tokens"
    assert main(["--quiet", "tokenize", "--pairs", str(aug2),
                 "--out-dir", str(tokens2)]) == 0
    for name in ("vocab.json", "tokens_train.bin", "tokens_val.bin", "tokens_test.bin"):
        assert (tokens2 / name).read_bytes() == (pipeline.tokens / name).read_bytes()

    checkpoints = []
    for run in ("a", "b"):
        out = tmp_path / run / "model.ovpt"
        out.parent.mkdir()
        assert main(["--quiet", "train", "--tokens", str(pipeline.tokens),
                     "--out", str(out), "--epochs", "1", "--seed", "0"]) == 0
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]

    gens = []
    for run in ("c", "d"):
        out = tmp_path / run
        assert main(["--quiet", "generate", "--checkpoint", str(pipeline.model),
                     "--tokens", str(pipeline.tokens / "tokens_test.bin"),
                     "--out-dir", str(out), "--limit", "3",
                     "--max-new", "64", "--seed", "0"]) == 0
        gens.append({
            p.name: p.read_bytes()
            for p in out.iterdir()
            if not p.name.endswith(".run.json")
        })
    assert gens[0] == gens[1]
