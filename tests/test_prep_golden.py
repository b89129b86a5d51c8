"""Golden digests of the benchmark's prep pass at seed 1.

The benchmark's seeded corpus (`bench/corpus.py`, read only) goes through the
five prep commands in-process: extract-pairs, review, augment, tokenize and
report. Every primary artifact must keep the SHA-256 pinned here, so a change
to MIDI I/O, alignment, the dataset, the tokenizer or the metrics that moves
one byte of them fails in tier-1, not only in a benchmark run. The number of
MIDI payloads beside each manifest is pinned too: augment writes each
accepted pair's two payloads once, however many transpositions share them,
and review and augment keep the bytes extract-pairs wrote.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from overpaint.midi_io import parse_midi, write_midi

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED_1 = {
    "pairs.jsonl": "7d8129c706091149c6273ed8f0a0f11bac237c410f21cac817d65675ad053603",
    "reviewed.jsonl": "6c83047b5c3ffb5b12106b0c079ad57dcc4aefe7bfac1dcee9cd92c8eb1d6ba5",
    "aug.jsonl": "b200eae663df4f06aadbdaed84cc5e5a0234c0ac266870a09764482f9789742d",
    "report.csv": "cb8d02a2e8d29817521e32560f89d824c1920318362921240c834d53dd821ba1",
    "tokens/tokens_train.bin": "d15c6ff045808a0b607f57633ca963be025a28b4b986646b22834c65e97cb4d7",
    "tokens/tokens_val.bin": "aef38f6ea12773337b2fa9865fed1aaf67cfb7fa0ebb3340587332d7b6699253",
    "tokens/tokens_test.bin": "dcefc20349799b13971429bfbd37e7366b535ad9608c060fc43943c540791cef",
}
# Payload files per manifest: two per pair from extract-pairs and review (32
# pairs), and two per accepted source from augment (30 sources, 360 records).
PAYLOADS = {"pairs_midi": 64, "reviewed_midi": 64, "aug_midi": 60}


class _Commands:
    """What a benchmark pass calls back into: run a command, record a check."""

    def __init__(self):
        from overpaint import cli

        self.cli = cli
        self.failures = []

    def command(self, stage, argv):
        if self.cli.main(["--quiet", *argv]) != 0:
            self.failures.append(stage)

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)


@pytest.fixture(scope="module")
def seed_1_out(tmp_path_factory):
    """The output directory of one benchmark prep pass at seed 1. The benchmark's
    `workloads` module (which imports `corpus`) is off sys.path afterwards."""
    root = tmp_path_factory.mktemp("prep")
    sys.path.insert(0, str(BENCH))
    try:
        import workloads

        prep = workloads.Prep(n_songs=4)
        inputs = prep.make_inputs(root / "work", 1)
        out = root / "out"
        out.mkdir()
        commands = _Commands()
        prep.run_pass(commands, inputs, out)
    finally:
        sys.path.remove(str(BENCH))
    assert commands.failures == []
    return out


def test_prep_artifacts_at_seed_1_keep_their_digests(seed_1_out):
    out = seed_1_out
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SEED_1}
    assert digests == SEED_1
    assert {name: len(list((out / name).iterdir())) for name in PAYLOADS} == PAYLOADS


def test_review_and_augment_keep_the_payload_bytes_extract_pairs_wrote(seed_1_out):
    written = {f.name: f.read_bytes() for f in (seed_1_out / "pairs_midi").iterdir()}
    for name in ("reviewed_midi", "aug_midi"):
        for f in (seed_1_out / name).iterdir():
            assert f.read_bytes() == written[f.name], f"{name}/{f.name}"


def test_parsing_a_seed_1_payload_is_a_fixed_point(seed_1_out):
    """Writing a parsed payload and parsing it again gives the same score, even
    where the bytes differ (FIFO re-pairs a nested same-pitch overlap)."""
    for f in sorted((seed_1_out / "pairs_midi").iterdir()):
        score = parse_midi(f.read_bytes())
        assert parse_midi(write_midi(score)) == score, f.name
