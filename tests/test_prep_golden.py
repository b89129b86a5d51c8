"""Golden digests of the benchmark's prep pass at seed 1.

The benchmark's seeded corpus (`bench/corpus.py`, read only) goes through the
five prep commands in-process: extract-pairs, review, augment, tokenize and
report. Every primary artifact must keep the SHA-256 pinned here, so a change
to MIDI I/O, alignment, the dataset, the tokenizer or the metrics that moves
one byte of them fails in tier-1, not only in a benchmark run.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED_1 = {
    "pairs.jsonl": "5d1daab5d87eed484e22517ae03c1e62b7202c5450635721de3d77967af0837c",
    "reviewed.jsonl": "fec2d6c605c5e188f6d0f9224ddeb4e7513737b153ebb8303de269a64d661abc",
    "aug.jsonl": "397a32559927ecdd1e27b6b0c4c761520439cf9b8233a2dc6c99472b9078d310",
    "report.csv": "cb8d02a2e8d29817521e32560f89d824c1920318362921240c834d53dd821ba1",
    "tokens/tokens_train.bin": "d15c6ff045808a0b607f57633ca963be025a28b4b986646b22834c65e97cb4d7",
    "tokens/tokens_val.bin": "aef38f6ea12773337b2fa9865fed1aaf67cfb7fa0ebb3340587332d7b6699253",
    "tokens/tokens_test.bin": "dcefc20349799b13971429bfbd37e7366b535ad9608c060fc43943c540791cef",
}


@pytest.fixture
def bench_modules():
    """The benchmark's `workloads` module (which imports `corpus`), off sys.path afterwards."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(BENCH))


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


def test_prep_artifacts_at_seed_1_keep_their_digests(tmp_path, bench_modules):
    prep = bench_modules.Prep(n_songs=4)
    inputs = prep.make_inputs(tmp_path / "work", 1)
    out = tmp_path / "out"
    out.mkdir()
    commands = _Commands()
    prep.run_pass(commands, inputs, out)
    assert commands.failures == []
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SEED_1}
    assert digests == SEED_1
