"""The benchmark's three workloads: inputs, program set-up, one measured pass, checks.

Each pass drives the real CLI in-process through `Pass.command`, which times
`overpaint.cli.main([...])`. Work between commands (writing review decisions,
reading outputs back for the checks, hashing artifacts) is not timed, and uses
the modules imported here, not the fresh ones the timed set-up loads. Every
command, primer and check is one attempted operation; a non-zero exit or a
failed check is a failed one.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import corpus
from overpaint import model, tokenizer

TRANSPOSITIONS = 12  # copies per accepted pair that `overpaint augment` writes
# Token counts the token workloads' inputs are spread over, whatever the seed:
# whole training sequences, and the BOS..SEP primers that generate continues.
SEQUENCE_LENGTHS = (220, 440)
PRIMER_LENGTHS = (100, 150)


def fresh_import() -> None:
    """Drop every loaded overpaint module and import the CLI (and so the package) anew."""
    for name in [n for n in sys.modules if n == "overpaint" or n.startswith("overpaint.")]:
        del sys.modules[name]
    importlib.import_module("overpaint.cli")


def _records(manifest: Path) -> list[dict]:
    """Pair records of a manifest (the header line skipped)."""
    lines = manifest.read_text(encoding="utf-8").splitlines()[1:]
    return [json.loads(line) for line in lines if line.strip()]


def _spaced(lo: int, hi: int, n: int) -> list[int]:
    return [round(lo + (hi - lo) * i / max(n - 1, 1)) for i in range(n)]


def _primer_length(seq) -> int:
    return seq.index(tokenizer.SEP) + 1


def _normalize_stem(name: str) -> str:
    """How `overpaint extract-pairs` keys a song: lower-case letters and digits."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


@dataclass
class Prep:
    """extract-pairs -> review -> augment -> tokenize -> report on a seeded corpus."""

    n_songs: int = 4
    name = "prep"
    stages = ("extract-pairs", "review", "augment", "tokenize", "report")
    rate_name = None  # each stage's wall time is reported instead

    def make_inputs(self, work: Path, seed: int) -> dict:
        songs, sheets, perfs = corpus.write_prep_corpus(work / "corpus", seed, self.n_songs)
        off_sheet = {(_normalize_stem(s.stem), bar) for s in songs for bar in s.off_sheet}
        return {"sheets": sheets, "perfs": perfs, "off_sheet": off_sheet}

    def setup(self, inputs: dict) -> None:
        fresh_import()
        importlib.import_module("overpaint.tokenizer").build_vocabulary()

    def run_pass(self, p, inputs: dict, out: Path) -> dict:
        pairs, reviewed, augmented = out / "pairs.jsonl", out / "reviewed.jsonl", out / "aug.jsonl"
        decisions, tokens, table = out / "decisions.jsonl", out / "tokens", out / "report.csv"
        p.command("extract-pairs", ["extract-pairs", "--performances", str(inputs["perfs"]),
                                    "--leadsheets", str(inputs["sheets"]), "--out", str(pairs)])
        self._write_decisions(Path(str(pairs) + ".review.jsonl"), decisions, inputs["off_sheet"])
        p.command("review", ["review", "--pairs", str(pairs), "--decisions", str(decisions),
                             "--out", str(reviewed)])
        p.command("augment", ["augment", "--pairs", str(reviewed), "--out", str(augmented)])
        p.command("tokenize", ["tokenize", "--pairs", str(augmented), "--out-dir", str(tokens)])
        p.command("report", ["report", "--corpus", f"performances={inputs['perfs']}",
                             "--corpus", f"originals={augmented}:originals",
                             "--corpus", f"variations={augmented}:variations",
                             "--csv", str(table)])

        accepted = n_aug = 0
        try:
            accepted = sum(r["status"] == "accepted" for r in _records(reviewed))
            n_aug = len(_records(augmented))
        except (OSError, ValueError, KeyError):
            pass
        p.check("augmented count is 12 x accepted",
                n_aug > 0 and n_aug == TRANSPOSITIONS * accepted)
        lengths, in_vocab = [], False
        try:
            vocab = tokenizer.load_vocabulary(tokens / "vocab.json")
            seqs = [s for split in ("train", "val", "test")
                    for s in tokenizer.read_token_file(tokens / f"tokens_{split}.bin", vocab)]
            lengths = [len(s) for s in seqs]
            in_vocab = all(int(s.max()) < len(vocab) for s in seqs)
        except (OSError, ValueError):
            pass
        p.check("token files read back under the vocabulary hash",
                in_vocab and len(lengths) == n_aug > 0)
        p.check("report counts equal the inputs",
                self._report_counts(table) == [self.n_songs, n_aug, n_aug])
        artifacts = [pairs, reviewed, augmented, table] + sorted(tokens.glob("tokens_*.bin"))
        return {"tokens": sum(lengths), "lengths": lengths, "artifacts": artifacts}

    @staticmethod
    def _write_decisions(sheet: Path, out: Path, off_sheet: set) -> None:
        """Reject flagged windows that were played off the sheet; accept the other flagged ones."""
        lines = []
        if sheet.exists():
            for line in sheet.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                if rec["status"] != "accepted":
                    wrong = (rec["song_id"], rec["window_start_bar"]) in off_sheet
                    lines.append(json.dumps({"pair_id": rec["pair_id"],
                                             "status": "rejected" if wrong else "accepted"}))
        out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    @staticmethod
    def _report_counts(table: Path) -> list[int]:
        """Scored plus skipped inputs per corpus column of the report CSV."""
        try:
            rows = {row[0]: row[1:] for row in csv.reader(table.open(encoding="utf-8"))}
            return [int(c) + int(s) for c, s in zip(rows["Count"], rows["Skipped"])]
        except (OSError, KeyError, ValueError):
            return []


@dataclass
class TrainModel1:
    """`overpaint train --model model1` for a fixed number of epochs."""

    n_train: int = 8
    n_val: int = 4
    epochs: int = 2
    batch_size: int = 8
    name = "train-model1"
    stages = ("train",)
    rate_name = "train_tokens_per_s"

    def make_inputs(self, work: Path, seed: int) -> dict:
        tokens = work / "tokens"
        wanted = {"train": _spaced(*SEQUENCE_LENGTHS, self.n_train),
                  "val": _spaced(*SEQUENCE_LENGTHS, self.n_val)}
        seqs = corpus.write_token_corpus(tokens, seed, wanted, tokenizer.build_vocabulary())
        targets = {split: sum(len(s) - 1 for s in group) for split, group in seqs.items()}
        # Non-PAD targets one train command computes, validation passes included.
        useful = self.epochs * (targets["train"] + targets["val"])
        return {"tokens": tokens, "targets": targets, "useful_targets": useful,
                "lengths": [len(s) for group in seqs.values() for s in group]}

    def setup(self, inputs: dict) -> None:
        fresh_import()
        fresh = importlib.import_module("overpaint.tokenizer")
        fresh.build_vocabulary()
        vocab = fresh.load_vocabulary(inputs["tokens"] / "vocab.json")
        for split in ("train", "val"):
            fresh.read_token_file(inputs["tokens"] / f"tokens_{split}.bin", vocab)

    def run_pass(self, p, inputs: dict, out: Path) -> dict:
        checkpoint = out / "model1.ovpt"
        log = out / "epochs.csv"
        p.command("train", ["train", "--tokens", str(inputs["tokens"]), "--model", "model1",
                            "--out", str(checkpoint), "--log", str(log),
                            "--epochs", str(self.epochs), "--batch-size", str(self.batch_size),
                            "--seed", "0"])
        rows = []
        try:
            rows = list(csv.DictReader(log.open(encoding="utf-8")))
            losses = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
        except (OSError, KeyError, ValueError):
            losses = []
        p.check("one epoch-log row per epoch", len(rows) == self.epochs)
        p.check("losses finite and falling",
                bool(losses) and all(map(math.isfinite, losses))
                and float(rows[-1]["train_loss"]) < float(rows[0]["train_loss"]))
        try:
            net, _ = model.load_checkpoint(checkpoint)
            ok = net.param_count() == model.TransformerLM.expected_param_count(net.config)
        except (OSError, ValueError):
            ok = False
        p.check("checkpoint loads with expected_param_count parameters", ok)
        epoch_s = [float(r["seconds"]) for r in rows] if len(rows) == self.epochs else []
        return {"tokens": self.epochs * inputs["targets"]["train"], "epoch_s": epoch_s,
                "artifacts": [checkpoint]}


@dataclass
class GenerateModel2:
    """`overpaint generate --p 0.9` from test primers with an untrained, seeded model2."""

    n_primers: int = 4
    max_new: int = 16
    name = "generate-model2"
    stages = ("generate",)
    rate_name = "gen_tokens_per_s"

    def make_inputs(self, work: Path, seed: int) -> dict:
        vocab = tokenizer.build_vocabulary()
        tokens = work / "tokens"
        wanted = {"test": _spaced(*PRIMER_LENGTHS, self.n_primers)}
        seqs = corpus.write_token_corpus(tokens, seed, wanted, vocab,
                                         measure=_primer_length)["test"]
        net = model.TransformerLM(model.preset("model2", vocab_size=len(vocab)), seed=seed)
        checkpoint = work / "model2.ovpt"
        model.save_checkpoint(checkpoint, net, vocab.digest, 0, math.nan)
        return {"tokens": tokens / "tokens_test.bin", "checkpoint": checkpoint, "seed": seed,
                "lengths": [_primer_length(s) for s in seqs]}

    def setup(self, inputs: dict) -> None:
        fresh_import()
        fresh = importlib.import_module("overpaint.tokenizer")
        vocab = fresh.build_vocabulary()
        importlib.import_module("overpaint.model").load_checkpoint(inputs["checkpoint"])
        fresh.read_token_file(inputs["tokens"], vocab)

    def run_pass(self, p, inputs: dict, out: Path) -> dict:
        gen = out / "generated"
        p.command("generate", ["generate", "--checkpoint", str(inputs["checkpoint"]),
                               "--tokens", str(inputs["tokens"]), "--out-dir", str(gen),
                               "--p", "0.9", "--max-new", str(self.max_new),
                               "--seed", str(inputs["seed"])])
        for i in range(self.n_primers):
            p.check(f"primer {i} has a MIDI file", (gen / f"{i:04d}.mid").is_file())
        vocab = tokenizer.build_vocabulary()
        try:
            seqs = tokenizer.read_token_file(gen / "generated_tokens.bin", vocab)
        except (OSError, ValueError):
            seqs = []
        p.check("generated_tokens.bin reads back, one sequence per primer",
                len(seqs) == self.n_primers)
        p.check("every generated id is in the vocabulary",
                bool(seqs) and all(s.size == 0 or int(s.max()) < len(vocab) for s in seqs))
        return {"tokens": sum(len(s) for s in seqs),
                "artifacts": [gen / "generated_tokens.bin"]}


WORKLOADS = {w.name: w for w in (Prep(), TrainModel1(), GenerateModel2())}
