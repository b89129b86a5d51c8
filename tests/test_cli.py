import csv
import json
import shutil

import numpy as np
import pytest

from helpers import write_corpus
from overpaint.autodiff import NonFiniteError
from overpaint.cli import main
from overpaint.dataset import load_manifest
from overpaint.midi_io import load_midi
from overpaint.model import ModelConfig, TransformerLM, load_checkpoint, save_checkpoint
from overpaint.tokenizer import (
    BOS, EOS, SEP, build_vocabulary, detokenize_with_report, read_token_file,
    write_token_file,
)

# song ids come from lead sheet stems normalized to alphanumerics
REJECTED_PAIR = "bluegarden_w004"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full command pipeline over the three-song corpus, run once per module."""
    root = tmp_path_factory.mktemp("pipeline")
    sheets, perfs = write_corpus(root)
    paths = {
        "root": root,
        "sheets": sheets,
        "perfs": perfs,
        "pairs": root / "pairs.jsonl",
        "review": root / "pairs.jsonl.review.jsonl",
        "reviewed": root / "reviewed.jsonl",
        "aug": root / "aug.jsonl",
        "tokens": root / "tokens",
        "model": root / "model.ovpt",
        "gen": root / "gen",
    }
    assert main(["--quiet", "extract-pairs",
                 "--performances", str(perfs), "--leadsheets", str(sheets),
                 "--out", str(paths["pairs"])]) == 0

    # reject one window on the edited review sheet
    lines = [json.loads(l) for l in paths["review"].read_text().splitlines()]
    for line in lines:
        if line["pair_id"] == REJECTED_PAIR:
            line["status"] = "rejected"
    paths["review"].write_text("".join(json.dumps(l) + "\n" for l in lines))
    assert main(["--quiet", "review", "--pairs", str(paths["pairs"]),
                 "--decisions", str(paths["review"]),
                 "--out", str(paths["reviewed"])]) == 0

    assert main(["--quiet", "augment", "--pairs", str(paths["reviewed"]),
                 "--out", str(paths["aug"]), "--seed", "0"]) == 0
    assert main(["--quiet", "tokenize", "--pairs", str(paths["aug"]),
                 "--out-dir", str(paths["tokens"])]) == 0
    assert main(["--quiet", "train", "--tokens", str(paths["tokens"]),
                 "--out", str(paths["model"]), "--epochs", "1",
                 "--batch-size", "8", "--dropout", "0.0", "--seed", "0"]) == 0
    assert main(["--quiet", "generate", "--checkpoint", str(paths["model"]),
                 "--tokens", str(paths["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(paths["gen"]), "--limit", "2",
                 "--max-new", "24", "--seed", "1"]) == 0
    return paths


def test_extract_and_review_stage(pipeline):
    pairs = load_manifest(pipeline["pairs"])
    assert len(pairs) == 6
    assert all(p.status == "accepted" for p in pairs)

    reviewed = load_manifest(pipeline["reviewed"])
    statuses = {p.pair_id: p.status for p in reviewed}
    assert statuses.pop(REJECTED_PAIR) == "rejected"
    assert set(statuses.values()) == {"accepted"}


def test_augment_stage(pipeline):
    pairs = load_manifest(pipeline["aug"])
    assert len(pairs) == 5 * 12
    song_splits = {}
    for p in pairs:
        song_splits.setdefault(p.song_id, set()).add(p.split)
    assert all(len(s) == 1 for s in song_splits.values())  # songs stay whole
    assert {next(iter(s)) for s in song_splits.values()} == {"train", "val", "test"}

    sidecar = json.loads((pipeline["root"] / "aug.jsonl.run.json").read_text())
    assert sidecar["command"] == "augment"
    assert sidecar["seed"] == 0
    assert str(pipeline["reviewed"]) in sidecar["inputs"]
    assert str(pipeline["aug"]) in sidecar["outputs"]
    assert sidecar["wall_clock_seconds"] >= 0


def test_tokenize_stage(pipeline):
    tokens = pipeline["tokens"]
    assert (tokens / "vocab.json").exists()
    vocab = build_vocabulary()
    total = 0
    for split in ("train", "val", "test"):
        seqs = read_token_file(tokens / f"tokens_{split}.bin", vocab)
        total += len(seqs)
        for seq in seqs:
            assert seq[0] == BOS and seq[-1] == EOS
            assert np.count_nonzero(seq == SEP) == 1
    assert total == 60


def test_train_stage(pipeline):
    model, meta = load_checkpoint(pipeline["model"])
    assert meta["vocab_hash"] == build_vocabulary().digest
    assert meta["epoch"] == 1
    with open(str(pipeline["model"]) + ".log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["epoch", "lr", "train_loss", "val_loss"]
    assert len(rows) == 2

    # one epoch: every training target once, plus the PAD its batches held
    seqs = read_token_file(pipeline["tokens"] / "tokens_train.bin", build_vocabulary())
    sidecar = json.loads((pipeline["root"] / "model.ovpt.run.json").read_text())
    assert sidecar["target_positions"] == sum(len(s) - 1 for s in seqs)
    assert sidecar["padded_positions"] >= 0


def test_generate_stage(pipeline):
    gen = pipeline["gen"]
    names = sorted(p.name for p in gen.iterdir() if not p.name.endswith(".run.json"))
    assert names == ["0000.mid", "0001.mid", "generated_tokens.bin"]
    for name in ("0000.mid", "0001.mid"):
        load_midi(gen / name)  # parses back
    seqs = read_token_file(gen / "generated_tokens.bin", build_vocabulary())
    assert len(seqs) == 2 and all(len(s) <= 24 for s in seqs)

    sidecar = json.loads((gen.parent / "gen.run.json").read_text())
    assert [d["primer"] for d in sidecar["decoded"]] == [0, 1]
    assert [d["tokens"] for d in sidecar["decoded"]] == [len(s) for s in seqs]
    assert [d["repairs"] for d in sidecar["decoded"]] == [
        len(detokenize_with_report(s.tolist(), build_vocabulary())[1]) for s in seqs
    ]
    assert sidecar["skipped"] == []


def test_generate_records_skipped_primers(pipeline, tmp_path):
    vocab = build_vocabulary()
    good = read_token_file(pipeline["tokens"] / "tokens_test.bin", vocab)[0]
    no_sep = good[good != SEP]
    too_long = np.concatenate([[BOS], np.full(1100, good[1]), [SEP, EOS]])
    tokens = tmp_path / "mixed.bin"
    write_token_file(tokens, [no_sep, too_long, good], vocab)
    out = tmp_path / "g"
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(tokens), "--out-dir", str(out),
                 "--max-new", "8", "--seed", "1"]) == 0
    assert sorted(p.name for p in out.glob("*.mid")) == ["0002.mid"]
    sidecar = json.loads((tmp_path / "g.run.json").read_text())
    assert [d["primer"] for d in sidecar["decoded"]] == [2]
    assert sidecar["skipped"] == [
        {"primer": 0, "reason": "no separator"},
        {"primer": 1, "reason": "primer fills the context window"},
    ]
    # skipped primers do not shift primer 2's stream: it decodes as it does
    # after two primers that are not skipped
    others = read_token_file(pipeline["tokens"] / "tokens_test.bin", vocab)[1:3]
    write_token_file(tokens, [*others, good], vocab)
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(tokens), "--out-dir", str(tmp_path / "h"),
                 "--max-new", "8", "--seed", "1"]) == 0
    alone = read_token_file(out / "generated_tokens.bin", vocab)[0]
    after_others = read_token_file(tmp_path / "h" / "generated_tokens.bin", vocab)[2]
    assert len(alone) > 0 and alone.tolist() == after_others.tolist()


@pytest.mark.parametrize("p", ["0", "0.9"])
def test_generate_primer_output_does_not_depend_on_limit(pipeline, tmp_path, p):
    """Primer 0 decodes alone under --limit 1 and in a batch of three under
    --limit 3, from its own stream either way."""
    firsts = []
    for limit in ("1", "3"):
        out = tmp_path / limit
        assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                     "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                     "--out-dir", str(out), "--limit", limit, "--p", p,
                     "--max-new", "24", "--seed", "1"]) == 0
        seqs = read_token_file(out / "generated_tokens.bin", build_vocabulary())
        assert len(seqs) == int(limit)
        firsts.append(seqs[0].tolist())
    assert firsts[0] == firsts[1]


def test_evaluate_prints_table(pipeline, capsys, tmp_path):
    csv_out = tmp_path / "eval.csv"
    rc = main(["--quiet", "evaluate", "--dir", str(pipeline["gen"]),
               "--label", "generated", "--csv", str(csv_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Pitch Class Entropy" in out and "generated" in out
    with open(csv_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Feature", "generated"]


def test_report_compares_corpora(pipeline, capsys, tmp_path):
    csv_out = tmp_path / "report.csv"
    rc = main([
        "--quiet", "report",
        "--corpus", f"originals={pipeline['aug']}:originals",
        "--corpus", f"variations={pipeline['aug']}:variations",
        "--corpus", f"generated={pipeline['gen']}",
        "--csv", str(csv_out),
    ])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header == ["Feature", "originals", "variations", "generated"]
    with open(csv_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Feature", "originals", "variations", "generated"]
    assert rows[-1][0] == "Skipped"


def test_report_rejects_bad_corpus_spec(pipeline):
    assert main(["--quiet", "report", "--corpus", "nodirhere"]) == 2
    assert main(["--quiet", "report",
                 "--corpus", f"g={pipeline['gen']}:originals"]) == 2


def test_input_errors_exit_2(pipeline, tmp_path):
    assert main(["--quiet", "extract-pairs",
                 "--performances", str(tmp_path / "nope"),
                 "--leadsheets", str(pipeline["sheets"]),
                 "--out", str(tmp_path / "p.jsonl")]) == 2

    bad_review = tmp_path / "bad.jsonl"
    bad_review.write_text('{"pair_id": "ghost_w000", "status": "accepted"}\n')
    assert main(["--quiet", "review", "--pairs", str(pipeline["pairs"]),
                 "--decisions", str(bad_review),
                 "--out", str(tmp_path / "o.jsonl")]) == 2

    # tokenize refuses a manifest that never went through augment
    assert main(["--quiet", "tokenize", "--pairs", str(pipeline["pairs"]),
                 "--out-dir", str(tmp_path / "t")]) == 2

    # augment refuses a manifest with nothing accepted
    lines = [json.loads(l) for l in pipeline["review"].read_text().splitlines()]
    for line in lines:
        line["status"] = "rejected"
    all_bad = tmp_path / "all_bad.jsonl"
    all_bad.write_text("".join(json.dumps(l) + "\n" for l in lines))
    rejected = tmp_path / "rejected.jsonl"
    assert main(["--quiet", "review", "--pairs", str(pipeline["pairs"]),
                 "--decisions", str(all_bad), "--out", str(rejected)]) == 0
    assert main(["--quiet", "augment", "--pairs", str(rejected),
                 "--out", str(tmp_path / "a.jsonl")]) == 2


@pytest.mark.parametrize("command, index, edit", [
    ("augment", 0, lambda rec: [rec]),
    ("augment", 1, lambda rec: [rec]),
    ("augment", 1, lambda rec: {k: v for k, v in rec.items() if k != "pair_id"}),
    ("augment", 1, lambda rec: {k: v for k, v in rec.items() if k != "song_id"}),
    ("augment", 1, lambda rec: {**rec, "pair_id": ["a"]}),
    ("augment", 1, lambda rec: {**rec, "key": 5}),
    ("augment", 1, lambda rec: {**rec, "key": [1]}),
    ("augment", 1, lambda rec: {**rec, "key": ["C", "major"]}),
    ("augment", 1, lambda rec: {**rec, "transposition": "up"}),
    ("augment", 1, lambda rec: {**rec, "window_start_bar": True}),
    ("augment", 1, lambda rec: {**rec, "confidence": "high"}),
    ("augment", 1, lambda rec: {**rec, "status": 5}),
    ("augment", 1, lambda rec: {**rec, "split": ["train"]}),
    ("augment", 1, lambda rec: {**rec, "window_start_bar": "3"}),
    ("augment", 1, lambda rec: {**rec, "original": 5}),
    ("augment", 0, lambda rec: {**rec, "midi_dir": 5}),
    ("review", 0, lambda rec: [1]),
    ("review", 0, lambda rec: {"status": "accepted"}),
    ("review", 0, lambda rec: {**rec, "pair_id": [1]}),
], ids=["header-list", "record-list", "no-pair-id", "no-song-id", "pair-id-list",
        "key-int", "key-short", "key-str-tonic", "transposition-str", "window-start-bool",
        "confidence-str", "status-int", "split-list", "window-start-str", "original-int",
        "header-midi-dir-int",
        "decision-list", "decision-no-pair-id", "decision-pair-id-list"])
def test_malformed_manifest_records_exit_2(pipeline, tmp_path, command, index, edit):
    """Line `index` of the pair manifest (augment) or of the review sheet
    (review) is replaced by a malformed record."""
    source = pipeline["pairs"] if command == "augment" else pipeline["review"]
    lines = [json.loads(l) for l in source.read_text().splitlines()]
    if command == "augment":  # the edited copy still finds the MIDI payloads
        lines[0]["midi_dir"] = str(source.parent / lines[0]["midi_dir"])
    lines[index] = edit(lines[index])
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(l) + "\n" for l in lines))
    if command == "augment":
        args = ["augment", "--pairs", str(edited)]
    else:
        args = ["review", "--pairs", str(pipeline["pairs"]), "--decisions", str(edited)]
    assert main(["--quiet", *args, "--out", str(tmp_path / "out.jsonl")]) == 2
    assert not (tmp_path / "out.jsonl").exists()


def test_checkpoint_errors_exit_3(pipeline, tmp_path):
    junk = tmp_path / "junk.ovpt"
    junk.write_bytes(b"not a checkpoint at all")
    assert main(["--quiet", "generate", "--checkpoint", str(junk),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(tmp_path / "g")]) == 3

    # valid checkpoint built against some other vocabulary
    stale = tmp_path / "stale.ovpt"
    tiny = TransformerLM(ModelConfig(vocab_size=50, n_layers=1, d_model=16,
                                     n_heads=4, d_ff=32, max_len=32))
    save_checkpoint(stale, tiny, vocab_hash="00" * 32, epoch=1, val_loss=1.0)
    assert main(["--quiet", "generate", "--checkpoint", str(stale),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(tmp_path / "g2")]) == 3


@pytest.mark.parametrize("flag, value", [("--limit", "-1"), ("--max-new", "0"),
                                         ("--temperature", "nan"), ("--temperature", "inf"),
                                         ("--p", "1.5"), ("--p", "nan"), ("--seed", "-1")])
def test_generate_rejects_bad_budgets(pipeline, tmp_path, caplog, flag, value):
    out = tmp_path / "g"
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(out), flag, value]) == 2
    assert f"{flag} must be" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("vocab", [[], "x", {"version": 1}], ids=["list", "string", "no-hash"])
def test_train_rejects_malformed_vocabulary_exit_3(pipeline, tmp_path, vocab):
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    (tokens / "vocab.json").write_text(json.dumps(vocab), encoding="utf-8")
    assert main(["--quiet", "train", "--tokens", str(tokens),
                 "--out", str(tmp_path / "m.ovpt"), "--epochs", "1"]) == 3
    assert not (tmp_path / "m.ovpt").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0"])
def test_train_rejects_bad_lr_before_training(pipeline, tmp_path, caplog, lr):
    out = tmp_path / "m.ovpt"
    assert main(["--quiet", "train", "--tokens", str(pipeline["tokens"]),
                 "--out", str(out), "--epochs", "1", "--lr", lr]) == 2
    assert "lr must be finite and positive" in caplog.text
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no epoch log


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_an_over_long_sequence_before_training(pipeline, tmp_path, caplog, split):
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    vocab = build_vocabulary()
    seqs = read_token_file(tokens / f"tokens_{split}.bin", vocab)
    seqs.insert(1, np.array([BOS] + [SEP] * 1100 + [EOS]))  # 1102 tokens; 1025 fit
    write_token_file(tokens / f"tokens_{split}.bin", seqs, vocab)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--quiet", "train", "--tokens", str(tokens),
                 "--out", str(out / "m.ovpt"), "--epochs", "1"]) == 2
    assert f"{split} sequence 1 has 1102 tokens" in caplog.text
    assert list(out.iterdir()) == []  # no checkpoint, no epoch log


def test_non_finite_training_exits_4(pipeline, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NonFiniteError("loss diverged")

    monkeypatch.setattr("overpaint.cli.train", explode)
    assert main(["--quiet", "train", "--tokens", str(pipeline["tokens"]),
                 "--out", str(tmp_path / "m.ovpt"), "--epochs", "1"]) == 4


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_strict_skips_or_fails_on_bad_midi(pipeline, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    good = next(p for p in pipeline["gen"].iterdir() if p.suffix == ".mid")
    (mixed / "good.mid").write_bytes(good.read_bytes())
    (mixed / "broken.mid").write_bytes(b"MThd garbage")
    assert main(["--quiet", "evaluate", "--dir", str(mixed)]) == 0
    capsys.readouterr()
    assert main(["--quiet", "evaluate", "--dir", str(mixed), "--strict"]) == 2


def test_reruns_reproduce_primary_artifacts(pipeline, tmp_path):
    # same file name so the manifest's relative midi_dir matches byte for byte
    aug2 = tmp_path / "aug.jsonl"
    assert main(["--quiet", "augment", "--pairs", str(pipeline["reviewed"]),
                 "--out", str(aug2), "--seed", "0"]) == 0
    assert aug2.read_bytes() == pipeline["aug"].read_bytes()

    tokens2 = tmp_path / "tokens2"
    assert main(["--quiet", "tokenize", "--pairs", str(aug2),
                 "--out-dir", str(tokens2)]) == 0
    for name in ("vocab.json", "tokens_train.bin", "tokens_val.bin", "tokens_test.bin"):
        assert (tokens2 / name).read_bytes() == (pipeline["tokens"] / name).read_bytes()

    gen2 = tmp_path / "gen2"
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(gen2), "--limit", "2",
                 "--max-new", "24", "--seed", "1"]) == 0
    for name in ("0000.mid", "0001.mid", "generated_tokens.bin"):
        assert (gen2 / name).read_bytes() == (pipeline["gen"] / name).read_bytes()
