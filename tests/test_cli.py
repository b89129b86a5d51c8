import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import overpaint
from helpers import v1_with_nonzero_key_bias, write_corpus
from overpaint.autodiff import NonFiniteError
from overpaint.cli import _numeric_env, main
from overpaint.dataset import ManifestError, load_manifest
from overpaint.midi_io import NoteEvent, load_midi, make_score, save_midi
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


@pytest.mark.parametrize("command, primary, source, seed", [
    ("extract-pairs", "pairs", "sheets", None),
    ("review", "reviewed", "pairs", None),
    ("augment", "aug", "reviewed", 0),
    ("tokenize", "tokens", "aug", None),
    ("train", "model", "tokens", 0),
    ("generate", "gen", "model", 1),
])
def test_each_command_writes_one_sidecar(pipeline, command, primary, source, seed):
    """`<primary>.run.json` is the one sidecar naming the command, and it
    hashes what the command read and wrote."""
    sidecars = {path: json.loads(path.read_text())
                for path in pipeline["root"].rglob("*.run.json")}
    mine = [path for path, body in sidecars.items() if body["command"] == command]
    assert mine == [Path(str(pipeline[primary]) + ".run.json")]
    sidecar = sidecars[mine[0]]
    assert sidecar["seed"] == seed
    assert any(name.startswith(str(pipeline[source])) for name in sidecar["inputs"])
    assert str(pipeline[primary]) in sidecar["outputs"]
    assert sidecar["wall_clock_seconds"] >= 0
    assert sidecar["peak_rss_mb"] > 10  # this process's peak, numpy loaded


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_evaluate_and_report_write_a_sidecar_only_with_csv(pipeline, tmp_path, monkeypatch,
                                                           command):
    monkeypatch.chdir(tmp_path)
    corpus = (["--dir", str(pipeline["gen"])] if command == "evaluate"
              else ["--corpus", f"g={pipeline['gen']}"])
    assert main(["--quiet", command, *corpus]) == 0
    assert list(tmp_path.rglob("*.run.json")) == []
    assert main(["--quiet", command, *corpus, "--csv", "t.csv"]) == 0
    assert list(tmp_path.rglob("*.run.json")) == [tmp_path / "t.csv.run.json"]
    sidecar = json.loads((tmp_path / "t.csv.run.json").read_text())
    assert sidecar["command"] == command
    assert sorted(sidecar["inputs"]) == sorted(str(p) for p in pipeline["gen"].glob("*.mid"))
    assert list(sidecar["outputs"]) == ["t.csv"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
def test_sidecar_records_the_commands_own_peak_rss(tmp_path):
    """A command started by a process that has touched 200 MB records its own
    peak (VmHWM, which exec resets), not the high-water mark that ru_maxrss
    inherits from the process it was forked from."""
    ballast = np.ones(200 * 2**20 // 8)  # every page written: 200 MB resident
    save_midi(make_score([NoteEvent(60, 0, 1, 80), NoteEvent(64, 1, 1, 80)]), tmp_path / "a.mid")
    src = str(Path(overpaint.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "overpaint.cli", "--quiet", "evaluate", "--dir", str(tmp_path),
                    "--csv", str(tmp_path / "e.csv")], env=env, check=True)
    del ballast
    sidecar = json.loads((tmp_path / "e.csv.run.json").read_text())
    assert sidecar["peak_rss_source"] == "VmHWM"
    assert sidecar["peak_rss_mb"] < 150


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
    # throughput: tokens decoded over the wall time inside generate_batch
    assert 0 < sidecar["decode_seconds"] <= sidecar["wall_clock_seconds"] + 1e-3
    assert sidecar["tokens_per_s"] == pytest.approx(
        sum(len(s) for s in seqs) / sidecar["decode_seconds"], rel=1e-3, abs=0.1)
    assert sidecar["peak_rss_mb"] > 10


def test_train_and_generate_sidecars_record_throughput_and_numeric_env(pipeline):
    """The train sidecar's train_tokens_per_s is its real train targets over
    its epochs' seconds, as the one-epoch log's tokens_per_s reads it; both
    sidecars record numpy, the BLAS build and the BLAS thread variables, as
    JSON."""
    train_run = json.loads((pipeline["root"] / "model.ovpt.run.json").read_text())
    with open(str(pipeline["model"]) + ".log.csv", newline="") as fh:
        (epoch,) = list(csv.DictReader(fh))
    assert train_run["train_tokens_per_s"] == pytest.approx(float(epoch["tokens_per_s"]), abs=0.1)
    assert train_run["train_tokens_per_s"] > 0 and float(epoch["grad_norm"]) > 0
    env = _numeric_env()
    assert json.loads(json.dumps(env)) == env
    assert env["numpy"] == np.__version__ and env["blas_name"] and env["blas_version"]
    assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
    for sidecar in (train_run, json.loads((pipeline["gen"].parent / "gen.run.json").read_text())):
        assert sidecar["numeric_env"] == env


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


def test_report_loads_each_manifest_once(pipeline, monkeypatch, capsys):
    """Both sides of one manifest are scored from a single load."""
    loads = []

    def counting(path):
        loads.append(path)
        return load_manifest(path)

    monkeypatch.setattr("overpaint.cli.load_manifest", counting)
    assert main(["--quiet", "report", "--corpus", f"o={pipeline['aug']}:originals",
                 "--corpus", f"v={pipeline['aug']}:variations"]) == 0
    assert loads == [pipeline["aug"]]
    assert capsys.readouterr().out.splitlines()[0].split() == ["Feature", "o", "v"]


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
    assert not (tmp_path / "a.jsonl.run.json").exists()


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
    ("augment", 1, lambda rec: {**rec, "source": 5}),
    ("augment", 0, lambda rec: {**rec, "midi_dir": 5}),
    ("review", 0, lambda rec: [1]),
    ("review", 0, lambda rec: {"status": "accepted"}),
    ("review", 0, lambda rec: {**rec, "pair_id": [1]}),
], ids=["header-list", "record-list", "no-pair-id", "no-song-id", "pair-id-list",
        "key-int", "key-short", "key-str-tonic", "transposition-str", "window-start-bool",
        "confidence-str", "status-int", "split-list", "window-start-str", "original-int",
        "source-int",
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


def test_pair_ids_sharing_a_payload_name_exit_2_and_write_nothing(pipeline, tmp_path, caplog):
    """`x y` and `x_y` both name their payloads x_y.*.mid, so neither pair's
    MIDI may overwrite the other's."""
    lines = [json.loads(l) for l in pipeline["pairs"].read_text().splitlines()]
    lines[0]["midi_dir"] = str(pipeline["pairs"].parent / lines[0]["midi_dir"])
    lines[1]["pair_id"], lines[2]["pair_id"] = "x y", "x_y"
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(l) + "\n" for l in lines))
    decisions = tmp_path / "decisions.jsonl"
    decisions.write_text("")
    assert main(["--quiet", "review", "--pairs", str(edited), "--decisions", str(decisions),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    assert "'x y' and 'x_y'" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["decisions.jsonl", "edited.jsonl"]


def test_tokenize_exits_2_when_a_shared_source_payload_is_missing(pipeline, tmp_path):
    """Every transposition of a source reads that source's payloads, so losing
    one file fails the whole manifest."""
    aug = tmp_path / "aug.jsonl"
    shutil.copy(pipeline["aug"], aug)
    shutil.copytree(pipeline["root"] / "aug_midi", tmp_path / "aug_midi")
    rec = json.loads(aug.read_text().splitlines()[1])
    assert rec["source"] is not None and rec["transposition"] != 0
    (tmp_path / "aug_midi" / rec["variation"]).unlink()
    assert main(["--quiet", "tokenize", "--pairs", str(aug),
                 "--out-dir", str(tmp_path / "tok")]) == 2
    assert not (tmp_path / "tok").exists()


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


def test_trailing_bytes_exit_3_for_a_checkpoint_and_2_for_tokens(pipeline, tmp_path):
    checkpoint = tmp_path / "long.ovpt"
    checkpoint.write_bytes(pipeline["model"].read_bytes() + b"\0")
    tokens = tmp_path / "long.bin"
    tokens.write_bytes((pipeline["tokens"] / "tokens_test.bin").read_bytes() + b"\0")
    for model, primers, code in [(checkpoint, pipeline["tokens"] / "tokens_test.bin", 3),
                                 (pipeline["model"], tokens, 2)]:
        assert main(["--quiet", "generate", "--checkpoint", str(model), "--tokens", str(primers),
                     "--out-dir", str(tmp_path / "g")]) == code
        assert not (tmp_path / "g").exists()


def test_overflowing_temperature_exits_4_and_writes_no_tokens(pipeline, tmp_path, caplog):
    out = tmp_path / "g"
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(out), "--temperature", "1e-310"]) == 4
    assert "logits overflow" in caplog.text
    assert not (out / "generated_tokens.bin").exists()


def test_generate_failing_in_decode_leaves_no_out_dir(pipeline, tmp_path):
    out = tmp_path / "g"
    assert main(["--quiet", "generate", "--checkpoint", str(pipeline["model"]),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(out), "--temperature", "1e-310"]) == 4
    assert not out.exists()


def test_version_1_checkpoint_with_a_nonzero_key_bias_exits_3(pipeline, tmp_path):
    bad = tmp_path / "bk.ovpt"
    bad.write_bytes(v1_with_nonzero_key_bias())
    assert main(["--quiet", "generate", "--checkpoint", str(bad),
                 "--tokens", str(pipeline["tokens"] / "tokens_test.bin"),
                 "--out-dir", str(tmp_path / "g")]) == 3
    assert not (tmp_path / "g").exists()


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


@pytest.mark.parametrize("split, tokens", [("train", [BOS]), ("val", [])],
                         ids=["train-one-token", "val-empty"])
def test_train_rejects_a_short_sequence_before_training(pipeline, tmp_path, caplog, split, tokens):
    """A sequence needs one input and one target token."""
    directory = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], directory)
    vocab = build_vocabulary()
    seqs = read_token_file(directory / f"tokens_{split}.bin", vocab)
    seqs.insert(1, np.array(tokens, dtype=np.int64))
    write_token_file(directory / f"tokens_{split}.bin", seqs, vocab)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--quiet", "train", "--tokens", str(directory),
                 "--out", str(out / "m.ovpt"), "--epochs", "1"]) == 2
    assert f"{split} sequence 1 has {len(tokens)} tokens" in caplog.text
    assert list(out.iterdir()) == []  # no checkpoint, no epoch log


@pytest.mark.parametrize("command", ["train", "generate"])
def test_out_of_vocabulary_ids_exit_2_and_write_nothing(pipeline, tmp_path, caplog, command):
    vocab = build_vocabulary()
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    seqs = read_token_file(tokens / "tokens_train.bin", vocab)
    seqs[1][3] = len(vocab)
    write_token_file(tokens / "tokens_train.bin", seqs, vocab)
    out = tmp_path / "out"
    out.mkdir()
    if command == "train":
        args = ["--tokens", str(tokens), "--out", str(out / "m.ovpt"), "--epochs", "1"]
    else:
        args = ["--checkpoint", str(pipeline["model"]), "--tokens",
                str(tokens / "tokens_train.bin"), "--out-dir", str(out / "g")]
    assert main(["--quiet", command, *args]) == 2
    assert f"record 1 holds id {len(vocab)}" in caplog.text
    assert list(out.iterdir()) == []  # no checkpoint, epoch log or generated files


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


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
def test_extract_pairs_with_an_unreadable_performance(pipeline, tmp_path, capsys, caplog,
                                                      strict):
    perfs = tmp_path / "perfs"
    shutil.copytree(pipeline["perfs"], perfs)
    (perfs / "Blue Garden.mid").write_bytes(b"MThd garbage")
    out = tmp_path / "pairs.jsonl"
    argv = ["--quiet", "extract-pairs", "--performances", str(perfs),
            "--leadsheets", str(pipeline["sheets"]), "--out", str(out)]
    if strict:
        assert main([*argv, "--strict"]) == 2
        assert "Blue Garden.mid" in caplog.text
        assert list(tmp_path.glob("pairs*")) == []  # no manifest, review sheet or payloads
        return
    assert main(argv) == 0
    summary = capsys.readouterr().out
    assert "from 2 songs" in summary and "1 files skipped" in summary
    assert {p.song_id for p in load_manifest(out)} == {"greenlantern", "redharbor"}


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
def test_extract_pairs_with_a_song_that_cannot_be_aligned(pipeline, tmp_path, capsys, caplog,
                                                          strict):
    """A one-beat performance gives fewer chroma frames than its sheet has
    chord slots, so that song alone is skipped, or under --strict fails."""
    perfs = tmp_path / "perfs"
    shutil.copytree(pipeline["perfs"], perfs)
    save_midi(make_score([NoteEvent(60, 0, 1, 80)]), perfs / "Blue Garden.mid")
    out = tmp_path / "pairs.jsonl"
    argv = ["--quiet", "extract-pairs", "--performances", str(perfs),
            "--leadsheets", str(pipeline["sheets"]), "--out", str(out)]
    if strict:
        assert main([*argv, "--strict"]) == 2
        assert "Blue Garden.mid" in caplog.text and "infeasible" in caplog.text
        assert list(tmp_path.glob("pairs*")) == []
        return
    assert main(argv) == 0
    assert "skipping song" in caplog.text and "Blue Garden.mid" in caplog.text
    assert "blue_garden.txt" in caplog.text and "infeasible" in caplog.text
    summary = capsys.readouterr().out
    assert "from 2 songs" in summary and "1 files skipped" in summary
    assert {p.song_id for p in load_manifest(out)} == {"greenlantern", "redharbor"}
    sidecar = json.loads(Path(str(out) + ".run.json").read_text())
    assert not any("Blue Garden" in name or "blue_garden" in name for name in sidecar["inputs"])


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
def test_extract_pairs_with_an_unsupported_time_header(pipeline, tmp_path, capsys, caplog,
                                                       strict):
    """`time: 4/0` in one lead sheet skips that song, or under --strict exits 2."""
    sheets = tmp_path / "sheets"
    shutil.copytree(pipeline["sheets"], sheets)
    sheet = sheets / "blue_garden.txt"
    sheet.write_text(sheet.read_text().replace("time: 4/4", "time: 4/0"))
    out = tmp_path / "pairs.jsonl"
    argv = ["--quiet", "extract-pairs", "--performances", str(pipeline["perfs"]),
            "--leadsheets", str(sheets), "--out", str(out)]
    if strict:
        assert main([*argv, "--strict"]) == 2
        assert "unsupported time signature 4/0" in caplog.text
        assert list(tmp_path.glob("pairs*")) == []
        return
    assert main(argv) == 0
    assert "skipping song" in caplog.text and "unsupported time signature 4/0" in caplog.text
    assert "from 2 songs" in capsys.readouterr().out
    assert {p.song_id for p in load_manifest(out)} == {"greenlantern", "redharbor"}


def test_extract_pairs_ignores_a_duplicate_lead_sheet(pipeline, tmp_path, capsys, caplog):
    sheets = tmp_path / "sheets"
    shutil.copytree(pipeline["sheets"], sheets)
    (sheets / "BLUE_GARDEN.txt").write_text((sheets / "blue_garden.txt").read_text())
    out = tmp_path / "pairs.jsonl"  # the pipeline's name, so the manifests compare bytewise
    assert main(["--quiet", "extract-pairs", "--performances", str(pipeline["perfs"]),
                 "--leadsheets", str(sheets), "--out", str(out)]) == 0
    assert "duplicate lead sheet for bluegarden" in caplog.text
    assert "from 3 songs" in capsys.readouterr().out
    assert out.read_bytes() == pipeline["pairs"].read_bytes()


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


# --- flags the pipeline leaves at their defaults ------------------------------------


def _extract_pairs(pipeline, out, *flags):
    return main(["--quiet", "extract-pairs", "--performances", str(pipeline["perfs"]),
                 "--leadsheets", str(pipeline["sheets"]), "--out", str(out), *flags])


def _midi_bytes(midi_dir):
    return {f.name: f.read_bytes() for f in midi_dir.iterdir()}


def _review(pairs, decisions, out):
    return main(["--quiet", "review", "--pairs", str(pairs), "--decisions", str(decisions),
                 "--out", str(out)])


def test_rerunning_extract_pairs_leaves_reviewed_payloads_as_they_were(pipeline, tmp_path):
    """review links its payloads to the files extract-pairs wrote, so a rerun of
    extract-pairs onto the same --out must replace those files, not write through them."""
    pairs = tmp_path / "pairs.jsonl"
    assert _extract_pairs(pipeline, pairs) == 0
    assert _review(pairs, pipeline["review"], tmp_path / "reviewed.jsonl") == 0
    first = _midi_bytes(tmp_path / "pairs_midi")
    reviewed = _midi_bytes(tmp_path / "reviewed_midi")
    assert reviewed == first
    assert all(os.path.samefile(tmp_path / "pairs_midi" / name, tmp_path / "reviewed_midi" / name)
               for name in reviewed)

    assert _extract_pairs(pipeline, pairs, "--window", "2") == 0
    rewritten = _midi_bytes(tmp_path / "pairs_midi")
    assert any(rewritten[name] != data for name, data in first.items())
    assert _midi_bytes(tmp_path / "reviewed_midi") == reviewed


def test_rerunning_extract_pairs_with_a_song_fewer_leaves_only_named_payloads(pipeline, tmp_path):
    """A rerun onto the same --out deletes the payloads its manifest no longer
    names, and staging files an interrupted save left; a reviewed manifest's
    links to the deleted files keep their bytes."""
    pairs = tmp_path / "pairs.jsonl"
    assert _extract_pairs(pipeline, pairs) == 0
    assert _review(pairs, pipeline["review"], tmp_path / "reviewed.jsonl") == 0
    first = set(_midi_bytes(tmp_path / "pairs_midi"))
    reviewed = _midi_bytes(tmp_path / "reviewed_midi")
    (tmp_path / "pairs_midi" / ".song_w000.orig.mid.link").write_bytes(b"interrupted")

    perfs = tmp_path / "performances"
    shutil.copytree(pipeline["perfs"], perfs)
    min(perfs.iterdir()).unlink()
    assert main(["--quiet", "extract-pairs", "--performances", str(perfs),
                 "--leadsheets", str(pipeline["sheets"]), "--out", str(pairs)]) == 0
    records = [json.loads(line) for line in pairs.read_text().splitlines()[1:]]
    named = {r[field] for r in records for field in ("original", "variation")}
    assert set(os.listdir(tmp_path / "pairs_midi")) == named
    assert named < first
    assert _midi_bytes(tmp_path / "reviewed_midi") == reviewed


def test_review_and_augment_onto_their_own_input_keep_every_payload(pipeline, tmp_path):
    """Every payload the saved manifest names keeps its bytes; augment drops the
    rejected pair, so its two payloads are deleted."""
    pairs = tmp_path / "pairs.jsonl"
    assert _extract_pairs(pipeline, pairs) == 0
    written = _midi_bytes(tmp_path / "pairs_midi")
    assert _review(pairs, pipeline["review"], pairs) == 0
    assert _midi_bytes(tmp_path / "pairs_midi") == written
    assert main(["--quiet", "augment", "--pairs", str(pairs), "--out", str(pairs),
                 "--seed", "0"]) == 0
    rejected = {f"{REJECTED_PAIR}.orig.mid", f"{REJECTED_PAIR}.var.mid"}
    assert rejected < set(written)
    assert _midi_bytes(tmp_path / "pairs_midi") == {
        name: data for name, data in written.items() if name not in rejected}
    assert main(["--quiet", "tokenize", "--pairs", str(pairs),
                 "--out-dir", str(tmp_path / "tokens")]) == 0
    for name in ("vocab.json", "tokens_train.bin", "tokens_val.bin", "tokens_test.bin"):
        assert (tmp_path / "tokens" / name).read_bytes() == (pipeline["tokens"] / name).read_bytes()


@pytest.mark.parametrize("command", ["review", "augment"])
def test_a_missing_payload_exits_2_as_a_parsed_load_fails(pipeline, tmp_path, caplog, command):
    pairs = tmp_path / "pairs.jsonl"
    shutil.copy(pipeline["pairs"], pairs)
    shutil.copytree(pipeline["root"] / "pairs_midi", tmp_path / "pairs_midi")
    (tmp_path / "pairs_midi" / f"{REJECTED_PAIR}.var.mid").unlink()
    with pytest.raises(ManifestError, match="missing MIDI payload") as parsed:
        load_manifest(pairs)
    out = tmp_path / "out.jsonl"
    if command == "review":
        assert _review(pairs, pipeline["review"], out) == 2
    else:
        assert main(["--quiet", "augment", "--pairs", str(pairs), "--out", str(out)]) == 2
    assert str(parsed.value) in caplog.text
    assert not out.exists() and not (tmp_path / "out_midi").exists()


def test_extract_pairs_window_sets_the_window_length(pipeline, tmp_path):
    assert _extract_pairs(pipeline, tmp_path / "p.jsonl", "--window", "2") == 0
    starts = {p.window_start_bar for p in load_manifest(tmp_path / "p.jsonl")}
    assert starts == {0, 2, 4, 6}  # the default window of 4 bars starts at 0 and 4


def test_extract_pairs_hop_sets_the_chroma_frame(pipeline, tmp_path):
    """One-second frames align more coarsely, so the confidences move."""
    assert _extract_pairs(pipeline, tmp_path / "p.jsonl", "--hop", "1.0") == 0
    coarse = {p.pair_id: p.confidence for p in load_manifest(tmp_path / "p.jsonl")}
    default = {p.pair_id: p.confidence for p in load_manifest(pipeline["pairs"])}
    assert coarse.keys() == default.keys()
    assert all(coarse[name] != default[name] for name in coarse)


def test_extract_pairs_self_loop_reaches_the_aligner(pipeline, tmp_path, caplog):
    assert _extract_pairs(pipeline, tmp_path / "p.jsonl", "--self-loop", "1") == 2
    assert "self_loop must be in (0, 1)" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_extract_pairs_min_confidence_flags_pairs_for_review(pipeline, tmp_path):
    assert _extract_pairs(pipeline, tmp_path / "p.jsonl", "--min-confidence", "1.01") == 0
    pairs = load_manifest(tmp_path / "p.jsonl")
    assert len(pairs) == 6 and {p.status for p in pairs} == {"needs_review"}


def test_extract_pairs_review_out_names_the_review_sheet(pipeline, tmp_path):
    sheet = tmp_path / "sheets" / "review.jsonl"
    sheet.parent.mkdir()
    assert _extract_pairs(pipeline, tmp_path / "p.jsonl", "--review-out", str(sheet)) == 0
    decisions = [json.loads(line)["pair_id"] for line in sheet.read_text().splitlines()]
    assert decisions == [p.pair_id for p in load_manifest(tmp_path / "p.jsonl")]
    assert not (tmp_path / "p.jsonl.review.jsonl").exists()


def test_augment_ratios_are_checked(pipeline, tmp_path, caplog):
    out = tmp_path / "a.jsonl"
    assert main(["--quiet", "augment", "--pairs", str(pipeline["reviewed"]), "--out", str(out),
                 "--ratios", "0.5", "0.5", "0"]) == 2
    assert "bad ratios" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_augment_csv_writes_one_row_per_augmented_pair(pipeline, tmp_path):
    out, table = tmp_path / "a.jsonl", tmp_path / "a.csv"
    assert main(["--quiet", "augment", "--pairs", str(pipeline["reviewed"]), "--out", str(out),
                 "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pair_id"] for row in rows] == [p.pair_id for p in load_manifest(out)]
    assert len(rows) == 60
    assert str(table) in json.loads((tmp_path / "a.jsonl.run.json").read_text())["outputs"]


def test_train_stop_at_train_loss_ends_training_early(pipeline, tmp_path):
    out = tmp_path / "m.ovpt"
    assert main(["--quiet", "train", "--tokens", str(pipeline["tokens"]), "--out", str(out),
                 "--epochs", "3", "--batch-size", "8", "--dropout", "0.0",
                 "--stop-at-train-loss", "1e9"]) == 0
    with open(str(out) + ".log.csv", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["epoch", "1"]
