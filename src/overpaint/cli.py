"""Command line pipeline from performances and lead sheets to a trained model.

Subcommands cover the whole workflow in order: extract-pairs, review, augment,
tokenize, train, generate, evaluate, report. Each command returns what it wrote,
and `main` times it and drops a `<output>.run.json` sidecar recording the
command, parameters, input/output content hashes, seed, wall-clock time and
the process's peak RSS; reruns with the same inputs and seed reproduce the
primary artifacts byte for byte (the sidecar's timing and memory fields are
the exceptions).

Exit codes: 0 success, 2 unreadable or invalid input, 3 configuration or
hash mismatch, 4 non-finite numerics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    DEFAULT_HOP_SECONDS,
    DEFAULT_MIN_CONFIDENCE,
    DEFAULT_SELF_LOOP,
    AlignmentError,
    apply_review,
    extract_pairs,
    read_review_manifest,
    write_review_manifest,
)
from .autodiff import NonFiniteError
from .dataset import (
    ManifestError,
    augment,
    export_csv,
    load_manifest,
    save_manifest,
    split_by_song,
    transposition_bases,
)
from .leadsheet import LeadSheetError, load_leadsheet
from .metrics import render_table, report, write_report_csv
from .midi_io import MidiParseError, load_midi, quantize, save_midi
from .model import (
    CheckpointError,
    TrainConfig,
    generate_batch,
    load_checkpoint,
    preset,
    save_checkpoint,
    train,
)
from .tokenizer import (
    GRID,
    SEP,
    VocabularyMismatchError,
    assemble_pair,
    build_vocabulary,
    detokenize_with_report,
    load_vocabulary,
    read_token_file,
    tokenize,
    transpose_tokens,
    write_token_file,
)

log = logging.getLogger("overpaint")

_MIDI_SUFFIXES = (".mid", ".midi")


def _normalize_stem(name: str) -> str:
    """Case/punctuation-insensitive key used to pair files by song."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_path(path: Path) -> str:
    """Content hash of a file, or of a directory's files by relative name.

    Sidecars (*.run.json) are excluded so the hash tracks primary content.
    """
    path = Path(path)
    if path.is_dir():
        digest = hashlib.sha256()
        for child in sorted(path.rglob("*")):
            if child.is_dir() or child.name.endswith(".run.json"):
                continue
            rel = child.relative_to(path).as_posix()
            digest.update(rel.encode())
            digest.update(bytes.fromhex(_hash_file(child)))
        return digest.hexdigest()
    return _hash_file(path)


def _numeric_env() -> dict:
    """What byte-identical reruns of `train` and `generate` depend on beyond
    the seed: numpy, its BLAS build and the BLAS thread variables, as this
    process sees them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _peak_rss_kib() -> tuple[int, str]:
    """This command's peak RSS in KiB, and its source: `VmHWM`, which exec
    resets, where /proc/self/status has it; else `ru_maxrss`, which also
    counts the peak of the process this one was forked from."""
    try:
        with open("/proc/self/status", "rb") as fh:  # bytes: the Name line may not decode
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]), "VmHWM"
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "ru_maxrss"


def _write_run_manifest(args: argparse.Namespace, t0: float, primary, inputs, outputs,
                        details: dict | None = None) -> None:
    """Write the sidecar; `details` holds extra command-specific fields."""
    peak_kib, peak_source = _peak_rss_kib()
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and not callable(v)
    }
    body = {
        "command": args.command,
        "parameters": params,
        "inputs": {str(p): _hash_path(Path(p)) for p in inputs},
        "outputs": {str(p): _hash_path(Path(p)) for p in outputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_seconds": round(time.monotonic() - t0, 3),
        "peak_rss_mb": round(peak_kib / 1024, 1),
        "peak_rss_source": peak_source,
        **(details or {}),
    }
    Path(str(primary) + ".run.json").write_text(
        json.dumps(body, indent=1, sort_keys=True), encoding="utf-8"
    )


def _scan_midi_dir(path: Path):
    files = sorted(
        p for p in path.iterdir()
        if p.is_file() and p.suffix.lower() in _MIDI_SUFFIXES
    )
    if not files:
        raise FileNotFoundError(f"no MIDI files in {path}")
    return files


def _load_midi_files(files, strict: bool):
    """(scores, loaded files): an unreadable file is skipped with a warning,
    or under `strict` fails the command."""
    scores = []
    used = []
    for file in files:
        try:
            scores.append(load_midi(file))
        except MidiParseError as exc:
            if strict:
                raise MidiParseError(f"unreadable MIDI {file}: {exc}") from exc
            log.warning("skipping unreadable MIDI %s: %s", file, exc)
            continue
        used.append(file)
    return scores, used


# --- extract-pairs ----------------------------------------------------------------


def _cmd_extract_pairs(args: argparse.Namespace):
    sheets = sorted(Path(args.leadsheets).glob("*.txt"))
    if not sheets:
        raise FileNotFoundError(f"no lead sheets (*.txt) in {args.leadsheets}")
    performances = {}
    for file in _scan_midi_dir(Path(args.performances)):
        stem = _normalize_stem(file.stem)
        if stem in performances:
            log.warning("duplicate performance for %s: %s ignored", stem, file)
            continue
        performances[stem] = file
    matched = {}  # song id -> lead sheet file, in sheet order
    for sheet_file in sheets:
        song_id = _normalize_stem(sheet_file.stem)
        if song_id in matched:
            log.warning("duplicate lead sheet for %s: %s ignored", song_id, sheet_file)
        elif song_id in performances:
            matched[song_id] = sheet_file
        else:
            log.warning("no performance matches lead sheet %s", sheet_file.name)
    for stem, file in performances.items():
        if stem not in matched:
            log.warning("no lead sheet matches performance %s", file.name)

    pairs = []
    dropped = []
    consumed = []
    for song_id, sheet_file in matched.items():
        midi_file = performances[song_id]
        try:
            song_pairs, song_dropped = extract_pairs(
                load_midi(midi_file),
                load_leadsheet(sheet_file),
                song_id,
                window=args.window,
                hop=args.hop,
                self_loop=args.self_loop,
                min_confidence=args.min_confidence,
            )
        except (MidiParseError, LeadSheetError, AlignmentError) as exc:
            reason = f"{midi_file} with {sheet_file}: {exc}"
            if args.strict:
                raise type(exc)(reason) from exc
            log.warning("skipping song %s", reason)
            continue
        pairs.extend(song_pairs)
        dropped.extend(song_dropped)
        consumed.extend([sheet_file, midi_file])
    if not pairs:
        raise ManifestError("no pairs extracted; nothing to write")

    out = Path(args.out)
    save_manifest(pairs, out)
    review_out = Path(args.review_out) if args.review_out else Path(str(out) + ".review.jsonl")
    write_review_manifest(pairs, review_out)

    accepted = sum(1 for p in pairs if p.status == "accepted")
    songs = len(consumed) // 2  # a lead sheet and a performance each
    print(
        f"extracted {len(pairs)} pairs from {songs} songs: "
        f"{accepted} accepted, {len(pairs) - accepted} flagged for review, "
        f"{len(dropped)} windows dropped, {len(matched) - songs} files skipped"
    )
    print(f"wrote {out} and review sheet {review_out}")
    return out, consumed, [out, review_out]


# --- review -----------------------------------------------------------------------


def _cmd_review(args: argparse.Namespace):
    pairs = load_manifest(args.pairs, scores=False)
    decisions = read_review_manifest(args.decisions)
    unknown = sorted(set(decisions) - {p.pair_id for p in pairs})
    if unknown:
        raise ManifestError(f"review decisions for unknown pairs: {', '.join(unknown)}")
    pairs = apply_review(pairs, decisions)
    out = Path(args.out)
    save_manifest(pairs, out)
    counts = {}
    for p in pairs:
        counts[p.status] = counts.get(p.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"wrote {out} ({summary})")
    return out, [args.pairs, args.decisions], [out]


# --- augment ----------------------------------------------------------------------


def _cmd_augment(args: argparse.Namespace):
    pairs = load_manifest(args.pairs, scores=False)
    accepted = [p for p in pairs if p.status == "accepted"]
    if not accepted:
        raise ManifestError("no accepted pairs to augment")
    split_by_song(accepted, ratios=tuple(args.ratios), seed=args.seed)
    expanded = augment(accepted)
    out = Path(args.out)
    save_manifest(expanded, out)
    if args.csv:
        export_csv(expanded, args.csv)

    by_split = {}
    for p in expanded:
        by_split[p.split] = by_split.get(p.split, 0) + 1
    summary = ", ".join(f"{by_split.get(s, 0)} {s}" for s in ("train", "val", "test"))
    print(f"augmented {len(accepted)} pairs to {len(expanded)} ({summary})")
    print(f"wrote {out}")
    return out, [args.pairs], [out] + ([Path(args.csv)] if args.csv else [])


# --- tokenize ---------------------------------------------------------------------


def _cmd_tokenize(args: argparse.Namespace):
    accepted = [r for r in transposition_bases(load_manifest(args.pairs)) if r[0].status == "accepted"]
    if not accepted:
        raise ManifestError("no accepted pairs to tokenize")
    unassigned = [p.pair_id for p, _, _ in accepted if p.split == "unassigned"]
    if unassigned:
        raise ManifestError(
            f"{len(unassigned)} pairs have no split (run augment first), "
            f"e.g. {unassigned[0]}"
        )

    vocab = build_vocabulary()
    sequences = {"train": [], "val": [], "test": []}
    encoded = {}  # id(base record) -> its assembled sequence (int32: signed, so no shift wraps)
    for pair, base, shift in accepted:
        if id(base) not in encoded:
            original = tokenize(quantize(base.original, GRID), vocab)
            variation = tokenize(quantize(base.variation, GRID), vocab)
            encoded[id(base)] = np.array(assemble_pair(original, variation), dtype=np.int32)
        sequences[pair.split].append(transpose_tokens(encoded[id(base)], shift, vocab))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.json")
    for split, seqs in sequences.items():
        write_token_file(out_dir / f"tokens_{split}.bin", seqs, vocab)
        lengths = [len(s) for s in seqs] or [0]
        print(f"{split}: {len(seqs)} sequences, longest {max(lengths)} tokens")
    print(f"wrote vocabulary and token files to {out_dir}")
    return out_dir, [args.pairs], [out_dir]


# --- train ------------------------------------------------------------------------


def _cmd_train(args: argparse.Namespace):
    tokens_dir = Path(args.tokens)
    vocab = build_vocabulary()
    stored = tokens_dir / "vocab.json"
    if stored.exists():
        vocab = load_vocabulary(stored)
    train_seqs = read_token_file(tokens_dir / "tokens_train.bin", vocab)
    val_seqs = read_token_file(tokens_dir / "tokens_val.bin", vocab)

    model_config = preset(args.model, vocab_size=len(vocab), dropout=args.dropout)
    train_config = TrainConfig(
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
    )
    out = Path(args.out)
    log_path = Path(args.log) if args.log else Path(str(out) + ".log.csv")

    def progress(entry):
        if not args.quiet:
            print(
                f"epoch {entry.epoch:4d}  lr {entry.lr:.2e}  "
                f"train {entry.train_loss:.4f}  val {entry.val_loss:.4f}",
                flush=True,
            )

    result = train(
        train_seqs,
        val_seqs,
        model_config,
        train_config,
        log_path=log_path,
        stop_at_train_loss=args.stop_at_train_loss,
        progress=progress,
    )
    save_checkpoint(out, result.model, vocab.digest, result.best_epoch, result.best_val_loss)
    print(
        f"trained {args.model} ({result.model.param_count()} parameters) for "
        f"{len(result.logs)} epochs; best val loss {result.best_val_loss:.4f} "
        f"at epoch {result.best_epoch}"
    )
    print(f"wrote {out} and {log_path}")
    inputs = [p for p in (stored, tokens_dir / "tokens_train.bin", tokens_dir / "tokens_val.bin") if Path(p).exists()]
    train_seconds = sum(entry.seconds for entry in result.logs)
    return out, inputs, [out], {"target_positions": result.target_positions,
                                "padded_positions": result.padded_positions,
                                "train_tokens_per_s": round(result.target_positions / train_seconds, 1),
                                "numeric_env": _numeric_env()}


# --- generate ---------------------------------------------------------------------


# Primers decoded together; bounds the KV cache to this many rows.
_GENERATE_BATCH = 16


def _cmd_generate(args: argparse.Namespace):
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be 0 or more, got {args.limit}")
    if args.max_new < 1:
        raise ValueError(f"--max-new must be 1 or more, got {args.max_new}")
    if args.seed < 0:
        raise ValueError(f"--seed must be 0 or more, got {args.seed}")
    if not (math.isfinite(args.temperature) and args.temperature > 0):
        raise ValueError(f"--temperature must be finite and positive, got {args.temperature}")
    if not args.p <= 1:  # NaN fails this too; p <= 0 decodes greedily
        raise ValueError(f"--p must be at most 1, got {args.p}")
    model, meta = load_checkpoint(args.checkpoint)
    vocab = build_vocabulary()
    if meta.get("vocab_hash") != vocab.digest:
        raise VocabularyMismatchError(
            "checkpoint was trained against a different vocabulary"
        )
    primers = read_token_file(args.tokens, vocab)
    if args.limit is not None:
        primers = primers[: args.limit]

    # Primer i samples from its own stream, child i of the seed (a child does
    # not depend on how many are spawned), so neither --limit nor skipped
    # primers nor batching changes any other primer's output.
    streams = np.random.SeedSequence(args.seed).spawn(len(primers))
    todo: list[tuple[int, list[int]]] = []
    skipped = []
    for i, seq in enumerate(primers):
        sep_hits = np.nonzero(seq == SEP)[0]
        reason = None
        if sep_hits.size == 0:
            reason = "no separator"
        elif sep_hits[0] + 1 >= model.config.max_len:
            reason = "primer fills the context window"
        if reason:
            log.warning("sequence %d skipped: %s", i, reason)
            skipped.append({"primer": i, "reason": reason})
        else:
            todo.append((i, [int(t) for t in seq[: int(sep_hits[0]) + 1]]))

    generated = []
    decoded = []
    scores = []  # (primer, score), written only once every batch has decoded
    decode_seconds = 0.0
    for lo in range(0, len(todo), _GENERATE_BATCH):
        chunk = todo[lo : lo + _GENERATE_BATCH]
        started = time.perf_counter()
        continuations = generate_batch(
            model,
            [primer for _, primer in chunk],
            p=args.p,
            temperature=args.temperature,
            max_new=args.max_new,
            rngs=[np.random.default_rng(streams[i]) for i, _ in chunk],
        )
        decode_seconds += time.perf_counter() - started
        for (i, _), continuation in zip(chunk, continuations):
            score, repairs = detokenize_with_report(continuation, vocab)
            if repairs:
                log.info("sequence %d needed %d grammar repairs", i, len(repairs))
            scores.append((i, score))
            generated.append(continuation)
            decoded.append({"primer": i, "tokens": len(continuation), "repairs": len(repairs)})
    if not generated:
        raise ManifestError("no sequences could be generated")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, score in scores:
        save_midi(score, out_dir / f"{i:04d}.mid")
    write_token_file(out_dir / "generated_tokens.bin", generated, vocab)
    repaired = sum(d["repairs"] > 0 for d in decoded)
    print(
        f"generated {len(generated)} continuations into {out_dir} "
        f"({repaired} needed grammar repairs)"
    )
    tokens = sum(d["tokens"] for d in decoded)
    return out_dir, [args.checkpoint, args.tokens], [out_dir], {
        "decoded": decoded, "skipped": skipped,
        "decode_seconds": round(decode_seconds, 6),
        "tokens_per_s": round(tokens / decode_seconds, 1), "numeric_env": _numeric_env()}


# --- evaluate / report ------------------------------------------------------------


def _print_reports(args: argparse.Namespace, reports, inputs):
    """Print the feature table; under --csv also write it, the run's one artifact."""
    print(render_table(reports))
    if not args.csv:
        return None
    write_report_csv(reports, args.csv)
    print(f"wrote {args.csv}")
    return Path(args.csv), inputs, [Path(args.csv)]


def _cmd_evaluate(args: argparse.Namespace):
    scores, used = _load_midi_files(_scan_midi_dir(Path(args.dir)), args.strict)
    return _print_reports(args, [report(scores, args.label)], used)


def _parse_corpus_spec(text: str):
    label, eq, spec = text.partition("=")
    if not eq or not label or not spec:
        raise ValueError(
            f"bad corpus {text!r}; expected LABEL=DIR or LABEL=MANIFEST:originals|variations"
        )
    side = None
    for candidate in ("originals", "variations"):
        suffix = ":" + candidate
        if spec.endswith(suffix):
            side = candidate
            spec = spec[: -len(suffix)]
    return label, Path(spec), side


def _cmd_report(args: argparse.Namespace):
    reports = []
    inputs = []
    manifests = {}  # path -> its accepted (record, base, shift): both sides read one load
    for raw in args.corpus:
        label, path, side = _parse_corpus_spec(raw)
        if path.is_dir():
            if side is not None:
                raise ValueError(f"corpus {label}: side selector requires a manifest")
            scores, used = _load_midi_files(_scan_midi_dir(path), args.strict)
            inputs.extend(used)
            reports.append(report(scores, label))
        else:
            if path not in manifests:
                manifests[path] = [r for r in transposition_bases(load_manifest(path)) if r[0].status == "accepted"]
                inputs.append(path)
            records = manifests[path]
            side = side or "variations"
            scores = [b.original if side == "originals" else b.variation for _, b, _ in records]
            keys = [p.key and ((p.key[0] - t) % 12, p.key[1]) for p, _, t in records]  # shifted back too
            reports.append(report(scores, label, keys=keys))
    return _print_reports(args, reports, inputs)


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overpaint",
        description="Build aligned original/variation piano pairs, train a "
        "small transformer on them, and evaluate what it generates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-pairs", help="align performances to lead sheets and cut pairs")
    p.add_argument("--performances", required=True, help="directory of performance MIDI files")
    p.add_argument("--leadsheets", required=True, help="directory of lead sheet *.txt files")
    p.add_argument("--out", required=True, help="output pair manifest (.jsonl)")
    p.add_argument("--window", type=int, default=4, help="window length in bars")
    p.add_argument("--hop", type=float, default=DEFAULT_HOP_SECONDS, help="chroma hop seconds")
    p.add_argument("--self-loop", type=float, default=DEFAULT_SELF_LOOP,
                   help="alignment stay probability")
    p.add_argument("--min-confidence", type=float, default=DEFAULT_MIN_CONFIDENCE,
                   help="pairs below this cosine go to review")
    p.add_argument("--review-out", default=None, help="review sheet path (default <out>.review.jsonl)")
    p.add_argument("--strict", action="store_true", help="fail on a song that cannot be read or aligned")
    p.set_defaults(func=_cmd_extract_pairs)

    p = sub.add_parser("review", help="apply an edited review sheet to a manifest")
    p.add_argument("--pairs", required=True, help="input pair manifest")
    p.add_argument("--decisions", required=True, help="edited review sheet (.jsonl)")
    p.add_argument("--out", required=True, help="output pair manifest")
    p.set_defaults(func=_cmd_review)

    p = sub.add_parser("augment", help="assign song-level splits and transpose 12 ways")
    p.add_argument("--pairs", required=True, help="input pair manifest")
    p.add_argument("--out", required=True, help="output pair manifest")
    p.add_argument("--ratios", type=float, nargs=3, default=[0.8, 0.1, 0.1],
                   metavar=("TRAIN", "VAL", "TEST"), help="split fractions by song")
    p.add_argument("--seed", type=int, default=0, help="split shuffle seed")
    p.add_argument("--csv", default=None, help="also export pair metadata as CSV")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("tokenize", help="encode a split manifest into token files")
    p.add_argument("--pairs", required=True, help="augmented pair manifest")
    p.add_argument("--out-dir", required=True, help="directory for vocab.json and tokens_*.bin")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("train", help="train a model on tokenized pairs")
    p.add_argument("--tokens", required=True, help="directory from tokenize")
    p.add_argument("--model", default="model1", choices=("model1", "model2"),
                   help="published architecture preset")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--epochs", type=int, default=500, help="maximum epochs")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3, help="initial learning rate")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0, help="init/shuffle/dropout seed")
    p.add_argument("--stop-at-train-loss", type=float, default=None,
                   help="stop once training loss falls below this")
    p.add_argument("--log", default=None, help="epoch log CSV (default <out>.log.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="continue test primers from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokens", required=True, help="token file supplying primers")
    p.add_argument("--out-dir", required=True, help="directory for generated MIDI")
    p.add_argument("--p", type=float, default=0.9,
                   help="nucleus mass; 0 or less decodes greedily")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-new", type=int, default=512, help="generation budget in tokens")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--limit", type=int, default=None, help="use only the first N primers")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="feature statistics for a directory of MIDI")
    p.add_argument("--dir", required=True)
    p.add_argument("--label", default="corpus", help="column label")
    p.add_argument("--csv", default=None, help="write the table as CSV")
    p.add_argument("--strict", action="store_true", help="fail instead of skipping bad MIDI")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="side-by-side feature statistics for several corpora")
    p.add_argument("--corpus", action="append", required=True, metavar="LABEL=SPEC",
                   help="LABEL=DIR of MIDI, or LABEL=MANIFEST:originals|:variations "
                   "(accepted pairs only); repeatable")
    p.add_argument("--csv", default=None, help="write the table as CSV")
    p.add_argument("--strict", action="store_true", help="fail instead of skipping bad MIDI")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        t0 = time.monotonic()
        run = args.func(args)  # (primary, inputs, outputs[, details]), or None if nothing written
        if run is not None:
            _write_run_manifest(args, t0, *run)
        return 0
    except (VocabularyMismatchError, CheckpointError) as exc:
        log.error("%s", exc)
        return 3
    except NonFiniteError as exc:
        log.error("%s", exc)
        return 4
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
