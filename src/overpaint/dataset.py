"""Original/Variation pair records: augmentation, song-level splits, manifests.

A manifest is JSONL: a header line with the schema version, then one record
per pair. MIDI payloads live as sibling .mid files referenced by relative
path, so manifests stay diffable. A manifest's '<stem>_midi' directory is its
own: saving leaves there only the payloads it names. Each source (a record
without one is its own) has one untransposed record, whose two payloads and
scores its transposed records share, in memory as on disk. save_manifest,
load_manifest and transposition_bases all hold records to that rule
(_untransposed), so a manifest loads exactly when it could be saved.
transposition_bases is the one reader that applies a record's shift.

A record loaded without scores (`load_manifest(path, scores=False)`, as
`review` and `augment` load) keeps only its payload paths, and saving it
hard-links those files (a byte copy where a link fails): their bytes pass
through unparsed and unencoded.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

from .midi_io import MidiScore, load_midi, save_midi, transpose

SCHEMA_VERSION = 2
STATUSES = ("accepted", "needs_review", "rejected")
SPLITS = ("train", "val", "test", "unassigned")
TRANSPOSITIONS = tuple(range(-5, 7))  # 12 semitone shifts including identity


class ManifestError(ValueError):
    """Unreadable, version-mismatched, or incomplete manifest."""


@dataclass
class PairRecord:
    """One Original/Variation pair. Its scores are its source's untransposed
    scores, and `transposition` is still to be applied; a transposed record
    names its `source`. A loaded record's `payloads` are the (original,
    variation) files its scores came from; loaded without scores, it holds
    None for both."""

    pair_id: str
    song_id: str
    original: MidiScore | None
    variation: MidiScore | None
    transposition: int = 0
    confidence: float = 1.0
    status: str = "accepted"
    split: str = "unassigned"
    window_start_bar: int | None = None
    key: tuple[int, str] | None = None
    source: str | None = None  # pair_id of the untransposed pair whose payloads this one shares
    payloads: tuple[Path, Path] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"bad status: {self.status}")
        if self.split not in SPLITS:
            raise ValueError(f"bad split: {self.split}")
        if not -5 <= self.transposition <= 6:
            raise ValueError(f"transposition out of range: {self.transposition}")
        if self.transposition and self.source is None:
            raise ValueError(f"transposition {self.transposition} without a source")
        if self.key is not None and (self.key[0] not in range(12) or self.key[1] not in ("major", "minor")):
            raise ValueError(f"bad key {self.key} (want a tonic 0-11 and major or minor)")


def augment(pairs) -> list[PairRecord]:
    """Relabel each untransposed pair as 12 records (-5..+6) that share its two
    scores: each pair_id encodes the base pair and shift, the key moves with the
    shift, and the source is the base pair's id. No score is transposed here."""
    out = []
    for pair in pairs:
        if pair.transposition != 0:
            raise ValueError(f"pair {pair.pair_id} is already transposed")
        for t in TRANSPOSITIONS:
            out.append(
                replace(
                    pair,
                    pair_id=f"{pair.pair_id}_t{t:+d}",
                    transposition=t,
                    key=None if pair.key is None else ((pair.key[0] + t) % 12, pair.key[1]),
                    source=pair.pair_id,
                )
            )
    return out


def split_by_song(pairs, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> list[PairRecord]:
    """Assign train/val/test by song so no song straddles splits.

    Deterministic in (song set, ratios, seed); input order is irrelevant.
    Requires at least 3 songs so every split is non-empty.
    """
    import random

    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"bad ratios: {ratios}")
    songs = sorted({p.song_id for p in pairs})
    n = len(songs)
    if n < 3:
        raise ValueError(f"need at least 3 songs to populate every split, got {n}")

    # Largest-remainder allocation, then make sure no split is empty.
    ideal = [r * n for r in ratios]
    counts = [int(x) for x in ideal]
    order_by_frac = sorted(range(3), key=lambda i: (-(ideal[i] - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[order_by_frac[i % 3]] += 1
    for i in range(3):
        while counts[i] == 0:
            donor = max(range(3), key=lambda j: counts[j])
            counts[donor] -= 1
            counts[i] += 1

    shuffled = songs[:]
    random.Random(seed).shuffle(shuffled)
    assignment: dict[str, str] = {}
    cursor = 0
    for split, count in zip(("train", "val", "test"), counts):
        for song in shuffled[cursor : cursor + count]:
            assignment[song] = split
        cursor += count

    for p in pairs:
        p.split = assignment[p.song_id]
    return list(pairs)


def _safe_name(pair_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_+-]", "_", pair_id)


def _source(pair: PairRecord) -> str:
    """The id whose payloads a pair's record names: its source, else itself."""
    return pair.pair_id if pair.source is None else pair.source


def _untransposed(pairs) -> dict[str, PairRecord]:
    """Each source's one untransposed record. ManifestError unless every source
    has exactly one, and every record holds that record's payloads and scores."""
    bases: dict[str, PairRecord] = {}
    for p in pairs:
        if p.transposition == 0 and bases.setdefault(_source(p), p) is not p:
            raise ManifestError(f"source {_source(p)!r} has two untransposed records")
    for p in pairs:
        base = bases.get(_source(p))
        if base is None:
            raise ManifestError(f"pair {p.pair_id!r} has no untransposed record of its "
                                f"source {_source(p)!r} to share payloads with")
        if (p.payloads, p.original, p.variation) != (base.payloads, base.original, base.variation):
            raise ManifestError(f"pair {p.pair_id!r} names other payloads than its source {_source(p)!r}")
    return bases


def _stage_payload(src: Path, dest: Path) -> Path | None:
    """A new name beside `dest` for the bytes of `src`, made without reading
    them: a hard link, or a byte copy where linking fails (EXDEV across
    filesystems, EPERM). None when `dest` already is `src`."""
    try:
        if os.path.samefile(src, dest):
            return None
    except FileNotFoundError:  # no `dest` yet
        pass
    staged = dest.with_name(f".{dest.name}.link")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(staged)  # left by an interrupted save: never write through it
    try:
        os.link(src, staged)
    except OSError:
        shutil.copyfile(src, staged)
    return staged


def save_manifest(pairs, path) -> None:
    """Write the JSONL manifest plus each source's two payloads under
    '<stem>_midi' next to the manifest, from the source's untransposed record
    only; its transposed records name the same files. A payload whose score is
    None is its record's payload file, linked (or copied) unread and renamed
    into place, so no file is written through; any other is encoded. Once the
    manifest is written, the payloads in '<stem>_midi' that it does not name
    (an earlier run's) and any staging file an interrupted save left are
    deleted. Records that break the source rule (see _untransposed), or two
    sources that map to one payload name, raise ManifestError before anything
    is written."""
    path = Path(path)
    writers: dict[str, PairRecord] = {}  # payload base name -> the record that writes it
    for p in _untransposed(pairs).values():
        base = _safe_name(_source(p))
        if writers.setdefault(base, p) is not p:
            raise ManifestError(f"pairs {writers[base].pair_id!r} and {p.pair_id!r} "
                                f"share the payload name {base}")
    midi_dir = path.parent / f"{path.stem}_midi"
    midi_dir.mkdir(parents=True, exist_ok=True)

    payloads = []  # (score or None, its file, destination) per payload written
    for base, p in writers.items():
        payloads += zip((p.original, p.variation), p.payloads or (None, None),
                        (midi_dir / f"{base}.orig.mid", midi_dir / f"{base}.var.mid"))
    # Every linked payload is staged before any destination is replaced: saved
    # in place, one record's payload file can be another record's destination.
    staged = [(_stage_payload(src, dest), dest) for score, src, dest in payloads if score is None]
    for score, _, dest in payloads:
        if score is not None:
            save_midi(score, dest)
    for new, dest in staged:
        if new is not None:
            os.replace(new, dest)

    lines = [json.dumps({"schema_version": SCHEMA_VERSION, "midi_dir": midi_dir.name}, sort_keys=True)]
    for p in pairs:
        base = _safe_name(_source(p))
        lines.append(
            json.dumps(
                {
                    "pair_id": p.pair_id,
                    "song_id": p.song_id,
                    "source": p.source,
                    "original": f"{base}.orig.mid",
                    "variation": f"{base}.var.mid",
                    "transposition": p.transposition,
                    "confidence": p.confidence,
                    "status": p.status,
                    "split": p.split,
                    "window_start_bar": p.window_start_bar,
                    "key": None if p.key is None else [p.key[0], p.key[1]],
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    named = {dest.name for *_, dest in payloads}
    for file in midi_dir.iterdir():
        name = file.name
        if (name.endswith((".orig.mid", ".var.mid")) and name not in named
                or name.startswith(".") and name.endswith(".link")):
            file.unlink()


# A record's optional fields: name -> (JSON types accepted, default). A bool
# passes isinstance(..., int), so _record_fields refuses it by name.
_OPTIONAL_FIELDS = {
    "transposition": ((int,), 0),
    "confidence": ((int, float), 1.0),
    "status": ((str,), "accepted"),
    "split": ((str,), "unassigned"),
    "window_start_bar": ((int, type(None)), None),
    "source": ((str, type(None)), None),
}


def _record_fields(rec: dict) -> dict:
    """A record's optional fields (defaults filled in) and its key as a
    (tonic, mode) tuple, once each has its documented JSON type."""
    fields = {}
    for name, (types, default) in _OPTIONAL_FIELDS.items():
        value = rec.get(name, default)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ManifestError(f"pair {rec['pair_id']!r}: bad {name} {value!r}")
        fields[name] = value
    key = rec.get("key")
    if key is not None:
        if not (isinstance(key, list) and len(key) == 2 and type(key[0]) is int):  # not a bool
            raise ManifestError(f"pair {rec['pair_id']!r}: bad key {key!r} (want [tonic, mode])")
        key = (key[0], key[1])
    fields["key"] = key
    return fields


def _read_records(path) -> list[PairRecord]:
    """A manifest's records with their payload paths and no scores, each payload
    checked to exist; see load_manifest for what fails the read."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not lines:
        raise ManifestError(f"empty manifest {path}")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ManifestError(f"bad manifest header: {exc}") from exc
    if not isinstance(header, dict):
        raise ManifestError("bad manifest header: not a JSON object")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    midi_dir = header.get("midi_dir", f"{path.stem}_midi")
    if not isinstance(midi_dir, str):
        raise ManifestError(f"bad manifest header: midi_dir {midi_dir!r} is not a string")
    midi_dir = path.parent / midi_dir

    files: dict[str, Path] = {}  # payload name -> its one path object, once the file is found

    def payload(name) -> Path:
        if name not in files:
            file = midi_dir / name
            os.stat(file)
            files[name] = file
        return files[name]

    pairs = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"line {i}: bad JSON: {exc}") from exc
        if not isinstance(rec, dict) or not all(
            isinstance(rec.get(name), str) for name in ("pair_id", "song_id")
        ):
            raise ManifestError(f"line {i}: not a pair record with a string pair_id and song_id")
        fields = _record_fields(rec)
        try:
            fields["payloads"] = (payload(rec["original"]), payload(rec["variation"]))
        except (OSError, KeyError, TypeError) as exc:
            raise ManifestError(f"pair {rec['pair_id']!r}: missing MIDI payload ({exc})") from exc
        try:
            pair = PairRecord(rec["pair_id"], rec["song_id"], None, None, **fields)
        except ValueError as exc:  # a value PairRecord refuses (status, split, transposition, key)
            raise ManifestError(f"pair {rec['pair_id']!r}: {exc}") from exc
        pairs.append(pair)
    _untransposed(pairs)
    return pairs


def load_manifest(path, scores: bool = True) -> list[PairRecord]:
    """Load a manifest and, with `scores`, its MIDI payloads, each payload file
    parsed once; every record's scores are its payloads. Without `scores` each
    record holds only its payload paths, for save_manifest to link. A schema
    version other than 2, any missing file or bad field, or records that
    save_manifest would refuse to write (see _untransposed) fail the whole load
    either way."""
    pairs = _read_records(path)
    if not scores:
        return pairs
    parsed: dict[Path, MidiScore] = {}  # payload path -> its parsed score
    for p in pairs:
        try:
            for file in p.payloads:
                if file not in parsed:
                    parsed[file] = load_midi(file)
        except OSError as exc:  # it exists but cannot be read
            raise ManifestError(f"pair {p.pair_id!r}: missing MIDI payload ({exc})") from exc
        p.original, p.variation = (parsed[file] for file in p.payloads)
    return pairs


def transposition_bases(pairs) -> list[tuple[PairRecord, PairRecord, int]]:
    """(pair, base, shift) per pair, its scores being its base's moved by `shift`: its source's
    untransposed record (a t = 0 record is its own), or, where a note there would leave 0-127,
    a copy transposed there, at shift 0 and with no source."""
    bases = _untransposed(pairs)
    pitches = {source: [n[1] for s in (p.original, p.variation) for n in s.tick_notes] or [0, 127]
               for source, p in bases.items()}  # no notes: [0, 127] folds under any shift
    out = []
    for p in pairs:
        t, notes = p.transposition, pitches[_source(p)]
        if 0 <= min(notes) + t and max(notes) + t <= 127:
            out.append((p, bases[_source(p)], t))
        else:
            original, variation = (transpose(s, t) for s in (p.original, p.variation))
            out.append((p, replace(p, original=original, variation=variation, transposition=0, source=None), 0))
    return out


def export_csv(pairs, path) -> None:
    """Flat CSV view of the manifest (no MIDI payloads)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pair_id", "song_id", "transposition", "confidence", "status", "split"]
        )
        for p in pairs:
            writer.writerow(
                [p.pair_id, p.song_id, p.transposition, f"{p.confidence!r}", p.status, p.split]
            )
