"""Per-layer metrics derived from a traced run's spans and counters.

Names ending in `self_s` are self time (the span minus its child spans); other
times are the span's whole duration. Times, calls and counts are per traced
pass unless the name says otherwise (`model.generate.s` is per call,
`model.prefill_s` per primer, `model.decode_step_s` the median decode step).
Every metric is printed on every workload; a layer a workload does not reach
reads 0, which is the "should not move" prediction for that workload.
"""

from __future__ import annotations

import statistics

CLI_STAGES = ("extract-pairs", "review", "augment", "tokenize", "report", "train", "generate")
# Ops the two model presets reach today. Ops found at run time beyond these
# are reported in the run's detail record, not in this fixed list.
MODEL_OPS = ("add", "matmul", "scale", "transpose2d", "swap_last2", "narrow", "concat_last",
             "gelu", "softmax", "layer_norm", "embedding_lookup", "dropout",
             "causal_mask_add", "cross_entropy")

TIMED = (
    "midi_io.parse_midi", "midi_io.write_midi", "midi_io.quantize", "midi_io.transpose",
    "midi_io.slice_beats", "leadsheet.load_leadsheet", "leadsheet.original_segments",
    "alignment.chroma_frames", "alignment.viterbi_align", "dataset.save_manifest",
    "dataset.load_manifest", "dataset.augment", "tokenizer.tokenize",
    "tokenizer.read_token_file", "autodiff.adam_step", "model.nucleus_sample",
    "model.save_checkpoint", "model.load_checkpoint", "metrics.feature_vector",
    "metrics.report",
)
# Per-layer metrics where a larger value is the better one; for the rest, smaller is.
HIGHER_IS_BETTER = ("alignment.accepted_share", "model.train.useful_share")
CALLED = ("midi_io.parse_midi", "midi_io.write_midi", "dataset.load_manifest",
          "model.nucleus_sample", "metrics.feature_vector")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a fixed order."""
    units = {f"cli.{stage}.self_s": "s" for stage in CLI_STAGES}
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({
        "alignment.frames": "count",
        "alignment.accepted_share": "ratio",
        "dataset.midi_files_read": "count",
        "tokenizer.tokens_out": "count",
        "tokenizer.detokenize.s": "s",
        "tokenizer.repaired_seq_share": "ratio",
        "tokenizer.repairs_per_seq": "count",
    })
    for op in MODEL_OPS:
        units.update({f"autodiff.{op}.fwd_s": "s", f"autodiff.{op}.bwd_s": "s",
                      f"autodiff.{op}.calls": "count"})
    units.update({
        "autodiff.backward.self_s": "s",
        "model.forward.train_s": "s",
        "model.forward.eval_s": "s",
        "model.forward.positions": "count",
        "model.train.useful_share": "ratio",
        "model.generate.s": "s",
        "model.prefill_s": "s",
        "model.decode_step_s": "s",
        "model.positions_per_token": "ratio",
        "trace.overhead_share": "ratio",
    })
    return units


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, n_passes: int, useful_targets: int, overhead_share: float) -> dict:
    """(name -> value for `metric_units()`, op -> {fwd_s, bwd_s, calls} for every op seen)."""
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts
    n = max(n_passes, 1)
    values = {f"cli.{stage}.self_s": own[f"cli.{stage}"] / n for stage in CLI_STAGES}
    values.update({f"{name}.s": inclusive[name] / n for name in TIMED})
    values.update({f"{name}.calls": calls[name] / n for name in CALLED})
    files_read = sum(1 for s in tracer.spans if s[0] == "midi_io.load_midi" and s[3] >= 0
                     and tracer.spans[s[3]][0] == "dataset.load_manifest")
    detokenized = counts["tokenizer.detokenized"]
    values.update({
        "alignment.frames": counts["alignment.frames"] / n,
        "alignment.accepted_share": _share(counts["alignment.accepted"],
                                           counts["alignment.windows"]),
        "dataset.midi_files_read": files_read / n,
        "tokenizer.tokens_out": counts["tokenizer.tokens_out"] / n,
        "tokenizer.detokenize.s": inclusive["tokenizer.detokenize_with_report"] / n,
        "tokenizer.repaired_seq_share": _share(counts["tokenizer.repaired"], detokenized),
        "tokenizer.repairs_per_seq": _share(counts["tokenizer.repairs"], detokenized),
    })
    ops = {}
    for name in sorted(tracer.ops | {f"autodiff.{op}" for op in MODEL_OPS}):
        op = name.partition(".")[2]
        ops[op] = {"fwd_s": own[name] / n, "bwd_s": own[name + ".bwd"] / n,
                   "calls": calls[name] / n}
    for op in MODEL_OPS:
        values.update({f"autodiff.{op}.{k}": v for k, v in ops[op].items()})
    prefill, decode = tracer.generate_steps()
    generate_calls = calls["model.generate"]
    values.update({
        "autodiff.backward.self_s": own["autodiff.backward"] / n,
        "model.forward.train_s": inclusive["model.forward.train"] / n,
        "model.forward.eval_s": inclusive["model.forward.eval"] / n,
        "model.forward.positions": counts["model.forward.positions"] / n,
        "model.train.useful_share": _share(useful_targets * calls["model.train"],
                                           counts["under.model.train.positions"]),
        "model.generate.s": _share(inclusive["model.generate"], generate_calls),
        "model.prefill_s": statistics.fmean(prefill) if prefill else 0.0,
        "model.decode_step_s": statistics.median(decode) if decode else 0.0,
        "model.positions_per_token": _share(counts["under.model.generate.positions"],
                                            counts["model.generate.tokens"]),
        "trace.overhead_share": overhead_share,
    })
    return values, ops
