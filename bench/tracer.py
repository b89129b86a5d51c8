"""Outside-in tracer: spans around overpaint's public functions, patched from here.

The program is not edited. `Tracer.installed()` replaces, for the duration of a
`with` block, every public function of an overpaint module in the namespace of
each other overpaint module that looks it up by name (the layer boundaries), a
few entry points that their own module calls (`INTRA`), every public function
of `overpaint.autodiff`, and the methods `TransformerLM.forward` and
`Tensor.backward`. Autodiff ops are found at run time: a public autodiff
function that returns a new Tensor is an op, and when that Tensor carries a
backward closure the closure is wrapped so its backward time is a span of its
own. An op added to the engine later is therefore measured without editing
this file.

Spans are kept in memory as [name, start, end, parent, pass, primer] and
written out once, when the run ends. A span's self time is its duration minus
the durations of its direct children; since spans nest, the self times under
a stage add up to the stage's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "overpaint"
# Entry points that are called from inside their own module, so patching the
# importers alone would miss them.
INTRA = {
    "midi_io": ("parse_midi", "write_midi"),
    "alignment": ("chroma_frames", "viterbi_align"),
    "metrics": ("feature_vector",),
    "model": ("nucleus_sample",),
}
PRIMER_SPAN = "model.generate"
_clock = time.perf_counter


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def package_modules() -> dict:
    """Short name -> module, for every loaded overpaint submodule."""
    prefix = PACKAGE + "."
    return {_short(n): m for n, m in sorted(sys.modules.items())
            if n.startswith(prefix) and m is not None}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops: set[str] = set()
        self.pass_id = -1
        self.primer_id = -1
        self._hooks = {
            "model.forward": self._on_forward,
            "model.generate": self._on_generate,
            "alignment.chroma_frames": self._on_frames,
            "alignment.extract_pairs": self._on_extract,
            "tokenizer.tokenize": self._on_tokenize,
            "tokenizer.detokenize_with_report": self._on_detokenize,
        }

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if name == PRIMER_SPAN:
            self.primer_id += 1
            primer = self.primer_id
        else:
            primer = self.spans[parent][5] if parent >= 0 else -1
        self.spans.append([name, _clock(), 0.0, parent, self.pass_id, primer])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, name: str, fn, is_autodiff: bool = False):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if is_autodiff and not any(result is a for a in args):
                tracer._wrap_backward(name, result)
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return traced

    def _wrap_backward(self, name: str, result) -> None:
        tensor = result[0] if isinstance(result, tuple) and result else result
        if not hasattr(tensor, "_backward"):
            return
        self.ops.add(name)
        backward = tensor._backward
        if backward is None:
            return
        tracer = self
        bwd_name = name + ".bwd"

        def traced_backward(grad):
            index = tracer.open(bwd_name)
            try:
                backward(grad)
            finally:
                tracer.close(index)

        tensor._backward = traced_backward

    # --- patching ----------------------------------------------------------

    def _patch_sites(self):
        """[(owner, attribute, span name, is_autodiff)] for the loaded package."""
        modules = package_modules()
        sites = []
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                home_short = _short(home)
                own = home_short == short
                if own and not (short == "autodiff" or attr in INTRA.get(short, ())):
                    continue
                sites.append((module, attr, f"{home_short}.{attr}", home_short == "autodiff"))
        model, autodiff = modules.get("model"), modules.get("autodiff")
        if model is not None:
            sites.append((model.TransformerLM, "forward", "model.forward", False))
        if autodiff is not None:
            sites.append((autodiff.Tensor, "backward", "autodiff.backward", False))
        return sites

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Trace every patch site while the block runs; restore them after."""
        self.pass_id = pass_id
        saved = []
        try:
            for owner, attr, name, is_autodiff in self._patch_sites():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, is_autodiff))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- counters taken from arguments and results ---------------------------

    def _parent_name(self, index: int) -> str:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else ""

    def _on_forward(self, index, args, kwargs, result):
        ids = args[1] if len(args) > 1 else kwargs["ids"]
        training = args[2] if len(args) > 2 else kwargs.get("training", False)
        self.spans[index][0] = "model.forward.train" if training else "model.forward.eval"
        batch, length = ids.shape
        self.counts["model.forward.positions"] += batch * length
        self.counts[f"under.{self._parent_name(index)}.positions"] += batch * length

    def _on_generate(self, index, args, kwargs, result):
        self.counts["model.generate.tokens"] += len(result)

    def _on_frames(self, index, args, kwargs, result):
        self.counts["alignment.frames"] += len(result)

    def _on_extract(self, index, args, kwargs, result):
        pairs, dropped = result
        self.counts["alignment.windows"] += len(pairs) + len(dropped)
        self.counts["alignment.accepted"] += sum(p.status == "accepted" for p in pairs)

    def _on_tokenize(self, index, args, kwargs, result):
        self.counts["tokenizer.tokens_out"] += len(result)

    def _on_detokenize(self, index, args, kwargs, result):
        repairs = result[1]
        self.counts["tokenizer.detokenized"] += 1
        self.counts["tokenizer.repaired"] += bool(repairs)
        self.counts["tokenizer.repairs"] += len(repairs)

    # --- derived figures ---------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self):
        """(name -> inclusive seconds, name -> self seconds, name -> calls)."""
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for s, self_s in zip(self.spans, self.self_times()):
            inclusive[s[0]] += s[2] - s[1]
            own[s[0]] += self_s
            calls[s[0]] += 1
        return inclusive, own, calls

    def stage_breakdown(self) -> dict[str, dict]:
        """Per top-level span: wall time, and self time summed by layer."""
        own = self.self_times()
        root_of = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s[3] < 0 else root_of[s[3]])
        stages: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            stage = stages.setdefault(self.spans[root_of[i]][0],
                                      {"wall_s": 0.0, "self_s_by_layer": defaultdict(float)})
            if s[3] < 0:
                stage["wall_s"] += s[2] - s[1]
            stage["self_s_by_layer"][s[0].partition(".")[0]] += own[i]
        for stage in stages.values():
            stage["self_s_sum"] = sum(stage["self_s_by_layer"].values())
            stage["self_s_by_layer"] = dict(sorted(stage["self_s_by_layer"].items()))
        return stages

    def generate_steps(self) -> tuple[list[float], list[float]]:
        """(prefill forward seconds, decode-step forward seconds) under model.generate."""
        prefill, decode = [], []
        seen = set()
        for s in self.spans:
            if s[0] != "model.forward.eval" or s[3] < 0 or self.spans[s[3]][0] != PRIMER_SPAN:
                continue
            (decode if s[3] in seen else prefill).append(s[2] - s[1])
            seen.add(s[3])
        return prefill, decode

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "primer"],
                       "spans": self.spans}, fh, separators=(",", ":"))

