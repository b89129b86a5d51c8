"""Benchmark of the overpaint toolkit: prep, train-model1 and generate-model2.

    python3 bench/run.py --workload prep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere inside a checkout; it imports the package from the
checkout's `src/` and nothing else. Each workload is a closed loop with one
caller: inputs are generated from the seed, then measured passes of real CLI
commands (`overpaint.cli.main([...])`) run back to back until `--seconds` have
passed. The program's set-up (a fresh import of the package plus what it
reads before its first command) is timed before every pass; its median is
`setup_s`.
`--trace 1` alternates untraced and traced passes; the traced ones give the
per-layer metrics, and the gap between the two gives the tracing overhead.
`--workload all` runs each workload in a process of its own, one after another.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with `--trace 0`, the per-layer
ones with `--trace 1`). The lines above it are a readable report; the full
detail record (host, every pass, artifact hashes, the traced stage breakdown)
is written under `.bench_out/` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import metric_units, per_layer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 7
E2E_UNITS = {"tokens_per_s": "tok/s", "setup_s": "s", "peak_rss_mb": "MB"}
_clock = time.perf_counter


class Pass:
    """One measured pass: times CLI commands and counts operations and failures."""

    def __init__(self, cli, tracer, index: int):
        self.cli = cli
        self.tracer = tracer
        self.index = index
        self.times: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, stage: str, argv: list[str]) -> None:
        self.attempted += 1
        captured = io.StringIO()
        traced = self.tracer.installed(self.index) if self.tracer else contextlib.nullcontext()
        span = self.tracer.span(f"cli.{stage}") if self.tracer else contextlib.nullcontext()
        start = _clock()
        try:
            with contextlib.redirect_stdout(captured), traced, span:
                code = self.cli.main(["--quiet", *argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash inside the program is one failed command
            traceback.print_exc()
            code = "exception"
        self.times[stage] = _clock() - start
        if code != 0:
            self.failures.append(f"{stage} exited {code}")

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def timing(samples: list[float], unit: str) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "unit": unit, "n": n}
    if n > 10:
        k = n - 10
        out[f"p{100 * k // n}"] = ordered[k - 1]
    return out


def spread(values: list[int]) -> dict:
    """Distribution of sequence or primer lengths."""
    if not values:
        return {}
    ordered = sorted(values)
    n = len(ordered)
    return {"n": n, "min": ordered[0], "p10": ordered[n // 10], "median": ordered[n // 2],
            "p90": ordered[min(n - 1, 9 * n // 10)], "max": ordered[-1]}


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def host_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, time set-up, run passes for `seconds`, and summarise."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    passes = []
    try:
        start = _clock()
        inputs = workload.make_inputs(work, seed)
        input_s = _clock() - start
        setup = []

        def set_up():
            gc.collect()  # garbage left by the previous import is not this set-up's cost
            begin = _clock()
            workload.setup(inputs)
            setup.append(_clock() - begin)

        start = _clock()
        while True:
            # Set-up is repeated before every pass, so its samples span the run
            # the way the passes do, and each pass starts from a fresh import.
            set_up()
            index = len(passes)
            traced = trace and index % 2 == 1
            out = work / f"pass{index}"
            out.mkdir()
            p = Pass(sys.modules["overpaint.cli"], tracer if traced else None, index)
            record = workload.run_pass(p, inputs, out)
            record.update(index=index, traced=traced, times=p.times, attempted=p.attempted,
                          failures=p.failures, pass_s=sum(p.times.values()),
                          artifacts={a.name: hashlib.sha256(a.read_bytes()).hexdigest()
                                     if a.is_file() else None for a in record["artifacts"]})
            passes.append(record)
            shutil.rmtree(out)
            if _clock() - start >= seconds and (not trace or len(passes) >= 2):
                break
        while len(setup) < MIN_SETUP_SAMPLES:
            set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarise(workload, seed, seconds, trace, tracer, passes, inputs, input_s, setup)


def summarise(workload, seed, seconds, trace, tracer, passes, inputs, input_s, setup) -> dict:
    plain = [p for p in passes if not p["traced"]]
    rates = [p["tokens"] / p["pass_s"] for p in plain]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    pass_s = [p["pass_s"] for p in plain]
    e2e = {
        "tokens_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if workload.rate_name:
        named = {workload.rate_name: timing(rates, "tok/s")}
    else:
        named = {f"{stage.replace('-', '_')}_s": timing([p["times"][stage] for p in plain], "s")
                 for stage in workload.stages}
    named.update(setup_s=timing(setup, "s"),
                 peak_rss_mb={"value": e2e["peak_rss_mb"], "unit": "MB"},
                 failed_share={"value": failed / attempted, "unit": "ratio"})
    detail = {
        "workload": workload.name, "why": workload.__doc__, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_record(),
        "warmup_share": (pass_s[0] - statistics.median(pass_s)) / sum(pass_s),
        "input_generation_s": input_s, "setup_samples_s": setup,
        "tokens_per_pass": statistics.median(p["tokens"] for p in plain),
        "named_metrics": named,
        "passes": [{k: p[k] for k in ("index", "traced", "times", "tokens", "attempted",
                                      "failures")} for p in passes],
        "artifacts_sha256": passes[-1]["artifacts"],
        "artifacts_identical_across_passes":
            all(p["artifacts"] == passes[0]["artifacts"] for p in passes),
        "lengths": spread(passes[-1].get("lengths") or inputs.get("lengths", [])),
    }
    if "epoch_s" in plain[0]:
        detail["epoch_s"] = [p["epoch_s"] for p in plain]
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_rate = statistics.median(p["tokens"] / p["pass_s"] for p in traced)
        # The first pass carries the process's warm-up, so it is left out of the base.
        base_rate = statistics.median(rates[1:] or rates)
        overhead = (base_rate - traced_rate) / base_rate
        values, ops = per_layer(tracer, len(traced), inputs.get("useful_targets", 0), overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units().items()}
        detail.update(traced_tokens_per_s=traced_rate, untraced_tokens_per_s=base_rate,
                      stages=tracer.stage_breakdown(), autodiff_ops=ops,
                      spans=len(tracer.spans))
    detail["end_to_end"] = e2e
    OUT.mkdir(exist_ok=True)
    if trace:
        tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.json.gz")
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, default=str), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def report(result: dict) -> str:
    d = result["detail"]
    lines = [f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  "
             f"trace {d['trace']}  passes {len(d['passes'])}  "
             f"attempted {result['attempted']}  failed {result['failed']}"]
    for name, t in d["named_metrics"].items():
        value = t.get("median", t.get("value"))
        extra = "  ".join(f"{k} {v:.6g}" for k, v in t.items()
                          if k not in ("median", "value", "unit"))
        lines.append(f"  {name:<20} {value:>12.6g} {t['unit']:<6} {extra}")
    lines.append(f"  host {json.dumps(d['host'])}  warmup_share {d['warmup_share']:.4f}")
    lines.append(f"  lengths {json.dumps(d['lengths'])}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("prep", "train-model1", "generate-model2", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "overpaint" / "__init__.py").is_file():
        print(f"no overpaint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import overpaint

    if Path(overpaint.__file__).resolve().parent != SRC / "overpaint":
        print(f"overpaint imported from {overpaint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(report(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
