"""Smoke test of the benchmark at a size that takes seconds. It asserts no timing.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import HIGHER_IS_BETTER, metric_units  # noqa: E402

SMALL = {
    "prep": workloads.Prep(n_songs=3),
    "train-model1": workloads.TrainModel1(n_train=2, n_val=2, epochs=2, batch_size=2),
    "generate-model2": workloads.GenerateModel2(n_primers=1, max_new=4),
}
NAMED = {
    "prep": ["extract_pairs_s", "review_s", "augment_s", "tokenize_s", "report_s"],
    "train-model1": ["train_tokens_per_s"],
    "generate-model2": ["gen_tokens_per_s"],
}


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    for m in spec["per_layer"]:
        assert m["better"] == ("higher" if m["name"] in HIGHER_IS_BETTER else "lower")


@pytest.mark.parametrize("name", list(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.run_workload(SMALL[name], seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = result["detail"]["named_metrics"]
    assert list(named) == NAMED[name] + ["setup_s", "peak_rss_mb", "failed_share"]
    assert named["failed_share"]["value"] == 0
    host = result["detail"]["host"]
    assert {"nproc", "python", "numpy", "blas", "blas_version", "blas_threads"} <= set(host)
    assert result["detail"]["artifacts_identical_across_passes"]


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.run_workload(SMALL[name], seed=3, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metric_units()
    detail = result["detail"]
    assert [p["traced"] for p in detail["passes"]] == [False, True]
    stages = detail["stages"]
    assert set(stages) == {f"cli.{stage}" for stage in SMALL[name].stages}
    for stage in stages.values():
        assert stage["self_s_sum"] == pytest.approx(stage["wall_s"], rel=1e-9)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "prep":
        assert values["dataset.midi_files_read"] > 0 and values["autodiff.matmul.calls"] == 0
    if name == "train-model1":
        assert values["autodiff.matmul.bwd_s"] > 0 and values["midi_io.parse_midi.calls"] == 0
        assert 0 < values["model.train.useful_share"] <= 1
    if name == "generate-model2":
        assert values["model.positions_per_token"] > 1 and values["autodiff.matmul.bwd_s"] == 0
        assert values["model.nucleus_sample.calls"] > 0
    assert (run.OUT / f"spans-{name}-seed3.json.gz").is_file()


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "prep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
