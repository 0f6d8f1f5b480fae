"""Smoke test of the benchmark: every workload runs at toy size, passes all
of its correctness checks, and emits exactly the metrics BENCHMARK.json
declares, with their units.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark is defined to report
REQUIRED_E2E = {
    "setup_s", "train_samples_per_s", "ckpt_save_s", "ckpt_load_s",
    "predict_lines_per_s", "eval_lines_per_s", "classify_ms_p50", "classify_ms_p99",
    "peak_rss_mb",
}
REQUIRED_LAYERS = {
    "training.fwdbwd_s", "training.fwdbwd_calls", "training.fwdbwd_us_per_token",
    "training.reeval_s", "training.optimizer_s", "training.clip_s",
    "training.clip_fired_ratio", "model.forward_s", "model.forward_calls",
    "model.forward_us_per_token", "checkpoint.load_s", "checkpoint.save_s",
    "checkpoint.bytes", "data.load_tsv_s", "data.encode_s", "data.make_batches_s",
    "data.pad_fraction", "metrics.report_s", "synth.gen_s", "cli.self_s",
    "trace.overhead_ratio",
}
# may read 0 (or below) even where their layer runs
MAY_BE_ZERO = {"training.clip_fired_ratio", "trace.overhead_ratio"}


def run_bench(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_cover_the_required_ones():
    assert REQUIRED_E2E <= {m["name"] for m in SPEC["end_to_end"]}
    assert REQUIRED_LAYERS <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if m["name"] not in MAY_BE_ZERO:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "train-char-bilstm", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
