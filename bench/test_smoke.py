"""Smoke test of the benchmark harness at a tiny size.

    python -m pytest bench/test_smoke.py

Runs every workload untraced and traced and checks that every metric is
emitted and that the checks that hold at any size pass. It sets no timing
bound, and it does not require the convergence gates (final loss, mIoU
thresholds), which need the full-size runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "train-readme": {
        "setup_s", "train_steps_per_s", "train_final_loss", "error_rate", "peak_rss_mb",
    },
    "eval-dense": {"setup_s", "eval_items_per_s", "eval_hiou", "error_rate", "peak_rss_mb"},
    "query-heatmap-224": {
        "setup_s", "query_ms_p50", "query_ms_p90", "query_kld", "error_rate", "peak_rss_mb",
    },
}
SPECIFIC_LAYERS = {
    "train-readme": {"data.load_target", "metrics.iou_counts"},
    "eval-dense": {"data.load_target", "metrics.iou_counts"},
    "query-heatmap-224": {"data.densify", "metrics.heatmap_record", "metrics.keypoint_fixations"},
}
CONVERGENCE_GATES = ("final_loss_below", "miou_at_least")


def run_all(trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    reports = {r["workload"]: r for r in
               (json.loads(line)["report"] for line in lines if line.startswith('{"report"'))}
    return reports, json.loads(lines[-1])


def check_common(reports, final):
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(reports) == set(NAMED)
    for name, report in reports.items():
        env = report["environment"]
        for key in ("nproc", "python", "numpy", "blas", "git_commit", "seed"):
            assert key in env, key
        assert env["blas"]["threads"] in (1, None)
        for gate, outcome in report["gates"].items():
            if not any(tag in gate for tag in CONVERGENCE_GATES):
                assert outcome["ok"], (name, gate, outcome["detail"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace):
    reports, final = run_all(trace)
    check_common(reports, final)
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"] for m in SPEC[kind]}
    for name, report in reports.items():
        emitted = {k.split("/", 1)[1] for k in final["metrics"] if k.startswith(name + "/")}
        assert emitted == declared, name
        if trace:
            assert SPECIFIC_LAYERS[name] <= set(report["per_layer"]), name
            assert "value" in report["trace_overhead"]
        assert NAMED[name] <= set(report["metrics"]), name
    edge = reports["query-heatmap-224"]["known_defects"]["keypoint_fixations.edge_rounding"]
    assert isinstance(edge["present"], bool) and edge["detail"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
