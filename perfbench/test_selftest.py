"""Self-test of the benchmark, at the tiny size (about a minute):

    python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_work" / "selftest"

# Closed-form denoiser rows at the tiny size (2 run seeds; 20 verify seeds).
EXPECTED_IMAGES = {
    # seeds x sum over the 19 sweep cells of N*floor(gamma*T), T=50
    "edit_sweep": 2 * (10 * (5 + 10 + 20 + 30 + 40) + 25 * (1 + 5 + 10 + 50 + 100) + 9 * 10 * 30),
    # video: seeds x clips x (K-2) x floor(gamma*T); simulate's calls stay in the pool workers
    "clip_render": 2 * 10 * (8 - 2) * 30,
    # seeds x stages
    "bound_check": 20 * 100,
}


def bench(workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_match_closed_form(workload):
    result = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["denoiser.gmm_eps.images"] == EXPECTED_IMAGES[workload]
    assert metrics["denoiser.gmm_eps.calls"] == EXPECTED_IMAGES[workload]  # one image per call
    if workload == "bound_check":  # one forward_diffuse per reverse step
        assert metrics["scheduler.forward_diffuse.calls"] == metrics["scheduler.ddim_step.calls"]
    assert (metrics["trace.pool_tasks_uncollected"] > 0) == (workload == "clip_render")


def copy_tree(dest: Path, *dirs: str) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    for d in dirs:
        shutil.copytree(ROOT / d, dest / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_planted_denoiser_fault_is_counted():
    planted = copy_tree(SCRATCH / "planted", "src", "configs", "perfbench")
    denoiser = planted / "src" / "mvg" / "denoiser.py"
    text = denoiser.read_text()
    line = "return gmm_eps(x, t, y, self.model, self.schedule)"
    assert line in text
    denoiser.write_text(text.replace(line, line + " + 1e-6"))
    proc = bench("bound_check", 0, cwd=planted, script=planted / "perfbench" / "run.py")
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_program():
    bare = copy_tree(SCRATCH / "bare", "perfbench")
    proc = bench("edit_sweep", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
