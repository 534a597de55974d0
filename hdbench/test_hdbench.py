"""The benchmark's own tests: python3 -m pytest hdbench

They run the benchmark at its tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hdbench import measure, world  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hdbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    # Metrics the report prints without gating them, each with its unit.
    printed = {line.split()[0]: line.split()[1:3] for line in lines if line.startswith("  ")}
    assert printed["fail_frac"] == ["0.000000", "ratio"]
    if not trace:
        assert printed["gen_ms_p50"][1] == "ms"


def test_corrupted_reference_counts_as_failure(tmp_path):
    w = world.build_world(5, world.TINY, tmp_path)
    workload = world.TINY.workloads["loop-greedy"]
    requests = world.workload_requests(w, workload, 5)
    _, refs = measure.ar_pass(w, workload, requests)

    clean = measure.Gate(workload, w.model.vocab_size, refs)
    measure.spec_pass(w, workload, requests, clean)
    assert clean.failed == 0

    refs[0] = refs[0][:-1] + [(refs[0][-1] + 1) % w.model.vocab_size]
    corrupt = measure.Gate(workload, w.model.vocab_size, refs)
    measure.spec_pass(w, workload, requests, corrupt)
    assert corrupt.failures == {"differs from AR": 1}
    assert corrupt.failed / corrupt.attempted > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hdbench", tmp_path / "hdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("short-greedy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("tokens, spec_ns, expect_breakeven", [
    (200, 2_000_000, True),     # tau 2, a step costs more than two AR tokens
    (100, 2_000_000, False),    # tau 1: no draft token was ever accepted
    (200, 500_000, False),      # a step costs less than tau AR tokens
])
def test_breakeven_missing_leaves_the_other_metrics(tokens, spec_ns, expect_breakeven):
    timed = measure.Timed(
        spec_ns=[spec_ns / 4] * 4, ar_ns=[250_000.0] * 4,
        kernel_ns=[measure.KERNEL_NOMINAL_NS], tokens=tokens, steps=100, ar_tokens=tokens,
        passes=3,
    )
    metrics, notes = measure.end_to_end(timed)
    assert ("breakeven_us" in metrics) == expect_breakeven
    assert {"tok_s", "tok_s_ar", "calls_per_tok", "gen_ms_tail"} <= set(metrics)
    if expect_breakeven:
        assert metrics["breakeven_us"][0] > 0
    else:
        assert notes["breakeven_us"].startswith("not available")
