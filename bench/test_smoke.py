"""Smoke test of the benchmark harness at tiny repetition counts.

    python3 -m pytest bench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run_bench  # noqa: E402

run_bench._import_package()
from campaign import gate, run_pipeline  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY_REPS = {"desk": 6, "dense480": 2, "nomlr120": 6}


@pytest.fixture
def tiny_workloads(tmp_path, monkeypatch):
    """The real workload documents with tiny repetition counts."""
    (tmp_path / "workloads").mkdir()
    for name, reps in TINY_REPS.items():
        doc = json.loads((BENCH_DIR / "workloads" / f"{name}.json").read_text())
        doc["run"]["repetitions"] = reps
        (tmp_path / "workloads" / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(run_bench, "BENCH_DIR", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_REPS))
def test_run_prints_every_declared_metric(tiny_workloads, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    assert run_bench.main(argv) == 0
    *_, record_line, result_line = capsys.readouterr().out.splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert len(record["campaign_digest"]) == 1
    if trace:
        assert result["metrics"]["trace.pipeline_matches"]["value"] == 1


def test_gate_catches_broken_invariants(tmp_path):
    doc = json.loads((BENCH_DIR / "workloads" / "desk.json").read_text())
    doc["run"]["repetitions"] = 20
    cfg, result = run_pipeline(doc, 1, tmp_path)
    assert gate(cfg, result, tmp_path) == []
    ok = result.success_mask("HQF")
    result.bottleneck_db["HQF"][ok] = result.oracle_bottleneck_db[ok] + 1.0
    result.hop_count["HQF_huge_gap"][0] = cfg.max_hops + 1
    problems = gate(cfg, result, tmp_path)
    assert any("above the oracle" in p for p in problems)
    assert any("above max_hops" in p for p in problems)
    assert any("HQF_huge_gap hop_count" in p for p in problems)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
