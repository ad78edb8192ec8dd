"""Smoke test of the benchmark at tiny scale.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its unit,
that traced and untraced runs reach the same verdicts, and that a wrong
expectation is caught by the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=5):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_metrics_and_verdicts(workload):
    meta0, plain = _run(workload, 0)
    meta1, traced = _run(workload, 1)
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for result, listed in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])
    # the traced run traced every input set at least once
    assert meta1["rounds_traced"] >= 2 and not meta1["missing_entry_points"]
    assert meta0["verdict_digest"] == meta1["verdict_digest"]


def test_wrong_expectation_is_counted(monkeypatch):
    real_build = workloads.build

    def tampered(*args, **kwargs):
        sets = real_build(*args, **kwargs)
        call = sets[0][0]
        good_gate = call.gate
        call.gate = lambda v, earlier: None if good_gate(v, earlier) else "injected"
        return sets

    monkeypatch.setattr(workloads, "build", tampered)
    args = argparse.Namespace(workload="sparse-graphs", seed=1, seconds=0.5, trace=0,
                              tiny=True, setup_only=False)
    result, meta, code = run.run(args)
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1 and meta["failed_frac"] > 0
    assert all("injected" in f for f in meta["failures"])
