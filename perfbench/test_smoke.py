"""Smoke test of the benchmark itself, on a few cheap operations per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload with tracing off and on and checks that each metric is
printed with its unit, that no operation fails on correct code, and that the
traced run puts the expected layer on top of the self-time profile.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TOP_LAYER = {
    "corpus": "weyl.mul_w2",
    "lift": "cohomology.basis_expand",
    "trace": "cohomology.basis_expand",
    "large_p": "kernel.tables",
}


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def printed(out: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b", out, re.M) is not None


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(TOP_LAYER))
def test_end_to_end(workload):
    out, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(run.jobs.TINY[workload])
    for name, unit in run.END_TO_END + run.REPORTED:
        assert printed(out, name, unit), name
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert re.search(r"^failed_frac = 0 ratio ", out, re.M)
    env = json.loads(re.search(r"^env (.*)$", out, re.M).group(1))
    for key in ("backend", "numba_imports", "python", "numpy", "nproc", "commit"):
        assert key in env
    assert {m["name"]: m["unit"] for m in declared()["end_to_end"]} == {
        name: unit for name, unit in run.END_TO_END
    }


@pytest.mark.parametrize("workload", sorted(TOP_LAYER))
def test_traced(workload):
    out, result = bench(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    for name, unit in run.PER_LAYER:
        assert printed(out, name, unit), name
        assert result["metrics"][name]["unit"] == unit
    top = re.search(r"^top self time: (\S+)", out, re.M).group(1)
    assert top == TOP_LAYER[workload]
    assert {m["name"]: m["unit"] for m in declared()["per_layer"]} == dict(run.PER_LAYER)
