"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs every workload briefly in both modes and checks the result format
against BENCHMARK.json, then the gates and the span arithmetic on their
own.  Takes about a minute; the census alone cannot be made smaller.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import matrices  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(workload, trace):
    got = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, got.stderr
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == "0":
            assert result["metrics"][metric["name"]]["value"] > 0
    if trace == "1":
        # spans reach functions other modules bound with ``from .x import``
        metrics = result["metrics"]
        assert metrics["sepr.compute_sepr.calls"]["value"] > 0
        assert metrics["cli.main.self_s"]["value"] > 0
        if workload == "hunt":
            for name in ("last-term", "inverse-relation", "permutation-invariance", "real-SNA-window"):
                assert metrics[f"properties.check.{name}.calls"]["value"] > 0
            assert metrics["matrix.inverse.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    got = bench(tmp_path, "--workload", "hunt", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert got.returncode != 0
    assert got.stdout.strip() == ""


def test_compute_gate_rejects_wrong_sequences():
    argv = ["compute", matrices.file_name("lowrank", "real", 4, 0)]
    good = {"argv": argv, "rc": 0, "stdout": "epr: ASNN / sepr: A+S+NN / forbidden windows: none\n", "stderr": ""}
    assert checks.check_call(good, "lowrank") == []
    above_rank = dict(good, stdout="epr: ASSN / sepr: A+S+S+N / forbidden windows: none\n")
    assert checks.check_call(above_rank, "lowrank")
    wrong_epr = dict(good, stdout="epr: AANN / sepr: A+S+NN / forbidden windows: none\n")
    assert checks.check_call(wrong_epr, "lowrank")
    assert checks.check_call(good, "dense")  # a dense matrix has no zero minor
    assert checks.check_call(dict(good, rc=1), "lowrank")


def test_census_gate_needs_every_pattern():
    argv = ["search", "--census", "--order", "2", "--field", "real", "--seed", "1"]
    rows = "".join(f"P{i}\twitnessed\tsource\n" for i in range(45))
    summary = "census order 2 over real symmetric: 45/45 patterns witnessed (0 open)\n"
    assert checks.check_call({"argv": argv, "rc": 0, "stdout": rows, "stderr": summary}, "census") == []
    short = rows.replace("P0\twitnessed", "P0\topen", 1)
    assert checks.check_call({"argv": argv, "rc": 0, "stdout": short, "stderr": summary}, "census")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0), (1, 5.0, 6.0, 0, 0)]
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["self_s"] == pytest.approx(4.0)
    assert summary["outer"]["children"] == {"inner": 2}


def test_dense_matrices_are_diagonally_dominant():
    for field in ("hermitian", "real"):
        doc = json.loads(matrices.document("dense", 1, field, 8, 0))
        for i, row in enumerate(doc["entries"]):
            parts = [(Fraction(re), Fraction(im)) for re, im in row]
            off = sum(abs(re) + abs(im) for j, (re, im) in enumerate(parts) if j != i)
            assert abs(parts[i][0]) > off and parts[i][1] == 0
            assert all(re != 0 for j, (re, _) in enumerate(parts) if j != i)
