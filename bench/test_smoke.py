"""Smoke test of the benchmark at tiny sizes; no timing gates.

    python -m pytest bench/test_smoke.py

Each workload runs with --tiny in both modes.  The test checks that the last
stdout line carries exactly the metric names and units BENCHMARK.json
declares, that the results file parses, and that the traced run reports zero
work for layers a workload must not reach.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
sys.path.insert(0, os.path.join(ROOT, "bench"))
from workloads import WORKLOADS  # noqa: E402  (also those BENCHMARK.json leaves out)
SEED = 7


def _run(cwd, *extra):
    # the command names python3; run it with this interpreter
    return subprocess.run([sys.executable, *SPEC["command"][1:], *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    path = os.path.join(ROOT, ".bench_out", f"BENCH_{workload}_seed{SEED}_trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        saved = json.load(handle)
    assert saved["metrics"] == result["metrics"]
    assert {"nproc", "cpu_model", "python", "numpy", "seed"} <= set(saved["environment"])
    assert len(saved["failures"]) == result["failed"]

    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert saved["details"]["fail_frac"]["unit"] == "ratio"
        assert {"percentile", "samples"} <= set(saved["details"]["latency_tail"])
        assert all(metrics[name] > 0 for name in metrics)
    else:
        if workload == "eccmx_sparse":
            assert metrics["spectra.eig.calls"] == 0
        if workload in ("spectrum_dense", "eccmx_sparse"):
            # cli_cold reaches the verifier only through its `verify` request
            assert all(v == 0 for name, v in metrics.items() if name.startswith("verification."))
        if workload != "cli_cold":
            assert metrics["cli.main.calls"] == 0 and metrics["cli.startup_s"] == 0
    # the one known wrong answer (ROADMAP 3a) is saved apart and never fails a run
    assert result["failed"] == 0 and result["correct"], saved["failures"]
    assert all(k["reason"].startswith("known defect") for k in saved["known_defects"])


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", f"bare_{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
