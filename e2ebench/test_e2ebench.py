"""Smoke tests of the end-to-end benchmark on the simulated backend.

Run from the repository root with ``python -m pytest e2ebench``.  They
exercise every workload end to end in a few seconds, plus the pieces
that guard the benchmark's numbers: the ground-truth oracle, the
forged-response canary and the count fingerprint.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.crypto import simulated  # noqa: E402

import run  # noqa: E402
from world import SPECS, World  # noqa: E402


def bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=120, check=False,
    )


def smoke(workload, seed, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--backend", "simulated")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(line for line in lines if line.startswith('{"canary')))
    return result, info


@pytest.fixture
def world(tmp_path):
    def make(name, seed="7:0"):
        return World(SPECS[name], simulated(), seed, str(tmp_path / name))

    return make


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_workload_runs_clean_and_fingerprint_repeats(workload):
    first, info = smoke(workload, 5)
    second, again = smoke(workload, 5)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json")
                                          .read_text())["end_to_end"]}
    assert set(first["metrics"]) == names
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert info["canary_rejected"]
    assert info["fingerprint"] == again["fingerprint"]
    assert again["fingerprint_repeats"]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_traced_run_reports_every_layer(workload):
    result, info = smoke(workload, 6, trace=1)
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json")
                                          .read_text())["per_layer"]}
    assert result["correct"]
    assert set(result["metrics"]) == names
    assert info["trace_coverage_ok"], info["trace_coverage"]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_oracle_flags_a_wrong_answer(world, workload):
    w = world(workload)
    full = ("Q", 0, 0, w.spec.domain - 1)
    assert w.run_op(full)
    # A record the user could read appears in the ground truth only: the
    # verified answer no longer matches it.
    free = next(k for k in range(w.spec.domain) if (k,) not in w.shadow["R"])
    role = sorted(w.users[0]["roles"])[0]
    w.shadow["R"][(free,)] = (b"phantom", ((role,),))
    assert not w.run_op(full)
    w.close()


def test_canary_rejects_forgery_and_honest_answer_verifies(world):
    w = world("cold-scan")
    assert w.canary()
    entry = min(w.users, key=lambda e: len(e["roles"]))
    honest = w.sp.range_query("R", (0,), (w.spec.domain - 1,), entry["roles"],
                              rng=random.Random(0))
    entry["user"].verify(honest)
    w.close()


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    assert run.tail(list(range(1000)))[0] == 99
    assert run.tail([3.0, 1.0, 2.0]) == (50, 2.0)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "hot-reads", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
