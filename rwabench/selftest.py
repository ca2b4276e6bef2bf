"""The benchmark's own tests.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest rwabench/selftest.py -q

Smoke-sized runs (``--seconds 0.5``) go through the same command the
full benchmark uses, so they exercise the correctness gate end to end.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS, build_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_SECONDS = "0.5"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, trace: int):
    """Run the benchmark command; (exit code, phases line, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join("rwabench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def trace_bytes(workload: str, seed: int) -> bytes:
    _graph, warmup, window = build_inputs(WORKLOADS[workload], seed, 0.5)
    return repr([(e.time, e.kind, e.request_id, e.request, e.dipath, e.arc)
                 for e in warmup + window]).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_trace(workload):
    assert trace_bytes(workload, 7) == trace_bytes(workload, 7)
    assert trace_bytes(workload, 7) != trace_bytes(workload, 8)


def test_spec_names():
    doc = spec()
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(workload):
    doc = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, phases, result = bench(workload, 3, trace)
        assert code == 0, phases["misses"]
        assert result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in doc[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name in got:
            assert NAME.fullmatch(name), name
        assert all(p["failed"] == 0 for p in phases["phases"].values())


def test_deterministic_metrics_repeat():
    """Same seed: same blocking, op counts and journal records/bytes."""
    runs = [bench("durable-faults", 5, 0) for _ in range(2)]
    (_, phases_a, a), (_, phases_b, b) = runs
    assert a["metrics"]["blocking"] == b["metrics"]["blocking"]
    assert phases_a["phases"] == phases_b["phases"]
    assert phases_a["events"] == phases_b["events"]
    assert a["attempted"] == b["attempted"]
    traced = [bench("durable-faults", 5, 1)[2]["metrics"] for _ in range(2)]
    for key in ("journal.records", "journal.bytes_per_record",
                "faults.cuts", "faults.restore_ratio", "gen.sent"):
        assert traced[0][key] == traced[1][key], key
