"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs every workload at toy size through the driver's command line with
``--trace 1``, and one of them with ``--trace 0`` as well, two children
at a time.  It checks the contract, not the numbers: the result object's
shape, that every metric ``BENCHMARK.json`` names comes back with its
unit, the naming and count limits, a loadable Chrome trace, and that no
socket, shared-memory segment or child process is left behind.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from harness import shm_segments
from repro.runtime import native_available

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TOY = WORK / "toy"  # run.py keeps toy runs' .so cache and traces here
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PYTHON_ONLY = {"python_wave3d", "serve_small", "serve_bulk"}


def run_toy(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, f"{workload} --trace {trace} failed:\n{proc.stderr[-2000:]}"
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_workload_emits_every_metric():
    names = [w["name"] for w in SPEC["workloads"]]
    if not native_available():
        names = [n for n in names if n in PYTHON_ONLY]
    jobs = [(n, 1) for n in names] + [("serve_small", 0)]
    before = shm_segments()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda job: run_toy(*job), jobs))
        check_results(jobs, results)
    finally:
        shutil.rmtree(TOY, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    assert shm_segments() == before
    assert not WORK.exists() or not any(p.is_socket() for p in WORK.rglob("*"))


def check_results(jobs, results):
    for (workload, trace), result in zip(jobs, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        # run.py counts leaked sockets, segments and processes as failures.
        assert result["correct"] is True and result["failed"] == 0, (workload, result)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if trace:
            with open(TOY / f"trace_{workload}.json") as fh:
                events = json.load(fh)["traceEvents"]
            assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values()), workload
