"""The repository's benchmark: eight workloads from stencil source to gradient.

One workload, the form the benchmark driver calls (last stdout line is
the result object)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload ``K`` times untraced and (with ``--trace``) once traced,
one fresh child interpreter at a time; prints every metric by name with
unit and sample count, writes the raw run-set under ``bench/raw/`` and
appends one line to ``bench/history.jsonl``::

    python3 bench/run.py --seed S [--trace] [--repeat K] [--out FILE]

Compare two run-sets of at least four repetitions each against the
bounds in ``BENCHMARK.json`` (the noise self-check today, the regression
gate later)::

    python3 bench/run.py --compare A.json B.json

See ``bench/README.md`` for the metric and workload glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from harness import BENCH_DIR, ROOT, load_spec, shm_segments, socket_files

CHILD_TIMEOUT_S = 170  # the driver allows a run 180 s
WORK = ROOT / ".bench_work"
TOY = WORK / "toy"  # toy runs' shared .so cache and traces; the smoke test removes it
# What each workload's one operation is, for the printed tables.
OPERATION = {
    "cold_wave2d": "time to first gradient",
    "dispatch_heat2d": "one bound timestep",
    "sweep_heat2d": "one bound timestep",
    "python_wave3d": "one bound timestep",
    "revolve_wave2d": "one checkpointed gradient sweep",
    "serve_small": "one served request (p50)",
    "serve_bulk": "one served request (p50)",
    "shard_heat2d": "one sharded step + rotation",
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int, toy: bool) -> dict:
    """Run one workload in a fresh interpreter with a clean environment.

    The child gets its own work directory inside the checkout (kernel
    cache, temp files, sockets); afterwards anything it left behind —
    processes, sockets, shared-memory segments — is removed and counted
    as failed operations.
    """
    work = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    (work / "tmp").mkdir(parents=True)
    env = {
        k: v for k, v in os.environ.items()
        if k in ("PATH", "HOME", "LANG", "LC_ALL", "LD_LIBRARY_PATH", "REPRO_CC")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Toy runs (the smoke test) share one .so cache so cc runs once per kernel.
        REPRO_CACHE_DIR=str(TOY / "cache" if toy else work / "cache"),
        TMPDIR=str(work / "tmp"),
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    out = work / "record.json"
    trace_out = (TOY if toy else BENCH_DIR / "raw") / f"trace_{workload}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(work), "--out", str(out),
        "--trace-out", str(trace_out),
    ] + (["--toy"] if toy else [])
    shm_before = shm_segments()
    proc = subprocess.Popen(cmd, env=env, cwd=work, start_new_session=True)
    try:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        # The child led its own process group: whatever is still in it leaked.
        leaked_procs = _kill_group(proc.pid)
        proc.wait()
        if code is None:
            raise ChildFailed(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
        if code != 0 or not out.exists():
            raise ChildFailed(f"{workload} exited with code {code}")
        with open(out) as fh:
            record = json.load(fh)
        leaks = []
        if leaked_procs:
            leaks.append(f"{leaked_procs} process(es) outlived the workload")
        for seg in sorted(shm_segments() - shm_before):
            if _orphaned(seg):  # not a live neighbour's segment
                try:
                    os.unlink(seg)
                except FileNotFoundError:
                    continue  # a neighbour's after all: it has just removed it itself
                leaks.append(f"shared-memory segment left behind: {seg}")
        for sock in socket_files(work):
            leaks.append(f"socket left behind: {sock}")
        record["attempted"] += 3  # the three leak checks above
        record["failed"] += len(leaks)
        record["failures"] += leaks
        record["correct"] = record["failed"] == 0
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when this was the last run in it
        except OSError:
            pass


def _orphaned(segment: str) -> bool:
    """True when no live process maps *segment* (another benchmark or test
    running beside this one may own segments that appeared meanwhile)."""
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if segment in (entry / "maps").read_text():
                    return False
            except OSError:
                pass
    return True


def _group_members(pgid: int) -> int:
    """Live processes in the group besides its leader.  A zombie has
    exited and only waits for init to reap it (about 2 s in a container)."""
    count = 0
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and int(entry.name) != pgid:
            try:
                state = (entry / "stat").read_text().rpartition(")")[2].split()[0]
                count += os.getpgid(int(entry.name)) == pgid and state != "Z"
            except OSError:
                pass
    return count


def _kill_group(pgid: int) -> int:
    """How many processes of the child's group outlived it; kills them.

    multiprocessing's resource tracker exits on its own once its parent
    is gone, so the group gets two seconds to empty before it is judged.
    """
    deadline = time.monotonic() + 2.0
    while (alive := _group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass
    return alive


def result_line(record: dict) -> str:
    """The driver's result object: exactly these keys, value and unit only."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def print_record(record: dict) -> None:
    name = record["workload"]
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"{name}  seed={record['seed']}  {kind}  [{OPERATION[name]}]")
    for metric, m in record["metrics"].items():
        if m["samples"]:  # a layer off this workload's path reads 0 with n=0
            print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_share':34s} {share:>16.6g} {'ratio':6s} "
          f"n={record['attempted']} ({record['failed']} failed)")
    for failure in record["failures"]:
        print(f"    FAILED: {failure}")
    for key, value in record["notes"].items():
        if key != "self_time_ms":
            print(f"  note {key}: {json.dumps(value)}")


# -- run-sets, history, compare -----------------------------------------------


def environment() -> dict:
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.splitlines()[0] if out else "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([os.environ.get("REPRO_CC", "cc"), "--version"]),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
    }


def run_set(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    records = []
    for rep in range(args.repeat):
        for name in names:
            # The traced run supplies the per-layer numbers; once a set is enough.
            for trace in ([0, 1] if args.trace and rep == 0 else [0]):
                try:
                    record = run_child(name, args.seed, args.seconds, trace, args.toy)
                except ChildFailed as exc:
                    # One failed operation, no metrics; the set goes on and returns 1.
                    record = {
                        "workload": name, "seed": args.seed, "seconds": args.seconds,
                        "trace": trace, "toy": args.toy, "correct": False, "attempted": 1,
                        "failed": 1, "failures": [str(exc)], "metrics": {}, "notes": {},
                    }
                print_record(record)
                records.append(record)
    meta = {**environment(), "seed": args.seed, "seconds": args.seconds,
            "repeat": args.repeat, "unix_time": round(time.time(), 1), "toy": args.toy}
    run = {"meta": meta, "records": records}
    raw = BENCH_DIR / "raw"
    raw.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else raw / f"runset_{int(meta['unix_time'])}_seed{args.seed}.json"
    with open(out, "w") as fh:
        json.dump(run, fh, indent=1)
    print(f"wrote {out}")
    if args.repeat >= 4:
        print_spreads(run, spec)
    if not args.toy:
        line = {**meta, "end_to_end": medians(run, spec)}
        with open(BENCH_DIR / "history.jsonl", "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


def values(run: dict, workload: str, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"] for r in run["records"]
        if r["workload"] == workload and not r["trace"] and metric in r["metrics"]
    ]


def medians(run: dict, spec: dict) -> dict:
    return {
        w["name"]: {
            m["name"]: statistics.median(vals)
            for m in spec["end_to_end"] if (vals := values(run, w["name"], m["name"]))
        }
        for w in spec["workloads"]
    }


def spread(vals: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs four runs)."""
    if len(vals) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def print_spreads(run: dict, spec: dict) -> None:
    print("run-to-run spread (interquartile distance / median), against bound / 3:")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            s = spread(values(run, w["name"], m["name"]))
            if s is not None:
                flag = "" if s <= m["bound"] / 3 else "  <-- above bound/3"
                print(f"  {w['name']:18s} {m['name']:16s} {s:8.4f}  (bound {m['bound']}){flag}")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per workload x end-to-end metric: B against base A, within the bound?

    ``unresolved``: a side has fewer than four runs of the workload, so
    its run-to-run spread is unknown (take run-sets with ``--repeat 4``
    or more), or a side's spread exceeds the bound and the runs overlap,
    so the medians cannot be told apart.  ``regressed``: B's median is
    worse than A's by more than the bound.  ``ok`` otherwise.
    """
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"base A = {path_a} (commit {a['meta']['commit'][:12]}), "
          f"B = {path_b} (commit {b['meta']['commit'][:12]})")
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'worse':>8s} {'bound':>6s}  status")
    bad = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            va, vb = values(a, w["name"], m["name"]), values(b, w["name"], m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = m["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spreads = (spread(va), spread(vb))
            b_wins = max(vb) < min(va) if lower else min(vb) > max(va)
            if None in spreads or (max(spreads) > m["bound"] and not b_wins):
                status = "unresolved"
            elif worse > m["bound"]:
                status = "regressed"
            else:
                status = "ok"
            bad += status != "ok"
            print(f"{w['name']:18s} {m['name']:16s} {ma:12.5g} {mb:12.5g} "
                  f"{mb / ma:8.4f} {worse:+8.4f} {m['bound']:6.2f}  {status}")
    for label, run in (("A", a), ("B", b)):
        failed = sum(r["failed"] for r in run["records"])
        print(f"{label}: {failed} failed of {sum(r['attempted'] for r in run['records'])} attempted")
        bad += failed > 0
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--toy", action="store_true", help="tiny sizes (smoke test)")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_set(args, spec)
    if args.workload not in OPERATION:
        print(f"unknown workload {args.workload!r}; have {sorted(OPERATION)}", file=sys.stderr)
        return 2
    try:
        record = run_child(args.workload, args.seed, args.seconds, args.trace, args.toy)
    except ChildFailed as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
