"""Text report of one run-set: per workload, where the time went.

    python3 bench/report.py [RUNSET.json]

Defaults to the newest run-set under ``bench/raw/``.  For each workload
it prints the end-to-end medians and, when the run-set was taken with
``--trace``, the stacked layer table: the self time of every span name
(its duration minus what its child spans cover) as a share of all
recorded self time, largest first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        path = Path(argv[0])
    else:
        found = sorted((Path(__file__).parent / "raw").glob("runset_*.json"))
        if not found:
            print("no run-set under bench/raw/; run bench/run.py --seed S --trace first")
            return 1
        path = found[-1]
    with open(path) as fh:
        run = json.load(fh)
    meta = run["meta"]
    print(f"{path.name}: commit {meta['commit'][:12]}, seed {meta['seed']}, "
          f"{meta['nproc']} x {meta['cpu']}, {meta['compiler']}")
    workloads = list(dict.fromkeys(r["workload"] for r in run["records"]))
    for name in workloads:
        # A run that failed outright is a record without metrics.
        mine = [r for r in run["records"] if r["workload"] == name and r["metrics"]]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        print(f"\n{name}")
        for metric in (plain[0]["metrics"] if plain else {}):
            vals = [r["metrics"][metric]["value"] for r in plain]
            unit = plain[0]["metrics"][metric]["unit"]
            print(f"  {metric:16s} {statistics.median(vals):14.6g} {unit:4s} "
                  f"(median of {len(vals)} run(s))")
        if not traced:
            continue
        record = traced[-1]
        self_ms = record["notes"].get("self_time_ms", {})
        total = sum(self_ms.values()) or 1.0
        print(f"  layer self time over the traced run ({total:.1f} ms recorded):")
        for span, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            bar = "#" * round(40 * ms / total)
            print(f"    {span:28s} {ms:12.3f} ms {100 * ms / total:6.2f} %  {bar}")
        for key, value in record["notes"].items():
            if key not in ("self_time_ms", "op"):
                print(f"  {key}: {json.dumps(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
