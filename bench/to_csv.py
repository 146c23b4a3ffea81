"""Flatten raw run-sets (``bench/raw/runset_*.json``) into one CSV.

    python3 bench/to_csv.py [RUNSET.json ...] > metrics.csv

With no arguments every run-set under ``bench/raw/`` is read.  One row
per run x metric; ``report.py`` and any plotting start from this file,
so the trajectory can always be rebuilt from the raw records.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

COLUMNS = ("runset", "commit", "workload", "seed", "trace", "metric", "value", "unit", "samples")


def rows(paths):
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        for record in run["records"]:
            for metric, m in record["metrics"].items():
                yield (
                    Path(path).name, run["meta"]["commit"], record["workload"],
                    record["seed"], record["trace"], metric,
                    repr(m["value"]), m["unit"], m["samples"],
                )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or sorted((Path(__file__).parent / "raw").glob("runset_*.json"))
    writer = csv.writer(sys.stdout)
    writer.writerow(COLUMNS)
    writer.writerows(rows(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
