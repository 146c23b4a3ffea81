"""STREAM-style sustainable-bandwidth probe (copy and triad), NumPy only.

Feeds ``machine.*`` and ``sweep.bw_fraction``: the probe runs in the same
process as the sweep it is compared with, on arrays of the sweep's size,
so both see the same machine at the same moment.  Bytes are *computed*
from array sizes (STREAM's convention: explicit reads and writes, no
write-allocate traffic):

* copy  — ``np.copyto(a, b)``: 2 streams, 16 B per element;
* triad — ``a = b + s*c`` as NumPy can express it without a temporary,
  ``np.multiply(c, s, out=a); np.add(a, b, out=a)``: 5 streams, 40 B per
  element.

Run standalone: ``python bench/stream.py [elements]``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np


def llc_bytes() -> int:
    """Size of the largest cache level cpu0 reports, in bytes (0 if unknown)."""
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def probe(elements: int, reps: int = 5) -> dict:
    """Median copy and triad bandwidth over *reps* passes, in GB/s."""
    a = np.zeros(elements)
    b = np.full(elements, 1.0)
    c = np.full(elements, 2.0)
    copy_s, triad_s = [], []
    for _ in range(reps + 1):  # first pass faults the pages in; dropped
        t0 = time.perf_counter()
        np.copyto(a, b)
        t1 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        t2 = time.perf_counter()
        copy_s.append(t1 - t0)
        triad_s.append(t2 - t1)
    if not np.all(a == 7.0):
        raise RuntimeError("stream probe computed a wrong triad")
    return {
        "elements": elements,
        "array_bytes": a.nbytes,
        "llc_bytes": llc_bytes(),
        "copy_gbs": 16 * elements / statistics.median(copy_s[1:]) / 1e9,
        "triad_gbs": 40 * elements / statistics.median(triad_s[1:]) / 1e9,
        "reps": reps,
    }


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4097 * 4097
    r = probe(n)
    print(
        f"arrays {r['array_bytes'] / 2**20:.0f} MiB each, "
        f"LLC {r['llc_bytes'] / 2**20:.0f} MiB; "
        f"copy {r['copy_gbs']:.2f} GB/s, triad {r['triad_gbs']:.2f} GB/s "
        f"(median of {r['reps']}, computed bytes)"
    )
