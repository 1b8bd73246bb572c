"""Host speed probe for scaling CPU-bound timings to a reference speed.

On a shared host a vCPU's speed switches between levels up to about 2x
apart, for stretches of tens of milliseconds to minutes, whatever the
program does. A CPU-bound timing then measures the host more than the
program. The benchmark runs ``probe()``, a fixed pure-Python kernel that
imports nothing from the package under test, on the same CPU as the server
between calls, and divides each CPU-bound timing by the local speed factor
``probe time / REF_S``. A change to the program moves the scaled timing; a
change in host speed moves the probe by about as much and cancels out.
"""

from __future__ import annotations

import json
import statistics
import time

# Seconds one probe() takes at the reference speed: the fast level of a
# 2-vCPU KVM guest (Intel Xeon, 2.0 GHz, CPython 3.11.7). Scaled timings
# read as if measured at that speed.
REF_S = 0.000090

_DOC = {
    "records": [
        {"code": f"6{i:05d}.SH", "timestamp": f"2024-01-{i + 1:02d} 15:00:00", "close": 100 + i / 7, "turn": i / 3}
        for i in range(16)
    ]
}


def _kernel() -> int:
    """Dict, string, float and json work, the mix a tools/call spends its time on."""
    doc = json.loads(json.dumps(_DOC))
    acc = 0
    for rec in doc["records"]:
        out = {}
        for key, value in rec.items():
            out[key] = round(value, 6) if isinstance(value, float) else value
        acc += len(f"{out['code']}|{out['timestamp']}|{out['close']!r}")
    return acc


def probe() -> float:
    """Seconds one kernel run takes, timed after an untimed run that warms the caches.

    The warm-up keeps the server's cache footprint, which a change to the
    program may alter, out of the reading.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def factors(probes: list[float]) -> list[float]:
    """Speed factor for each call: the median of the five probes around it over REF_S.

    The median drops the odd probe an interrupt lengthened; five probes span
    a few to tens of milliseconds, shorter than most stretches at one speed.
    """
    return [statistics.median(probes[max(0, i - 2): i + 3]) / REF_S for i in range(len(probes))]


def factor_now() -> float:
    """Speed factor right now: the median of 24 back-to-back probes over REF_S."""
    return statistics.median(probe() for _ in range(24)) / REF_S
