"""Pure helpers: latency summaries, tail-percentile selection, digests.

Nothing here imports the program under test, so the helpers are unit-tested
on their own (``crispbench/test_helpers.py``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, highest first.  The rungs are far
#: apart so the chosen one usually has well over the minimum beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reported only when at least this many samples lie beyond it.
#: Ten is the least that supports a percentile at all; twenty keeps the tail
#: of one run from hinging on a handful of requests.
MIN_BEYOND = 20


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond.

    ``None`` when even the lowest rung is unsupported: ``n`` samples put
    ``n * (1 - p/100)`` of them beyond percentile ``p``.
    """
    for p in TAIL_LADDER:
        # Integer arithmetic in tenths of a percent: no float rounding at rungs.
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            return p
    return None


def latency_summary(seconds: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median and supported tail of a latency sample, in milliseconds."""
    values = np.asarray(seconds, dtype=np.float64) * 1e3
    n = int(values.size)
    p = tail_percentile(n)
    return {
        "n": n,
        "p50_ms": float(np.percentile(values, 50)) if n else None,
        "tail_p": p,
        "tail_ms": float(np.percentile(values, p)) if p is not None else None,
        "max_ms": float(values.max()) if n else None,
    }


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def digest(parts: Iterable[object]) -> str:
    """sha256 over a sequence of arrays / strings / numbers, order-sensitive.

    Arrays contribute dtype, shape and raw bytes, so the same values in
    another dtype or shape hash differently.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def pass_figures(passes: Sequence[Sequence[Tuple[float, float, bool]]],
                 images: int) -> Dict[str, float]:
    """Median over passes of each pass's median latency and throughput.

    Each pass is a sequence of ``(due, done, ok)`` in seconds; ``done`` is 0
    for a request that never completed.  A pass's latency median is over its
    answered requests, its throughput is answered images over the time from
    its first due request to its last completion.
    """
    p50s, rates = [], []
    for requests in passes:
        answered = [(due, done) for due, done, ok in requests if ok]
        completed = [done for _, done, _ in requests if done > 0]
        if answered:
            p50s.append(np.percentile([done - due for due, done in answered], 50) * 1e3)
        if completed:
            first_due = min(due for due, _, _ in requests)
            rates.append(len(answered) * images / max(1e-9, max(completed) - first_due))
    return {
        "p50_ms": median(p50s) if p50s else 0.0,
        "throughput": median(rates) if rates else 0.0,
        "pass_p50_ms": p50s,
        "pass_throughput": rates,
    }
