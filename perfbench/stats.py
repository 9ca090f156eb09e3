"""Summary statistics for the benchmark: percentiles, open-loop timing,
backlog and the sustained-rate search.

Pure functions over plain lists so the tests can drive them with synthetic
samples; nothing here imports the program under test.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Candidate percentiles, highest first. A tail is reported at the highest
#: one that still leaves at least ``MIN_BEYOND`` samples above it.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def _beyond(n: int, pct: float) -> float:
    """Samples above the ``pct`` percentile of ``n`` (rounded off the
    float error of ``100 - pct``)."""
    return round(n * (100.0 - pct) / 100.0, 9)


def supported_percentile(n: int) -> Optional[float]:
    """The highest ``PERCENTILE_LADDER`` percentile with at least
    ``MIN_BEYOND`` samples beyond it, or None when even the lowest rung is
    unsupported."""
    for pct in PERCENTILE_LADDER:
        if _beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The tail value and its label (``p99``, ``p95`` ..., or ``max`` when
    the sample is too small for any ladder percentile)."""
    pct = supported_percentile(len(values))
    if pct is None:
        return float(max(values)), "max"
    return percentile(values, pct), f"p{pct:g}"


def tail_at(values: Sequence[float], pct: float) -> Tuple[float, str]:
    """``pct`` when the sample supports it, else the rule's tail."""
    if _beyond(len(values), pct) >= MIN_BEYOND:
        return percentile(values, pct), f"p{pct:g}"
    return tail(values)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, rule tail with its label, and the sample count."""
    if not values:
        return {"n": 0}
    value, label = tail(values)
    return {"n": len(values), "p50": median(values), "tail": value,
            "tail_label": label}


# ---------------------------------------------------------------------------
# open-loop load generation
# ---------------------------------------------------------------------------
def due_times(start: float, rate: float, count: int) -> List[float]:
    """Evenly spaced send times: ``count`` arrivals at ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    step = 1.0 / rate
    return [start + i * step for i in range(count)]


def open_loop_latency(due: float, sent: float, done: Optional[float]
                      ) -> Tuple[Optional[float], float]:
    """(latency from the due time, generator lag) for one request.

    Latency counts from when the request was *due*, not when it was sent,
    so a stall that delays later sends is charged to them. A request that
    never completed has no latency (it misses every limit).
    """
    lag = max(0.0, sent - due)
    if done is None:
        return None, lag
    return done - due, lag


def latencies_with_misses(latencies: Sequence[Optional[float]]
                          ) -> List[float]:
    """Latencies with failed/unanswered requests mapped to infinity, so
    they count against any latency limit."""
    return [math.inf if x is None else x for x in latencies]


#: A backlog grows when it rose by more than this many requests, or by
#: ``BACKLOG_SHARE`` of the step's arrivals if that is more.
BACKLOG_SLACK = 2
BACKLOG_SHARE = 0.02


def backlog_grows(outstanding: Sequence[int], arrivals: int) -> bool:
    """True when the outstanding-request count trends upward over a step.

    ``outstanding`` is sampled at each arrival. The mean over the last
    quarter of the step is compared with the mean over the first quarter;
    the backlog grows if it rose by more than ``max(BACKLOG_SLACK,
    BACKLOG_SHARE * arrivals)`` requests. A queue that merely fluctuates
    stays flat.
    """
    n = len(outstanding)
    if n < 4:
        return False
    q = max(1, n // 4)
    first = sum(outstanding[:q]) / q
    last = sum(outstanding[-q:]) / q
    return last - first > max(BACKLOG_SLACK, BACKLOG_SHARE * arrivals)


def rung_passes(tail_ms: float, grows: bool, limit_ms: float) -> bool:
    """A rate is sustained when its tail latency is within ``limit_ms``
    and its backlog did not grow."""
    return tail_ms <= limit_ms and not grows


#: The rate search: rungs ``LADDER_FACTOR`` apart above the base rate (at
#: most ``LADDER_RUNGS``), then ``BISECT_STEPS`` geometric bisections
#: between the last sustained and the first failed rung, which leaves a
#: resolution of ``LADDER_FACTOR ** (1 / 2 ** BISECT_STEPS)`` (about 5%).
LADDER_FACTOR = 1.5
LADDER_RUNGS = 6
BISECT_STEPS = 3


def find_max_rate(passes: Callable[[float], bool], base: float) -> float:
    """The highest rate found sustained, searching above ``base`` (which
    the caller has found sustained). ``passes(rate)`` runs one step at
    ``rate``. Returns the top rung when no rung fails."""
    lo, hi = base, None
    for _ in range(LADDER_RUNGS):
        rate = lo * LADDER_FACTOR
        if not passes(rate):
            hi = rate
            break
        lo = rate
    if hi is None:
        return lo
    for _ in range(BISECT_STEPS):
        mid = math.sqrt(lo * hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
