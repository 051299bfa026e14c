"""Statistics and correctness checks shared by the benchmark's parts."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def tail_percentile(samples: Sequence[float], target: float = 0.99,
                    beyond: int = 10) -> Tuple[Optional[float],
                                               Optional[float]]:
    """(percentile, value): ``target`` when at least ``beyond`` samples
    lie above it, else the highest percentile that has ``beyond`` above.

    Nearest rank: the value at rank ``ceil(q * n)``, so exactly
    ``n - ceil(q * n)`` samples lie beyond it.
    """
    n = len(samples)
    if n == 0:
        return None, None
    q = min(target, 1.0 - beyond / n) if n > beyond else 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    return q, ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def interpolate(marks: Sequence[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear y at ``x`` over ``(x, y)`` marks sorted by x."""
    for (x0, y0), (x1, y1) in zip(marks, marks[1:]):
        if x <= x1:
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return marks[-1][1]


def history_growth(marks: Sequence[Tuple[float, float]]) -> float:
    """CPU per submission in the last quarter over the second quarter.

    ``marks`` are cumulative ``(submissions finished, CPU seconds)``
    readings starting at ``(0, 0)``.
    """
    total = marks[-1][0]
    q1, q2, q3, q4 = (interpolate(marks, total * k / 4) for k in (1, 2, 3, 4))
    return (q4 - q3) / (q2 - q1) if q2 > q1 else math.inf


def jain(values: Sequence[float]) -> float:
    values = list(values)
    square_sum = sum(v * v for v in values)
    if not values or square_sum == 0:
        return 0.0
    return sum(values) ** 2 / (len(values) * square_sum)


# ------------------------------------------------------------ correctness

def check_trace_report(report: Dict) -> List[str]:
    """Problems with an in-process replay's outcome (empty: correct)."""
    problems = []
    accounted = (report["completed"] + report["cached"] + report["rejected"]
                 + report["unplaceable"])
    if report["submitted"] != accounted:
        problems.append(
            f"submitted {report['submitted']} != completed + cached + "
            f"rejected + unplaceable = {accounted}")
    if report["accounting_drift"]:
        problems.append("budget accounting drift: "
                        + "; ".join(report["accounting_drift"]))
    if report["unfinished"]:
        problems.append(f"{report['unfinished']} accepted submission(s) "
                        f"have no result after the final drain")
    finished = report["completed"] + report["cached"]
    if len(report["latencies_ms"]) != finished:
        problems.append(f"{len(report['latencies_ms'])} latency samples for "
                        f"{finished} finished submissions")
    return problems


def check_gateway_report(report: Dict) -> List[str]:
    """Problems with a gateway run's stream (empty: correct).

    Every accepted seq must get exactly one ``result`` event, marked
    ``done``, and each watch's ``event_seq`` values must run 0, 1, 2, ...
    with no gap or repeat.
    """
    problems = []
    results = report["results"]
    accepted = set(report["accepted"])
    for seq in report["accepted"]:
        count = results.get(seq, 0)
        if count != 1:
            problems.append(f"seq {seq}: {count} result events")
    for seq in results:
        if seq not in accepted:
            problems.append(f"seq {seq}: result for a seq never accepted")
    if report["not_done"]:
        problems.append(f"{len(report['not_done'])} result event(s) without "
                        f"done=true")
    for seq, event_seqs in report["event_seqs"].items():
        if event_seqs != list(range(len(event_seqs))):
            problems.append(f"seq {seq}: event_seq not contiguous "
                            f"({event_seqs[:8]})")
            break
    accounted = len(report["accepted"]) + sum(report["rejected"].values())
    if accounted != report["attempted"]:
        problems.append(f"attempted {report['attempted']} != accepted + "
                        f"rejected = {accounted}")
    return problems
