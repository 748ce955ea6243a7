"""Shared measurement helpers: results, pass loops, percentiles."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Result:
    """One workload run: correctness tallies plus metrics by name."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Extra figures for the human-readable lines: name -> (value,
    #: unit, note), e.g. a sample count.
    notes: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def note(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.notes[name] = (value, unit, note)


class Units:
    """Wall time of each unit of a pass (a program run, an
    ``execute_plan`` or ``collect()`` call, a service round) over a
    run's passes.  The same unit does the same work in every pass."""

    def __init__(self) -> None:
        self.seconds: dict[object, list[float]] = {}

    def add(self, key: object, seconds: float) -> None:
        self.seconds.setdefault(key, []).append(seconds)

    def fastest_pass(self) -> float:
        """A pass with every unit at its fastest: the host's slow
        phases, which last seconds, rarely cover one unit in every
        pass, so this moves far less between runs than a pass's
        median does."""
        return sum(min(values) for values in self.seconds.values())


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (needs at least one)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[min(len(ordered), int(rank)) - 1]


def timed_passes(run_pass, seconds: float) -> list[float]:
    """Repeat ``run_pass`` while another pass still fits in
    ``seconds``; always at least one.  Returns each pass's wall time."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return walls


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.  Forked marker
    workers share their parent's pages and are not added."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
