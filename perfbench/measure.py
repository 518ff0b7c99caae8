"""Timing primitives shared by run.py and its workers.

Operations run one at a time in a closed loop.  Each runs under a
deadline; a failed operation (timeout, exception, wrong output) is
charged at the deadline, so a fix that turns a failure into a success
never reads as a slowdown.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Sequence

# reference()'s time on a 2-vCPU x86-64 VM when its core is not shared.
# Every gated time is scaled to a host on which it takes this long.
REF_S = 0.0011

# Tail percentiles are chosen from this ladder: the highest one that
# leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


class DeadlineExceeded(Exception):
    """Raised by the interval-timer alarm when an operation overruns."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def install_alarm() -> None:
    """Route SIGALRM to DeadlineExceeded; call once per process."""
    signal.signal(signal.SIGALRM, _on_alarm)


def reference() -> float:
    """Seconds a fixed pure-Python loop takes now: the median of three runs.

    It calls no keikit code, so a change to keikit cannot move it; it
    tracks how fast the host runs this process, which on a shared host
    switches between two speeds 1.7x apart, from second to second and
    for minutes, as other tenants come and go.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(8000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Reference-loop times taken between the operations of a pass.

    after(done) takes a sample once every_s has passed since the last
    one; marks holds (operations done, reference seconds) pairs, from
    (0, ...) before the first operation to one after the last.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.marks: list[tuple[int, float]] = []
        self.spent = 0.0  # seconds spent in the samples themselves
        self.sample(0)

    def sample(self, done: int) -> None:
        t0 = time.perf_counter()
        self.marks.append((done, reference()))
        self._next = time.perf_counter() + self.every_s
        self.spent += self._next - self.every_s - t0

    def after(self, done: int) -> None:
        if time.perf_counter() >= self._next:
            self.sample(done)

    def close(self, done: int) -> list[tuple[int, float]]:
        if self.marks[-1][0] != done:
            self.sample(done)
        return self.marks


def scaled(latencies: Sequence[float], marks: Sequence[Sequence[float]]) -> list[float]:
    """Each latency at reference speed: times REF_S over the lesser of the
    reference samples taken just before and just after it ran.

    The lesser sample scales an operation down only when the host was
    slow at both ends of it; an operation that was slow at one end only
    keeps its time, and fastest_blocks drops it if another pass ran faster.
    """
    out = []
    j = 0
    for i, t in enumerate(latencies):
        while marks[j + 1][0] <= i:
            j += 1
        out.append(t * REF_S / min(marks[j][1], marks[j + 1][1]))
    return out


@dataclass
class Outcome:
    """One operation: its wall time, and its value or the reason it failed."""

    seconds: float
    value: object = None
    error: str | None = None


def run_op(op: Callable[[], object], deadline_s: float) -> Outcome:
    """Run op under a one-shot interval-timer alarm of deadline_s."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            value = op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome(time.perf_counter() - t0, error=f"timeout after {deadline_s} s")
    except Exception as exc:  # any escaping exception is a failed operation
        return Outcome(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - t0, value=value)


@dataclass
class Child:
    """A finished child process, reaped with os.wait4."""

    seconds: float
    returncode: int | None  # None when killed at the deadline
    maxrss_mb: float
    spawned_at: float  # time.monotonic() just before the spawn


def run_child(argv: Sequence[str], deadline_s: float, stdout, stderr, env=None, cwd=None) -> Child:
    """Run one child to completion or kill it at deadline_s.

    Peak RSS comes from the rusage os.wait4 returns for this child alone;
    RUSAGE_CHILDREN would keep the maximum over every earlier child.
    """
    spawned_at = time.monotonic()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    timed_out = False
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        timed_out = True
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    code = None if timed_out else proc.returncode
    return Child(seconds, code, usage.ru_maxrss / 1024.0, spawned_at)


def charged(outcomes_ok: Sequence[tuple[float, bool]], deadline_s: float) -> list[float]:
    """Latencies with every failed operation charged at the deadline."""
    return [t if ok else deadline_s for t, ok in outcomes_ok]


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder
    percentile with at least TAIL_MIN_BEYOND samples above it.

    Uses the nearest-rank definition.  Falls back to the median when
    there are too few samples for any ladder step.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    best = (50.0, ordered[math.ceil(0.5 * n) - 1], n - math.ceil(0.5 * n))
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank < TAIL_MIN_BEYOND:
            break
        best = (q, ordered[rank - 1], n - rank)
    return best


def fastest_blocks(passes: Sequence[Sequence[float]], block_s: float) -> float:
    """One pass's time with each block of operations at its fastest.

    Consecutive operations form a block until their time in the first
    pass reaches block_s; a longer operation is a block of its own.  The
    result sums each block's least time over the passes.  On a shared
    host other tenants slow whole stretches of seconds by up to 2x; blocks
    of a few tens of ms, timed in passes spread over the run, mostly have
    one sample outside those stretches, which a median of whole passes
    does not.
    """
    total = 0.0
    block = [0.0] * len(passes)
    for column in zip(*passes):
        block = [b + t for b, t in zip(block, column)]
        if block[0] >= block_s:
            total += min(block)
            block = [0.0] * len(passes)
    return total + min(block)


def per_op_median(passes: Sequence[Sequence[float]]) -> list[float]:
    """Median of each operation's latency across passes over the same inputs."""
    return [statistics.median(column) for column in zip(*passes)]
