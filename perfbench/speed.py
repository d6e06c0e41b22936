"""A host-speed reference, so CPU-bound timings survive a host that drifts.

Shared hosts change speed under the benchmark: on the 2-vCPU Xeon VM the
benchmark was written on, the same scenario pass took 1.5 s in one
quarter of an hour and 3.7 s in the next, and the speed also flickered
within a pass, with every other timing moving in step.  A small fixed
pure-Python *chunk* that touches no ``repro`` code (a heap of timed
events, generator resumes, small dicts and method calls, the interpreter
work the simulator itself does) is timed alongside each measurement, and
CPU-bound timings are reported as *reference seconds*::

    reference seconds = host seconds * REFERENCE_S / mean chunk seconds

so they read roughly as host seconds on a host where a chunk takes
``REFERENCE_S``.  While work is measured, a :class:`Sampler` interrupts it
every ``PERIOD`` seconds to time one chunk, so the chunks sample the
host's speed over the same moments as the work.  Its
:meth:`Sampler.reference_now` clock leaves the ticks out and scales each
stretch of work between two ticks by the chunk that ends it; on that VM,
``client_server`` passes in one process read within 1% of each other on
it while their host times ranged over a fifth.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Callable, List, Optional

__all__ = ["REFERENCE_S", "Sampler", "loop_seconds"]

#: a fixed scale: about a chunk's time in the fast state of the host the
#: benchmark was written on (only its constancy matters)
REFERENCE_S = 0.0003
#: loop iterations of one chunk
CHUNK = 600
#: chunks of one standalone reading (:func:`loop_seconds`)
READING_CHUNKS = 100
#: a :class:`Sampler`'s interval between chunks (s)
PERIOD = 0.01


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def _loop(n: int) -> int:
    heap = []
    seen = {}

    def process(counter):
        while True:
            seen[id(counter) & 63] = counter.add((yield))

    processes = [process(_Counter()) for _ in range(64)]
    for proc in processes:
        next(proc)
    now = 0.0
    batch = []
    for i in range(n):
        heapq.heappush(heap, (now + (i * 7919 % 1000) / 1000.0, i, i & 63))
        if len(heap) > 256:
            now, _, k = heapq.heappop(heap)
            processes[k].send(i)
            batch.append({"t": now, "k": k})
            if len(batch) > 512:
                batch = []
    return len(seen)


def _chunk_seconds() -> float:
    """One chunk's time, with the collector paused.

    Pausing the collector keeps the chunk independent of how many objects
    the measured program has alive in this process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(CHUNK)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def loop_seconds() -> float:
    """Mean chunk time over one standalone reading.

    A mean, not a median: measured work absorbs the host's slow moments
    too, so the reading should.
    """
    return statistics.fmean(_chunk_seconds() for _ in range(READING_CHUNKS))


class Sampler:
    """Times one chunk every ``PERIOD`` seconds while work runs.

    A context manager for the main thread (it uses ``SIGALRM``).  Inside
    it, :meth:`now` is a work clock in host seconds: ``time.perf_counter()``
    less the time spent in ticks so far, so spans read from it leave the
    ticks out; :meth:`reference_now` is its reference-seconds twin.  A
    ``probe``, if given, runs on every tick just before the chunk, so a
    small operation it times can be scaled by the chunk taken at the same
    moment of the host.
    """

    def __init__(self, probe: Optional[Callable[[], None]] = None) -> None:
        self.chunks: List[float] = []
        #: called on every tick just before its chunk
        self.probe = probe
        self._paused = 0.0
        self._reference = 0.0
        self._resumed = time.perf_counter()
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if self.probe is not None:
            self.probe()
        chunk = _chunk_seconds()
        self.chunks.append(chunk)
        self._reference += (t0 - self._resumed) * REFERENCE_S / chunk
        self._resumed = time.perf_counter()
        self._paused += self._resumed - t0

    def now(self) -> float:
        while True:  # retry if a tick ran between the two reads
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:
                return now - paused

    def reference_now(self) -> float:
        """A work clock in reference seconds.

        The work between two ticks is scaled by the chunk that ends it,
        so a slow spell slows this clock as much as it slows the work;
        the work since the last tick, by the last chunk.
        """
        while True:  # retry if a tick ran between the reads
            resumed = self._resumed
            reference = self._reference
            now = time.perf_counter()
            if resumed == self._resumed:
                chunk = self.chunks[-1] if self.chunks else REFERENCE_S
                return reference + (now - resumed) * REFERENCE_S / chunk

    def __enter__(self) -> "Sampler":
        self._resumed = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
