"""Host-speed reference: a fixed kernel timed between the benchmark's segments.

A shared host's speed swings by tens of percent, in modes that can last
for minutes, so the same pass can take 0.75 s in one run and 1.1 s in
the next.  The benchmark times this kernel before and after every
set-up and pass and scales each segment's host time by how slow the
kernel ran around it::

    reference_s = host_s * (REFERENCE_S / kernel_s) ** sensitivity

``REFERENCE_S`` is what the kernel takes on a quiet host, so a reference
second reads roughly as a host second there.  ``sensitivity`` is set
per workload (``HostClock``).  The kernel does not touch the simulator:
a change to ``src/`` moves a segment's host time but not the kernel's,
and the scaled figure moves by the same share.  It mixes the work the
simulator's hot paths do (method calls, attribute and dict access,
integer arithmetic, small numpy calls) so that a host slow-down slows
both alike.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# Roughly the kernel's host time on a quiet 2-CPU Xeon host.
REFERENCE_S = 0.1
ROUNDS = 30_000


@dataclass(frozen=True)
class _Coord:
    bank: int
    row: int
    col: int


class _Cache:
    """A set-associative LRU cache of line tags, one ordered dict per set."""

    def __init__(self, sets: int = 4096, ways: int = 8):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        ways = self.sets[(address >> 6) & (len(self.sets) - 1)]
        tag = address >> 18
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways[tag] = None
        if len(ways) > self.ways:
            ways.popitem(last=False)
        return False


def _split(address: int) -> _Coord:
    return _Coord(bank=(address >> 13) & 15, row=(address >> 17) & 0x3FFF, col=address & 0x1FFF)


def kernel() -> int:
    """The fixed reference work; returns a checksum so it is not optimised away.

    Bursts of nearby accesses at pseudo-random bases, through an LRU
    cache whose misses count row activations in a numpy array.
    """
    cache = _Cache()
    activations = np.zeros((16, 0x4000), dtype=np.int64)
    state = 12345
    base = 0
    for step in range(ROUNDS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if step % 32 == 0:
            base = state & ~0xFFFF
        address = base | (state & 0xFFC0)
        if not cache.access(address):
            coord = _split(address)
            activations[coord.bank, coord.row] += 1
    return cache.hits + int(activations.sum())


def kernel_s() -> float:
    """Host seconds of one run of ``kernel``."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Scales segments of host time by the kernel runs on either side of them.

    ``sensitivity`` is how strongly the workload's host time follows the
    kernel's: the slope of log segment time against log kernel time over
    runs on a shared host.  Interpreter-bound workloads follow it fully
    (1.0); a workload that spends much of its time in C (unpickling,
    numpy) slows less when the host does.

    Call ``segment(host_s)`` right after each timed segment; the kernel
    run that follows it also serves as the one before the next segment.
    """

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self.kernel_samples_s = [kernel_s()]

    def segment(self, host_s: float) -> float:
        """``host_s`` in reference seconds."""
        self.kernel_samples_s.append(kernel_s())
        around = (self.kernel_samples_s[-2] + self.kernel_samples_s[-1]) / 2
        return host_s * (REFERENCE_S / around) ** self.sensitivity
