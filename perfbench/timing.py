"""Drift-corrected timing of short operations.

The host's speed drifts by up to a factor of two within a minute, so a raw
wall-clock time says more about the host than about the code.  Every timed
operation is therefore bracketed by a fixed reference loop, and its time is
rescaled to the loop's nominal speed:

    normalised = raw * REF_NOMINAL_S / median(reference loops around it)

The loop is pure Python, calls nothing in flutes, and runs with the cycle
collector paused, so garbage the program left behind is never collected on
the loop's clock.
"""

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

# Duration of one reference loop at the speed the figures are scaled to: the
# fastest of many loops on the machine the README's figures come from.
REF_NOMINAL_S = 0.00120

# Reference loops on each side of an operation whose median sets its scale.
WINDOW = 5


@dataclass(frozen=True)
class _Leaf:
    value: int


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


def _tree(n):
    if n <= 1:
        return _Leaf(n)
    return _Pair(_tree(n // 2), _tree(n - n // 2 - 1))


def _total(t, acc):
    if isinstance(t, _Leaf):
        return acc + t.value
    return _total(t.right, _total(t.left, acc))


def _reference_loop() -> int:
    """Builds and walks small trees of frozen dataclass instances, with
    isinstance dispatch, recursion and tuple-keyed dict stores: the kind of
    work flutes does, so that the loop's speed follows the program's."""
    table = {}
    acc = 0
    for i in range(80):
        t = _tree(20)
        acc = _total(t, acc)
        table[(i & 7, t.left)] = acc
    return acc + len(table)


def reference() -> float:
    """Raw duration of one reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times operations between reference loops.

    An operation's scale factor is REF_NOMINAL_S over the median of the
    reference loops around it (WINDOW before and after, the adjacent ones
    included), so that one loop hit by a stall of the host does not
    rescale an operation on its own."""

    def __init__(self):
        self.loops: list[float] = []
        self.ops: list[tuple[float, int]] = []    # (raw seconds, loop before)

    def time(self, fn):
        """Run fn() between two reference loops; returns (result, op id)."""
        self.loops.append(reference())
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        self.ops.append((t1 - t0, len(self.loops) - 1))
        self.loops.append(reference())
        return result, len(self.ops) - 1

    def scale(self, op: int) -> float:
        i = self.ops[op][1]
        window = self.loops[max(0, i - WINDOW + 1):i + WINDOW + 1]
        return REF_NOMINAL_S / statistics.median(window)

    def seconds(self, op: int) -> float:
        """The operation's time at the reference loop's nominal speed."""
        return self.ops[op][0] * self.scale(op)
