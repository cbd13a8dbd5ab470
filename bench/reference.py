"""The host-speed reference: a fixed piece of pure-Python work, timed beside
the program's operations so that their times can be taken to a nominal host.

On a shared host the same code runs up to twice as fast in one minute as in
the next, for whole runs at a time, and no clock inside the machine tells
that apart from slower code. Timed right beside the operations, this call
slows with them: over 20 windows of 3 s, the best time of a warm
``lts-hall`` pass moved from 0.94 to 1.61 s while its ratio to the
reference calls interleaved with it stayed between 21.3 and 23.2.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REF_S = 0.25e-3         # time of one ``reference`` call on the nominal host
REF_EVERY_S = 0.01      # one reference call for every 10 ms of timed regions
SEGMENT_S = 0.5         # timed regions scaled by one mean of reference calls
REF_MIN = 10            # reference calls a segment, at least


def reference():
    """A fixed piece of pure-Python work in the program's idiom (tuple keys
    in a dict, ``Fraction`` sums, a sort) that uses nothing of the program:
    its time tells how fast the host runs Python code at that moment."""
    d = {}
    acc = Fraction(0)
    for i in range(600):
        k = (i % 97, i % 89, (i * 7) % 101)
        d[k] = d.get(k, 0) + 1
        if i % 40 == 0:
            acc += Fraction(i, 7)
    return sorted(d)[0], acc


def time_reference():
    """s for one call of ``reference``, with the cyclic collector held off so
    that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    reference()
    took = perf_counter() - t0
    if enabled:
        gc.enable()
    return took


def scale(ref_times):
    """REF_S over the mean of ``ref_times``: the factor that takes times
    measured beside those reference calls to the nominal host."""
    return REF_S * len(ref_times) / sum(ref_times)


class Scaler:
    """Takes the times of a sequence of timed regions to the nominal host.

    After every ``REF_EVERY_S`` of timed regions, so after a long region
    many times, ``add`` calls the reference; the regions are grouped into
    segments of ``SEGMENT_S`` or more, and each segment's times are scaled
    by the mean of the reference calls made during it (at least
    ``REF_MIN``, topped up when the segment closes). The segments are long
    enough to average out millisecond bursts and short enough to follow a
    slow phase that starts or ends within a pass."""

    def __init__(self):
        self.times = []         # scaled, once the segment closed
        self.refs = []          # s per reference call
        self._open = []         # (index, raw time) in the open segment
        self._open_s = 0.0
        self._open_refs = 0
        self._due = 0.0

    def add(self, took):
        self.times.append(took)
        self._open.append((len(self.times) - 1, took))
        self._open_s += took
        self._due += took
        while self._due >= REF_EVERY_S:
            self._call()
            self._due -= REF_EVERY_S
        if self._open_s >= SEGMENT_S:
            self.close()

    def _call(self):
        self.refs.append(time_reference())
        self._open_refs += 1

    def close(self):
        """Scales the open segment; call it after the last region."""
        if not self._open:
            return
        while self._open_refs < REF_MIN:
            self._call()
        factor = scale(self.refs[-self._open_refs:])
        for i, took in self._open:
            self.times[i] = took * factor
        self._open, self._open_s, self._open_refs = [], 0.0, 0
