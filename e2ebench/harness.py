"""Measurement plumbing shared by the workloads.

* :class:`Tracer` -- spans recorded around calls into each layer's
  public functions.  A span is installed as a timing proxy on an
  *instance* attribute (``server.pump``, ``durable.wal.append_batch``,
  ``algorithm.view_publisher``, ...) and removed again afterwards, so the
  library itself is never modified.  Spans nest strictly (one thread), so
  a span's self time is its duration minus the durations of the spans it
  directly encloses.
* :func:`host_probe` -- fixed pure-Python and NumPy loops, timed before
  and after a run so a slowed host can be told apart from a regression.
* small statistics helpers.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

_ABSENT = object()


class Tracer:
    """In-memory span recorder with per-name self/total time and counters.

    ``self_ns[name]`` is the summed self time of every span called
    ``name``; ``counts`` holds work counters that the ``before`` /
    ``after`` bookkeeping hooks fill.  Hook time is the tracer's own cost: it
    is charged to ``bookkeeping_ns`` and removed from the enclosing span's
    self time, so it never inflates a layer.
    """

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_ns = 0
        self._frames: List[int] = []
        self._installed: List[tuple] = []

    # -- spans ------------------------------------------------------------------
    def _charge_bookkeeping(self, ns: int) -> None:
        self.bookkeeping_ns += ns
        if self._frames:
            self._frames[-1] += ns

    def wrap(self, name: str, fn: Callable, *, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.  ``before(*args)`` runs ahead of
        the span and its result is handed to ``after(result, token,
        *args)``, which runs once the span has closed."""
        frames = self._frames
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = None
            if before is not None:
                b0 = clock()
                token = before(*args)
                self._charge_bookkeeping(clock() - b0)
            frames.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = frames.pop()
                self.self_ns[name] += dur - child
                self.total_ns[name] += dur
                self.calls[name] += 1
                if frames:
                    frames[-1] += dur
            if after is not None:
                a0 = clock()
                after(result, token, *args)
                self._charge_bookkeeping(clock() - a0)
            return result

        return traced

    def bookkeeping(self, fn: Callable) -> Callable:
        """``fn`` whose whole cost is the tracer's own (e.g. a counting
        publisher that exists only while tracing)."""
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge_bookkeeping(clock() - t0)

        return counted

    # -- installation -----------------------------------------------------------
    def install(self, obj, attr: str, name: str, **hooks) -> None:
        """Replace ``obj.attr`` with a timed proxy of itself."""
        self.set_attr(obj, attr, self.wrap(name, getattr(obj, attr), **hooks))

    def set_attr(self, obj, attr: str, value) -> None:
        """Set an instance attribute that :meth:`uninstall` restores."""
        self._installed.append((obj, attr, vars(obj).get(attr, _ABSENT)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` / :meth:`set_attr`
        touched (latest first)."""
        while self._installed:
            obj, attr, orig = self._installed.pop()
            if orig is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)


# -- host probe ---------------------------------------------------------------------
def _python_loop() -> int:
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return acc


def _numpy_loop(data: np.ndarray) -> int:
    a = np.sort(data)
    return int(np.cumsum(a % 13)[-1])


def host_probe(reps: int = 7) -> Dict[str, float]:
    """Median milliseconds of a fixed pure-Python loop and a fixed NumPy
    loop.  Reported beside the metrics, never gated on."""
    data = np.random.default_rng(12345).integers(0, 1 << 30, size=200_000)
    out = {}
    for name, fn in (("py_loop_ms", _python_loop),
                     ("np_loop_ms", lambda: _numpy_loop(data))):
        xs = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            xs.append(time.perf_counter() - t0)
        out[name] = statistics.median(xs) * 1e3
    return out


# -- statistics -----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    rank = max(1, int(np.ceil(q / 100.0 * len(xs))))
    return xs[rank - 1]


def least_disturbed(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Each slot's smallest repeat, for every slot measured at least once.

    The timed phase applies every distinct batch once per cycle, so each
    batch slot is measured several times, seconds apart.  Interference
    from other work on a shared host only ever adds time, and it comes in
    phases lasting seconds, so a slot's smallest repeat is its
    least-disturbed cost.  A program change that slows a batch slows every
    repeat of it, the smallest included.
    """
    return [min(xs) for xs in repeats if xs]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for x in values if x > cut)
