"""Process resource accounting: peak RSS, heap, and GC gauges.

Quantitative analysis needs memory telemetry as much as time telemetry:
a zone-graph exploration that got 2x faster by interning twice as many
zones is not unambiguously better.  This module reads the process's
resource high-water marks and records them as **max gauges**
(:meth:`repro.obs.metrics.Collector.set_max`), whose merge semantics —
maximum, not last-write — make the numbers meaningful across workers:
the merged ``obs.rss_peak_kb`` is the peak of the *hungriest* process,
not of whichever worker snapshot merged last.

Every :class:`repro.obs.report.Report` samples these gauges when it
serialises, and :class:`~repro.runtime.ParallelExecutor` samples them
worker-side at the end of each task, so run-store records carry a
memory column for free.

| metric (max gauge)      | meaning                                       |
|-------------------------|-----------------------------------------------|
| ``obs.rss_peak_kb``     | process peak resident set (VmHWM), KiB        |
| ``obs.rss_kb``          | resident set when sampled, KiB                |
| ``obs.heap_kb``         | tracemalloc-traced heap when sampled, KiB     |
| ``obs.heap_peak_kb``    | tracemalloc heap high-water mark, KiB         |
| ``obs.gc_collections``  | cumulative GC collections (all generations)   |
| ``obs.gc_collected``    | cumulative objects collected                  |
| ``obs.gc_uncollectable``| cumulative uncollectable objects              |

Heap figures appear only while the caller runs :mod:`tracemalloc` — it
roughly doubles allocation cost, so it stays the caller's choice.
"""

from __future__ import annotations

import gc
import sys

from .metrics import active


def _proc_status_kb(field):
    """A ``kB`` field from ``/proc/self/status``, or ``None``."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def rss_peak_kb():
    """The process's peak resident set size in KiB (``None`` when the
    platform exposes neither ``/proc`` nor ``getrusage``)."""
    peak = _proc_status_kb("VmHWM:")
    if peak is not None:
        return peak
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return peak // 1024 if sys.platform == "darwin" else peak


def rss_kb():
    """The current resident set size in KiB, or ``None``."""
    return _proc_status_kb("VmRSS:")


def gc_totals():
    """Cumulative ``(collections, collected, uncollectable)`` across
    all GC generations."""
    collections = collected = uncollectable = 0
    for stats in gc.get_stats():
        collections += stats.get("collections", 0)
        collected += stats.get("collected", 0)
        uncollectable += stats.get("uncollectable", 0)
    return collections, collected, uncollectable


def sample(collector=None):
    """Record the process's resource readings into ``collector`` (the
    ambient one when omitted) as max gauges; returns the readings dict
    (also when no collector is installed, for direct use)."""
    readings = {}
    peak = rss_peak_kb()
    if peak is not None:
        readings["obs.rss_peak_kb"] = peak
    current = rss_kb()
    if current is not None:
        readings["obs.rss_kb"] = current
    import tracemalloc

    if tracemalloc.is_tracing():
        heap, heap_peak = tracemalloc.get_traced_memory()
        readings["obs.heap_kb"] = heap // 1024
        readings["obs.heap_peak_kb"] = heap_peak // 1024
    collections, collected, uncollectable = gc_totals()
    readings["obs.gc_collections"] = collections
    readings["obs.gc_collected"] = collected
    readings["obs.gc_uncollectable"] = uncollectable
    col = collector if collector is not None else active()
    if col is not None:
        for name, value in readings.items():
            col.set_max(name, value)
    return readings

