"""Zero-dependency statistical sampling profiler.

``check_regression.py`` can say *that* a run got slower; this module
says *where the time went*.  A background thread samples the stacks of
every live thread through :func:`sys._current_frames` at a configurable
rate (default :data:`DEFAULT_HZ`) and folds each observation into a
*collapsed-stack* :class:`Profile` — the ``root;child;leaf count``
format flamegraph tooling consumes directly:

    with profiling(hz=100) as profiler:
        explore(ZoneGraph(network))
    print(profiler.profile.to_collapsed())      # flamegraph.pl input
    for row in profiler.profile.hotspots(10):   # top-N self-time
        print(row["function"], row["self_fraction"])

Design constraints (and how they are met):

* **Zero dependencies, bounded overhead.**  Sampling uses only the
  interpreter's own frame introspection; the sampler measures its own
  duty cycle (:attr:`Profile.overhead_ratio` = seconds spent unwinding
  stacks / profiled wall seconds), and the benchmark smoke job asserts
  it stays ≤ 5 % at the default rate.
* **Mergeable, exactly like collector snapshots.**  A profile never
  crosses a process boundary; :meth:`Profile.to_dict` is a plain
  picklable snapshot and :meth:`Profile.merge` folds one in, summing
  per-stack counts.  Parallel runs capture each task under a fresh
  worker-side profiler and merge the snapshots home **in task order**
  (:func:`repro.obs.capturing` / :func:`repro.obs.merge`), so a
  parallel campaign's merged profile equals the serial run's logical
  profile (sample counts sum; a failed attempt's profile dies with its
  worker and is never merged — replayed tasks cannot double-count).
* **Deterministic where it matters.**  Wall-clock sampling is
  inherently stochastic, but the *merge algebra* is exact; ``hz=0``
  gives a manual-mode profiler whose only samples come from
  :func:`profile_record`, which the determinism tests use to assert
  bit-identical serial/parallel/fault-recovered merged profiles
  (``tests/test_profiling.py``).

Like metrics and tracing, profiling is **off by default**: without a
:func:`profiling` scope, :func:`active_profiler` returns ``None`` and
:func:`profile_record` is a single-branch no-op.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
import time
from contextlib import contextmanager

#: Default sampling rate; ~10 ms between samples keeps the measured
#: duty cycle well under the 5 % overhead bound asserted in CI.
DEFAULT_HZ = 100.0

#: Frames deeper than this are truncated (root side kept): runaway
#: recursion must not make a single sample arbitrarily expensive.
MAX_STACK_DEPTH = 128

_label_cache = {}


def frame_label(code):
    """A stable, collapsed-format-safe label for a code object:
    ``module.qualname`` (the module being the file's basename, or the
    package directory for ``__init__.py``)."""
    label = _label_cache.get(code)
    if label is None:
        base = os.path.basename(code.co_filename)
        if base == "__init__.py":
            base = os.path.basename(os.path.dirname(code.co_filename)) \
                or base
        if base.endswith(".py"):
            base = base[:-3]
        name = getattr(code, "co_qualname", None) or code.co_name
        label = f"{base}.{name}".replace(";", ",")
        _label_cache[code] = label
    return label


def unwind(frame, limit=MAX_STACK_DEPTH):
    """The collapsed stack for ``frame``: a tuple of labels, root
    first, leaf last."""
    stack = []
    while frame is not None and len(stack) < limit:
        stack.append(frame_label(frame.f_code))
        frame = frame.f_back
    stack.reverse()
    return tuple(stack)


class Profile:
    """Mergeable collapsed-stack sample counts.

    ``counts`` maps stack tuples (root → leaf) to observation counts;
    ``samples`` totals the observations, ``sampling_seconds`` the time
    the sampler spent unwinding (the overhead numerator), and
    ``wall_seconds`` the profiled wall time (its denominator).  All
    methods are thread-safe: the sampler thread records concurrently
    with the profiled code.
    """

    __slots__ = ("hz", "counts", "samples", "sampling_seconds",
                 "wall_seconds", "_lock")

    def __init__(self, hz=DEFAULT_HZ):
        self.hz = hz
        self.counts = {}
        self.samples = 0
        self.sampling_seconds = 0.0
        self.wall_seconds = 0.0
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def record(self, stack, n=1):
        """Fold ``n`` observations of ``stack`` (an iterable of frame
        labels, root first) into the profile."""
        key = tuple(stack)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n
            self.samples += n

    # -- merging ---------------------------------------------------------------

    def merge(self, other):
        """Fold another profile (or a :meth:`to_dict` snapshot) in:
        per-stack counts, sample totals, sampling and wall seconds all
        add — commutative, so merge order cannot change the result."""
        if isinstance(other, Profile):
            other = other.to_dict()
        with self._lock:
            for stack, n in other.get("stacks", {}).items():
                key = tuple(stack.split(";"))
                self.counts[key] = self.counts.get(key, 0) + n
            self.samples += other.get("samples", 0)
            self.sampling_seconds += other.get("sampling_seconds", 0.0)
            self.wall_seconds += other.get("wall_seconds", 0.0)
        return self

    # -- reading / exports -----------------------------------------------------

    @property
    def overhead_ratio(self):
        """Fraction of profiled wall time the sampler itself consumed."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sampling_seconds / self.wall_seconds

    def to_dict(self):
        """A plain (picklable, JSON-ready) snapshot with deterministic
        key order; stacks are ``;``-joined collapsed strings."""
        with self._lock:
            return {
                "hz": self.hz,
                "samples": self.samples,
                "sampling_seconds": self.sampling_seconds,
                "wall_seconds": self.wall_seconds,
                "stacks": {";".join(stack): self.counts[stack]
                           for stack in sorted(self.counts)},
            }

    def to_collapsed(self):
        """Flamegraph-ready collapsed-stack text: one
        ``root;child;leaf count`` line per distinct stack, sorted."""
        with self._lock:
            lines = [f"{';'.join(stack)} {self.counts[stack]}"
                     for stack in sorted(self.counts)]
        return "\n".join(lines)

    def hotspots(self, top=None):
        """Functions ranked by self samples: a list of dicts with
        ``function``, ``self``, ``cum`` (sample counts; ``cum`` counts
        each stack once even under recursion), ``self_fraction``, and
        ``self_seconds`` estimated against the profiled wall time."""
        with self._lock:
            items = list(self.counts.items())
            wall = self.wall_seconds
        return hotspots_from_stacks(
            {";".join(stack): n for stack, n in items},
            wall_seconds=wall, top=top)

    def __repr__(self):
        return (f"Profile({len(self.counts)} stacks, "
                f"{self.samples} samples, "
                f"overhead {self.overhead_ratio:.2%})")


def hotspots_from_stacks(stacks, wall_seconds=0.0, top=None):
    """:meth:`Profile.hotspots` over a snapshot's ``stacks`` mapping
    (``"root;leaf" -> count``) — shared with :mod:`repro.obs.diff`,
    which attributes regressions from stored snapshots."""
    self_counts, cum_counts, total = {}, {}, 0
    for collapsed, n in stacks.items():
        frames = collapsed.split(";")
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + n
        for label in set(frames):
            cum_counts[label] = cum_counts.get(label, 0) + n
        total += n
    ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    rows = []
    for label, self_n in ranked:
        fraction = self_n / total if total else 0.0
        rows.append({"function": label,
                     "self": self_n,
                     "cum": cum_counts[label],
                     "self_fraction": fraction,
                     "self_seconds": fraction * wall_seconds})
    return rows


class Profiler:
    """Owns a :class:`Profile` and the background sampler thread.

    ``hz > 0`` starts a daemon thread on :meth:`start` that samples
    every live thread (except itself) each ``1/hz`` seconds; ``hz=0``
    is *manual mode* — no thread, the profile only accumulates explicit
    :func:`profile_record` calls (the deterministic test hook).  Both
    modes measure the profiled wall time between :meth:`start` and
    :meth:`stop`.

    On :meth:`stop` a thread-sampling profiler flushes its sample count
    and duty cycle to the ambient metrics collector (``obs.profile.*``)
    so run reports carry the profiling cost alongside the profile.
    """

    def __init__(self, hz=DEFAULT_HZ, profile=None):
        if hz < 0:
            raise ValueError(f"sampling rate must be >= 0, got {hz}")
        self.hz = hz
        self.profile = profile if profile is not None else Profile(hz)
        self._stop_event = threading.Event()
        self._thread = None
        self._started_at = None

    def start(self):
        if self._started_at is not None:
            return self
        self._started_at = time.perf_counter()
        if self.hz > 0:
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-obs-sampler",
                daemon=True)
            self._thread.start()
        return self

    def stop(self):
        if self._started_at is None:
            return self.profile
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
        self.profile.wall_seconds += time.perf_counter() - self._started_at
        self._started_at = None
        if self.hz > 0:
            from .metrics import active

            collector = active()
            if collector is not None:
                collector.incr("obs.profile.samples",
                               self.profile.samples)
                collector.set_max("obs.profile.overhead",
                                  round(self.profile.overhead_ratio, 6))
        return self.profile

    def _sample_loop(self):
        interval = 1.0 / self.hz
        own = threading.get_ident()
        profile = self.profile
        while not self._stop_event.wait(interval):
            begin = time.perf_counter()
            for thread_id, frame in sys._current_frames().items():
                if thread_id == own:
                    continue
                profile.record(unwind(frame))
            profile.sampling_seconds += time.perf_counter() - begin

    def __repr__(self):
        running = self._started_at is not None
        return f"Profiler(hz={self.hz}, running={running})"


# -- the ambient profiler --------------------------------------------------------

_ACTIVE = contextvars.ContextVar("repro_obs_profiler", default=None)


def active_profiler():
    """The profiler installed by the innermost :func:`profiling` scope,
    or ``None`` — profiling is off by default."""
    return _ACTIVE.get()


@contextmanager
def profiling(hz=DEFAULT_HZ, profiler=None):
    """Install ``profiler`` (a fresh one at ``hz`` when omitted) as the
    ambient profiler for the ``with`` body, started on entry and
    stopped on exit; yields the profiler."""
    prof = profiler if profiler is not None else Profiler(hz=hz)
    token = _ACTIVE.set(prof)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        _ACTIVE.reset(token)


def profile_record(stack, n=1):
    """Fold ``n`` manual observations of ``stack`` into the active
    profile (no-op when profiling is off).  The deterministic sample
    source: tests and synthetic workloads use it to make merged
    profiles exactly reproducible."""
    prof = _ACTIVE.get()
    if prof is not None:
        prof.profile.record(stack, n)
