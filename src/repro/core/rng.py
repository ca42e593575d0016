"""Seedable random source shared by the stochastic engines.

A thin wrapper over :mod:`random.Random` so every simulation entry point
takes either a seed or a ready-made source, making all experiments in the
benchmark harness reproducible.

Child streams for parallel experiment arms come from :meth:`RandomSource.spawn`:
the parent draws a fresh 64-bit seed for the child and records the child's
*spawn key* — the chain of spawn indices from the root source — so
experiment logs can identify exactly which arm of which master seed
produced a value even though the parent's ``seed`` attribute no longer
describes its advanced internal state.  Spawning is deterministic: the
k-th child of a source seeded with ``s`` is the same in every process,
which is what the parallel runtime (:mod:`repro.runtime`) relies on to
make worker count and batch size irrelevant to the results.
"""

from __future__ import annotations

import random

#: The draws :meth:`RandomSource._bind` binds, left out of the pickled
#: state.
_DRAWS = ("random", "uniform", "expovariate", "randint", "choice",
          "shuffle")


class RandomSource:
    """Seedable RNG with the few primitives the engines need.

    The draws — ``random``, ``uniform``, ``expovariate``, ``randint``
    (inclusive bounds), ``choice`` and ``shuffle`` — are the bound
    methods of the underlying :class:`random.Random`, so a draw costs
    no wrapper frame.  :mod:`copy` treats bound builtin methods as
    atomic, so the pickled (and deep-copied) state leaves them out and
    :meth:`__setstate__` binds them to the copy's own generator.
    """

    def __init__(self, seed=None, spawn_key=()):
        self._random = random.Random(seed)
        self.seed = seed
        self.spawn_key = tuple(spawn_key)
        self._spawn_count = 0
        self._bind()

    def _bind(self):
        rng = self._random
        self.random = rng.random
        self.uniform = rng.uniform
        self.expovariate = rng.expovariate
        self.randint = rng.randint
        self.choice = rng.choice
        self.shuffle = rng.shuffle

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in _DRAWS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    def spawn(self):
        """An independent child source (for parallel experiment arms).

        The child's seed is :meth:`spawn_seed`, and its ``spawn_key``
        extends this source's key with the child's index, so successive
        spawns are deterministic given the master seed and each child
        is identifiable in logs and reprs.
        """
        key = self.spawn_key + (self._spawn_count,)
        return RandomSource(self.spawn_seed(), spawn_key=key)

    def spawn_seed(self):
        """The seed of the next child, drawn from this stream: the seed
        :meth:`spawn` would give it, without building the child."""
        self._spawn_count += 1
        return self._random.getrandbits(64)

    def __repr__(self):
        if self.spawn_key:
            return (f"RandomSource(seed={self.seed!r}, "
                    f"spawn_key={self.spawn_key!r})")
        return f"RandomSource(seed={self.seed!r})"


def ensure_rng(rng_or_seed):
    """Accept a :class:`RandomSource`, a seed, or ``None`` (fresh RNG)."""
    if isinstance(rng_or_seed, RandomSource):
        return rng_or_seed
    return RandomSource(rng_or_seed)
