"""Checkpoint/resume for fixed-budget statistical campaigns.

A million-run estimation that dies at run 900,000 — machine reboot,
a task that exhausts its fault policy, plain Ctrl-C — should not start
over.  The fixed-budget SMC entry points
(:func:`repro.smc.estimate_probability`,
:func:`repro.smc.estimate_mean`) therefore accept a :class:`Checkpoint`
that periodically snapshots the campaign *tally* (completed batches,
successes / samples) together with the campaign's *metrics collector*
to a JSON file.

Resuming is exact, not approximate: per-run seeds come from the master
source's deterministic spawn stream, so the campaign's batch list is
recomputed identically on resume, the first ``state["batch"]`` batches
are skipped, and the saved tally and metrics snapshot stand in for
them.  The final estimate **and** the final logical metric totals are
bit-identical to an uninterrupted run (``tests/test_faults.py``).

A checkpoint is bound to its campaign by a *fingerprint* (entry point,
run budget, batch size, seed-stream endpoints).  Loading a file whose
fingerprint does not match — a different seed, a different budget —
returns nothing and the campaign starts fresh; stale files can never
corrupt a new campaign.  On successful completion the file is removed.
"""

from __future__ import annotations

import json
import os

from ..core.errors import AnalysisError

#: Bump on breaking changes to the checkpoint JSON layout.
SCHEMA_VERSION = "repro.checkpoint/1"


class Checkpoint:
    """Periodic campaign snapshots to ``path`` (atomic via rename).

    ``every`` is the save cadence in completed batches: 1 (default)
    saves after every batch, larger values amortise the file write for
    cheap tasks.
    """

    def __init__(self, path, every=1):
        if every < 1:
            raise AnalysisError(f"save cadence must be >= 1, got {every}")
        self.path = os.fspath(path)
        self.every = int(every)

    def due(self, completed_batches):
        """Whether a save is due after ``completed_batches`` batches."""
        return completed_batches % self.every == 0

    def load(self, fingerprint):
        """The saved document for ``fingerprint``, or ``None``.

        Missing files, unreadable JSON, other schema versions,
        fingerprint mismatches, and documents whose ``state`` or
        ``metrics`` is not an object all mean "no usable checkpoint" —
        the campaign starts fresh rather than resuming from foreign or
        damaged state.
        """
        try:
            with open(self.path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != SCHEMA_VERSION:
            return None
        if data.get("fingerprint") != fingerprint:
            return None
        if not (isinstance(data.get("state"), dict)
                and isinstance(data.get("metrics"), dict)):
            return None
        return data

    def save(self, fingerprint, state, metrics=None):
        """Atomically write the campaign snapshot.

        ``state`` is the entry point's tally (plain JSON types);
        ``metrics`` a :meth:`repro.obs.metrics.Collector.snapshot`
        covering exactly the completed batches.
        """
        data = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "state": state,
            "metrics": metrics if metrics is not None else {},
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
        os.replace(tmp, self.path)
        return self.path

    def clear(self):
        """Remove the checkpoint file (idempotent) — called when the
        campaign completes."""
        try:
            os.remove(self.path)
        except OSError:
            pass

    def __repr__(self):
        return f"Checkpoint({self.path!r}, every={self.every})"
