"""Enumeration of candidate discrete transitions of a network.

This module factors out the *untimed* part of the semantics — which
edges can fire together, honouring channel synchronisation, data guards
and committed locations — so the symbolic (zone) engine, the
discrete-time engine, the SMC simulator and the online tester all share
one implementation.  Clock guards are *not* checked here; each engine
applies them in its own clock representation.
"""

from __future__ import annotations

from itertools import product

from ..core.errors import ModelError
from ..core.expressions import Assignment, Expr


class Transition:
    """A synchronised multi-edge step of the network.

    ``participants`` is a tuple of ``(process, edge)`` pairs; for channel
    synchronisation the sender comes first.  ``channel`` is ``None`` for
    internal steps.
    """

    __slots__ = ("participants", "channel", "broadcast")

    def __init__(self, participants, channel=None, broadcast=False):
        self.participants = tuple(participants)
        self.channel = channel
        self.broadcast = broadcast

    def target_locations(self, locs):
        new_locs = list(locs)
        for process, edge in self.participants:
            new_locs[process.index] = process.location_index[edge.target]
        return tuple(new_locs)

    def clock_guard_atoms(self):
        """All clock atoms with their owning process, for zone engines."""
        atoms = []
        for process, edge in self.participants:
            for atom in edge.guard:
                atoms.append((process, atom))
        return atoms

    def clock_resets(self):
        """All ``(global_clock_index, value)`` resets of the step."""
        resets = []
        for process, edge in self.participants:
            for clock, value in edge.resets:
                resets.append((process.resolve_clock(clock), value))
        return resets

    def apply_updates(self, valuation):
        """Run all data updates (sender first) and return the new
        valuation."""
        env = valuation.env()
        for _process, edge in self.participants:
            run_updates(edge.update, env)
        return env.commit()

    def labels(self):
        return tuple(e.label for _p, e in self.participants
                     if e.label is not None)

    def describe(self):
        parts = []
        for process, edge in self.participants:
            sync = f"{edge.sync[0]}{edge.sync[1]}" if edge.sync else "tau"
            parts.append(f"{process.name}.{edge.source}->{edge.target}"
                         f"[{sync}]")
        return " || ".join(parts)

    def __repr__(self):
        return f"Transition({self.describe()})"


def run_updates(updates, env):
    """Execute a sequence of assignments and/or callables into ``env``."""
    for update in updates:
        if isinstance(update, Assignment):
            update.apply(env)
        elif callable(update):
            update(env)
        else:
            raise ModelError(f"bad update {update!r}")


def eval_data_guard(edge, valuation):
    """Evaluate an edge's data guard against the discrete variables."""
    guard = edge.data_guard
    if guard is None:
        return True
    if isinstance(guard, Expr):
        return bool(guard.eval(valuation))
    if callable(guard):
        return bool(guard(valuation))
    raise ModelError(f"bad data guard {guard!r}")


def discrete_transitions(network, locs, valuation):
    """All candidate transitions from a discrete configuration.

    Honours data guards, channel pairing (binary rendezvous and
    broadcast) and the committed-location priority rule: when any process
    stands in a committed location, only transitions with at least one
    committed participant are allowed.
    """
    processes = network.processes
    committed_procs = {
        p.index for p, li in zip(processes, locs)
        if p.location(li).committed}

    internal = []          # (process, edge)
    senders = {}           # channel -> [(process, edge)]
    receivers = {}         # channel -> {proc_index: [(process, edge)]}
    for process, loc_index in zip(processes, locs):
        for edge in process.edges_from(loc_index):
            if not eval_data_guard(edge, valuation):
                continue
            if edge.sync is None:
                internal.append((process, edge))
                continue
            channel_name, direction = edge.sync
            if direction == "!":
                senders.setdefault(channel_name, []).append((process, edge))
            else:
                receivers.setdefault(channel_name, {}).setdefault(
                    process.index, []).append((process, edge))

    transitions = [Transition([pe]) for pe in internal]

    for channel_name, channel_senders in senders.items():
        channel = network.channels[channel_name]
        channel_receivers = receivers.get(channel_name, {})
        for sender in channel_senders:
            sender_proc, _edge = sender
            other = {idx: edges for idx, edges in channel_receivers.items()
                     if idx != sender_proc.index}
            if channel.broadcast:
                transitions.extend(
                    _broadcast_transitions(channel, sender, other))
            else:
                for edges in other.values():
                    for receiver in edges:
                        transitions.append(Transition(
                            [sender, receiver], channel=channel_name))

    if committed_procs:
        transitions = [
            t for t in transitions
            if any(p.index in committed_procs for p, _e in t.participants)]
    return transitions


def _broadcast_transitions(channel, sender, receivers_by_proc):
    """Sender plus one enabled receiver edge per ready process.

    Broadcast receivers must not carry clock guards: participation would
    then depend on the clock valuation, which a zone engine cannot decide
    point-wise.  UPPAAL restricts this similarly; the models in this
    repository only use data guards on broadcast receptions.
    """
    choices = []
    for edges in receivers_by_proc.values():
        for _process, edge in edges:
            if edge.guard:
                raise ModelError(
                    f"broadcast receiver on {channel.name!r} must not have "
                    f"clock guards (edge {edge!r})")
        choices.append(edges)
    out = []
    for combo in product(*choices) if choices else [()]:
        out.append(Transition(
            [sender, *combo], channel=channel.name, broadcast=True))
    return out


def delay_forbidden(network, locs):
    """True when the configuration forbids time to pass (committed or
    urgent locations; urgent channels are handled by the engines)."""
    return any(
        p.location(li).committed or p.location(li).urgent
        for p, li in zip(network.processes, locs))


def has_urgent_sync(network, locs, valuation, transitions=None):
    """True when a synchronisation on an urgent channel is enabled
    (data guards only — urgent channel edges must not have clock guards,
    as in UPPAAL).  ``transitions`` may pass a precomputed candidate
    list (the zone graph's per-configuration cache) to skip the
    enumeration."""
    if transitions is None:
        transitions = discrete_transitions(network, locs, valuation)
    for transition in transitions:
        if transition.channel is None:
            continue
        if network.channels[transition.channel].urgent:
            for _process, edge in transition.participants:
                if edge.guard:
                    raise ModelError(
                        "urgent channel edges must not have clock guards")
            return True
    return False
