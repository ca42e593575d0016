"""Timed I/O refinement, consistency and composition (ECDAR's core).

Specifications are timed automata whose edge *labels* are partitioned
into inputs and outputs (the TRON convention of :mod:`repro.mbt.tron`).
``Impl`` refines ``Spec`` when a timed alternating simulation exists:

* every output (or internal) move of the implementation is matched by
  the specification;
* every input move of the specification is matched by the
  implementation (the implementation may not refuse demanded inputs);
* delays are matched step-wise (one integer tick at a time — sound and
  complete for closed specifications).

Internal (unlabelled) implementation moves are matched by specification
stuttering.  The relation is computed as a greatest fixpoint over the
product of the two discrete-time state graphs.
"""

from __future__ import annotations

from ..core.errors import ModelError, SearchLimitError
from ..mc.explorecore import Frontier, LRUCache, PassedWaitingList
from ..ta.discrete import DiscreteSemantics
from ..ta.network import Network


class RefinementResult:
    """Outcome of a refinement check."""

    __slots__ = ("holds", "counterexample", "pairs_explored")

    def __init__(self, holds, counterexample=None, pairs_explored=0):
        self.holds = holds
        #: (impl_state, spec_state, reason) for the first broken pair
        self.counterexample = counterexample
        self.pairs_explored = pairs_explored

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return f"RefinementResult(holds, {self.pairs_explored} pairs)"
        reason = self.counterexample[2] if self.counterexample else "?"
        return f"RefinementResult(FAILS: {reason})"


def _as_network(spec):
    if isinstance(spec, Network):
        return spec
    network = Network(spec.name)
    network.add_process(spec.name, spec)
    return network


class _Side:
    """One side of the refinement: graph exploration helpers."""

    def __init__(self, spec, inputs, outputs):
        self.semantics = DiscreteSemantics(_as_network(spec))
        self.inputs = set(inputs)
        self.outputs = set(outputs)
        if self.inputs & self.outputs:
            raise ModelError("labels cannot be both input and output")
        # Moves are looked up repeatedly (phase-1 exploration, every
        # fixpoint re-examination); the bounded LRU of the shared
        # exploration core replaces the seed's unbounded dict.
        self._cache = LRUCache()

    def initial(self):
        return self.semantics.initial()

    def moves(self, state):
        """``(label_kind, label, successor)`` for every move."""
        key = state.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = []
        for transition, succ in self.semantics.action_successors(state):
            labels = [lbl for lbl in transition.labels()]
            label = labels[0] if labels else None
            if label in self.inputs:
                out.append(("input", label, succ))
            elif label in self.outputs:
                out.append(("output", label, succ))
            else:
                out.append(("internal", None, succ))
        ticked = self.semantics.tick(state)
        if ticked is not None:
            out.append(("tick", None, ticked))
        self._cache.put(key, out)
        return out


def check_refinement(impl, spec, inputs, outputs, max_pairs=200000):
    """Decide whether ``impl`` refines ``spec`` (same alphabets).

    Both arguments may be :class:`~repro.ta.Automaton` or
    :class:`~repro.ta.Network` objects with labelled edges.
    """
    impl_side = _Side(impl, inputs, outputs)
    spec_side = _Side(spec, inputs, outputs)

    # Phase 1: explore candidate pairs (closure under matched moves),
    # deduplicated through the shared passed/waiting store (key-only
    # mode: discrete-time states carry no zone to subsume on).
    start = (impl_side.initial(), spec_side.initial())
    pairs = PassedWaitingList(use_inclusion=False)
    pairs.add_if_new((start[0].key(), start[1].key()), None, start)
    queue = Frontier("dfs")
    queue.push(start)
    while queue:
        i_state, s_state = queue.pop()
        for kind, label, succ_pairs in _matched_moves(
                impl_side, spec_side, i_state, s_state):
            for pair in succ_pairs:
                key = (pair[0].key(), pair[1].key())
                if pairs.add_if_new(key, None, pair):
                    queue.push(pair)
                    if len(pairs) > max_pairs:
                        raise SearchLimitError(
                            f"refinement product exceeds {max_pairs}",
                            limit=max_pairs)

    # Phase 2: greatest-fixpoint pruning of violating pairs.
    alive = {key for key, _pair in pairs.items()}
    reason_of = {}
    changed = True
    while changed:
        changed = False
        for key, (i_state, s_state) in pairs.items():
            if key not in alive:
                continue
            reason = _violation(impl_side, spec_side, i_state, s_state,
                                alive)
            if reason is not None:
                alive.discard(key)
                reason_of[key] = reason
                changed = True

    start_key = (start[0].key(), start[1].key())
    if start_key in alive:
        return RefinementResult(True, pairs_explored=len(pairs))
    reason = reason_of.get(start_key, "initial pair violates simulation")
    return RefinementResult(
        False, (start[0], start[1], reason), len(pairs))


def _matched_moves(impl_side, spec_side, i_state, s_state):
    """Successor pairs along matched moves (for phase-1 exploration)."""
    out = []
    spec_moves = spec_side.moves(s_state)
    for kind, label, i_succ in impl_side.moves(i_state):
        if kind == "internal":
            out.append(("internal", None, [(i_succ, s_state)]))
        elif kind == "output":
            matches = [(i_succ, s_succ)
                       for k2, l2, s_succ in spec_moves
                       if k2 == "output" and l2 == label]
            out.append(("output", label, matches))
        elif kind == "tick":
            ticks = [(i_succ, s_succ)
                     for k2, _l2, s_succ in spec_moves if k2 == "tick"]
            out.append(("tick", None, ticks))
    for kind, label, s_succ in spec_moves:
        if kind == "input":
            matches = [(i_succ, s_succ)
                       for k2, l2, i_succ in impl_side.moves(i_state)
                       if k2 == "input" and l2 == label]
            out.append(("input", label, matches))
        elif kind == "internal":
            out.append(("spec-internal", None, [(i_state, s_succ)]))
    return out


def _violation(impl_side, spec_side, i_state, s_state, alive):
    """The first broken simulation obligation of the pair, or None."""
    spec_moves = spec_side.moves(s_state)
    impl_moves = impl_side.moves(i_state)

    def alive_pair(a, b):
        return (a.key(), b.key()) in alive

    for kind, label, i_succ in impl_moves:
        if kind == "output":
            if not any(k2 == "output" and l2 == label
                       and alive_pair(i_succ, s_succ)
                       for k2, l2, s_succ in spec_moves):
                return (f"implementation output {label!r} has no "
                        f"specification match")
        elif kind == "internal":
            if not alive_pair(i_succ, s_state):
                return "internal move leaves the relation"
        elif kind == "tick":
            if not any(k2 == "tick" and alive_pair(i_succ, s_succ)
                       for k2, _l2, s_succ in spec_moves):
                return "implementation delay not allowed by specification"
    for kind, label, s_succ in spec_moves:
        if kind == "input":
            if not any(k2 == "input" and l2 == label
                       and alive_pair(i_succ, s_succ)
                       for k2, l2, i_succ in impl_moves):
                return (f"implementation refuses demanded input "
                        f"{label!r}")
    return None


def check_consistency(spec, inputs, outputs, max_states=100000):
    """A specification is consistent when no reachable state is an
    *immediate inconsistency*: time cannot pass and the component has
    no output/internal move of its own (inputs cannot save it — the
    environment need not provide them)."""
    side = _Side(spec, inputs, outputs)
    initial = side.initial()
    passed = PassedWaitingList(use_inclusion=False)
    passed.add_if_new(initial.key(), None, initial)
    queue = Frontier("dfs")
    queue.push(initial)
    while queue:
        state = queue.pop()
        moves = side.moves(state)
        own = [m for m in moves if m[0] in ("output", "internal", "tick")]
        if not own and not any(m[0] == "input" for m in moves):
            return False
        if not any(m[0] in ("output", "internal", "tick") for m in moves) \
                and any(m[0] == "input" for m in moves):
            # Only inputs available and no delay: stuck unless helped.
            return False
        for _kind, _label, succ in moves:
            if passed.add_if_new(succ.key(), None, succ):
                queue.push(succ)
                if len(passed) > max_states:
                    raise SearchLimitError(
                        "consistency search too large", limit=max_states)
    return True


def compose(left, left_io, right, right_io, name="composition"):
    """Structural composition of two specifications.

    ``left_io``/``right_io`` are ``(inputs, outputs)`` pairs.  Matching
    output/input labels become binary channels; the composite's inputs
    are the unmatched inputs, its outputs all outputs.  Returns
    ``(network, inputs, outputs)``.
    """
    left_in, left_out = set(left_io[0]), set(left_io[1])
    right_in, right_out = set(right_io[0]), set(right_io[1])
    if left_out & right_out:
        raise ModelError(
            f"output clash: {sorted(left_out & right_out)}")
    shared = (left_out & right_in) | (right_out & left_in)

    network = Network(name)
    for label in shared:
        network.add_channel(label)

    def relabel(automaton, outputs):
        from ..ta.syntax import Automaton

        clone = Automaton(automaton.name, clocks=automaton.clocks)
        for loc_name, loc in automaton.locations.items():
            clone.add_location(loc_name, invariant=loc.invariant,
                               committed=loc.committed, urgent=loc.urgent,
                               rate=loc.rate)
        clone.initial_location = automaton.initial_location
        for edge in automaton.edges:
            sync = None
            if edge.label in shared:
                direction = "!" if edge.label in outputs else "?"
                sync = (edge.label, direction)
            clone.add_edge(edge.source, edge.target, guard=edge.guard,
                           data_guard=edge.data_guard, sync=sync,
                           resets=edge.resets, update=edge.update,
                           label=edge.label,
                           controllable=edge.controllable)
        return clone

    network.add_process(left.name, relabel(left, left_out))
    network.add_process(right.name, relabel(right, right_out))
    inputs = (left_in | right_in) - shared
    outputs = left_out | right_out
    return network.freeze(), sorted(inputs), sorted(outputs)
