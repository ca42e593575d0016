"""The digital-clocks builder's counter product for free-running clocks.

A clock that no invariant, guard or reset names changes neither which
actions are enabled nor where they lead, so
:func:`repro.pta.build_digital_mdp` explores the network with such
clocks held at 0 and unfolds the result by one tick counter.  These
tests hold that product to the seed builder
(:func:`repro.mdp.reference.reference_build_digital_mdp`), which
explores every clock directly, on generated closed, diagonal-free PTA
networks, and check the builder's limits on the deadline-clock BRP.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Declarations, ModelError
from repro.core.errors import SearchLimitError
from repro.mdp.reference import reference_build_digital_mdp
from repro.models import brp
from repro.obs import tracing
from repro.pta import PTA, PTANetwork, build_digital_mdp
from repro.pta.digital import _observer_clocks
from repro.ta import clk

#: How a generated network names a clock that must not unfold: each of
#: these clocks is named once, so it is explored directly.
NAMED_ONCE = ("reset_on_one_branch", "invariant_only", "guard_at_zero")


def _bump(env):
    env["n"] = min(env["n"] + 1, 2)


@st.composite
def networks(draw):
    """A recipe for a small closed, diagonal-free PTA network with
    free-running clocks, plus the ``extra_constants`` to build it with.

    The recipe is built twice, once per builder, so neither sees the
    other's memoised tables.  Returns ``(make, extra, free)``: ``make``
    builds the network, ``extra`` maps clock names to extra constants
    and ``free`` names the free-running clocks (``x`` too when no
    invariant, guard or reset happens to name it).
    """
    roles = dict.fromkeys(
        (f"f{i}" for i in range(draw(st.integers(0, 2)))), "free")
    roles.update((f"c{i}", role) for i, role in enumerate(
        draw(st.lists(st.sampled_from(NAMED_ONCE), max_size=2))))
    # Free clocks live in the main process or in a passive one.
    watch = draw(st.booleans())
    n_locs = draw(st.integers(2, 4))
    invariants = [draw(st.sampled_from([None, 1, 2, 3]))
                  for _ in range(n_locs)]
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        source = draw(st.integers(0, n_locs - 1))
        guard = draw(st.sampled_from([None, (">=", 1), (">=", 2),
                                      ("<=", 1), ("<=", 3)]))
        branches = []
        for _ in range(draw(st.integers(1, 3))):
            branches.append((draw(st.integers(1, 4)),
                             draw(st.integers(0, n_locs - 1)),
                             draw(st.booleans()), draw(st.booleans())))
        if draw(st.booleans()):
            # A copy of a branch: its outcome merges with the original.
            branches.append(branches[draw(st.integers(0, len(branches)
                                                       - 1))])
        edges.append((source, guard, branches))
    free = [c for c, role in roles.items() if role == "free"]
    if (all(bound is None for bound in invariants)
            and all(guard is None and not any(b[2] for b in branches)
                    for _source, guard, branches in edges)):
        free.append("x")
    extra = {}
    for name, role in roles.items():
        if draw(st.booleans()):
            extra[name] = draw(st.integers(0, 5))

    def make():
        watched = [c for c, role in roles.items() if role == "free"]
        own = [c for c in roles if not (watch and roles[c] == "free")]
        p = PTA("P", clocks=["x"] + own)
        for i, bound in enumerate(invariants):
            invariant = [] if bound is None else [clk("x", "<=", bound)]
            if i == 0:
                invariant += [clk(c, "<=", 4) for c, role in roles.items()
                              if role == "invariant_only"]
            p.add_location(f"L{i}", invariant=invariant)
        p.initial_location = "L0"
        for e, (source, guard, branches) in enumerate(edges):
            atoms = [] if guard is None else [clk("x", *guard)]
            if e == 0:
                atoms += [clk(c, ">=", 0) for c, role in roles.items()
                          if role == "guard_at_zero"]
            total = sum(weight for weight, *_ in branches)
            outcomes = []
            for b, (weight, target, reset, bump) in enumerate(branches):
                resets = [("x", 0)] if reset else []
                if e == 0 and b == 0:
                    resets += [(c, 0) for c, role in roles.items()
                               if role == "reset_on_one_branch"]
                outcomes.append((weight / total, f"L{target}", resets,
                                 [_bump] if bump else []))
            p.add_prob_edge(f"L{source}", outcomes, guard=atoms)
        network = PTANetwork("generated")
        decls = Declarations()
        decls.declare_int("n", 0, 0, 2)
        network.declarations = decls
        network.add_process("P", p)
        if watch and watched:
            w = PTA("Watch", clocks=watched)
            w.add_location("run")
            w.initial_location = "run"
            network.add_process("Watch", w)
        return network.freeze()

    return make, extra, free


def _clock_index(network, name):
    for process in network.processes:
        if name in process.clock_index:
            return process.resolve_clock(name)
    raise KeyError(name)


@settings(max_examples=120, deadline=None)
@given(networks())
def test_unfold_matches_the_seed_builder(case):
    """State keys, state order, every finalized array and every action
    label equal the seed builder's, whichever clocks are free."""
    make, extra, free = case
    network = make()
    constants = {_clock_index(network, name): value
                 for name, value in extra.items()}
    assert list(_observer_clocks(network)) == sorted(
        _clock_index(network, name) for name in free)
    try:
        ref = reference_build_digital_mdp(make(),
                                          extra_constants=constants)
    except ModelError:
        with pytest.raises(ModelError):
            build_digital_mdp(network, extra_constants=constants)
        return
    new = build_digital_mdp(network, extra_constants=constants)
    assert [s.key() for s in new.states] == [s.key() for s in ref.states]
    a, b = new.mdp.finalize(), ref.mdp.finalize()
    assert a.num_states == b.num_states
    for name in ("cols", "probs", "action_offsets", "action_rewards",
                 "state_offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.action_labels == b.action_labels


def test_brp_deadline_clock_is_the_only_free_clock():
    network = brp.make_brp(2, 1, 1, with_deadline_clock=True)
    t = network.process_by_name("Watch").resolve_clock("t")
    assert _observer_clocks(network) == (t,)
    assert _observer_clocks(brp.make_brp(2, 1, 1)) == ()


@pytest.fixture(scope="module")
def deadline_brp():
    """BRP(2, 1, 1) with its deadline clock: a factory of fresh
    networks, the extra constants, and the projected and product state
    counts of its build, read off the unfold span."""
    def make():
        return brp.make_brp(2, 1, 1, with_deadline_clock=True)

    network = make()
    extra = {network.process_by_name("Watch").resolve_clock("t"): 9}
    with tracing() as tracer:
        digital = build_digital_mdp(network, extra_constants=extra)
    (unfold,) = [s for s in tracer.roots if s.name == "pta.digital.unfold"]
    assert unfold.attributes["states"] == digital.mdp.num_states
    projected = unfold.attributes["projected_states"]
    assert projected < digital.mdp.num_states - 1
    return make, extra, projected, digital.mdp.num_states


class TestUnfoldLimits:
    def test_max_states_is_exact_inside_the_unfold(self, deadline_brp):
        make, extra, _projected, needed = deadline_brp
        dm = build_digital_mdp(make(), extra_constants=extra,
                               max_states=needed)
        assert dm.mdp.num_states == needed
        with pytest.raises(SearchLimitError):
            build_digital_mdp(make(), extra_constants=extra,
                              max_states=needed - 1)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_unfold_limit_restores_the_collector(self, deadline_brp,
                                                 enabled):
        make, extra, projected, _needed = deadline_brp
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(SearchLimitError):
                build_digital_mdp(make(), extra_constants=extra,
                                  max_states=projected + 1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_handed_over_buffers(self, deadline_brp):
        """The product's buffers are arrays: ``actions_of`` still reads
        Python ints and floats before ``finalize``, the same actions as
        after it, and adding an action is a ``ModelError``."""
        make, extra, _projected, needed = deadline_brp
        mdp = build_digital_mdp(make(), extra_constants=extra).mdp
        before = [mdp.actions_of(s) for s in range(needed)]
        with pytest.raises(ModelError, match="handed over"):
            mdp.add_action(0, [(1.0, 0)])
        mdp.finalize()
        assert repr(before) == repr([mdp.actions_of(s)
                                     for s in range(needed)])
