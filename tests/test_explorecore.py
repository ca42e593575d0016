"""The exploration-core suite: unit tests for the shared data
structures and the old-vs-new differential equivalence contract.

The contract (ISSUE: exploration rework): the production
:func:`repro.mc.explore` must agree **bit for bit** with the preserved
seed engine (:func:`repro.mc.reference.reference_explore`) — same
verdicts, witnesses, state counts and logical observability totals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError, ReproError, SearchLimitError
from repro.mc import (
    Frontier,
    LRUCache,
    TraceNode,
    Verifier,
    ZoneStore,
    build_graph,
    explore,
    materialise,
    reconstruct_trace,
)
from repro.mc.explorecore import DEFAULT_CACHE_SIZE
from repro.mc.reference import reference_explore
from repro.models.brp import make_brp
from repro.models.fischer import make_fischer
from repro.models.traingate import make_traingate
from repro.obs.metrics import collecting
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.dbm import DBM
from repro.ta import Automaton, Network, ZoneGraph, clk


# ---------------------------------------------------------------------------
# Unit tests for the core data structures.


class TestFrontier:
    def test_bfs_pops_oldest_first(self):
        f = Frontier("bfs")
        f.extend([1, 2, 3])
        assert [f.pop(), f.pop(), f.pop()] == [1, 2, 3]

    def test_dfs_pops_newest_first(self):
        f = Frontier("dfs")
        f.extend([1, 2, 3])
        assert [f.pop(), f.pop(), f.pop()] == [3, 2, 1]

    def test_len_and_bool(self):
        f = Frontier()
        assert not f and len(f) == 0
        f.push("a")
        assert f and len(f) == 1
        f.pop()
        assert not f

    def test_unknown_order_rejected(self):
        with pytest.raises(ModelError):
            Frontier("random")


class TestTraceNode:
    def test_reconstruct_none_is_none(self):
        assert reconstruct_trace(None) is None

    def test_root_has_no_transition(self):
        root = TraceNode("s0")
        assert reconstruct_trace(root) == [(None, "s0")]

    def test_chain_is_root_first(self):
        root = TraceNode("s0")
        a = TraceNode("s1", "t1", root)
        b = TraceNode("s2", "t2", a)
        assert reconstruct_trace(b) == [
            (None, "s0"), ("t1", "s1"), ("t2", "s2")]

    def test_prefixes_are_shared(self):
        root = TraceNode("s0")
        a = TraceNode("s1", "t1", root)
        b = TraceNode("s2", "t2", root)
        assert a.parent is b.parent is root


class TestZoneStore:
    def test_interns_equal_zones_to_one_object(self):
        store = ZoneStore()
        z1 = DBM.zero(3).up()
        z2 = DBM.zero(3).up()
        assert z1 is not z2
        first = store.intern(z1)
        second = store.intern(z2)
        assert first is z1
        assert second is z1
        assert store.hits == 1
        assert store.distinct == len(store) == 1

    def test_distinct_zones_stay_distinct(self):
        store = ZoneStore()
        z1 = DBM.zero(3)
        z2 = DBM.zero(3).up()
        assert store.intern(z1) is z1
        assert store.intern(z2) is z2
        assert store.hits == 0
        assert store.distinct == 2


class TestLRUCache:
    def test_hit_and_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1   # refresh a
        cache.put("c", 3)            # evicts b
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_maxsize_zero_rejected(self):
        with pytest.raises(ModelError):
            LRUCache(0)

    def test_default_maxsize_is_the_shared_bound(self):
        assert LRUCache().maxsize == DEFAULT_CACHE_SIZE

    def test_negative_size_rejected(self):
        with pytest.raises(ModelError):
            LRUCache(-1)

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert "a" not in cache and len(cache) == 0


# ---------------------------------------------------------------------------
# Differential equivalence: seed engine vs the exploration core.


MODELS = [
    pytest.param(lambda: make_traingate(3), id="traingate3"),
    pytest.param(lambda: make_fischer(3), id="fischer3"),
    pytest.param(lambda: make_fischer(4), id="fischer4"),
    pytest.param(lambda: make_brp(n_frames=2, max_retrans=1), id="brp"),
]

#: Physical interning diagnostics, legitimately different across
#: engines; everything else under ``mc.`` must match exactly.
PHYSICAL = ("mc.zone_interned",)


def _logical_mc(snapshot):
    return {name: value for name, value in snapshot["counters"].items()
            if name.startswith("mc.") and name not in PHYSICAL}


def _run(engine, network, **kwargs):
    """One observed search; returns (result, graph stats, mc counters).

    Both engines run the *compat* configuration — classic
    k-extrapolation, and for the production engine no waiting-list
    eviction — which is the bit-identical anchor against the seed
    engine.  The coarser lu+ abstraction and bidirectional subsumption
    are checked separately (:class:`TestAbstractionEquivalence`) with
    set-level assertions, since they legitimately visit fewer states.
    """
    graph = ZoneGraph(network, abstraction="k")
    if engine == "reference":
        search = reference_explore
    else:
        search = explore
        kwargs = dict(kwargs, evict_waiting=False)
    with collecting() as collector:
        result = search(graph, **kwargs)
    return result, graph.stats.snapshot(), _logical_mc(collector.snapshot())


def _trace_key(trace):
    if trace is None:
        return None
    return [(transition.describe() if transition is not None else None,
             state.key())
            for transition, state in trace]


class TestEngineEquivalence:
    @pytest.mark.parametrize("make", MODELS)
    def test_full_exploration_bit_identical(self, make):
        ref_result, ref_stats, ref_counters = _run("reference", make())
        result, stats, counters = _run("core", make())
        assert result.found == ref_result.found
        assert result.states_explored == ref_result.states_explored
        assert result.states_stored == ref_result.states_stored
        assert stats == ref_stats
        assert counters == ref_counters

    @pytest.mark.parametrize("make", MODELS)
    def test_witness_traces_match(self, make):
        network = make()
        # A goal a few steps in: some process has left its initial
        # location (index 0) — reachable in every bundled model.
        def goal(state):
            return any(li != 0 for li in state.locs)

        traces = {}
        for engine in ("reference", "core"):
            result, _stats, _counters = _run(engine, network, goal=goal)
            assert result.found
            traces[engine] = _trace_key(result.trace)
        assert traces["core"] == traces["reference"]

    def test_max_states_and_no_inclusion_agree(self):
        network = make_fischer(3)
        for kwargs in ({"max_states": 40}, {"use_inclusion": False}):
            ref, ref_stats, _ = _run("reference", make_fischer(3), **kwargs)
            new, new_stats, _ = _run("core", network, **kwargs)
            assert (new.states_explored, new.states_stored) == \
                (ref.states_explored, ref.states_stored)
            assert new_stats == ref_stats

    def test_dfs_order_explores_same_states(self):
        """DFS visits a different sequence but the same reachable set."""
        dfs = explore(ZoneGraph(make_fischer(3), abstraction="k"),
                      order="dfs", evict_waiting=False)
        ref = reference_explore(ZoneGraph(make_fischer(3), abstraction="k"))
        assert dfs.states_stored == ref.states_stored


@st.composite
def random_automata(draw):
    """Small random diagonal-free timed automata (1-2 clocks)."""
    clocks = ["x", "y"][:draw(st.integers(1, 2))]
    n_locs = draw(st.integers(2, 4))
    a = Automaton("R", clocks=clocks)
    for i in range(n_locs):
        invariant = []
        if draw(st.booleans()):
            invariant = [clk(draw(st.sampled_from(clocks)), "<=",
                             draw(st.integers(1, 5)))]
        a.add_location(f"l{i}", invariant=invariant)
    for _ in range(draw(st.integers(1, 6))):
        guard = []
        if draw(st.booleans()):
            guard = [clk(draw(st.sampled_from(clocks)),
                         draw(st.sampled_from(["<=", ">=", "<", ">"])),
                         draw(st.integers(0, 5)))]
        resets = [(c, 0) for c in clocks if draw(st.booleans())]
        a.add_edge(f"l{draw(st.integers(0, n_locs - 1))}",
                   f"l{draw(st.integers(0, n_locs - 1))}",
                   guard=guard, resets=resets)
    return a


@settings(max_examples=40, deadline=None)
@given(random_automata())
def test_random_automata_bit_identical(automaton):
    """Property: on arbitrary small automata the production engine and
    the seed engine agree on counts, stats and counter totals."""
    network = Network("rand")
    network.add_process(automaton.name, automaton)
    ref, ref_stats, ref_counters = _run("reference", network)
    result, stats, counters = _run("core", network)
    assert (result.found, result.states_explored, result.states_stored) == \
        (ref.found, ref.states_explored, ref.states_stored)
    assert stats == ref_stats
    assert counters == ref_counters


# ---------------------------------------------------------------------------
# Abstraction equivalence: lu+ / k / none agree on everything a query
# can observe, even though lu+ visits (often far) fewer states.


def _configs(graph, **kwargs):
    """(result, set of discrete configurations) of one exploration."""
    seen = set()
    result = explore(graph, on_state=lambda s: seen.add(s.discrete_key()),
                     **kwargs)
    return result, seen


def _replay_discrete(network, trace):
    """Replay a witness trace's transitions on the exact zone graph.

    Every step must name an enabled transition of the unabstracted
    graph leading to the recorded discrete successor — i.e. the trace
    is a real run of the model, not an artifact of the abstraction.
    """
    exact = ZoneGraph(network, abstraction="none")
    state = exact.initial()
    assert trace[0][0] is None
    assert trace[0][1].locs == state.locs
    for transition, recorded in trace[1:]:
        wanted = transition.describe()
        for cand, succ in exact.successors(state):
            if cand.describe() == wanted and succ.locs == recorded.locs:
                state = succ
                break
        else:
            raise AssertionError(f"trace step {wanted} not enabled")


class TestAbstractionEquivalence:
    @pytest.mark.parametrize("make", MODELS)
    def test_same_discrete_configurations(self, make):
        _, exact = _configs(ZoneGraph(make(), abstraction="k"),
                            evict_waiting=False)
        for kwargs in ({}, {"evict_waiting": False}):
            lu_result, lu = _configs(ZoneGraph(make(), abstraction="lu+"),
                                     **kwargs)
            assert lu == exact, kwargs
            _, knew = _configs(ZoneGraph(make(), abstraction="k"), **kwargs)
            assert knew == exact, kwargs

    @pytest.mark.parametrize("make", MODELS)
    def test_lu_visits_no_more_states(self, make):
        ref = reference_explore(ZoneGraph(make(), abstraction="k"))
        lu, _ = _configs(ZoneGraph(make(), abstraction="lu+"))
        assert lu.states_stored <= ref.states_stored
        assert lu.states_explored <= ref.states_explored

    @pytest.mark.parametrize("make", MODELS)
    def test_witness_traces_are_real_runs(self, make):
        network = make()

        def goal(state):
            return any(li != 0 for li in state.locs)

        for abstraction in ("lu+", "k"):
            result = explore(ZoneGraph(network, abstraction=abstraction),
                             goal=goal)
            assert result.found
            assert goal(result.trace[-1][1])
            _replay_discrete(network, result.trace)

    def test_lu_counters_flow_to_observability(self):
        with collecting() as collector:
            explore(ZoneGraph(make_fischer(3), abstraction="lu+"))
        counters = collector.snapshot()["counters"]
        assert counters.get("mc.lu_extrapolated", 0) > 0
        assert counters.get("mc.inactive_clocks_freed", 0) > 0
        assert "mc.waiting_subsumed" in counters


@settings(max_examples=40, deadline=None)
@given(random_automata())
def test_random_automata_abstractions_agree(automaton):
    """Property: lu+ and k reach exactly the same discrete
    configurations of arbitrary small diagonal-free automata."""
    network = Network("rand")
    network.add_process(automaton.name, automaton)
    k_result, k_configs = _configs(ZoneGraph(network, abstraction="k"),
                                   evict_waiting=False)
    lu_result, lu_configs = _configs(ZoneGraph(network, abstraction="lu+"))
    assert lu_configs == k_configs
    # No stored-states comparison here: on degenerate automata (a
    # clock with no lower-bound guard at all) Extra+_LU widens zones
    # past the invariant ceiling, which can *split* subsumption
    # chains k-extrapolation keeps intact.  Discrete reachability is
    # the property; the curated models assert the stored bound.


# ---------------------------------------------------------------------------
# Search limits.


class TestSearchLimits:
    def test_build_graph_raises_search_limit(self):
        graph = ZoneGraph(make_fischer(3))
        with pytest.raises(SearchLimitError) as exc_info:
            build_graph(graph, max_states=10)
        assert exc_info.value.limit == 10
        # Dual inheritance: a repro error *and* the MemoryError that
        # pre-core callers caught.
        assert isinstance(exc_info.value, ReproError)
        assert isinstance(exc_info.value, MemoryError)

    def test_materialise_propagates_search_limit(self):
        graph = ZoneGraph(make_fischer(3))
        with pytest.raises(SearchLimitError):
            materialise(graph, max_states=10)

    def test_materialise_within_budget(self):
        nodes, edges, initial = materialise(ZoneGraph(make_fischer(2)))
        assert initial == 0
        assert len(nodes) == len(edges) > 0


# ---------------------------------------------------------------------------
# Repeated searches over one graph (shared zone store and config memo).


class TestSharedGraphCaching:
    def test_second_search_repeats_the_first(self):
        graph = ZoneGraph(make_fischer(3))
        first = explore(graph)
        stats_first = graph.stats.snapshot()
        second = explore(graph)
        assert (second.found, second.states_explored,
                second.states_stored) == \
            (first.found, first.states_explored, first.states_stored)
        # Logical stats of the second run == delta == the first run's.
        assert tuple(b - a for a, b in
                     zip(stats_first, graph.stats.snapshot())) == stats_first

    def test_second_deadlock_query_repeats_the_first(self):
        verifier = Verifier(make_traingate(3))
        first = verifier.deadlock_free()
        second = verifier.deadlock_free()
        assert (second.holds, second.states_explored) == \
            (first.holds, first.states_explored)

    def test_interning_shares_zone_objects(self):
        graph = ZoneGraph(make_fischer(3))
        explore(graph)
        assert graph.zone_store.hits > 0
        assert graph.zone_store.distinct > 0


# ---------------------------------------------------------------------------
# Serial vs parallel observability totals.


def _observed_explore(n):
    result = explore(ZoneGraph(make_fischer(n)))
    return (result.found, result.states_explored, result.states_stored)


class TestParallelEquivalence:
    def test_parallel_obs_totals_match_serial(self):
        tasks = [(2,), (3,), (2,), (3,)]
        with collecting() as serial_c:
            serial = SerialExecutor().map(_observed_explore, tasks)
        with ParallelExecutor(workers=2) as pool:
            with collecting() as parallel_c:
                parallel = pool.map(_observed_explore, tasks)
        assert parallel == serial
        assert _logical_mc(parallel_c.snapshot()) == \
            _logical_mc(serial_c.snapshot())
