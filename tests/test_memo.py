"""Where memo tables live, and for how long.

A table owned by one search is a plain ``dict``; a table shared across
searches or runs is a :class:`repro.core.MemoTable`, bounded by
generations; a table derived from a frozen network lives on it
(:meth:`repro.ta.Network.derived`).  These tests hold each home to its
promise: a dropped network is freed with every table built for it,
copies of a network carry none, a table that renews every few entries
changes no output, and the simulators and the game arena run without
loading the zone-based model checker.
"""

import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_digital_unfold import networks

from repro.core import MemoTable, ModelError
from repro.mc import explore
from repro.models.traingame import make_traingame
from repro.models.traingate import make_traingate
from repro.pta import DigitalSimulator, build_digital_mdp, digital_semantics
from repro.smc import StochasticSimulator
from repro.smc.stochastic import config_plans
from repro.ta import ZoneGraph
from repro.ta.discrete import DiscreteSemantics

SRC = Path(__file__).resolve().parents[1] / "src"


def use(network):
    """Run every engine that keeps tables for a network over it."""
    build_digital_mdp(network)
    explore(ZoneGraph(network))
    DigitalSimulator(network, rng=1).run(max_time=20)
    StochasticSimulator(network, rng=1).run(max_time=20)


def scale_clock_bounds(network, factor):
    """Multiply every clock bound of the network's invariants and
    guards by ``factor``, in place."""
    atoms = {}
    for process in network.processes:
        for location in process.locations:
            atoms.update((id(atom), atom) for atom in location.invariant)
        for edge in process.automaton.edges:
            atoms.update((id(atom), atom) for atom in edge.guard)
    for atom in atoms.values():
        atom.bound *= factor


class TestMemoTable:
    def test_renews_at_maxsize_and_counts_generations(self):
        table = MemoTable()
        table.maxsize = 2
        table.add("a", 1)
        table.add("b", 2)
        assert dict(table) == {"a": 1, "b": 2}
        assert table.generation == 0
        table.add("c", 3)
        assert dict(table) == {"c": 3}
        assert table.generation == 1
        table["c"] = 4   # an existing key is only replaced
        table.add("d", 5)
        assert dict(table) == {"c": 4, "d": 5}
        assert table.generation == 1

    def test_default_bound(self):
        assert MemoTable().maxsize == 1 << 16


def _explored(network, extra, maxsize=None):
    semantics = DiscreteSemantics(network, extra)
    if maxsize is not None:
        semantics._configs.maxsize = maxsize
    try:
        states, sources, fires, ends, targets, probs = semantics.explore(
            semantics.initial(), 100000, "digital MDP")
    except ModelError as error:
        return str(error), semantics._configs
    labels = [None if fire is None else fire.label for fire in fires]
    return ([s.key() for s in states], sources, labels, ends, targets,
            probs), semantics._configs


@settings(max_examples=60, deadline=None)
@given(networks())
def test_renewing_config_table_explores_the_same_arena(case):
    """``explore`` reads the shared configuration table directly, so a
    table that renews every few configurations mid-build must give the
    same states and buffers as the default one."""
    make, extra, _free = case
    network = make()
    constants = {process.resolve_clock(name): value
                 for name, value in extra.items()
                 for process in network.processes
                 if name in process.clock_index}
    expected, default = _explored(make(), constants)
    got, renewing = _explored(network, constants, maxsize=2)
    assert got == expected
    assert default.generation == 0
    if len(default) > 2:
        assert renewing.generation > 0


def test_dropped_network_is_freed_with_its_tables():
    network = make_traingate(2)
    use(network)
    dropped = weakref.ref(network)
    del network
    gc.collect()
    assert dropped() is None


@pytest.mark.parametrize("clone", [
    copy.deepcopy,
    lambda network: pickle.loads(pickle.dumps(network)),
], ids=["deepcopy", "pickle"])
def test_copies_carry_no_derived_tables(clone):
    network = make_traingame(2)
    use(network)
    twin = clone(network)
    assert len(config_plans(twin)) == 0 < len(config_plans(network))
    assert (len(digital_semantics(twin).step_plans) == 0
            < len(digital_semantics(network).step_plans))


def test_scaled_copy_reads_its_own_constants():
    network = make_traingate(2)
    use(network)
    assert network.max_constants() == [0, 20, 20]
    twin = copy.deepcopy(network)
    scale_clock_bounds(twin, 2)
    assert twin.max_constants() == [0, 40, 40]
    assert network.max_constants() == [0, 20, 20]


def test_game_and_simulators_load_no_model_checker():
    # A fresh interpreter, so no other test's imports count.  Only
    # repro.* names are compared: the stdlib's import graph differs
    # between Python versions.
    code = (
        "import sys\n"
        "from repro import pta, smc, tiga\n"
        "from repro.models import brp\n"
        "from repro.models.traingame import make_traingame\n"
        "from repro.models.traingate import make_traingate\n"
        "tiga.GameGraph(make_traingame(1))\n"
        "pta.DigitalSimulator(brp.make_brp(2, 2, 1), rng=1)"
        ".run(max_time=50)\n"
        "smc.StochasticSimulator(make_traingate(2), rng=1)"
        ".run(max_time=50)\n"
        "print('\\n'.join(m for m in sys.modules "
        "if m.startswith('repro.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True).stdout.split()
    assert {"repro.tiga", "repro.pta", "repro.smc"} <= set(loaded)
    assert [m for m in loaded if m.startswith("repro.mc")] == []
