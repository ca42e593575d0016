"""Nondeterministic overapproximation of PTA (the mctau construction).

mctau (paper, Section III) connects MODEST models to UPPAAL by
*overapproximating* probabilistic choices with nondeterministic ones:
every probabilistic branch becomes an ordinary edge.  Safety properties
("something bad is unreachable") proved on the overapproximation hold
for the PTA; quantitative properties only get the trivial bound [0, 1].
"""

from __future__ import annotations

from ..ta.network import Network
from ..ta.syntax import Automaton, edge_branches


def overapproximate_automaton(pta):
    """A plain TA with one edge per probabilistic branch."""
    ta = Automaton(pta.name, clocks=pta.clocks)
    for name, loc in pta.locations.items():
        ta.add_location(name, invariant=loc.invariant,
                        committed=loc.committed, urgent=loc.urgent,
                        rate=loc.rate)
    ta.initial_location = pta.initial_location
    for edge in pta.edges:
        for branch in edge_branches(edge):
            ta.add_edge(edge.source, branch.target, guard=edge.guard,
                        data_guard=edge.data_guard, sync=edge.sync,
                        resets=branch.resets, update=branch.update,
                        label=edge.label)
    return ta


def overapproximate_network(pta_network):
    """The TA network overapproximating a PTA network."""
    ta_net = Network(f"{pta_network.name}-overapprox")
    ta_net.declarations = pta_network.declarations
    for channel in pta_network.channels.values():
        ta_net.add_channel(channel.name, broadcast=channel.broadcast,
                           urgent=channel.urgent)
    for process in pta_network.processes:
        ta_net.add_process(process.name,
                           overapproximate_automaton(process.automaton))
    return ta_net.freeze()
