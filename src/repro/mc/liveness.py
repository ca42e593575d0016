"""Liveness checking: ``A<> phi``, ``E[] phi`` and leads-to.

Implemented on the materialised symbolic graph (without inclusion
abstraction, which is unsound for liveness).  ``A<> phi`` fails exactly
when a maximal path avoiding ``phi`` exists: a reachable cycle or a
reachable sink inside the ``!phi`` sub-graph.  Leads-to quantifies this
over every reachable premise state.

As in UPPAAL, runs are not checked for zenoness: a cycle of the symbolic
graph counts as an infinite run.  Also as in UPPAAL, a run that merely
lets time diverge inside a state with enabled actions is *not* a
counterexample (implicit action-progress assumption) — only ``!phi``
cycles and stuck states refute inevitability.  This is what makes the
paper's train-gate liveness properties hold although the ``Stop``
location carries no invariant.

The exact graph comes from :func:`repro.mc.reachability.build_graph`
on the shared exploration core: node identity is interned-zone
identity, and exceeding the state cap raises
:class:`~repro.core.errors.SearchLimitError` instead of a bare
``MemoryError`` so callers can react to "budget exceeded"
programmatically (liveness cannot fall back to inclusion abstraction,
so the only remedies are a larger budget or a coarser model).
"""

from __future__ import annotations

from ..core.scc import tarjan_scc


def _restricted_graph(network, nodes, edges, keep):
    """Successor lists restricted to states satisfying ``keep``."""
    kept = [keep(network, node) for node in nodes]
    restricted = []
    for i, succs in enumerate(edges):
        if not kept[i]:
            restricted.append([])
            continue
        restricted.append([j for _t, j in succs if kept[j]])
    return kept, restricted


def _nodes_on_bad_paths(kept, restricted, edges):
    """Indices of kept nodes from which a maximal kept path exists.

    A maximal kept path either loops inside the kept sub-graph (a cycle,
    found via an SCC pass) or ends in a node with *no successors at all*
    in the full graph (a stuck state).  Nodes that merely exit the kept
    region are fine.  Returns the set of kept nodes that can reach a bad
    node within the kept sub-graph.
    """
    n = len(restricted)
    bad = set()
    for i in range(n):
        if kept[i] and not edges[i]:
            bad.add(i)  # stuck forever in a !phi state
    bad |= _cycle_nodes(kept, restricted)
    # Backward reachability within the kept sub-graph.
    reverse = [[] for _ in range(n)]
    for i, succs in enumerate(restricted):
        for j in succs:
            reverse[j].append(i)
    stack = list(bad)
    reachable = set(bad)
    while stack:
        j = stack.pop()
        for i in reverse[j]:
            if i not in reachable and kept[i]:
                reachable.add(i)
                stack.append(i)
    return reachable


def _cycle_nodes(kept, restricted):
    """Nodes on a cycle of the kept sub-graph: kept nodes in an SCC of
    more than one node, or with a self-loop."""
    offsets = [0]
    targets = []
    for succs in restricted:
        targets.extend(succs)
        offsets.append(len(targets))
    scc_of, count = tarjan_scc(len(restricted), offsets, targets)
    size = [0] * count
    for component in scc_of:
        size[component] += 1
    return {i for i, succs in enumerate(restricted)
            if kept[i] and (size[scc_of[i]] > 1 or i in succs)}


def check_af(network, nodes, edges, initial, phi):
    """``A<> phi`` from the initial node.  Returns (holds, counterexample
    node index or None)."""
    kept, restricted = _restricted_graph(
        network, nodes, edges, lambda nw, s: not phi.holds(nw, s))
    if not kept[initial]:
        return True, None
    bad = _nodes_on_bad_paths(kept, restricted, edges)
    if initial in bad:
        return False, initial
    return True, None


def check_eg(network, nodes, edges, initial, phi):
    """``E[] phi``: a maximal path staying in phi exists."""
    kept, restricted = _restricted_graph(
        network, nodes, edges, lambda nw, s: phi.holds(nw, s))
    if not kept[initial]:
        return False, None
    bad = _nodes_on_bad_paths(kept, restricted, edges)
    if initial in bad:
        return True, initial
    return False, None


def check_leadsto(network, nodes, edges, initial, premise, conclusion):
    """``premise --> conclusion`` over all reachable states.

    Returns (holds, offending node index or None).
    """
    kept, restricted = _restricted_graph(
        network, nodes, edges, lambda nw, s: not conclusion.holds(nw, s))
    bad = _nodes_on_bad_paths(kept, restricted, edges)
    for i, node in enumerate(nodes):
        if premise.holds(network, node) and i in bad:
            return False, i
    return True, None
