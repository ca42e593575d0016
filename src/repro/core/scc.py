"""Strongly connected components on pure-Python lists.

The one Tarjan of the package: the MDP graph core
(:mod:`repro.mdp.graph`) runs it on the residue its sink peel leaves,
and liveness checking (:mod:`repro.mc.liveness`) on the ``!phi``
sub-graph of a symbolic graph, which must not load numpy.
"""

from __future__ import annotations


def tarjan_scc(n, offsets, targets):
    """Iterative Tarjan over a CSR adjacency.

    ``offsets`` (length ``n + 1``) and ``targets`` are plain Python
    lists — the successors of ``v`` are ``targets[offsets[v]:
    offsets[v + 1]]``.  Returns ``(scc_of, count)`` where ``scc_of`` is
    a list assigning component ids in completion order, i.e. reverse
    topological order: every component reachable from ``C`` (other
    than ``C`` itself) has a smaller id.
    """
    unvisited = -1
    index = [unvisited] * n
    lowlink = [0] * n
    on_stack = [False] * n
    scc_of = [unvisited] * n
    stack = []
    next_index = 0
    comp = 0
    for root in range(n):
        if index[root] != unvisited:
            continue
        index[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, offsets[root])]
        while work:
            v, ptr = work[-1]
            if ptr < offsets[v + 1]:
                work[-1] = (v, ptr + 1)
                w = targets[ptr]
                if index[w] == unvisited:
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, offsets[w]))
                elif on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc_of[w] = comp
                        if w == v:
                            break
                    comp += 1
                if work:
                    u = work[-1][0]
                    if lowlink[v] < lowlink[u]:
                        lowlink[u] = lowlink[v]
    return scc_of, comp
