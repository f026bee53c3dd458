"""The key-dict reachability walks, kept as a test oracle.

These are the breadth-first closure and the Tarjan components that the
library ran on a graph mapping each window key to its target keys, before
the reach graph was indexed by key position.  Tests compare the position
route of ``gtmodules.structure`` against them.
"""

from __future__ import annotations

from gtmodules.structure import key_sort_key
from gtmodules.tableau import TabKey

KeyGraph = dict[TabKey, list[TabKey]]


def key_graph(succ: list[list[int]], keys: list[TabKey]) -> KeyGraph:
    """The position-indexed reach graph as a key dict, in key order."""
    return {key: [keys[i] for i in targets] for key, targets in zip(keys, succ)}


def key_closure(graph: KeyGraph, key: TabKey) -> frozenset[TabKey]:
    """Keys reachable from key; truncation at the window boundary can only
    omit keys, never add them."""
    seen = {key}
    frontier = [key]
    while frontier:
        nxt = []
        for cur in frontier:
            for tkey in graph[cur]:
                if tkey not in seen:
                    seen.add(tkey)
                    nxt.append(tkey)
        frontier = nxt
    return frozenset(seen)


def key_components(graph: KeyGraph) -> list[frozenset[TabKey]]:
    """Strongly connected components, largest first and then by their least
    key; boundary keys often form singletons, so claims are read on
    interior keys only."""
    index: dict[TabKey, int] = {}
    low: dict[TabKey, int] = {}
    on_stack: set[TabKey] = set()
    stack: list[TabKey] = []
    components: list[frozenset[TabKey]] = []
    counter = [0]

    def strongconnect(root: TabKey):
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                components.append(frozenset(comp))

    for k in graph:
        if k not in index:
            strongconnect(k)
    return sorted(components, key=lambda c: (-len(c), min(key_sort_key(k) for k in c)))
