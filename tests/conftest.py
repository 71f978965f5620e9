import itertools
import random
from collections import Counter

import pytest

from parcay.constructions import complete_graph, cycle_graph  # noqa: F401
from parcay.graph import ColouredGraph


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_connected_graph(n, p, seed):
    """Random spanning tree plus density-p extra edges."""
    rng = random.Random(seed)
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    order = list(range(n))
    rng.shuffle(order)
    present = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        g.add_edge(u, v)
        present.add(frozenset((u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((i, j)) not in present and rng.random() < p:
                g.add_edge(i, j)
    return g


def scan_out_darts(g, v):
    """Independent oracle: the darts leaving v, by a scan of every dart."""
    return {d for d in range(g.n_darts) if g.tau[g.inv[d]] == v}


def scan_connected(g, vertices):
    """Independent oracle: connectivity of the subgraph induced on
    ``vertices``, by a union-find over every dart."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for d in range(g.n_darts):
        u, w = g.tau[g.inv[d]], g.tau[d]
        if u in parent and w in parent:
            parent[find(u)] = find(w)
    return len({find(v) for v in parent}) <= 1


def brute_force_automorphisms(g, colour_preserving=False):
    """Independent oracle: every vertex permutation that maps the multiset
    of darts (source, head and, if asked, colour) onto itself, in
    lexicographic order."""
    def darts(p):
        return Counter((p[g.tau[g.inv[d]]], p[g.tau[d]],
                        g.colour[d] if colour_preserving else None)
                       for d in range(g.n_darts))

    identity = darts(range(g.n))
    return [p for p in itertools.permutations(range(g.n)) if darts(p) == identity]


def bfs_levels(g, cuts, start=0):
    """Nested vertex sets from BFS prefixes; each induces a connected
    subgraph."""
    from collections import deque
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbours(v):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return [frozenset(order[:k]) for k in cuts]


def brute_force_max_matching_size(g):
    """Independent oracle: exhaustive search over all matchings."""
    edges = [d for d in g.edges() if not g.is_loop(d)]

    def best(i, used):
        if i == len(edges):
            return 0
        score = best(i + 1, used)
        u, v = g.edge_ends(edges[i])
        if u not in used and v not in used:
            score = max(score, 1 + best(i + 1, used | {u, v}))
        return score

    return best(0, frozenset())


def all_matchings(g):
    """Every matching of a small graph, as lists of canonical darts."""
    edges = [d for d in g.edges() if not g.is_loop(d)]
    out = []

    def rec(i, used, chosen):
        if i == len(edges):
            out.append(tuple(chosen))
            return
        rec(i + 1, used, chosen)
        u, v = g.edge_ends(edges[i])
        if u not in used and v not in used:
            chosen.append(edges[i])
            rec(i + 1, used | {u, v}, chosen)
            chosen.pop()

    rec(0, frozenset(), [])
    return out


@pytest.fixture
def petersen_sp():
    from parcay.builder import build_sp
    from parcay.constructions import petersen_presentation
    from parcay.presentation import from_two_partite

    return build_sp(from_two_partite(petersen_presentation(5, 2)))
