import itertools
import random
from collections import Counter

import pytest

from parcay.acceptance import all_matchings  # noqa: F401
from parcay.constructions import complete_graph, cycle_graph  # noqa: F401
from parcay.decompose import maximum_matching
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


def two_sided_closure(perms, cap=None):
    """Independent oracle for ``mulclose``: close a permutation set by
    multiplying every new element by every element found so far, on both
    sides; None once the closure has more than ``cap`` elements."""
    def mul(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    n = len(next(iter(perms)))
    ident = tuple(range(n))
    group = {ident}
    frontier = set(perms) - group
    group |= frontier
    while frontier:
        new = set()
        for p in frontier:
            for q in list(group):
                for r in (mul(p, q), mul(q, p)):
                    if r not in group:
                        new.add(r)
            if cap is not None and len(group) + len(new) > cap:
                return None
        group |= new
        frontier = new
    return group


def table_cayley_graph(group, gens):
    """Independent oracle for ``build_sp`` of one-class presentations: the
    Cayley graph of a ``FiniteGroupTable``, read straight off its
    multiplication table.  ``gens`` maps each free generator's name to its
    element; every element x gets an edge x -> x s coloured by that name,
    and every vertex is in class "0"."""
    g = ColouredGraph()
    for _ in range(len(group)):
        g.add_vertex(cls="0")
    for name in gens:
        g.declare_colour(name, name + "^-1")
    for x in range(len(group)):
        for name, s in gens.items():
            g.add_edge(x, group.mul(x, s), name)
    return g


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


def doubled_graph_coverable(g, vertices):
    """Independent oracle for ``is_coverable``: take two copies of the graph
    without its loops and join each vertex outside ``vertices`` to its copy;
    the set is coverable exactly when that graph has a perfect matching."""
    forced = set(vertices)
    gg = ColouredGraph()
    for _ in range(2 * g.n):
        gg.add_vertex()
    for d in g.edges():
        u, v = g.edge_ends(d)
        if u != v:
            gg.add_edge(u, v)
            gg.add_edge(g.n + u, g.n + v)
    for v in range(g.n):
        if v not in forced:
            gg.add_edge(v, g.n + v)
    return maximum_matching(gg).is_perfect()


@pytest.fixture
def petersen_sp():
    from parcay.builder import build_sp
    from parcay.constructions import petersen_presentation
    from parcay.presentation import from_two_partite

    return build_sp(from_two_partite(petersen_presentation(5, 2)))
