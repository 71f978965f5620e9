import itertools
import math
import random
import re
from collections import Counter, deque

import pytest
from hypothesis import assume, strategies as st

from parcay.acceptance import all_matchings  # noqa: F401
from parcay.constructions import (complete_graph, cycle_graph,  # noqa: F401
                                  cyclic_group, dihedral_group,
                                  generalized_petersen, petersen_presentation)
from parcay.decompose import euler_orientation, maximum_matching
from parcay.errors import (DslSyntaxError, GraphSyntaxError, SemanticError,
                          WordSyntaxError)
from parcay.graph import (ColouredGraph, _dictated_darts, _perm_mul,
                          alphabet_graph, cayley_like_witness, mulclose,
                          spanning_tree)
from parcay.presentation import (PartitePresentation, Violation,
                                 from_two_partite)
from parcay.words import MAX_WORD_LETTERS, Alphabet, ClassAction, Word
from parcay.words import reduce as word_reduce


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
    return {d for d in range(g.n_darts) if g.tau[d ^ 1] == v}


def scan_connected(g, vertices):
    """Independent oracle: connectivity of the subgraph induced on
    ``vertices``, by a union-find over every dart."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for d in range(g.n_darts):
        u, w = g.tau[d ^ 1], g.tau[d]
        if u in parent and w in parent:
            parent[find(u)] = find(w)
    return len({find(v) for v in parent}) <= 1


def deque_bfs(g, roots):
    """Reference BFS forest: from each of ``roots`` that no earlier BFS
    reached, a BFS with a ``deque`` and a set of seen vertices, reading
    out-darts in dart order.  Returns (the tree dart into each vertex, None
    at a root and at a vertex no BFS reaches, the vertices in BFS order)."""
    parent, order, seen = [None] * g.n, [], set()
    for base in roots:
        if base in seen:
            continue
        seen.add(base)
        order.append(base)
        queue = deque([base])
        while queue:
            v = queue.popleft()
            for d in g.out_darts(v):
                w = g.tau[d]
                if w not in seen:
                    seen.add(w)
                    parent[w] = d
                    order.append(w)
                    queue.append(w)
    return parent, order


def root_path_tree_cycle(g, alphabet, d):
    """Independent oracle for the cycle of a non-tree edge through the BFS
    tree of ``spanning_tree(g, 0)``: ``(vertex, letters)``, the lowest
    common ancestor of the edge's ends and the letters of the cycle from
    it, down the tree to the source of d, across d and up from its head.
    The ancestor ends the longest common prefix of the two root paths, and
    a dart's letter is read from its colour's name: ``x`` is the code of
    generator x, ``x^-1`` its negative."""
    parent, _ = spanning_tree(g, 0)

    def root_path(v):
        darts = []
        while parent[v] is not None:
            darts.append(parent[v])
            v = g.src(parent[v])
        return darts[::-1]

    def letter(e):
        name = g.colour[e]
        if name.endswith("^-1"):
            return alphabet.code(name[:-3], -1)
        return alphabet.code(name)

    down, up = root_path(g.src(d)), root_path(g.tau[d])
    k = 0
    while k < min(len(down), len(up)) and down[k] == up[k]:
        k += 1
    ancestor = g.tau[down[k - 1]] if k else 0
    cycle = down[k:] + [d] + [e ^ 1 for e in reversed(up[k:])]
    return ancestor, tuple(letter(e) for e in cycle)


def brute_force_maps(g, h, colour_preserving=False):
    """Independent oracle: every vertex bijection from g to h that maps the
    multiset of g's darts (source, head and, if asked, colour) onto h's, in
    lexicographic order.  With h = g, the automorphisms."""
    def darts(x, p):
        return Counter((p[x.tau[d ^ 1]], p[x.tau[d]],
                        x.colour[d] if colour_preserving else None)
                       for d in range(x.n_darts))

    if g.n != h.n:
        return []
    target = darts(h, range(h.n))
    return [p for p in itertools.permutations(range(g.n))
            if darts(g, p) == target]


def listing_is_vertex_transitive(auts, n):
    """Independent oracle for ``is_vertex_transitive``, given the complete
    automorphism list of a graph of n vertices: the images of vertex 0 are
    every vertex.  The empty graph is not vertex transitive."""
    return n > 0 and len({a[0] for a in auts}) == n


def semiregular_subgroup_cayley(auts, n):
    """Independent oracle for ``is_cayley``, given the complete automorphism
    list of a graph of n vertices: a depth-first search over the subgroups
    generated by identity and fixed-point-free automorphisms, closed by
    ``two_sided_closure``, keeping those that are semiregular and of order
    dividing n.  A generator tuple of a regular subgroup, or None."""
    ident = tuple(range(n))

    def fixed_point_free(p):
        return all(p[i] != i for i in range(n))

    elements = [p for p in auts if p == ident or fixed_point_free(p)]
    seen = set()
    stack = [(frozenset([ident]), ())]
    while stack:
        group, gens = stack.pop()
        if group in seen:
            continue
        seen.add(group)
        if len(group) == n:
            if len({p[0] for p in group}) == n:
                return gens
            continue
        for p in elements:
            if p in group:
                continue
            closed = two_sided_closure(gens + (p,), cap=n)
            if closed is None or n % len(closed):
                continue
            closed = frozenset(closed)
            if closed not in seen and all(q == ident or fixed_point_free(q)
                                          for q in closed):
                stack.append((closed, gens + (p,)))
    return None


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


def action_darts(p):
    """Independent oracle for ``presentation_graph``: the multiset of its
    darts as (source class, head class, colour), read off the class action.
    A free generator a gives, at every class x, the dart x -> a(x) coloured
    a and its reverse coloured a^-1; an involutive generator b, a
    fixed-point-free involution, gives the dart x -> b(x) coloured b at
    every class x, so each of its edges is counted from both ends."""
    darts = Counter()
    for name in p.alphabet.u_gens:
        for x, y in p.action.table(name).items():
            darts[(x, y, name)] += 1
            darts[(y, x, name + "^-1")] += 1
    for name in p.alphabet.i_gens:
        for x, y in p.action.table(name).items():
            darts[(x, y, name)] += 1
    return darts


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


# Independent oracles for the matching layer: Edmonds' search with a fresh
# scratch of n entries per call and blossoms contracted by a scan of every
# vertex, and the exhaustion checks by a pass over each level.

def per_call_blossom_search(adj, match, root, release=None):
    """Edmonds' search from the exposed vertex ``root`` on the mate list
    ``match``, flipping an augmenting path (or, with ``release``, an even
    alternating path to the first released outer vertex); a failed search
    returns False and leaves ``match`` as it was."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a, b):
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def flip(u):
        while u != -1:
            pv = parent[u]
            ppv = match[pv]
            match[u] = pv
            match[pv] = u
            u = ppv
        return True

    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if release is not None and v != root and release(v):
            u = match[v]
            match[v] = -1
            return flip(u)
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return flip(to)
                used[match[to]] = True
                queue.append(match[to])
    return False


def per_call_maximum_mates(g):
    """Neighbour lists of g without its loops, and the mate list after one
    ``per_call_blossom_search`` from each vertex still exposed."""
    adj = [[g.tau[d] for d in g.out_darts(v) if g.tau[d] != v]
           for v in range(g.n)]
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1 and adj[v]:
            per_call_blossom_search(adj, match, v)
    return adj, match


def per_call_cover_greedy(g, order):
    """The mate list and forced set of ``infmatch._cover_greedy``, with a
    ``per_call_blossom_search`` per missed vertex."""
    adj, match = per_call_maximum_mates(g)
    forced = set()
    for v in order:
        if match[v] != -1 or per_call_blossom_search(
                adj, match, v, lambda x: x not in forced):
            forced.add(v)
    return match, forced


def per_level_connected(exhaustion):
    """Every level induces a connected subgraph, by ``scan_connected``."""
    return all(scan_connected(exhaustion.graph, B) for B in exhaustion.levels)


def per_level_miss_sequence(matching, exhaustion):
    """The vertices of each level the matching misses, counted level by
    level."""
    return tuple(sum(1 for v in B if not matching.covers(v))
                 for B in exhaustion.levels)


def per_level_shell(exhaustion, v):
    """Index of the first level containing v, or None, by a scan of the
    levels."""
    for i, B in enumerate(exhaustion.levels):
        if v in B:
            return i
    return None


# Independent oracle for the 2-factorization: the proof of Petersen's
# theorem run once per factor, as it stood before one orientation served
# every factor.  Each factor orients the subgraph of the edges left, and
# Kuhn's search allocates a fresh ``seen`` list per left vertex.

def per_factor_two_factorization(g, pool):
    """Partition of the sorted canonical darts ``pool`` into 2-factors."""
    remaining, factors = pool, []
    while remaining:
        sub = g.subgraph_edges(remaining)
        adj = [[] for _ in range(g.n)]
        for d in euler_orientation(sub):
            adj[sub.src(d)].append((sub.tau[d], remaining[d >> 1]))
        match_right, match_left = [-1] * g.n, [None] * g.n

        def try_augment(l, seen):
            for r, dart in adj[l]:
                if not seen[r]:
                    seen[r] = True
                    if match_right[r] == -1 or try_augment(match_right[r], seen):
                        match_right[r], match_left[l] = l, dart
                        return True
            return False

        for l in range(g.n):
            try_augment(l, [False] * g.n)
        factors.append(sorted(match_left))
        remaining = sorted(set(remaining) - set(match_left))
    return factors


# Independent oracles for the colour-class walks: the multicycle predicates
# by a BFS over each class with its own degree count, the cycle orientation
# by a least-neighbour walk, and the symmetric-difference report by a DFS
# over the difference with its own degree count.

def colour_classes(colouring):
    """The classes of a colouring (canonical dart -> colour): colour -> its
    darts, sorted."""
    classes = {}
    for d, c in colouring.items():
        classes.setdefault(c, []).append(d)
    return {c: sorted(ds) for c, ds in classes.items()}


def class_degree(g, colouring, colour):
    """Per-vertex degrees of one colour class."""
    deg = [0] * g.n
    for d, c in colouring.items():
        if c != colour:
            continue
        u, v = g.edge_ends(d)
        deg[u] += 1
        deg[v] += 1
    return deg


def bfs_class_components(g, darts):
    """Components of one colour class: list of (vertex set, edge set)."""
    adj = {}
    for d in darts:
        u, v = g.edge_ends(d)
        adj.setdefault(u, []).append((v, d))
        adj.setdefault(v, []).append((u, d))
    seen = set()
    out = []
    for start in adj:
        if start in seen:
            continue
        comp_v = set()
        comp_e = set()
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp_v.add(v)
            for w, d in adj[v]:
                comp_e.add(d)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append((comp_v, comp_e))
    return out


def bfs_is_weak_multicycle(g, colouring):
    if set(colouring) != set(g.edges()):
        return False
    for colour, darts in colour_classes(colouring).items():
        deg = Counter()
        for d in darts:
            u, v = g.edge_ends(d)
            deg[u] += 1
            deg[v] += 1
        if any(k > 2 for k in deg.values()):
            return False
        for comp_v, comp_e in bfs_class_components(g, darts):
            ones = [v for v in comp_v if deg[v] == 1]
            if ones and len(comp_e) != 1:
                return False
            if not ones and len(comp_e) != len(comp_v):
                return False
    return True


def bfs_is_partition_friendly(g, colouring):
    if not bfs_is_weak_multicycle(g, colouring):
        return False
    for colour in colour_classes(colouring):
        deg = class_degree(g, colouring, colour)
        if len(set(deg)) != 1 or deg[0] == 0:
            return False
    return True


def bfs_is_multicycle(g, colouring):
    if not bfs_is_partition_friendly(g, colouring):
        return False
    for colour, darts in colour_classes(colouring).items():
        deg = class_degree(g, colouring, colour)
        if deg[0] == 1:
            continue
        lengths = {len(comp_e) for _, comp_e in bfs_class_components(g, darts)}
        if len(lengths) != 1:
            return False
    return True


def least_neighbour_successors(g, darts):
    """Orientation of a class of cycles: the successor dart per vertex, each
    cycle traversed from its least vertex toward its least (head, dart)."""
    free = set(darts) | {d ^ 1 for d in darts}
    succ = {}
    for start in sorted({g.src(d) for d in free}):
        here = start
        while here not in succ:
            e = min((x for x in g.out_darts(here) if x in free),
                    key=lambda x: (g.tau[x], x))
            succ[here] = e
            free -= {e, e ^ 1}
            here = g.tau[e]
    return succ


def dfs_symmetric_difference_report(m1, m2, exhaustion):
    g = exhaustion.graph
    sym = m1.darts ^ m2.darts
    adj = {}
    for d in sym:
        u, v = g.edge_ends(d)
        adj.setdefault(u, []).append((v, d))
        adj.setdefault(v, []).append((u, d))
    seen_v = set()
    reports = []
    for start in sorted(adj):
        if start in seen_v:
            continue
        comp_v, comp_e = set(), set()
        stack = [start]
        seen_v.add(start)
        while stack:
            v = stack.pop()
            comp_v.add(v)
            for w, d in adj[v]:
                comp_e.add(d)
                if w not in seen_v:
                    seen_v.add(w)
                    stack.append(w)
        degrees = {v: sum(1 for _, d in adj[v] if d in comp_e) for v in comp_v}
        ends = sorted(v for v, k in degrees.items() if k == 1)
        kind = "cycle" if not ends else "path"
        boundary = bool(comp_v & exhaustion.frontier)
        alternating = all(
            len({d in m1.darts for _, d in adj[v] if d in comp_e}) == 2
            for v in comp_v if degrees[v] == 2)
        entry = {
            "kind": kind,
            "vertices": sorted(comp_v),
            "n_edges": len(comp_e),
            "boundary": boundary,
            "alternating": alternating,
            "even": len(comp_e) % 2 == 0,
        }
        if kind == "path" and not boundary:
            shells = [per_level_shell(exhaustion, v) for v in ends]
            entry["endpoint_shells"] = shells
            entry["same_shell"] = len(set(shells)) == 1
        reports.append(entry)
    return reports


@st.composite
def multigraphs(draw, max_vertices, max_edges, rebuilt=False):
    """Random multigraphs of 1 to ``max_vertices`` vertices and at most
    ``max_edges`` edges, loops and parallel edges allowed.  With
    ``rebuilt``, possibly passed through ``subgraph_edges`` or ``copy``, or
    grown: built from flat lists for its first vertices and some edges
    among them, then given the rest by ``add_vertex`` and ``add_edge``
    before anything reads its out-dart index."""
    n = draw(st.integers(1, max_vertices))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)):
        g.add_edge(u, v)
    if not rebuilt:
        return g
    how = draw(st.sampled_from(("built", "subgraph", "copy", "grown")))
    if how == "subgraph":
        g = g.subgraph_edges([d for d in g.edges() if draw(st.booleans())])
    elif how == "copy":
        g = g.copy()
    elif how == "grown":
        k = draw(st.integers(0, n))
        flat = [d for d in g.edges()
                if max(g.edge_ends(d)) < k and draw(st.booleans())]
        grown = ColouredGraph(k, [t for d in flat for t in (g.tau[d], g.src(d))])
        for _ in range(k, n):
            grown.add_vertex()
        for d in sorted(set(g.edges()) - set(flat)):
            grown.add_edge(*g.edge_ends(d))
        g = grown
    return g


@st.composite
def multigraph_colourings(draw):
    """A multigraph of at most 10 vertices, loops and parallel edges
    allowed, with an edge colouring.  Either the edges and colours are
    random and an edge may stay uncoloured, or each colour class is a
    spanning union of cycles of mixed lengths (a loop, two parallel edges,
    or a longer cycle) or a perfect matching, added in random order and
    direction, and then up to two edges are recoloured or uncoloured."""
    n = draw(st.integers(1, 10))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    colours = st.sampled_from(["x", "y", "z"])
    cycles = draw(st.booleans())
    if not cycles:
        ends = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(ends, ends, st.none() | colours),
                              max_size=2 * n))
    else:
        edges = []
        for colour in draw(st.lists(colours, min_size=1, max_size=3, unique=True)):
            order = draw(st.permutations(range(n)))
            if n % 2 == 0 and draw(st.booleans()):
                edges += [(order[i], order[i + 1], colour) for i in range(0, n, 2)]
                continue
            i = 0
            while i < n:
                cycle = order[i:i + draw(st.integers(1, n - i))]
                edges += [(v, cycle[(j + 1) % len(cycle)], colour)
                          for j, v in enumerate(cycle)]
                i += len(cycle)
        edges = [(v, u, c) if draw(st.booleans()) else (u, v, c)
                 for u, v, c in draw(st.permutations(edges))]
    mapping = {}
    for u, v, colour in edges:
        d = g.add_edge(u, v)
        if colour is not None:
            mapping[d] = colour
    recoloured = st.lists(st.sampled_from(sorted(mapping)), max_size=2,
                          unique=True) if cycles else st.just([])
    for d in draw(recoloured):
        colour = draw(st.none() | colours)
        if colour is None:
            del mapping[d]
        else:
            mapping[d] = colour
    return g, mapping


@st.composite
def odd_cycle_multigraphs(draw):
    """A multigraph of at most 30 vertices: up to five odd cycles on
    random vertices, so that searches contract blossoms, and up to 2n
    random edges, loops and parallel edges among them, added in random
    order.  Past 8 vertices a set of vertices no longer iterates in
    ascending order, which is where a blossom's queue order shows."""
    n = draw(st.integers(1, 30))
    edges = []
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.sampled_from([k for k in (3, 5, 7) if k <= n] or [1]))
        cycle = draw(st.permutations(range(n)))[:length]
        edges += [(v, cycle[(i + 1) % length]) for i, v in enumerate(cycle)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in draw(st.permutations(edges)):
        g.add_edge(u, v)
    return g


# P(n, k) with k^2 = -1 (mod n) and k < n/2: vertex transitive, and Cayley
# graphs (Nedela and Skoviera).
SQUARE_ROOTS_OF_MINUS_ONE = [(n, k) for n in range(5, 60)
                             for k in range(2, (n + 1) // 2)
                             if (k * k + 1) % n == 0]
# The largest group whose Cayley graph ``regular_graphs`` draws.
CAYLEY_ORDER = 120


@st.composite
def regular_graphs(draw):
    """``(family, graph)``: a connected regular multigraph from one of three
    families, with its vertices relabelled and its edges reordered and
    redirected at random.
    - "cayley": the group that 1-3 random permutations of at most 7 points
      generate, of order at most ``CAYLEY_ORDER``, with an edge x - x s per
      element x and generator s (one per pair {x, x s} for an involution s,
      a loop for the identity);
    - "petersen": P(n, k) with k^2 = -1 (mod n);
    - "factors": the 2-factors x - p(x) of up to two random permutations p
      (fixed points are loops, 2-cycles parallel pairs) and up to two random
      perfect matchings."""
    family = draw(st.sampled_from(("cayley", "petersen", "factors")))
    if family == "cayley":
        points = draw(st.integers(2, 7))
        gens = [tuple(p) for p in draw(st.lists(
            st.permutations(range(points)), min_size=1, max_size=3))]
        group = mulclose(gens, cap=CAYLEY_ORDER)
        assume(group is not None)
        elements = sorted(group)
        index = {x: i for i, x in enumerate(elements)}
        n, edges = len(elements), []
        for s in gens:
            involution = _perm_mul(s, s) == elements[0]
            for x in elements:
                i, j = index[x], index[_perm_mul(x, s)]
                if not involution or i <= j:
                    edges.append((i, j))
    elif family == "petersen":
        n, k = draw(st.sampled_from(SQUARE_ROOTS_OF_MINUS_ONE))
        g = generalized_petersen(n, k)
        n, edges = g.n, [g.edge_ends(d) for d in g.edges()]
    else:
        n = draw(st.integers(2, 12))
        matchings = draw(st.integers(0, 2)) if n % 2 == 0 else 0
        edges = []
        for _ in range(draw(st.integers(max(0, 2 - matchings), 2))):
            p = draw(st.permutations(range(n)))
            edges += [(v, p[v]) for v in range(n)]
        for _ in range(matchings):
            p = draw(st.permutations(range(n)))
            edges += [(p[i], p[i + 1]) for i in range(0, n, 2)]
    label = draw(st.permutations(range(n)))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for u, w in draw(st.permutations(edges)):
        if draw(st.booleans()):
            u, w = w, u
        g.add_edge(label[u], label[w])
    assume(g.is_connected())
    return family, g


def triple_scan_table_error(table):
    """Independent oracle for the group laws ``FiniteGroupTable`` checks on
    a square table of element indices: the message of the ``ValueError``
    for the first law broken, with associativity checked over all n^3
    triples, or None for a group."""
    n = len(table)
    identity = next((e for e in range(n) if all(
        table[e][x] == x == table[x][e] for x in range(n))), None)
    if identity is None:
        return "no identity element"
    if not all(any(table[x][y] == identity == table[y][x] for y in range(n))
               for x in range(n)):
        return "an element has no inverse"
    if any(table[table[x][y]][z] != table[x][table[y][z]]
           for x, y, z in itertools.product(range(n), repeat=3)):
        return "multiplication is not associative"
    return None


def _latin_square_with_identity(n, rng, symmetric):
    """A Latin square on 0..n-1 whose first row and column are 0..n-1, so
    that 0 is an identity: the cells filled row by row (only those on or
    above the diagonal, and mirrored, if ``symmetric``) by backtracking
    over the symbols in random order."""
    square = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n)
             for c in range(r if symmetric else 1, n)]

    def fill(i):
        if i == len(cells):
            return True
        r, c = cells[i]
        options = [x for x in range(n) if x not in square[r]
                   and all(row[c] != x for row in square)]
        rng.shuffle(options)
        for x in options + [None]:
            square[r][c] = x
            if symmetric:
                square[c][r] = x
            if x is not None and fill(i + 1):
                return True
        return False

    fill(0)
    return square


@st.composite
def group_law_tables(draw):
    """``(family, table)``: a square table of element indices, relabelled at
    random.
    - "group": the group that 1-2 random permutations of at most 5 points
      generate, of order at most 60;
    - "changed": such a group table with one entry changed;
    - "loop": a Latin square with an identity that is not a group table:
      of order 5-7 (5 is the least order of a loop that is not a group),
      or symmetric of order 6 (the least order of a commutative one).  A
      symmetric one has two-sided inverses, so only associativity fails."""
    family = draw(st.sampled_from(("group", "changed", "loop")))
    if family == "loop":
        symmetric = draw(st.booleans())
        n = 6 if symmetric else draw(st.integers(5, 7))
        table = _latin_square_with_identity(n, draw(st.randoms()), symmetric)
        assume(triple_scan_table_error(table) is not None)
    else:
        points = draw(st.integers(2, 5))
        gens = draw(st.lists(st.permutations(range(points)),
                             min_size=1, max_size=2))
        group = mulclose([tuple(p) for p in gens], cap=60)
        assume(group is not None)
        elements = sorted(group)
        index = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        table = [[index[_perm_mul(x, y)] for y in elements] for x in elements]
        if family == "changed":
            assume(n > 1)
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            table[x][y] = (table[x][y] + draw(st.integers(1, n - 1))) % n
    label = draw(st.permutations(range(n)))
    relabelled = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabelled[label[x]][label[y]] = label[table[x][y]]
    return family, relabelled


# Oracles for the graph families: ``generalized_petersen`` and ``bi_cayley``
# as they stood before they were built from flat lists.  They add one edge
# at a time, declare a colour pair at every edge and skip an edge whose key
# is already in a set of the edges added.

def petersen_by_edges(n, k):
    """Oracle for ``generalized_petersen(n, k)``."""
    g = ColouredGraph()
    xs = [g.add_vertex(name=("x", i)) for i in range(n)]
    ys = [g.add_vertex(name=("y", i)) for i in range(n)]
    for c in ("outer", "spoke", "inner"):
        g.declare_colour(c)
    for i in range(n):
        g.add_edge(xs[i], xs[(i + 1) % n], "outer")
    for i in range(n):
        g.add_edge(xs[i], ys[i], "spoke")
    seen = set()
    for i in range(n):
        j = (i + k) % n
        key = frozenset((i, j))
        if 2 * k % n != 0:
            if key in seen:
                continue
            seen.add(key)
        g.add_edge(ys[i], ys[j], "inner")
    return g


def bi_cayley_by_edges(group, R, L, S):
    """Oracle for ``bi_cayley`` on sorted inverse-closed R and L and a
    sorted S, all of distinct element indices."""
    g = ColouredGraph()
    side0 = [g.add_vertex(name=(group.names[x], 0), cls="0")
             for x in range(len(group))]
    side1 = [g.add_vertex(name=(group.names[x], 1), cls="1")
             for x in range(len(group))]

    def colour_pair(prefix, x):
        name = f"{prefix}:{group.names[x]}"
        inv = f"{prefix}:{group.names[group.inv(x)]}"
        g.declare_colour(name, inv)
        return name

    seen = set()
    for side, conn in ((side0, R), (side1, L)):
        prefix = "R" if side is side0 else "L"
        for x in range(len(group)):
            for r in conn:
                y = group.mul(x, r)
                key = (prefix, frozenset((x, y)), frozenset((r, group.inv(r))))
                if key in seen and r != group.inv(r):
                    continue
                seen.add(key)
                g.add_edge(side[x], side[y], colour_pair(prefix, r))
    for x in range(len(group)):
        for s in S:
            name = f"S:{group.names[s]}"
            g.declare_colour(name)
            g.add_edge(side0[x], side1[group.mul(x, s)], name)
    return g


@st.composite
def bi_cayley_arguments(draw):
    """``(group, R, L, S)`` for ``bi_cayley``: a cyclic group of order 1-12
    or a dihedral one of order 2-16, inverse-closed R and L in which the
    identity and involutions may lie, and any S; each may be empty."""
    if draw(st.booleans()):
        group = cyclic_group(draw(st.integers(1, 12)))
    else:
        group = dihedral_group(draw(st.integers(1, 8)))
    elements = st.sets(st.integers(0, len(group) - 1), max_size=len(group))
    R, L = ({x for y in draw(elements) for x in (y, group.inv(y))}
            for _ in "RL")
    return group, sorted(R), sorted(L), sorted(draw(elements))


# Shared by the tests of dictated walks and of the short-cycle relators.

def coloured_triangle():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    for i in range(3):
        g.add_edge(i, (i + 1) % 3, "a")
    return g


def walk_end(g, v, word):
    """Where the walk from v along the word's letters ends."""
    for d in _dictated_darts(g, cayley_like_witness(g), v, word):
        v = g.tau[d]
    return v


def petersen():
    """The two-class presentation of the Petersen graph P(5,2)."""
    return from_two_partite(petersen_presentation(5, 2))


@pytest.fixture
def petersen_sp():
    from parcay.builder import build_sp

    return build_sp(petersen())


# Independent oracle: the positional word scanner alone, with no token
# table in front of it.  It reads one factor at a time with the regular
# expression below, splits name runs longest match first and spells the
# letters out group by group.
_ORACLE_FACTOR = re.compile(r"\s*(?:(\()|(?:(\))|(\w+))(\s*\^\s*([+-]?[0-9]+)?)?)")
_ORACLE_SPACE = re.compile(r"\s*")


def _oracle_lex_names(run, alphabet, pos):
    if run in alphabet.names:
        return [run]
    out = []
    i = 0
    names = sorted(alphabet.names, key=len, reverse=True)
    while i < len(run):
        for name in names:
            if run.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise WordSyntaxError(f"unknown generator in {run!r}", pos + i)
    return out


def positional_parse_word(text, alphabet):
    groups = [[]]
    pos = 0
    while True:
        m = _ORACLE_FACTOR.match(text, pos)
        if m is None:
            break
        pos = m.end()
        opening, closing, run, caret, exponent = m.groups()
        if opening:
            groups.append([])
            continue
        if closing:
            if len(groups) == 1:
                raise WordSyntaxError("unexpected character ')'", m.start(2))
            sub = groups.pop()
        else:
            sub = [alphabet.code(name)
                   for name in _oracle_lex_names(run, alphabet, m.start(3))]
        k = 1
        if caret:
            if exponent is None:
                sign = text[pos:pos + 1] in ("+", "-")
                raise WordSyntaxError("expected an integer exponent", pos + sign)
            k = int(exponent)
        if len(groups[-1]) + len(sub) * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word longer than {MAX_WORD_LETTERS} letters",
                m.start(5 if caret else 2 if closing else 3))
        if k < 0:
            sub = [alphabet.inverse_letter(c) for c in reversed(sub)]
        if sub and abs(k) != 1:
            sub = sub * abs(k)
        groups[-1].extend(sub)
    pos = _ORACLE_SPACE.match(text, pos).end()
    if pos < len(text):
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    if len(groups) > 1:
        raise WordSyntaxError("unbalanced parenthesis", pos)
    return word_reduce(groups[0], alphabet)


# Oracle for the coset enumeration: the relator loops of ``CosetTable.run``
# and ``CosetTable.is_closed`` as they stood before a closed walk came to
# certify what it passes: a power of one letter, and its inverse power, at
# every row of its cycle, and any other relator's rotations, and those of
# its inverse, at the rows its walk reaches.  They scan every relator at
# every row of its class.  Under a distance budget the run keeps the same
# fit test, and processes again, by the table's ``held`` and ``again``, a
# row that the budget held back when its distance falls; it then scans
# every relator that fits there, closed or not.

def budget_reach(table):
    """The fit test of ``run`` under a distance budget R: a relator of
    length L fits at a row v when ``dist[v] + L`` is at most the first
    value returned, R plus the longest relator's length; rows nearer than
    the second, that less the shortest relator's length, define."""
    if table.max_dist is None:
        return math.inf, math.inf
    lengths = [len(r) for rels in table.relators.values() for r in rels] or [1]
    return table.max_dist + max(lengths), table.max_dist + max(lengths) - min(lengths)


def scan_everything_run(table):
    base = table.new_row(table.p.classes[0], 0)
    parent, slots, width, dist = table.parent, table.table, table.width, table.dist
    held, again = table.held, table.again
    reach, define_below = budget_reach(table)
    idx = 0
    while True:
        if again:
            v = again.pop()
            if not held.pop(v, 0):
                continue
        elif idx < len(parent):
            v = idx
            idx += 1
        else:
            return table.find(base)
        if parent[v] != v:
            continue
        for rel in table.relators[table.cls[v]]:
            if dist[v] + len(rel) > reach:
                held[v] = 1
                continue
            table.scan(v, rel)
            if parent[v] != v:
                break
        if parent[v] != v:
            continue
        if dist[v] >= define_below:
            held[v] = 1
            continue
        row = v * width
        for s in range(width):
            if slots[row + s] is None:
                table.define(v, s)


def settle(table):
    """Oracle for a finished budgeted run: the loop that once followed it.
    Every relator whose walk fits the budget at its row, by the fit test
    of ``run``, is scanned wherever it does not close, to a fixpoint."""
    reach, _ = budget_reach(table)
    while True:
        before = table.version
        for v in table.live_rows():
            for rel in table.relators[table.cls[v]]:
                v = table.find(v)
                if table.dist[v] + len(rel) > reach:
                    continue
                if not table.scan_closes(v, rel):
                    table.scan(v, rel)
        if table.version == before:
            return


def relators_close_within(table, radius):
    """Oracle for a ball's run: the check that ``ball_sp`` once made after
    it.  Every relator closes at every live row within ``radius``."""
    return all(table.scan_closes(v, rel)
               for v in table.live_rows() if table.dist[v] <= radius
               for rel in table.relators[table.cls[v]])


def table_distances(table, base=0):
    """Independent oracle for ``CosetTable.dist``: a BFS over the live rows
    of the table, through every filled slot."""
    width = table.width
    start = table.find(base)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in table.table[v * width:(v + 1) * width]:
            if w is not None:
                w = table.find(w)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return dist


def alphabet_graph_quotient(table, keep=None):
    """Oracle for ``CosetTable.to_graph``: the route it took before it wrote
    the darts itself.  Per generator, the row that each kept live row goes
    to; the graph of that action by ``alphabet_graph``, with the rows as
    points in row order; then its vertices renumbered by distance, then
    by row."""
    rows = [r for r in table.live_rows() if keep is None or keep(r)]
    point = {r: i for i, r in enumerate(rows)}
    width, alphabet = table.width, table.alphabet
    targets = {}
    for name in alphabet.names:
        s = table.codes.index(alphabet.code(name))
        image = targets[name] = []
        for r in rows:
            w = table.table[r * width + s]
            image.append(None if w is None else point.get(table.find(w)))
    g = alphabet_graph(alphabet, targets, rows, [table.cls[r] for r in rows])
    order = sorted(range(len(rows)), key=lambda i: table.dist[rows[i]])
    number = [0] * len(rows)
    for k, i in enumerate(order):
        number[i] = k
    return ColouredGraph(len(rows), [number[x] for x in g.tau], g.colour,
                         [rows[i] for i in order],
                         [g.classes[i] for i in order], g.colour_inv)


def free_product_balls(factors, radius):
    """Independent oracle for ``ball_sp``: the ball sizes 0..radius of the
    Cayley graph of a free product of cyclic groups, ``factors`` listing
    each factor's order (0 for Z), each generated by one letter and its
    inverse.  The spherical growth series f of the product satisfies
    1/f = sum(1/f_i) - (k - 1) over its k factors."""
    terms = radius + 1

    def inverse(a):
        inv = [1] + [0] * (terms - 1)
        for i in range(1, terms):
            inv[i] = -sum(a[j] * inv[i - j] for j in range(1, i + 1))
        return inv

    total = [0] * terms
    for m in factors:
        sphere = [1] + [2 if m == 0 or 2 * r < m else 1 if 2 * r == m else 0
                        for r in range(1, terms)]
        total = [x + y for x, y in zip(total, inverse(sphere))]
    total[0] -= len(factors) - 1
    return list(itertools.accumulate(inverse(total)))


def scan_everything_is_closed(table):
    slots, width = table.table, table.width
    for v in table.live_rows():
        if None in slots[v * width:(v + 1) * width]:
            return False
        for rel in table.relators[table.cls[v]]:
            if not table.scan_closes(v, rel):
                return False
    return True


def _return_path(action, codes, start, goal):
    """Letters of a shortest walk of the class action from start to goal."""
    path = {start: []}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for c in codes:
            y = action.image(c, x)
            if y not in path:
                path[y] = path[x] + [c]
                queue.append(y)
    return path[goal]


@st.composite
def power_presentations(draw):
    """Small partite presentations whose classes carry powers of one letter,
    class-fixing or class-moving, beside closed words that may use involutive
    letters.  The class action need not be transitive."""
    n = draw(st.integers(1, 4), label="classes")
    classes = tuple(str(i) for i in range(n))
    u_gens = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    i_gens = tuple(f"t{i}" for i in range(
        draw(st.integers(0, 2)) if n % 2 == 0 else 0))
    images = {}
    for name in u_gens:
        images[name] = dict(zip(classes, draw(st.permutations(classes))))
    for name in i_gens:
        perm = draw(st.permutations(classes))
        images[name] = {**dict(zip(perm[::2], perm[1::2])),
                        **dict(zip(perm[1::2], perm[::2]))}
    alphabet = Alphabet(u_gens, i_gens)
    action = ClassAction(alphabet, classes, images)
    codes = alphabet.letters()
    free = codes[:2 * len(u_gens)]
    relators = {}
    for x in classes:
        rels = relators[x] = []
        for s in draw(st.lists(st.sampled_from(free), min_size=1, max_size=3)):
            cycle, y = 1, action.image(s, x)
            while y != x:
                cycle, y = cycle + 1, action.image(s, y)
            e = cycle * draw(st.integers(1 if cycle > 1 else 2, 3))
            rels.append(Word(alphabet, [s] * e))
        for walk in draw(st.lists(st.lists(st.sampled_from(codes), min_size=1,
                                           max_size=4), min_size=1, max_size=2)):
            y = x
            for c in walk:
                y = action.image(c, y)
            word = Word(alphabet, walk + _return_path(action, codes, y, x))
            if word:
                rels.insert(draw(st.integers(0, len(rels))), word)
    return PartitePresentation(classes, alphabet, action, relators)


@st.composite
def rotation_closed_presentations(draw):
    """``power_presentations`` draws with the relator lists closed under
    rotation and inversion, as the line-graph presentations list them: each
    rotation of each relator and of its inverse sits at the class that the
    relator's walk reaches where the rotation starts.  A rotation is
    reduced as a word, so one that cancels is shorter than its relator.
    Each class lists its relators once each, in a drawn order."""
    p = draw(power_presentations())
    relators = {x: list(rels) for x, rels in p.relators.items()}
    for x, rels in p.relators.items():
        for r in rels:
            for letters in (r.letters, r.inverse().letters):
                y = x
                for i, c in enumerate(letters):
                    turn = Word(p.alphabet, letters[i:] + letters[:i])
                    if turn and turn not in relators[y]:
                        relators[y].append(turn)
                    y = p.action.image(c, y)
    relators = {x: draw(st.permutations(rels)) for x, rels in relators.items()}
    return PartitePresentation(p.classes, p.alphabet, p.action, relators)


# Oracles for the text formats: the line-by-line readers that the bulk
# ``read_graph`` and ``parse`` replaced.  Each reads one line at a time,
# checks it and builds as it goes, so its first error is the first bad line.

_ORACLE_GRAPH_FIELDS = {"vertices": (1, 1), "colour": (1, 2), "class": (2, 2),
                        "edge": (2, 3)}


def _oracle_graph_number(token, lineno, bound=None):
    try:
        value = int(token)
    except ValueError:
        raise GraphSyntaxError(f"{token!r} is not an integer", lineno) from None
    if value < 0 or (bound is not None and value >= bound):
        what = "a count" if bound is None else f"a vertex of 0..{bound - 1}"
        raise GraphSyntaxError(f"{value} is not {what}", lineno)
    return value


def read_graph_by_lines(text, coloured=False):
    """``read_graph`` one line at a time.  Its missing-colour-column error
    carries no line."""
    n, classes, tau, dart_colour, colour_inv, column = None, [], [], [], {}, []
    fields_of = (dict(_ORACLE_GRAPH_FIELDS, edge=(2, 4)) if coloured
                 else _ORACLE_GRAPH_FIELDS)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if kind not in fields_of:
            raise GraphSyntaxError(f"unknown graph line {line!r}", lineno)
        fewest, most = fields_of[kind]
        if not fewest <= len(fields) <= most:
            raise GraphSyntaxError(f"wrong number of fields in {line!r}", lineno)
        if kind == "vertices":
            if n is not None:
                raise GraphSyntaxError("repeated 'vertices' line", lineno)
            n = _oracle_graph_number(fields[0], lineno)
            classes = [None] * n
        elif kind == "colour":
            colour_inv[fields[0]], colour_inv[fields[-1]] = fields[-1], fields[0]
        elif n is None:
            raise GraphSyntaxError(f"'{kind}' line before the 'vertices' line",
                                   lineno)
        elif kind == "class":
            classes[_oracle_graph_number(fields[0], lineno, n)] = fields[1]
        else:
            u = _oracle_graph_number(fields[0], lineno, n)
            v = _oracle_graph_number(fields[1], lineno, n)
            c = fields[2] if len(fields) > 2 else None
            if len(fields) == 4:
                c = None if c == "-" else c
                column.append(fields[3])
            elif coloured:
                column.append(None)
            tau += (v, u)
            dart_colour += (c, None if c is None else colour_inv.setdefault(c, c))
    g = ColouredGraph(n or 0, tau, dart_colour, None, classes, colour_inv)
    if not coloured:
        return g
    if all(c is None for c in column):
        return g, None
    if None in column:
        raise GraphSyntaxError("some edge lines are missing the colour column")
    return g, dict(zip(range(0, len(tau), 2), column))


def _oracle_parse_cycles(text, classes, class_set, line_no, offset):
    """The image table of cycle notation ``text``, read one character at a
    time; ``text`` starts ``offset`` characters into its line, and a syntax
    error carries its column in the line."""
    table = {x: x for x in classes}
    moved = set()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise DslSyntaxError("expected '(' in cycle notation", line_no,
                                 offset + i + 1)
        j = text.find(")", i)
        if j < 0:
            raise DslSyntaxError("unclosed cycle", line_no, offset + i + 1)
        entries = text[i + 1:j].replace(",", " ").split()
        for x in entries:
            if x not in class_set:
                raise SemanticError(f"unknown class {x!r} in cycle notation", line_no)
            if x in moved:
                raise SemanticError(f"class {x!r} appears twice in cycle notation",
                                    line_no)
            moved.add(x)
        for k, x in enumerate(entries):
            table[x] = entries[(k + 1) % len(entries)]
        i = j + 1
    return table


def _oracle_validate(p):
    """``validate`` with its walks done by hand: the orbit of the first
    class under every image table, inverses included, and each relator
    letter by letter through ``ClassAction.image``."""
    out = []
    seen, stack = {p.classes[0]}, [p.classes[0]]
    codes = [s * c for c in range(1, len(p.alphabet) + 1) for s in (1, -1)]
    while stack:
        x = stack.pop()
        for c in codes:
            y = p.action.image(c, x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(p.classes):
        out.append(Violation("NotTransitive", None,
                             "the generators do not act transitively on the classes"))
    for name in p.alphabet.i_gens:
        t = p.action.table(name)
        if not all(t[x] != x and t[t[x]] == x for x in p.classes):
            out.append(Violation("FixedPointInvolution", name,
                                 f"involutive generator {name!r} must act as a "
                                 f"fixed-point-free involution of the classes"))
    for x, r in p.all_relators():
        if len(r) == 0:
            out.append(Violation("EmptyRelator", (x, r),
                                 f"empty relator attached to class {x!r}"))
            continue
        end = x
        for c in r.letters:
            end = p.action.image(c, end)
        if end != x:
            out.append(Violation("RelatorNotClosed", (x, r),
                                 f"relator {r} does not stabilise class {x!r} "
                                 f"(ends at {end!r})"))
    return out


def parse_by_lines(text):
    """``presentation.parse`` one line at a time, with the cycle notation
    read one character at a time, each word by the positional scanner and
    the result checked by ``_oracle_validate``."""
    classes = None
    gens = []            # (name, kind, image table, line)
    rels = []            # (class, [words as text], line)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("classes:"):
            if classes is not None:
                raise DslSyntaxError("duplicate classes line", line_no)
            classes = tuple(stripped[len("classes:"):].split())
            class_set = set(classes)
            if not classes:
                raise DslSyntaxError("empty class list", line_no)
            if len(class_set) != len(classes):
                raise SemanticError("duplicate class name", line_no)
        elif stripped.startswith("gen "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before generators",
                                     line_no)
            parts = [p.strip() for p in stripped[4:].split(":", 2)]
            if len(parts) != 3:
                raise DslSyntaxError("expected 'gen NAME : U|I : CYCLES'", line_no)
            name, kind, cycles = parts
            if not name or not all(c.isalnum() or c == "_" for c in name):
                raise DslSyntaxError(f"bad generator name {name!r}", line_no)
            if kind not in ("U", "I"):
                raise DslSyntaxError(f"generator kind must be U or I, got {kind!r}",
                                     line_no)
            if any(g[0] == name for g in gens):
                raise SemanticError(f"duplicate generator {name!r}", line_no)
            # ``line`` ends where ``cycles`` ends.
            table = _oracle_parse_cycles(cycles, classes, class_set, line_no,
                                         len(line) - len(cycles))
            gens.append((name, kind, table, line_no))
        elif stripped.startswith("rel "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before relators",
                                     line_no)
            body = stripped[4:]
            if ":" not in body:
                raise DslSyntaxError("expected 'rel CLASS : word, word'", line_no)
            cname, words = body.split(":", 1)
            cname = cname.strip()
            if cname not in class_set:
                raise SemanticError(f"unknown class {cname!r}", line_no)
            texts = [w.strip() for w in words.split(",") if w.strip()]
            rels.append((cname, texts, line_no))
        else:
            raise DslSyntaxError(f"unrecognised line {stripped!r}", line_no)

    if classes is None:
        raise DslSyntaxError("missing classes line", 1)
    u_gens = tuple(name for name, kind, _, _ in gens if kind == "U")
    i_gens = tuple(name for name, kind, _, _ in gens if kind == "I")
    alphabet = Alphabet(u_gens, i_gens)
    images = {name: table for name, _, table, _ in gens}
    try:
        action = ClassAction(alphabet, classes, images)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None

    relators = {x: [] for x in classes}
    source_map = {"gen": {name: line for name, _, _, line in gens}, "rel": {}}
    literals = [(cname, t, line_no) for cname, texts, line_no in rels for t in texts]
    for cname, t, line_no in literals:
        try:
            w = positional_parse_word(t, alphabet)
        except WordSyntaxError as exc:
            raise DslSyntaxError(f"bad word {t!r}: {exc}", line_no) from None
        relators[cname].append(w)
        source_map["rel"][(cname, w.letters)] = line_no

    p = PartitePresentation(classes, alphabet, action, relators)
    violations = _oracle_validate(p)
    if violations:
        line = None
        for v in violations:
            if v.code == "FixedPointInvolution":
                line = source_map["gen"].get(v.witness)
            elif v.code in ("RelatorNotClosed", "EmptyRelator"):
                x, r = v.witness
                line = source_map["rel"].get((x, r.letters))
            if line is not None:
                break
        raise SemanticError("; ".join(str(v) for v in violations), line)
    return p
