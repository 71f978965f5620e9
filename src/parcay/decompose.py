"""Edge decompositions: Euler orientations, 2-factors, maximum matchings by
the blossom algorithm, partition-friendly weak multicycle colourings, the
multicycle predicates, and factorizations of complete graphs.

Multigraph conventions: a loop contributes 2 to the degree and is never
matchable; parallel edges are distinct objects throughout.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .constructions import complete_graph
from .errors import (NoPerfectMatching, NotEvenRegular, NotRegular, OddDegree)
from .graph import ColouredGraph


def canonical(g, d):
    """The even dart of d's pair, which stands for its undirected edge."""
    return d & ~1


class Matching:
    """A set of pairwise vertex-disjoint undirected edges."""

    def __init__(self, graph, darts=()):
        self.graph = graph
        self.darts = frozenset(d & ~1 for d in darts)
        seen = set()
        for d in self.darts:
            u, v = graph.edge_ends(d)
            if u == v:
                raise ValueError("a loop cannot belong to a matching")
            if u in seen or v in seen:
                raise ValueError("matching edges share a vertex")
            seen.add(u)
            seen.add(v)
        self._covered = seen

    def covers(self, v):
        return v in self._covered

    def missed(self, vertices=None):
        vertices = range(self.graph.n) if vertices is None else vertices
        return [v for v in vertices if v not in self._covered]

    def is_perfect(self):
        return len(self._covered) == self.graph.n

    def __len__(self):
        return len(self.darts)

    def __iter__(self):
        return iter(sorted(self.darts))


class EdgeColouring:
    """Total map from undirected edges (canonical darts) to colours."""

    def __init__(self, graph, mapping):
        self.graph = graph
        self.mapping = {d & ~1: c for d, c in mapping.items()}

    def is_total(self):
        return set(self.mapping) == set(self.graph.edges())

    def colour_classes(self):
        classes = {}
        for d, c in self.mapping.items():
            classes.setdefault(c, []).append(d)
        return {c: sorted(ds) for c, ds in classes.items()}

    def __getitem__(self, d):
        return self.mapping[d & ~1]


# ---------------------------------------------------------------------------
# Euler orientations (Hierholzer, per connected component).


def euler_orientation(g):
    """One dart per undirected edge with in-degree = out-degree everywhere."""
    for v in range(g.n):
        if g.degree(v) % 2:
            raise OddDegree(v)
    ptr = [0] * g.n
    used = bytearray(g.n_edges)     # per edge, indexed by dart >> 1
    orientation = []
    for start in range(g.n):
        if all(used[d >> 1] for d in g.out_darts(start)):
            continue
        stack_v = [start]
        stack_d = []
        while stack_v:
            v = stack_v[-1]
            out = g.out_darts(v)
            found = None
            while ptr[v] < len(out):
                d = out[ptr[v]]
                ptr[v] += 1
                if not used[d >> 1]:
                    used[d >> 1] = 1
                    found = d
                    break
            if found is None:
                stack_v.pop()
                if stack_d:
                    orientation.append(stack_d.pop())
            else:
                stack_v.append(g.tau[found])
                stack_d.append(found)
    assert len(orientation) == g.n_edges
    return orientation


# ---------------------------------------------------------------------------
# Maximum matching (blossom algorithm).


def blossom_search(adj, match, root, release=None):
    """Edmonds' search, with blossom contraction, from the exposed vertex
    ``root`` over the neighbour lists ``adj``, on the caller's mate list
    ``match`` (-1 marks an exposed vertex).  On reaching an exposed vertex
    it flips the augmenting path and returns True.  With ``release`` it
    also stops at the first outer vertex x != root with ``release(x)`` and
    flips the even alternating path from root to x, leaving x exposed: an
    augmentation to a virtual exposed vertex joined to every released
    vertex.  A failed search returns False and leaves ``match`` as it was."""
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
        # u was reached from the outer vertex parent[u]
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


def _maximum_mates(g):
    """Neighbour lists of g without its loops, and the mate list of a
    maximum matching: one search from each vertex still exposed."""
    adj = [[g.tau[d] for d in g.out_darts(v) if g.tau[d] != v]
           for v in range(g.n)]
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1 and adj[v]:
            blossom_search(adj, match, v)
    return adj, match


def _matching_of(g, match):
    """The Matching pairing each v with match[v], on the least edge joining
    them."""
    return Matching(g, [min(d & ~1 for d in g.out_darts(v)
                            if g.tau[d] == w)
                        for v, w in enumerate(match) if w > v])


def maximum_matching(g):
    """Maximum-cardinality matching; exact, with blossom contraction."""
    return _matching_of(g, _maximum_mates(g)[1])


# ---------------------------------------------------------------------------
# 2-factors via the out/in bipartite split of an Euler orientation.


def _bipartite_perfect_matching(n_left, n_right, edges):
    """Kuhn's augmenting paths; edges are (left, right, tag) triples."""
    adj = [[] for _ in range(n_left)]
    for i, (l, r, tag) in enumerate(edges):
        adj[l].append(i)
    match_right = [-1] * n_right
    match_left = [-1] * n_left

    def try_augment(l, seen):
        for i in adj[l]:
            r = edges[i][1]
            if seen[r]:
                continue
            seen[r] = True
            if match_right[r] == -1 or try_augment(match_right[r], seen):
                match_right[r] = l
                match_left[l] = i
                return True
        return False

    for l in range(n_left):
        if adj[l] and match_left[l] == -1:
            try_augment(l, [False] * n_right)
    return match_left


def two_factor(g, edge_darts=None):
    """A spanning 2-regular subgraph of an even-regular graph, as a list of
    canonical darts."""
    pool = g.edges() if edge_darts is None else list(edge_darts)
    deg = Counter()
    for d in pool:
        u, v = g.edge_ends(d)
        deg[u] += 1
        deg[v] += 1
    degrees = {deg[v] for v in range(g.n)}
    if len(degrees) != 1 or next(iter(degrees)) % 2 or next(iter(degrees)) == 0:
        raise NotEvenRegular(f"degrees {sorted(degrees)} are not even and equal")
    sub = g.subgraph_edges(pool)
    orientation = euler_orientation(sub)
    origin = sub.meta["origin"]
    edges = [(sub.src(d), sub.tau[d], origin[d & ~1]) for d in orientation]
    match_left = _bipartite_perfect_matching(g.n, g.n, edges)
    if any(m == -1 for m in match_left):
        raise NotEvenRegular("bipartite split has no perfect matching")
    return sorted(edges[i][2] for i in match_left)


def two_factorization(g):
    """Partition of the edges of a 2k-regular graph into k 2-factors."""
    remaining = g.edges()
    factors = []
    while remaining:
        f = two_factor(g, remaining)
        factors.append(f)
        remaining = sorted(set(remaining) - set(f))
    return factors


def weak_multicycle_colouring(g):
    """Partition-friendly weak multicycle colouring of a finite regular
    graph: one matching colour when the degree is odd, then 2-factors."""
    if g.n == 0:
        return EdgeColouring(g, {})
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1:
        raise NotRegular(f"vertex degrees {sorted(degrees)} are not constant")
    d = next(iter(degrees))
    mapping = {}
    remaining = g.edges()
    if d % 2:
        m = maximum_matching(g)
        if not m.is_perfect():
            raise NoPerfectMatching(
                "odd-regular graph has no perfect matching")
        for dart in m.darts:
            mapping[dart] = "m"
        remaining = sorted(set(remaining) - set(m.darts))
    idx = 0
    while remaining:
        idx += 1
        f = two_factor(g, remaining)
        for dart in f:
            mapping[dart] = f"c{idx}"
        remaining = sorted(set(remaining) - set(f))
    return EdgeColouring(g, mapping)


# ---------------------------------------------------------------------------
# Multicycle predicates, read off one walk per component of each colour class.


def component_walks(g, darts):
    """The components of an edge set, given by one dart per edge, as walks:
    lists of darts, each leaving the vertex the one before it enters.  A
    path starts at its least end; a cycle starts at its least vertex and
    leaves it by the least (head, dart).  Returns (paths, cycles), each in
    order of first vertex, or None when some vertex meets more than two
    darts (a loop meets its vertex twice)."""
    tau = g.tau
    at = {}                 # vertex -> the darts leaving it
    for d in darts:
        at.setdefault(tau[d ^ 1], []).append(d)
        at.setdefault(tau[d], []).append(d ^ 1)
    if any(len(out) > 2 for out in at.values()):
        return None
    ends = sorted(v for v, out in at.items() if len(out) == 1)
    paths, cycles = [], []
    for v in ends + sorted(at):
        out = at.pop(v, None)
        if out is None:
            continue
        d = out[0]
        if len(out) == 2 and (tau[out[1]], out[1]) < (tau[d], d):
            d = out[1]
        walk = [d]
        (paths if len(out) == 1 else cycles).append(walk)
        while tau[d] in at:
            out = at.pop(tau[d])
            if len(out) == 1:
                break
            d = out[1] if out[0] == d ^ 1 else out[0]
            walk.append(d)
    return paths, cycles


def _class_walks(g, colouring, kind):
    """``{colour: component_walks}`` when the colouring is total and every
    colour class is a vertex-disjoint union of cycles and edges ("weak"),
    moreover spanning and regular ("pf"), moreover, if 2-regular, of
    cycles of one length ("multicycle"); else None."""
    if not colouring.is_total():
        return None
    out = {}
    for colour, darts in colouring.colour_classes().items():
        walks = component_walks(g, darts)
        if walks is None:
            return None
        paths, cycles = walks
        cycle_edges = sum(map(len, cycles))
        if cycle_edges + len(paths) != len(darts):
            return None             # a path of two or more edges
        if kind != "weak" and (cycles and paths
                               or cycle_edges + 2 * len(paths) != g.n):
            return None             # not spanning and regular
        if kind == "multicycle" and len({len(w) for w in cycles}) > 1:
            return None
        out[colour] = walks
    return out


def is_weak_multicycle(g, colouring):
    """Every colour class is a vertex-disjoint union of cycles and edges."""
    return _class_walks(g, colouring, "weak") is not None


def is_partition_friendly(g, colouring):
    """Weak multicycle with every colour class spanning and regular."""
    return _class_walks(g, colouring, "pf") is not None


def is_multicycle(g, colouring):
    """Every colour class is a perfect matching or a spanning disjoint union
    of equal-length cycles."""
    return _class_walks(g, colouring, "multicycle") is not None


# ---------------------------------------------------------------------------
# Factorizations of complete graphs.


@dataclass
class KFactorization:
    graph: ColouredGraph
    colouring: EdgeColouring
    perms: dict  # colour -> vertex permutation tuple


def k_n_factorization(n):
    """K_n split into (n-1)/2 Hamiltonian cycles (odd n, Walecki) or n-1
    perfect matchings (even n, circle method), with one permutation per
    colour: the cycle successor map, or the matching involution."""
    if n < 2:
        raise ValueError("need n >= 2")
    g = complete_graph(n)
    dart_of = {}
    for d in g.edges():
        u, v = g.edge_ends(d)
        dart_of[(min(u, v), max(u, v))] = d
    mapping = {}
    perms = {}
    hub = n - 1
    if n % 2:
        m = (n - 1) // 2
        for j in range(m):
            seq = [hub]
            for i in range(n - 1):
                step = (i + 1) // 2 if i % 2 else -(i // 2)
                seq.append((j + step) % (n - 1))
            colour = f"h{j}"
            perm = list(range(n))
            for idx in range(n):
                a, b = seq[idx], seq[(idx + 1) % n]
                mapping[dart_of[(min(a, b), max(a, b))]] = colour
                perm[a] = b
            perms[colour] = tuple(perm)
    else:
        for j in range(n - 1):
            colour = f"f{j}"
            perm = list(range(n))
            pairs = [(hub, j)]
            for i in range(1, (n - 1) // 2 + 1):
                pairs.append(((j + i) % (n - 1), (j - i) % (n - 1)))
            for a, b in pairs:
                mapping[dart_of[(min(a, b), max(a, b))]] = colour
                perm[a], perm[b] = b, a
            perms[colour] = tuple(perm)
    colouring = EdgeColouring(g, mapping)
    return KFactorization(g, colouring, perms)
