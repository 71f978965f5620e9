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
    return min(d, g.inv[d])


class Matching:
    """A set of pairwise vertex-disjoint undirected edges."""

    def __init__(self, graph, darts=()):
        self.graph = graph
        self.darts = frozenset(canonical(graph, d) for d in darts)
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

    def __eq__(self, other):
        return isinstance(other, Matching) and self.darts == other.darts

    def __hash__(self):
        return hash(self.darts)


class EdgeColouring:
    """Total map from undirected edges (canonical darts) to colours."""

    def __init__(self, graph, mapping):
        self.graph = graph
        self.mapping = {canonical(graph, d): c for d, c in mapping.items()}

    def is_total(self):
        return set(self.mapping) == set(self.graph.edges())

    def colour_classes(self):
        classes = {}
        for d, c in self.mapping.items():
            classes.setdefault(c, []).append(d)
        return {c: sorted(ds) for c, ds in classes.items()}

    def class_degree(self, colour):
        """Per-vertex degrees of one colour class."""
        deg = [0] * self.graph.n
        for d, c in self.mapping.items():
            if c != colour:
                continue
            u, v = self.graph.edge_ends(d)
            deg[u] += 1
            deg[v] += 1
        return deg

    def __getitem__(self, d):
        return self.mapping[canonical(self.graph, d)]


# ---------------------------------------------------------------------------
# Euler orientations (Hierholzer, per connected component).


def euler_orientation(g):
    """One dart per undirected edge with in-degree = out-degree everywhere."""
    for v in range(g.n):
        if g.degree(v) % 2:
            raise OddDegree(v)
    ptr = [0] * g.n
    used = set()
    orientation = []
    for start in range(g.n):
        if all(canonical(g, d) in used for d in g.out_darts(start)):
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
                if canonical(g, d) not in used:
                    used.add(canonical(g, d))
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


def maximum_matching(g, edge_darts=None):
    """Maximum-cardinality matching; exact, with blossom contraction."""
    n = g.n
    adj = [[] for _ in range(n)]
    pool = g.edges() if edge_darts is None else edge_darts
    for d in pool:
        u, v = g.edge_ends(d)
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a, b):
        used_path = [False] * n
        while True:
            a = base[a]
            used_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root):
        nonlocal parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
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
                        # augment along the alternating path ending here
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and adj[v]:
            find_path(v)

    # translate vertex pairing back into edge darts
    dart_of = {}
    for d in pool:
        u, v = g.edge_ends(d)
        if u != v:
            dart_of.setdefault((min(u, v), max(u, v)), canonical(g, d))
    darts = []
    for v in range(n):
        w = match[v]
        if w > v:
            darts.append(dart_of[(v, w)])
    return Matching(g, darts)


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
    edges = [(sub.src(d), sub.tau[d], origin[canonical(sub, d)])
             for d in orientation]
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
# Multicycle predicates.


def _class_components(g, darts):
    """Components of one colour class: list of (vertex set, edge count)."""
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


def is_weak_multicycle(g, colouring):
    """Every colour class is a vertex-disjoint union of cycles and edges."""
    if not colouring.is_total():
        return False
    for colour, darts in colouring.colour_classes().items():
        deg = Counter()
        for d in darts:
            u, v = g.edge_ends(d)
            deg[u] += 1
            deg[v] += 1
        if any(k > 2 for k in deg.values()):
            return False
        for comp_v, comp_e in _class_components(g, darts):
            ones = [v for v in comp_v if deg[v] == 1]
            if ones and len(comp_e) != 1:
                return False
            if not ones and len(comp_e) != len(comp_v):
                # a degree-2 component must close up into a cycle
                return False
    return True


def is_partition_friendly(g, colouring):
    """Weak multicycle with every colour class spanning and regular."""
    if not is_weak_multicycle(g, colouring):
        return False
    for colour in colouring.colour_classes():
        deg = colouring.class_degree(colour)
        if len(set(deg)) != 1 or deg[0] == 0:
            return False
    return True


def is_multicycle(g, colouring):
    """Every colour class is a perfect matching or a spanning disjoint union
    of equal-length cycles."""
    if not is_partition_friendly(g, colouring):
        return False
    for colour, darts in colouring.colour_classes().items():
        deg = colouring.class_degree(colour)
        if deg[0] == 1:
            continue
        lengths = {len(comp_e) for _, comp_e in _class_components(g, darts)}
        if len(lengths) != 1:
            return False
    return True


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
