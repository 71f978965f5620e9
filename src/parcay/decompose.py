"""Edge decompositions: Euler orientations, 2-factors, maximum matchings by
the blossom algorithm, partition-friendly weak multicycle colourings and
the multicycle predicates.

An edge colouring is a plain dict, canonical dart -> colour, the same dict
that ``read_graph(text, coloured=True)`` returns and ``write_graph(g,
colouring)`` writes.

Multigraph conventions: a loop contributes 2 to the degree and is never
matchable; parallel edges are distinct objects throughout.
"""

from __future__ import annotations

from collections import deque

from .errors import (NoPerfectMatching, NotEvenRegular, NotRegular, OddDegree)


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

    def missed(self):
        return [v for v in range(self.graph.n) if v not in self._covered]

    def is_perfect(self):
        return len(self._covered) == self.graph.n

    def __len__(self):
        return len(self.darts)

    def __iter__(self):
        return iter(sorted(self.darts))


# ---------------------------------------------------------------------------
# Euler orientations (Hierholzer, per connected component).


def euler_orientation(g, darts=None):
    """One dart per undirected edge of the given darts (default: every
    edge), with in-degree = out-degree everywhere.  The walk reads only
    out-dart lists of the distinct edges ``d & ~1``, in dart order, so it
    is the walk of the subgraph of those edges."""
    tau, out = g.tau, [[] for _ in range(g.n)]
    for e in g.edges() if darts is None else sorted({d & ~1 for d in darts}):
        out[tau[e + 1]].append(e)
        out[tau[e]].append(e + 1)
    for v, darts_v in enumerate(out):
        if len(darts_v) % 2:
            raise OddDegree(v)
    used, ptr, orientation = set(), [0] * g.n, []   # used: edges, as d >> 1
    for start in range(g.n):
        stack_v, stack_d = [start], []
        while stack_v:
            v = stack_v[-1]
            darts_v = out[v]
            while ptr[v] < len(darts_v) and darts_v[ptr[v]] >> 1 in used:
                ptr[v] += 1
            if ptr[v] == len(darts_v):
                stack_v.pop()
                if stack_d:
                    orientation.append(stack_d.pop())
            else:
                d = darts_v[ptr[v]]
                ptr[v] += 1
                used.add(d >> 1)
                stack_v.append(tau[d])
                stack_d.append(d)
    return orientation


# ---------------------------------------------------------------------------
# Maximum matching (blossom algorithm).


def _blossom_searcher(adj, match):
    """Edmonds' search, with blossom contraction, over the neighbour lists
    ``adj`` and the caller's mate list ``match`` (-1 marks an exposed
    vertex), as a function ``search(root, release=None)``.  All searches
    share one scratch of n entries, and each search resets only the
    entries of its own tree; a blossom is contracted over its own
    vertices.  So a search costs time in proportion to the tree it grows,
    not to n."""
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
            blossom.add(base[v])
            blossom.add(base[match[v]])
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

    def search(root, release=None):
        """Search from the exposed vertex ``root``.  On reaching an exposed
        vertex it flips the augmenting path and returns True.  With
        ``release`` it also stops at the first outer vertex x != root with
        ``release(x)`` and flips the even alternating path from root to x,
        leaving x exposed: an augmentation to a virtual exposed vertex
        joined to every released vertex.  A failed search returns False
        and leaves ``match`` as it was."""
        tree = [root]           # every vertex whose scratch entries change
        members = {}            # base of a blossom -> the vertices in it
        used[root] = True
        queue = deque([root])
        try:
            while queue:
                v = queue.popleft()
                if release is not None and v != root and release(v):
                    u = match[v]
                    match[v] = -1
                    return flip(u)
                for to in adj[v]:
                    if base[v] == base[to] or match[v] == to:
                        continue
                    if to == root or (match[to] != -1
                                      and parent[match[to]] != -1):
                        cur = lca(v, to)
                        blossom = set()
                        mark_path(v, cur, to, blossom)
                        mark_path(to, cur, v, blossom)
                        # the vertices of the blossom's bases, queued in
                        # ascending order
                        group = []
                        for b in blossom:
                            group += members.pop(b, (b,))
                        group.sort()
                        for i in group:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                        members.setdefault(cur, [cur]).extend(
                            i for i in group if i != cur)
                    elif parent[to] == -1:
                        parent[to] = v
                        tree.append(to)
                        if match[to] == -1:
                            return flip(to)
                        tree.append(match[to])
                        used[match[to]] = True
                        queue.append(match[to])
            return False
        finally:
            for v in tree:
                used[v] = False
                parent[v] = -1
                base[v] = v

    return search


def _maximum_mates(g):
    """``(search, match)``: the mate list of a maximum matching of g
    without its loops, grown by one search from each vertex still exposed,
    and the search that grew it, for further searches on the same mate
    list."""
    adj = [[g.tau[d] for d in g.out_darts(v) if g.tau[d] != v]
           for v in range(g.n)]
    match = [-1] * g.n
    search = _blossom_searcher(adj, match)
    for v in range(g.n):
        if match[v] == -1 and adj[v]:
            search(v)
    return search, match


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
# 2-factors via the out/in bipartite split of one Euler orientation.


def _pop_perfect_matching(adj):
    """Kuhn's augmenting paths on a regular bipartite multigraph whose left
    vertex l has the edges ``adj[l]``, (right vertex, tag) pairs: removes a
    perfect matching from ``adj`` and returns its tags, sorted.  ``seen[r]``
    is the left vertex whose top-level search last visited r."""
    n = len(adj)
    match_right, match_left, seen = [-1] * n, [-1] * n, [-1] * n

    def try_augment(l, stamp):
        for i, (r, _) in enumerate(adj[l]):
            if seen[r] == stamp:
                continue
            seen[r] = stamp
            if match_right[r] == -1 or try_augment(match_right[r], stamp):
                match_right[r] = l
                match_left[l] = i
                return True
        return False

    for l in range(n):
        try_augment(l, l)
    return sorted(adj[l].pop(i)[1] for l, i in enumerate(match_left))


def two_factorization(g, edge_darts=None):
    """The k 2-factors, each a sorted list, of a 2k-regular pool of
    canonical darts (default: every edge).  An Euler orientation's out/in
    split of the pool is k-regular and bipartite (Petersen's 2-factor
    theorem): k - 1 perfect matchings of it are 2-factors, and the rest is
    the last one."""
    pool = g.edges() if edge_darts is None else list(edge_darts)
    if not pool:
        return []
    tau = g.tau
    deg = [0] * g.n
    for d in pool:
        deg[tau[d]] += 1
        deg[tau[d ^ 1]] += 1
    if len(set(deg)) != 1 or deg[0] % 2:
        raise NotEvenRegular(f"degrees {sorted(set(deg))} are not even and equal")
    k = deg[0] // 2
    if k == 1:
        return [sorted(pool)]
    adj = [[] for _ in range(g.n)]
    for d in euler_orientation(g, pool):
        adj[tau[d ^ 1]].append((tau[d], d & ~1))
    factors = [_pop_perfect_matching(adj) for _ in range(k - 1)]
    return factors + [sorted(d for out in adj for _, d in out)]


def weak_multicycle_colouring(g):
    """Partition-friendly weak multicycle colouring of a finite regular
    graph: one matching colour when the degree is odd, then 2-factors."""
    if g.n == 0:
        return {}
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1:
        raise NotRegular(f"vertex degrees {sorted(degrees)} are not constant")
    mapping, pool = {}, g.edges()
    if next(iter(degrees)) % 2:
        m = maximum_matching(g)
        if not m.is_perfect():
            raise NoPerfectMatching(
                "odd-regular graph has no perfect matching")
        mapping = dict.fromkeys(m.darts, "m")
        pool = [d for d in pool if d not in m.darts]
    for idx, f in enumerate(two_factorization(g, pool), 1):
        for dart in f:
            mapping[dart] = f"c{idx}"
    return mapping


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
    if set(colouring) != set(g.edges()):
        return None
    classes = {}
    for d, c in colouring.items():
        classes.setdefault(c, []).append(d)
    out = {}
    for colour, darts in classes.items():
        walks = component_walks(g, sorted(darts))
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
