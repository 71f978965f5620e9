"""Independent oracles: closed formulas from the literature and direct
computations that share no code with the program.  Each returns plain
values or a boolean verdict; ``test_oracles.py`` tests each one on cases
small enough to check by hand or by brute force."""

from __future__ import annotations

import math
from collections import Counter

from graphs import bfs, petersen


# ---------------------------------------------------------------------------
# Growth series of free products (balls of infinite presentations).


def _series_inverse(a, terms):
    """1/a as a power series with integer coefficients (a[0] == 1)."""
    inv = [0] * terms
    inv[0] = 1
    for i in range(1, terms):
        inv[i] = -sum(a[j] * inv[i - j] for j in range(1, min(i, len(a) - 1) + 1))
    return inv


def _cyclic_spheres(m, terms):
    """Sphere sizes of Z_m (m >= 2) generated by one letter and its inverse,
    or of Z (m == 0)."""
    out = [0] * terms
    out[0] = 1
    for r in range(1, terms):
        if m == 0:
            out[r] = 2
        elif 2 * r < m:
            out[r] = 2
        elif 2 * r == m:
            out[r] = 1
    return out


def free_product_balls(factors, radius):
    """Ball sizes 0..radius of the Cayley graph of a free product of cyclic
    groups; ``factors`` lists each factor's order, 0 for Z.  Uses
    1/f = sum(1/f_i) - (k - 1) for the spherical growth series f."""
    terms = radius + 1
    total = [0] * terms
    for m in factors:
        for i, c in enumerate(_series_inverse(_cyclic_spheres(m, terms), terms)):
            total[i] += c
    total[0] -= len(factors) - 1
    spheres = _series_inverse(total, terms)
    balls, acc = [], 0
    for s in spheres:
        acc += s
        balls.append(acc)
    return balls


def sphere_sizes(adj, source, radius):
    dist = bfs(adj, source)
    if None in dist or max(dist) > radius:
        return None
    out = [0] * (radius + 1)
    for d in dist:
        out[d] += 1
    return out


# ---------------------------------------------------------------------------
# Generalized Petersen graphs P(n, k), 1 <= k < n/2.


_FGW_EXCEPTIONS = {(4, 1): 48, (5, 2): 120, (8, 3): 96, (10, 2): 120,
                   (10, 3): 240, (12, 5): 144, (24, 5): 480}


def _norm(n, k):
    k %= n
    return min(k, n - k)


def petersen_aut_order(n, k):
    """|Aut P(n, k)| by Frucht, Graver and Watkins (1971)."""
    k = _norm(n, k)
    if (n, k) in _FGW_EXCEPTIONS:
        return _FGW_EXCEPTIONS[(n, k)]
    if (k * k) % n in (1, n - 1):
        return 4 * n
    return 2 * n


def petersen_is_vertex_transitive(n, k):
    """Frucht, Graver and Watkins: k^2 = +-1 (mod n), or (n, k) = (10, 2)."""
    k = _norm(n, k)
    return (k * k) % n in (1, n - 1) or (n, k) == (10, 2)


def petersen_is_cayley(n, k):
    """Nedela and Skoviera (1995): P(n, k) is Cayley iff k^2 = 1 (mod n)."""
    return (k * k) % n == 1


def petersen_isomorphic(n, k, l):
    """Steimle and Staton (2009): P(n, k) = P(n, l) iff k = +-l or
    kl = +-1 (mod n)."""
    k, l = _norm(n, k), _norm(n, l)
    return k == l or (k * l) % n in (1, n - 1)


def petersen_build_isomorphism(g, n, k, a, b, outer):
    """An O(n) isomorphism from the build ``g`` (a ParsedGraph) of the
    presentation <a, b | a^n, a b a^k b ; a^n> to P(n, k), traced by colour
    from the base vertex 0: x_i = a^i(0), y_i = b(x_i).  With s = k^-1 the
    build's inner edges step by -s, so x_i -> y_(k i), y_i -> x_(k i) maps
    it onto P(n, k); the opposite sign is tried too.  Returns True when the
    traced map is a bijection sending the edge multiset onto that of P(n, k).
    """
    if math.gcd(n, k) != 1 or g.n != 2 * n or g.classes[0] != outer:
        return False
    out = g.out_table()
    if out is None:
        return False
    xs = [0]
    for _ in range(n - 1):
        nxt = out[xs[-1]].get(a)
        if nxt is None:
            return False
        xs.append(nxt)
    if out[xs[-1]].get(a) != 0:
        return False
    ys = [out[x].get(b) for x in xs]
    if None in ys or len(set(xs) | set(ys)) != 2 * n:
        return False
    target = Counter(frozenset(e[:2]) for e in petersen(n, k)[1])
    for sign in (1, -1):
        phi = [None] * g.n
        for i in range(n):
            j = (sign * k * i) % n
            phi[xs[i]] = n + j
            phi[ys[i]] = j
        image = Counter(frozenset((phi[u], phi[v])) for u, v, _ in g.edges)
        if image == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Permutation groups.


def is_automorphism(perm, edges):
    have = Counter(frozenset((u, v)) for u, v, _ in edges)
    return Counter(frozenset((perm[u], perm[v])) for u, v, _ in edges) == have


def group_closure(gens, n, cap):
    """Elements of the permutation group generated by ``gens``; None once it
    exceeds ``cap`` elements."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = tuple(s[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    if len(seen) > cap:
                        return None
                    nxt.append(q)
        frontier = nxt
    return seen


def generates_regular_group(gens, n, edges):
    """The generators are automorphisms and generate a group acting
    regularly on the n vertices."""
    if not gens or not all(is_automorphism(g, edges) for g in gens):
        return False
    group = group_closure([tuple(g) for g in gens], n, n)
    return group is not None and len(group) == n and \
        {p[0] for p in group} == set(range(n))


# ---------------------------------------------------------------------------
# Decompositions, extraction and rebuilds.


def is_partition_friendly(n, edges, colours):
    """Every colour class is spanning and regular of degree 1 (a perfect
    matching) or 2 (a union of cycles), which is what partition-friendly
    weak multicycle colourings are."""
    if len(colours) != len(edges) or None in colours:
        return False
    deg = {}
    for (u, v, _), c in zip(edges, colours):
        d = deg.setdefault(c, [0] * n)
        d[u] += 1
        d[v] += 1
    return all(len(set(d)) == 1 and d[0] in (1, 2) for d in deg.values())


def same_edges(n, edges, m, other):
    return n == m and Counter(frozenset(e[:2]) for e in edges) == \
        Counter(frozenset(e[:2]) for e in other)


def extraction_matches(pres, n, edges, colours):
    """The extracted presentation has one class per vertex, one generator
    per colour acting along that colour's edges, and one relator per
    independent cycle (m - n + 1 of them)."""
    classes, gens, rels = pres
    if classes != [str(v) for v in range(n)]:
        return False
    if sorted(gens) != sorted(set(colours)):
        return False
    pairs = Counter()
    for (u, v, _), c in zip(edges, colours):
        pairs[(c, frozenset((str(u), str(v))))] += 1
    for name, (kind, table) in gens.items():
        if sorted(table.values()) != sorted(classes):
            return False
        for x, y in table.items():
            if pairs[(name, frozenset((x, y)))] == 0:
                return False
            if kind == "I" and table[y] != x:
                return False
    return sum(len(r) for r in rels.values()) == len(edges) - n + 1


def rebuild_matches_input(g, n, edges, colours):
    """Rebuild versus input through the class labels: the rebuilt graph's
    class labels are the input's vertex numbers, and they carry its edges,
    with their decomposition colours, onto the input's edges."""
    if g.n != n or sorted(g.classes, key=str) != sorted(map(str, range(n)), key=str):
        return False
    want = Counter((frozenset((str(u), str(v))), c)
                   for (u, v, _), c in zip(edges, colours))
    have = Counter()
    for u, v, c in g.edges:
        base = c[:-3] if c.endswith("^-1") else c
        have[(frozenset((g.classes[u], g.classes[v])), base)] += 1
    return have == want


def relators_close(g, pres):
    """Every relator of a class closes at every vertex of that class of the
    coloured graph ``g``, whose colouring must be Cayley-like."""
    _, gens, rels = pres
    out = g.out_table()
    if out is None:
        return False
    for v in range(g.n):
        for word in rels.get(g.classes[v], ()):
            here = v
            for name, exp in word:
                colour = name if exp > 0 or gens[name][0] == "I" else name + "^-1"
                for _ in range(abs(exp)):
                    here = out[here].get(colour)
                    if here is None:
                        return False
            if here != v:
                return False
    return True


# ---------------------------------------------------------------------------
# Abelian groups and the line graphs of their Cayley graphs.


def abelian_cayley(orders):
    """Cayley graph of Z_o1 x ... x Z_ok on the standard generators, one
    edge g -- g + e_i per element and generator (so order-2 generators give
    parallel pairs).  Edge i * |G| + index(g) carries generator i."""
    elems = [()]
    for o in orders:
        elems = [e + (x,) for e in elems for x in range(o)]
    index = {e: i for i, e in enumerate(elems)}
    edges = []
    for i, o in enumerate(orders):
        for e in elems:
            f = list(e)
            f[i] = (f[i] + 1) % o
            edges.append((index[e], index[tuple(f)], i))
    return len(elems), edges


# ---------------------------------------------------------------------------
# Matchings.


def is_matching(pairs, edges):
    have = Counter(frozenset(e[:2]) for e in edges)
    covered = set()
    for u, v in pairs:
        if u == v or have[frozenset((u, v))] == 0 or u in covered or v in covered:
            return False
        covered.update((u, v))
    return True


def explicit_perfect_matching(kind, n_vertices):
    """A perfect matching of a window, from its construction: alternate
    edges (m, 2j)(m, 2j + 1) of each layer's 10-cycle for the two-ended
    graph, the rungs for the ladder (the numbering of graphs.py)."""
    step = 10 if kind == "two-ended" else 2
    return [(b + i, b + i + 1) for b in range(0, n_vertices, step)
            for i in range(0, step, 2)]


def best_miss_sequence(n, edges, levels):
    """The lexicographically least miss sequence over all matchings, by
    enumerating every matching (brute force; small graphs only)."""
    simple = [(u, v) for u, v, _ in edges if u != v]
    best = None

    def walk(i, covered):
        nonlocal best
        if i == len(simple):
            seq = miss_sequence(covered, levels)
            if best is None or seq < best:
                best = seq
            return
        walk(i + 1, covered)
        u, v = simple[i]
        if u not in covered and v not in covered:
            walk(i + 1, covered | {u, v})

    walk(0, frozenset())
    return best


def miss_sequence(covered, levels):
    return tuple(sum(1 for v in lev if v not in covered) for lev in levels)
