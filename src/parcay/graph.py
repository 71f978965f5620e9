"""Graphs with directed darts, a fixed-point-free involution and a terminus
map, plus optional dart colours and vertex class labels.

Darts come in pairs: an undirected edge is the dart pair (2i, 2i + 1), so
the reverse of dart d is ``d ^ 1`` and ``tau`` gives each dart's head.  The
even dart of a pair is the edge's canonical dart, so ``edges()`` are the
even darts, and the source of d is ``tau[d ^ 1]``.  Loops are dart pairs
with both termini equal and contribute 2 to the degree.  Multi-edges are
simply repeated dart pairs, so the model is a multigraph.

A graph is built in one pass from flat lists (a vertex count, ``tau`` and
the dart colours), or by hand with ``add_vertex`` and ``add_edge``, which
appends one dart pair.  ``ColouredGraph`` keeps one index, vertex ->
out-darts in dart order, so ``degree``, ``out_darts`` and ``neighbours``
cost O(deg) and a connectivity search costs O(darts it reaches).  Routines
that walk out of a vertex read this index, and its dart order keeps their
traversals, and so their outputs, deterministic.  It is the graph's only
index: vertex names and classes are labels, and a caller that looks
vertices up by label keeps its own map.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from itertools import count

from .errors import (Disconnected, GraphSyntaxError, NotCayleyLike,
                     SearchBoundExceeded)
from .words import Word


class ColouredGraph:
    """``ColouredGraph(n, tau, colour, names, classes, colour_inv)`` takes
    the lists it is given, not copies: ``tau`` and ``colour`` (default: no
    colours) per dart, ``names`` and ``classes`` (default: None) per vertex,
    and ``colour_inv``, colour -> inverse colour, total on the colours
    used.  ``ColouredGraph()`` is the empty graph."""

    def __init__(self, n=0, tau=None, colour=None, names=None, classes=None,
                 colour_inv=None):
        self.n = n
        self.tau = [] if tau is None else tau
        self.colour = [None] * len(self.tau) if colour is None else colour
        self.names = [None] * n if names is None else names
        self.classes = [None] * n if classes is None else classes
        self.colour_inv = {} if colour_inv is None else colour_inv
        out, tau = [[] for _ in range(n)], self.tau
        # Each dart to its source, in dart order: 2i leaves tau[2i + 1].
        for d, v, u in zip(count(0, 2), tau[0::2], tau[1::2]):
            out[u].append(d)
            out[v].append(d + 1)
        self._out = out
        self.meta = {}

    # -- construction -------------------------------------------------------

    def add_vertex(self, name=None, cls=None):
        idx = self.n
        self.n += 1
        self.names.append(name)
        self.classes.append(cls)
        self._out.append([])
        return idx

    def declare_colour(self, colour, inverse=None):
        if colour is None:
            return
        inverse = colour if inverse is None else inverse
        self.colour_inv[colour] = inverse
        self.colour_inv[inverse] = colour

    def add_edge(self, u, v, colour=None):
        """Add one undirected edge as a dart pair, the reverse dart coloured
        with the colour's inverse.  Returns the forward dart."""
        if colour is not None and colour not in self.colour_inv:
            self.declare_colour(colour)
        out_u, out_v = self._out[u], self._out[v]
        d = len(self.tau)
        self.tau += [v, u]
        self.colour += [colour, self.colour_inv.get(colour)]
        out_u.append(d)
        out_v.append(d + 1)
        return d

    # -- basic queries -------------------------------------------------------

    @property
    def n_darts(self):
        return len(self.tau)

    @property
    def n_edges(self):
        return len(self.tau) // 2

    def src(self, d):
        return self.tau[d ^ 1]

    def is_loop(self, d):
        return self.tau[d] == self.tau[d ^ 1]

    def degree(self, v):
        return len(self._out[v])

    def out_darts(self, v):
        """Darts leaving v, in dart order.  This is the index itself, so
        callers must not modify it."""
        return self._out[v]

    def edges(self):
        """One canonical dart per undirected edge: the even darts."""
        return list(range(0, len(self.tau), 2))

    def edge_ends(self, d):
        return self.tau[d ^ 1], self.tau[d]

    def neighbours(self, v):
        return sorted({self.tau[d] for d in self._out[v]})

    def is_regular(self):
        return len({len(out) for out in self._out}) <= 1

    def is_connected(self):
        """Whether the graph is connected (the empty graph is)."""
        if self.n:
            try:
                spanning_tree(self, 0)
            except Disconnected:
                return False
        return True

    def class_sizes(self):
        sizes = Counter()
        for c in self.classes:
            sizes[c] += 1
        return dict(sizes)

    def subgraph_edges(self, darts):
        """Subgraph on the same vertex set with one edge per given dart,
        oriented as that dart."""
        tau, colour = self.tau, self.colour
        sub_tau, sub_colour = [], []
        for d in darts:
            sub_tau += (tau[d], tau[d ^ 1])
            sub_colour += (colour[d], colour[d ^ 1])
        return ColouredGraph(self.n, sub_tau, sub_colour, list(self.names),
                             list(self.classes), dict(self.colour_inv))

    def copy(self):
        g = ColouredGraph(self.n, list(self.tau), list(self.colour),
                          list(self.names), list(self.classes),
                          dict(self.colour_inv))
        g.meta = dict(self.meta)
        return g


# ---------------------------------------------------------------------------
# Cayley-like colourings: walks along words, and relators from cycles.


def cayley_like_witness(g):
    """Per-vertex colour -> outgoing dart table, or None if the colouring
    fails any of the three Cayley-likeness conditions.  A graph with no
    edges passes, with no colours: one vertex is the Cayley graph of the
    trivial group and the empty set."""
    colours = set(g.colour)
    if None in colours:
        return None
    for c in colours:
        if g.colour_inv.get(c) not in colours:
            return None
    table = [dict() for _ in range(g.n)]
    tau, colour, colour_inv = g.tau, g.colour, g.colour_inv
    for d, c in enumerate(colour):
        if colour[d ^ 1] != colour_inv[c]:
            return None
        out = table[tau[d ^ 1]]
        if c in out:
            return None
        out[c] = d
    if any(len(t) != len(colours) for t in table):
        return None
    return table


def _witness(g):
    """``cayley_like_witness(g)``, raising NotCayleyLike in place of None."""
    table = cayley_like_witness(g)
    if table is None:
        raise NotCayleyLike("graph colouring is not Cayley-like")
    return table


def _dictated_darts(g, table, v, word):
    """The darts of the walk from v along the word's letters, read from a
    ``cayley_like_witness`` table of g."""
    colour_of = word.alphabet.colour_of
    darts = []
    for code in word.letters:
        colour = colour_of(code)
        d = table[v].get(colour)
        if d is None:
            raise NotCayleyLike(f"no outgoing dart coloured {colour!r} at {v}")
        darts.append(d)
        v = g.tau[d]
    return darts


def alphabet_colours(alphabet):
    """The colours of an alphabet: ``colour_inv``, total on them, and the
    codes of the free and of the involutive generators, each with its
    (colour, inverse colour) pair, in alphabet order."""
    colour_inv, free, involutive = {}, [], []
    for name in alphabet.names:
        code = alphabet.code(name)
        colour, inverse = alphabet.colour_of(code), alphabet.colour_of(-code)
        colour_inv[colour], colour_inv[inverse] = inverse, colour
        kind = involutive if alphabet.is_involution(code) else free
        kind.append((code, (colour, inverse)))
    return colour_inv, free, involutive


def alphabet_graph(alphabet, targets, names, classes):
    """The generator-coloured graph of an action on the points 0..n-1:
    point v becomes a vertex named ``names[v]`` in class ``classes[v]``, and
    ``targets[name][v]`` is the point that generator ``name`` takes v to, or
    None where the edge is missing.  A free generator adds one dart pair per
    point, coloured by its letter and the inverse letter; an involutive
    generator adds one edge per pair, at the pair's lower point.  Free edges
    come before involutive ones, each point's in alphabet order."""
    n = len(names)
    colour_inv, free, involutive = alphabet_colours(alphabet)
    free = [(targets[alphabet.name_of(c)], colours) for c, colours in free]
    involutive = [(targets[alphabet.name_of(c)], colours)
                  for c, colours in involutive]
    tau, dart_colour = [], []
    for v in range(n):
        for image, colours in free:
            w = image[v]
            if w is not None:
                tau += (w, v)
                dart_colour += colours
    for v in range(n):
        for image, colours in involutive:
            w = image[v]
            if w is not None and v <= w:
                tau += (w, v)
                dart_colour += colours
    return ColouredGraph(n, tau, dart_colour, list(names), list(classes),
                         colour_inv)


def spanning_tree(g, base):
    """BFS tree: returns (parent dart per vertex, BFS order).  Deterministic
    given dart numbering."""
    parent = [None] * g.n
    order = [base]
    seen = {base}
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
    if len(order) != g.n:
        raise Disconnected("graph is not connected")
    return parent, order


class _RootedTree:
    """The BFS tree of a Cayley-like graph at vertex 0, with the letter of
    every dart: a colour that names a generator of ``alphabet`` is its
    letter, any other colour the inverse of its inverse colour's letter.
    ``_short_cycle_relators`` closes the edges outside this tree."""

    def __init__(self, g, alphabet):
        _witness(g)
        self.g, self.alphabet = g, alphabet
        self.parent, self.order = spanning_tree(g, 0)
        code = {c: alphabet.code(c) if c in alphabet.names
                else alphabet.code(g.colour_inv[c], -1)
                for c in set(g.colour)}
        self.letter = [code[c] for c in g.colour]
        depth = self.depth = [0] * g.n
        for v in self.order[1:]:
            depth[v] = depth[g.src(self.parent[v])] + 1

    def non_tree_edges(self):
        """The canonical darts of the edges outside the tree, in dart order."""
        parent, tau = self.parent, self.g.tau
        return [d for d in self.g.edges()
                if parent[tau[d]] != d and parent[tau[d ^ 1]] != d ^ 1]

    def tree_cycle(self, d):
        """``(vertex, word)``: the cycle of the non-tree edge u -> w through
        the tree, read from the lowest common ancestor of u and w.  Both
        ends climb by parent darts, so no root path is stored.  A simple
        cycle of a Cayley-like graph spells a cyclically reduced word:
        cancelling letters would need a backtrack."""
        g, parent, depth, letter = self.g, self.parent, self.depth, self.letter
        inverse = self.alphabet.inverse_letter
        u, w = g.src(d), g.tau[d]
        down, up = [letter[d]], []   # the word's two halves, down reversed
        while u != w:
            if depth[u] >= depth[w]:
                e = parent[u]
                down.append(letter[e])
                u = g.src(e)
            else:
                e = parent[w]
                up.append(inverse(letter[e]))
                w = g.src(e)
        down.reverse()
        return u, Word(self.alphabet, tuple(down + up), _reduced=True)


# Levels that each end of a non-tree edge searches for a short cycle.
LOCAL_CYCLE_LEVELS = 4


def _usable_path(g, usable, a, b, limit):
    """The darts of a shortest path from a to b over edges marked in
    ``usable`` (indexed by ``d >> 1``), of at most ``limit`` edges and at
    most ``LOCAL_CYCLE_LEVELS`` levels from either end, or None.  The end
    with the smaller frontier grows by one BFS level at a time; the first
    vertex reached from both ends closes a shortest path."""
    if a == b:
        return []
    tau, out = g.tau, g._out
    seen = ({a: None}, {b: None})   # vertex -> dart it was reached by
    frontier = [[a], [b]]
    levels = [0, 0]
    while levels[0] + levels[1] < limit:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if levels[side] == LOCAL_CYCLE_LEVELS:
            side = 1 - side
            if levels[side] == LOCAL_CYCLE_LEVELS:
                return None
        mine, other = seen[side], seen[1 - side]
        grown = []
        for x in frontier[side]:
            for d in out[x]:
                y = tau[d]
                if usable[d >> 1] and y not in mine:
                    mine[y] = d
                    if y in other:
                        halves = []
                        for reached in seen:    # from y back to each end
                            half, v = [], y
                            while reached[v] is not None:
                                half.append(reached[v])
                                v = tau[reached[v] ^ 1]
                            halves.append(half)
                        return halves[0][::-1] + [e ^ 1 for e in halves[1]]
                    grown.append(y)
        if not grown:
            return None
        frontier[side] = grown
        levels[side] += 1
    return None


def _short_cycle_relators(g, alphabet):
    """One relator per non-tree edge of the BFS tree at vertex 0, as
    ``(dart, vertex, word)``: the edge's canonical dart, and a cyclically
    reduced word that closes at the vertex.

    Edges are taken in BFS order of their later end, then of their earlier
    end.  Edge u -> w is closed by a shortest path from w back to u over
    tree edges and edges closed before it, and the cycle is read from its
    earliest vertex in BFS order.  The search looks for a cycle at least
    two letters shorter than depth(u) + depth(w) + 1, the walk from vertex
    0 down to u, across the edge and back up from w; where it finds none,
    the relator is the edge's cycle through the tree, at the lowest common
    ancestor of its ends.  That cycle is the walk from vertex 0 when the
    ends meet there, so on a tree one level deep no search runs.

    Each relator crosses exactly one edge that is neither in the tree nor
    closed, so by induction every non-tree edge is trivial in the
    complex."""
    tree = _RootedTree(g, alphabet)
    tau, depth, letter = g.tau, tree.depth, tree.letter
    rank = [0] * g.n
    for i, v in enumerate(tree.order):
        rank[v] = i
    usable = bytearray([1]) * g.n_edges
    open_edges = []
    for d in tree.non_tree_edges():
        usable[d >> 1] = 0
        ru, rw = rank[tau[d ^ 1]], rank[tau[d]]
        open_edges.append((max(ru, rw), min(ru, rw), d))
    open_edges.sort()
    out = []
    for _, _, d in open_edges:
        u, w = tau[d ^ 1], tau[d]
        path = _usable_path(g, usable, w, u, depth[u] + depth[w] - 2)
        if path is None:
            out.append((d, *tree.tree_cycle(d)))
        else:                   # cyclically reduced, as in tree_cycle
            cycle = [d] + path
            starts = [rank[tau[e ^ 1]] for e in cycle]
            i = starts.index(min(starts))
            cycle = cycle[i:] + cycle[:i]
            word = tuple(letter[e] for e in cycle)
            out.append((d, tau[cycle[0] ^ 1],
                        Word(alphabet, word, _reduced=True)))
        usable[d >> 1] = 1
    return out


# ---------------------------------------------------------------------------
# Isomorphism and automorphisms: one search over vertex bijections.  Vertices
# are placed in BFS order; a vertex is tried only at unused neighbours of its
# BFS parent's image, and kept there only if its darts to placed vertices
# match those of the image, neighbour by neighbour, in number (and colour, if
# asked).  Both sides' dart counts are tabled once per search, so a placement
# costs one lookup per neighbour.  The search is exhaustive, so an empty
# result is a certificate.


def _dart_counts(x, colour, v):
    """(neighbour, colour) -> number of darts out of v."""
    counts = {}
    for d in x._out[v]:
        key = (x.tau[d], colour[d])
        counts[key] = counts.get(key, 0) + 1
    return counts


def graph_maps(g, h, respect_colours=False, respect_classes=False, *,
               root_image=None):
    """Yield, as vertex-image tuples, every vertex bijection from g to h that
    preserves degrees, the number of darts between each pair of vertices
    (per dart colour if ``respect_colours``) and, if asked, class labels.
    A map extends to a graph isomorphism exactly when ``dart_bijections``
    yields a dart map over it.  With ``root_image``, only the maps that send
    the search's first vertex, the least vertex of largest degree, there.
    The search keeps an explicit stack of candidate iterators, one per
    placed vertex."""
    n = g.n
    if n != h.n or g.n_darts != h.n_darts:
        return
    if sorted(map(len, g._out)) != sorted(map(len, h._out)):
        return
    if n == 0:
        yield ()
        return
    order, parent, seen = [], [None] * n, [False] * n
    for root in sorted(range(n), key=lambda v: -len(g._out[v])):
        if seen[root]:
            continue
        seen[root] = True
        i = len(order)
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for d in g._out[v]:
                w = g.tau[d]
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    g_colour = g.colour if respect_colours else [None] * g.n_darts
    h_colour = h.colour if respect_colours else [None] * h.n_darts
    # Per vertex of g, its dart counts to the vertices placed with or
    # before it; per vertex of h, all its dart counts.
    placed = []
    for v in range(n):
        counts = _dart_counts(g, g_colour, v)
        placed.append([(u, c, k) for (u, c), k in counts.items()
                       if position[u] <= position[v]])
    h_counts = [_dart_counts(h, h_colour, w) for w in range(n)]
    image, used = [None] * n, [False] * n

    def fits(v, w):
        """Darts out of v to placed vertices match those out of w to used
        vertices, with v already placed at w, so loops count too."""
        theirs = h_counts[w]
        for u, c, k in placed[v]:
            if theirs.get((image[u], c)) != k:
                return False
        return sum(used[x] for x, _ in theirs) == len(placed[v])

    stack = [iter(range(n) if root_image is None else (root_image,))]
    while stack:
        v = order[len(stack) - 1]
        if image[v] is not None:   # retract this level's last choice
            used[image[v]] = False
            image[v] = None
        deg, cls = len(g._out[v]), g.classes[v]
        for w in stack[-1]:
            if (used[w] or len(h._out[w]) != deg
                    or (respect_classes and h.classes[w] != cls)):
                continue
            image[v], used[w] = w, True
            if fits(v, w):
                break
            image[v], used[w] = None, False
        else:
            stack.pop()
            continue
        if len(stack) == n:
            yield tuple(image)
            continue
        p = parent[order[len(stack)]]
        stack.append(iter(range(n)) if p is None else
                     iter(dict.fromkeys(h.tau[e] for e in h._out[image[p]])))


def dart_bijections(g, h, vmap, colour_ok=lambda a, b: True):
    """Yield every dart bijection from g to h over the vertex bijection
    ``vmap`` that commutes with dart reversal and passes ``colour_ok`` on
    both darts of each edge.  Parallel bundles are assigned by backtracking,
    with an explicit stack of one level per edge; a loop may map to either
    orientation of its image."""
    order = g.edges()
    candidates = []
    for d in order:
        a, b = vmap[g.src(d)], vmap[g.tau[d]]
        candidates.append([
            e for e in h.out_darts(a)
            if h.tau[e] == b and colour_ok(g.colour[d], h.colour[e])
            and colour_ok(g.colour[d ^ 1], h.colour[e ^ 1])])
    if not order:
        yield {}
        return
    chosen, used = [], set()   # h-dart per edge of ``order`` so far
    stack = [iter(candidates[0])]
    while stack:
        if len(chosen) == len(stack):   # retract this level's last choice
            e = chosen.pop()
            used.difference_update((e, e ^ 1))
        e = next((e for e in stack[-1] if e not in used), None)
        if e is None:
            stack.pop()
            continue
        chosen.append(e)
        used.update((e, e ^ 1))
        if len(chosen) < len(order):
            stack.append(iter(candidates[len(chosen)]))
        else:
            dmap = {}
            for d, e in zip(order, chosen):
                dmap[d], dmap[d ^ 1] = e, e ^ 1
            yield dmap


def isomorphic(g, h, respect_colours=False, respect_classes=False, colour_map=None):
    """A vertex/dart bijection witnessing isomorphism, or None.  The first
    vertex map of ``graph_maps`` that ``dart_bijections`` extends is
    returned; with a ``colour_map`` (g-colour -> allowed h-colours) only
    dart counts are matched per vertex and colours are left to the dart
    map.  Both searches are exhaustive, so None is a certificate."""
    if colour_map is not None:
        colour_ok = lambda gc, hc: hc in colour_map.get(gc, {gc})
    elif respect_colours:
        colour_ok = operator.eq
    else:
        colour_ok = lambda gc, hc: True
    exact = respect_colours and colour_map is None
    for vmap in graph_maps(g, h, exact, respect_classes):
        dmap = next(dart_bijections(g, h, vmap, colour_ok), None)
        if dmap is not None:
            return dict(enumerate(vmap)), dmap
    return None


AUTOMORPHISM_BOUND = 64


def automorphism_group(g):
    """Complete list of automorphisms as vertex-image tuples, for graphs of
    at most ``AUTOMORPHISM_BOUND`` vertices."""
    if g.n > AUTOMORPHISM_BOUND:
        raise SearchBoundExceeded(
            f"{g.n} vertices exceeds the bound {AUTOMORPHISM_BOUND}")
    return sorted(graph_maps(g, g))


def is_vertex_transitive(g):
    """Whether Aut(g) is transitive on the vertices; the empty graph is not.
    The orbit of vertex 0 is grown by one automorphism 0 -> v for each v
    outside the orbit of the automorphisms found so far, and closed under
    them.  Each search is exhaustive, so False is a certificate, and Aut(g)
    is never listed, so there is no size bound."""
    n = g.n
    if n == 0 or not g.is_regular():
        return False
    seen, orbit, maps = [True] + [False] * (n - 1), [0], []
    for v in range(1, n):
        if seen[v]:
            continue
        a = next(graph_maps(g, g, root_image=v), None)
        if a is None:
            return False
        maps.append(a)
        for x in orbit:            # the orbit grows as it is read
            for a in maps:
                if not seen[a[x]]:
                    seen[a[x]] = True
                    orbit.append(a[x])
    return True


def _perm_mul(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def mulclose(perms, cap=None):
    """The group generated by a set of permutations of one degree, or None
    once it has more than ``cap`` elements.  Each new element is multiplied
    on the right by the generators only, which reaches every product of
    them; in a finite group that is the whole generated group."""
    gens = list(perms)
    ident = tuple(range(len(gens[0])))
    group = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for q in gens:
                r = _perm_mul(p, q)
                if r not in group:
                    group.add(r)
                    new.append(r)
            if cap is not None and len(group) > cap:
                return None
        frontier = new
    return group


def is_cayley(g):
    """A subgroup of Aut(g) acting regularly on the vertices, as a generator
    list, or None, for graphs of at most ``AUTOMORPHISM_BOUND`` vertices.
    A semiregular subgroup grows from the trivial group: each step adds a
    fixed-point-free automorphism sending 0 to the least vertex its orbit
    of 0 misses.  (All orbits of a semiregular group have its order, so the
    order divides n.)  A regular subgroup has exactly one element per image
    of 0, so the branch that always adds its element reaches it, and None
    is a certificate."""
    n = g.n
    if n > AUTOMORPHISM_BOUND:
        raise SearchBoundExceeded(
            f"{g.n} vertices exceeds the bound {AUTOMORPHISM_BOUND}")
    if not is_vertex_transitive(g):
        return None
    ident = tuple(range(n))

    def fixed_point_free(p):
        return all(p[i] != i for i in range(n))

    def semiregular(group):
        return all(p == ident or fixed_point_free(p) for p in group)

    candidates = {}    # v -> the fixed-point-free automorphisms 0 -> v
    seen = set()
    stack = [(frozenset([ident]), ())]
    while stack:
        group, gens = stack.pop()
        if len(group) == n:        # semiregular of order n: regular
            return list(gens)
        covered = {p[0] for p in group}
        v = next(v for v in range(n) if v not in covered)
        if v not in candidates:
            candidates[v] = [p for p in graph_maps(g, g, root_image=v)
                             if fixed_point_free(p)]
        for p in candidates[v]:
            closed = mulclose(gens + (p,), cap=n)
            if closed is None:
                continue
            closed = frozenset(closed)
            if closed in seen or not semiregular(closed):
                continue
            seen.add(closed)
            stack.append((closed, gens + (p,)))
    return None


# ---------------------------------------------------------------------------
# Text exchange format and DOT export.  ``write_graph`` builds its lines from
# a zip of the dart columns.  ``read_graph`` splits the text once, with a '#'
# token between lines (no field holds '#': it starts a comment), so each run
# of lines of one kind and one field count is an evenly strided stretch of
# one token list.  It converts and bound-checks each column of vertex
# numbers with one ``int`` pass and builds ``tau`` and the dart colours by
# slices.  When it meets anything it does not accept, ``_raise_graph_error``
# walks the lines in order and raises the first error with its line number;
# that walk builds nothing, so the bulk pass is the only reader.  Here,
# unlike presentation text, the split pays: on the 13 ``.graph`` and ``.col``
# inputs of the pipeline benchmark (seed 1), a reader that took one line at a
# time took 1.2 times as long, and finding the runs with ``groupby`` 1.5 to
# 1.7 times.


def write_graph(g, colouring=None):
    """The text exchange format.  With a ``colouring`` (canonical dart ->
    colour), every edge line ends in the edge's base colour, '-' for none,
    and its colour in the colouring."""
    lines = [f"vertices {g.n}"]
    seen = set()
    for c in sorted(k for k in g.colour_inv if k is not None):
        ci = g.colour_inv[c]
        if c in seen:
            continue
        seen.add(c)
        seen.add(ci)
        if ci != c:
            lines.append(f"colour {c} {ci}")
    lines += [f"class {v} {x}" for v, x in enumerate(g.classes) if x is not None]
    tau, base = g.tau, g.colour[0::2]
    ends = zip(tau[1::2], tau[0::2], base)
    if colouring is not None:
        column = map(colouring.__getitem__, range(0, len(tau), 2))
        lines += [f"edge {u} {v} {'-' if c is None else c} {k}"
                  for (u, v, c), k in zip(ends, column)]
    else:
        lines += [f"edge {u} {v}" if c is None else f"edge {u} {v} {c}"
                  for u, v, c in ends]
    lines.append("")
    return "\n".join(lines)


# Fields after the keyword: (fewest, most).
_GRAPH_FIELDS = {"vertices": (1, 1), "colour": (1, 2), "class": (2, 2),
                 "edge": (2, 3)}


def _graph_number(token, lineno, bound=None):
    """A non-negative integer field, below ``bound`` for a vertex."""
    try:
        value = int(token)
    except ValueError:
        raise GraphSyntaxError(f"{token!r} is not an integer", lineno) from None
    if value < 0 or (bound is not None and value >= bound):
        what = "a count" if bound is None else f"a vertex of 0..{bound - 1}"
        raise GraphSyntaxError(f"{value} is not {what}", lineno)
    return value


def _vertex_column(fields, n):
    """``int`` of every field, or None unless all are vertices of 0..n-1."""
    try:
        column = list(map(int, fields))
    except ValueError:
        return None
    return column if 0 <= min(column) and max(column) < n else None


def read_graph(text, coloured=False):
    """Parse the text exchange format.  An edge whose colour has no
    ``colour`` line before it is self-inverse.  With ``coloured``, an edge
    line may end in one more field, its colour in a colouring, after a base
    colour that is '-' for none; the result is then ``(g, colouring)``, with
    ``colouring`` canonical dart -> colour, or None when no edge line has
    the field.  Malformed input raises ``GraphSyntaxError`` with the line
    number."""
    lines = text.splitlines() or [""]
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    tokens = " # ".join(lines).split()
    tokens.append("#")
    read = _read_runs(tokens, _line_runs(tokens, len(lines)), coloured)
    if read is None:
        _raise_graph_error(text, coloured)
    return read


def _line_runs(tokens, lines):
    """``(kind, width, first, k)`` for each maximal run of ``k`` lines, in
    order, whose tokens start at ``tokens[first]`` and which all hold
    ``width`` tokens, the first of them ``kind``.  ``tokens`` ends each of
    its ``lines`` lines with '#' and holds no other '#'.

    The k lines from token p form a run when the slots where their '#'
    would be hold k '#', the slots of their first tokens hold k ``kind``
    and the stretch holds no other '#': a few counts of slices.  Every '#'
    from p on ends one of the remaining lines, so a run to the last line
    needs no count of its whole stretch.  That run is tried first; a failed
    try halves the lines that may try it again, so the tries take linear
    time in all.  Shorter runs are found by doubling k, then halving the
    gap."""
    p, may_reach_end = 0, lines
    while lines:
        width = tokens.index("#", p) - p
        kind, step = tokens[p], width + 1

        def uniform(k):
            end = p + k * step
            return (tokens[p + width:end:step].count("#") == k
                    and tokens[p:end:step].count(kind) == k
                    and (k == lines or tokens[p:end].count("#") == k))

        k, fails = 1, lines + 1
        if lines <= may_reach_end and len(tokens) - p == lines * step:
            if uniform(lines):
                k = lines
            else:
                fails, may_reach_end = lines, lines // 2
        while fails - k > 1:
            mid = min(2 * k, lines if fails > lines else (k + fails) // 2)
            if uniform(mid):
                k = mid
            else:
                fails = mid
        yield kind, width, p, k
        p, lines = p + k * step, lines - k


def _read_runs(tokens, runs, coloured):
    """The graph (and colouring) of the line runs of ``read_graph``; None if
    any line is malformed."""
    n, classes, tau, dart_colour, colour_inv, column = None, [], [], [], {}, []
    for kind, width, first, k in runs:
        step = width + 1
        stop = first + k * step

        def field(i):
            return tokens[first + i:stop:step]

        if kind == "#":         # blank lines
            continue
        if kind == "colour" and width in (2, 3):
            for c, ci in zip(field(1), field(width - 1)):
                colour_inv[c], colour_inv[ci] = ci, c
        elif kind == "vertices" and width == 2 and k == 1 and n is None:
            try:
                n = int(tokens[first + 1])
            except ValueError:
                return None
            if n < 0:
                return None
            classes = [None] * n
        elif n is None:
            return None
        elif kind == "class" and width == 3:
            vertices = _vertex_column(field(1), n)
            if vertices is None:
                return None
            for v, x in zip(vertices, field(2)):
                classes[v] = x
        elif kind == "edge" and 3 <= width <= (5 if coloured else 4):
            heads, tails = _vertex_column(field(2), n), _vertex_column(field(1), n)
            if heads is None or tails is None:
                return None
            darts = [None] * (2 * k)
            darts[0::2], darts[1::2] = heads, tails
            tau += darts
            base = field(3) if width > 3 else None
            if width == 5:
                column += field(4)
                if base.count("-") == k:
                    base = None
                elif "-" in base:
                    base = [None if c == "-" else c for c in base]
            elif coloured:
                column += [None] * k
            if base is None:
                dart_colour += [None] * (2 * k)
                continue
            for c in dict.fromkeys(base):
                if c is not None:
                    colour_inv.setdefault(c, c)
            darts[0::2], darts[1::2] = base, map(colour_inv.get, base)
            dart_colour += darts
        else:
            return None
    g = ColouredGraph(n or 0, tau, dart_colour, None, classes, colour_inv)
    if not coloured:
        return g
    if column.count(None) == len(column):
        return g, None
    if None in column:
        return None
    return g, dict(zip(range(0, len(tau), 2), column))


def _raise_graph_error(text, coloured):
    """Raise the error of the first malformed line of ``text``, in line
    order, or else name the first edge line without the colour column:
    the bulk pass rejects nothing else."""
    n, missing = None, None
    fields_of = dict(_GRAPH_FIELDS, edge=(2, 4)) if coloured else _GRAPH_FIELDS
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
            n = _graph_number(fields[0], lineno)
        elif kind != "colour":
            if n is None:
                raise GraphSyntaxError(f"'{kind}' line before the 'vertices' line",
                                       lineno)
            _graph_number(fields[0], lineno, n)
            if kind == "edge":
                _graph_number(fields[1], lineno, n)
                if len(fields) < 4 and missing is None:
                    missing = lineno
    raise GraphSyntaxError("some edge lines are missing the colour column", missing)


_DOT_PALETTE = ["red", "blue", "forestgreen", "orange", "purple", "brown",
                "deeppink", "turquoise", "gray40", "olive"]


def to_dot(g):
    colours = sorted({c for c in g.colour if c is not None})
    pen = {}
    for c in colours:
        ci = g.colour_inv[c]
        key = min(c, ci)
        if key not in pen:
            pen[key] = _DOT_PALETTE[len(pen) % len(_DOT_PALETTE)]
        pen[c] = pen[key]
    lines = ["graph {"]
    for v in range(g.n):
        label = g.names[v] if g.names[v] is not None else v
        shape = ""
        if g.classes[v] is not None:
            shape = f" xlabel={_dot_string(g.classes[v])}"
        lines.append(f"  {v} [label={_dot_string(label)}{shape}];")
    for d in g.edges():
        c = g.colour[d]
        attr = f" [color={pen[c]} label={_dot_string(c)}]" if c is not None else ""
        lines.append(f"  {g.src(d)} -- {g.tau[d]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(x):
    """``str(x)`` as a quoted DOT string, its '\\' and '"' escaped."""
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'
