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
traversals, and so their outputs, deterministic.  The index is built on
its first use, so a graph that is only written out never builds it.  It
is the graph's only index: vertex names and classes are labels, and a
caller that looks vertices up by label keeps its own map.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from itertools import chain, count

from .errors import (Disconnected, GraphSyntaxError, NotCayleyLike,
                     SearchBoundExceeded)


class ColouredGraph:
    """``ColouredGraph(n, tau, colour, names, classes, colour_inv)`` takes
    the lists it is given, not copies: ``tau`` and ``colour`` (default: no
    colours) per dart, ``names`` and ``classes`` (default: None) per vertex,
    and ``colour_inv``, colour -> inverse colour, total on the colours
    used.  ``ColouredGraph()`` is the empty graph.  The out-dart index is
    built by ``_index`` on its first use; until then ``_out`` is None."""

    def __init__(self, n=0, tau=None, colour=None, names=None, classes=None,
                 colour_inv=None):
        self.n = n
        self.tau = [] if tau is None else tau
        self.colour = [None] * len(self.tau) if colour is None else colour
        self.names = [None] * n if names is None else names
        self.classes = [None] * n if classes is None else classes
        self.colour_inv = {} if colour_inv is None else colour_inv
        self._out = None
        self.meta = {}

    def _index(self):
        """The out-dart index, vertex -> out-darts in dart order, built on
        the first call.  Once built, ``add_vertex`` and ``add_edge`` keep
        it up to date."""
        out = self._out
        if out is None:
            out, tau = [[] for _ in range(self.n)], self.tau
            # Each dart to its source, in dart order: 2i leaves tau[2i + 1].
            for d, v, u in zip(count(0, 2), tau[0::2], tau[1::2]):
                out[u].append(d)
                out[v].append(d + 1)
            self._out = out
        return out

    # -- construction -------------------------------------------------------

    def add_vertex(self, name=None, cls=None):
        idx = self.n
        self.n += 1
        self.names.append(name)
        self.classes.append(cls)
        if self._out is not None:
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
        d = len(self.tau)
        if self._out is not None:
            out_u, out_v = self._out[u], self._out[v]
            out_u.append(d)
            out_v.append(d + 1)
        self.tau += [v, u]
        self.colour += [colour, self.colour_inv.get(colour)]
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
        try:
            return len(self._out[v])
        except TypeError:       # no index yet
            return len(self._index()[v])

    def out_darts(self, v):
        """Darts leaving v, in dart order.  This is the index itself, so
        callers must not modify it."""
        try:
            return self._out[v]
        except TypeError:       # no index yet
            return self._index()[v]

    def edges(self):
        """One canonical dart per undirected edge: the even darts."""
        return list(range(0, len(self.tau), 2))

    def edge_ends(self, d):
        return self.tau[d ^ 1], self.tau[d]

    def neighbours(self, v):
        return sorted({self.tau[d] for d in self.out_darts(v)})

    def is_regular(self):
        return len({len(out) for out in self._index()}) <= 1

    def is_connected(self):
        """Whether the graph is connected (the empty graph is)."""
        return not self.n or len(_bfs_forest(self, (0,))[0]) == self.n

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
# Cayley-like colourings: walks along words.


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
    order, tree = _bfs_forest(g, (base,))
    if len(order) != g.n:
        raise Disconnected("graph is not connected")
    return tree, order


def _bfs_forest(g, roots):
    """A BFS from each of ``roots`` that no earlier BFS reached, in turn,
    reading out-darts in dart order: returns the vertices in the order they
    are reached and the tree dart into each vertex, None at a root and at a
    vertex no BFS reaches."""
    out, tau = g._index(), g.tau
    tree, seen, order = [None] * g.n, [False] * g.n, []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        i = len(order)
        order.append(root)
        while i < len(order):
            for d in out[order[i]]:
                w = tau[d]
                if not seen[w]:
                    seen[w] = True
                    tree[w] = d
                    order.append(w)
            i += 1
    return order, tree


# ---------------------------------------------------------------------------
# Isomorphism and automorphisms: one search over vertex bijections.  The
# vertices of g are placed in BFS order, component roots by decreasing
# degree.  A vertex is tried only at unused neighbours of its BFS parent's
# image (with colours, only at the heads of the darts of its tree dart's
# colour), and kept there only if its darts to placed vertices match those
# of the image, neighbour by neighbour, in number (and colour, if asked).
# Every map the search yields keeps those dart counts between all pairs, so
# it is an isomorphism of the underlying multigraphs and keeps distances.
# Two more rules follow from that, and prune:
# - a vertex at distance d from g's first root goes only to a vertex at
#   distance d from the root's image;
# - the spheres of h about the root's image have the sizes of g's spheres
#   about the root, so once one size differs, the root takes its next image.
# Only g's first component is measured.  h's distances come from a BFS from
# the root's image that grows a layer at a time, to depth 2d + 1 when a
# vertex at depth d is pushed, and is reset layer by layer on the next image.
# A whole BFS per image would make a search that tries every image cost
# O(n^2).  Each vertex's dart counts are tabled once per pair of graphs as
# one dict, neighbour -> summed dart weights, whose keys are also h's
# candidates and BFS steps, so a placement costs one lookup per neighbour.
# No rule drops a map, so an empty result is a certificate, and the maps
# come in the order of the search without the two rules.
#
# Colours can dictate the map.  When colours are respected and no vertex of
# g or h has two out-darts of one colour, as in a partite Cayley graph, a
# vertex's tree dart leaves one candidate, so a root image fixes the map of
# its component.  The search is then one walk per root image, in the same
# order, from a colour -> out-dart table per vertex of each graph, with no
# depths, spheres or dart-count tables; each dart of g is checked once, and
# the walk's dart images are the dart map ``isomorphic`` returns.
#
# ``_map_search`` does the set-up (the BFS order, read from ``_bfs_forest``
# with roots by decreasing degree, and either the colour tables or the
# depths, spheres and dart-count tables) once, and returns a search that
# may run many times, each with fixed images for a prefix of the BFS order.
# ``graph_maps`` runs one search, and ``_base_orbit`` one per orbit point
# of one level of a stabiliser chain: with the BFS order as its base, the
# automorphisms that fix b_0 .. b_(i-1) send b_i only to neighbours of its
# BFS parent, which they fix, so each level's candidates are few, and each
# of its searches stops at its first map.  ``_stabiliser_chain`` builds
# every level, and ``automorphism_group`` and ``is_cayley`` read it;
# ``is_vertex_transitive`` builds level 0 alone and keeps no elements.


def _dart_counts(out, tau, weight, v):
    """neighbour -> the sum of the weights of the darts in ``out[v]``, the
    out-darts of v, to it."""
    counts = {}
    for d in out[v]:
        u = tau[d]
        counts[u] = counts.get(u, 0) + weight[d]
    return counts


def graph_maps(g, h, respect_colours=False, respect_classes=False):
    """Yield, as vertex-image tuples, every vertex bijection from g to h that
    preserves degrees, the number of darts between each pair of vertices
    (per dart colour if ``respect_colours``) and, if asked, class labels.
    A map extends to a graph isomorphism exactly when ``dart_bijections``
    yields a dart map over it."""
    setup = _map_search(g, h, respect_colours, respect_classes)
    if setup is not None:
        yield from setup[2](())


def _map_search(g, h, respect_colours=False, respect_classes=False):
    """The set-up of ``graph_maps``, for any number of searches.  Returns
    g's search order, each vertex's BFS parent (None at a component root),
    ``search(prefix)``, which yields, in search order, the maps of
    ``graph_maps`` that send ``order[i]`` to ``prefix[i]`` for every
    i < len(prefix), and ``walks``; or returns None when no map exists
    because the vertex or dart counts or the degree sequences differ.  With
    colours, when no vertex of g or h has two out-darts of one colour, the
    search is ``_colour_walk``'s, and ``walks(prefix)`` yields each of its
    maps with the image of every dart of g, a list that holds until the next
    map.  Otherwise ``walks`` is None, and the search keeps an explicit
    stack of candidate iterators, one per placed vertex."""
    n = g.n
    if n != h.n or g.n_darts != h.n_darts:
        return None
    g_out, h_out = g._index(), h._index()
    g_deg, h_deg = list(map(len, g_out)), list(map(len, h_out))
    if sorted(g_deg) != sorted(h_deg):
        return None
    # Roots by decreasing degree; the reversed sort is stable too.
    order, tree_dart = _bfs_forest(
        g, sorted(range(n), key=g_deg.__getitem__, reverse=True))
    g_tau = g.tau
    parent = [None if d is None else g_tau[d ^ 1] for d in tree_dart]
    if respect_colours:
        walk = _colour_walk(g, h, order, parent, g_deg, h_deg,
                            respect_classes)
        if walk is not None:
            return order, parent, *walk
    # Depths from the first root, and g's sphere sizes about it.
    depth, spheres = [-1] * n, []
    for v in order:
        p = parent[v]
        if p is None and spheres:
            break
        d = depth[v] = 0 if p is None else depth[p] + 1
        if d < len(spheres):
            spheres[d] += 1
        else:
            spheres.append(1)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    # A dart weighs 1, or with colours base ** i for its colour's index i.
    # No vertex has ``base`` darts, so the summed weights of the darts from
    # one vertex to another give, digit by digit, how many have each colour.
    base = max(g_deg, default=0) + 1
    if respect_colours:
        colours = dict.fromkeys(chain(g.colour, h.colour))
        weight = {c: base ** i for i, c in enumerate(colours)}
        g_weight = list(map(weight.__getitem__, g.colour))
        h_weight = list(map(weight.__getitem__, h.colour))
    else:
        g_weight = h_weight = [1] * g.n_darts
    # Per vertex of g, its dart weights to the vertices placed with or
    # before it; per vertex of h, all its dart weights, keyed by its
    # distinct neighbours in the order of their first darts.
    placed = []
    for v in range(n):
        counts = _dart_counts(g_out, g.tau, g_weight, v)
        placed.append([(u, k) for u, k in counts.items()
                       if position[u] <= position[v]])
    h_counts = [_dart_counts(h_out, h.tau, h_weight, w) for w in range(n)]
    g_cls, h_cls = g.classes, h.classes

    def search(prefix):
        if n == 0:
            yield ()
            return
        image, used = [None] * n, [False] * n
        dist, layers = [-1] * n, []     # h's BFS from the root's image
        stack = [iter(prefix[:1] or range(n))]
        while stack:
            v = order[len(stack) - 1]
            if image[v] is not None:   # retract this level's last choice
                used[image[v]] = False
                image[v] = None
            deg, cls, dv, mine = g_deg[v], g_cls[v], depth[v], placed[v]
            for w in stack[-1]:
                if (used[w] or h_deg[w] != deg or (dv > 0 and dist[w] != dv)
                        or (respect_classes and h_cls[w] != cls)):
                    continue
                # Darts out of v to placed vertices match those out of w to
                # used vertices; v is placed at w first, so loops count too.
                image[v], used[w] = w, True
                theirs = h_counts[w]
                if sum(map(used.__getitem__, theirs)) == len(mine):
                    for u, k in mine:
                        if theirs.get(image[u]) != k:
                            break
                    else:
                        break
                image[v], used[w] = None, False
            else:
                stack.pop()
                continue
            k = len(stack)
            if k == n:
                yield tuple(image)
                continue
            v = order[k]
            p, dv = parent[v], depth[v]
            if p is None:
                stack.append(iter(prefix[k:k + 1] or range(n)))
                continue
            if k == 1:                 # a new root image: reset the BFS
                for layer in layers:
                    for x in layer:
                        dist[x] = -1
                layers = [[image[p]]]
                dist[image[p]] = 0
            while len(layers) <= 2 * dv + 1 and layers[-1]:
                d, new = len(layers), []
                for x in layers[-1]:
                    for y in h_counts[x]:
                        if dist[y] < 0:
                            dist[y] = d
                            new.append(y)
                layers.append(new)
                if len(new) != (spheres[d] if d < len(spheres) else 0):
                    break
            else:
                if k < len(prefix):
                    heads = prefix[k:k + 1]
                else:
                    heads = h_counts[image[p]]
                    if respect_colours:    # only along darts of the tree
                        t = g_weight[tree_dart[v]]     # dart's colour
                        heads = [x for x, c in heads.items() if c // t % base]
                stack.append(iter(heads))
                continue
            # A sphere differs: no map sends the root to its image.
            for x in order[1:k]:
                used[image[x]] = False
                image[x] = None
            del stack[1:]

    return order, parent, search, None


def _dart_sources(g):
    """The source of each dart of g, in dart order."""
    sources = [0] * len(g.tau)
    sources[0::2], sources[1::2] = g.tau[1::2], g.tau[0::2]
    return sources


def _colour_walk(g, h, order, parent, g_deg, h_deg, respect_classes):
    """``search`` and ``walks`` of ``_map_search`` with colours, or None
    when a vertex of g or h has two out-darts of one colour.  Then a root
    image fixes its component's map, and one walk in g's search order finds
    it: each vertex goes to the head of the dart out of its BFS parent's
    image that has its tree dart's colour, and each dart of g is checked
    against h's table as it leaves a walked vertex.  The walk meets g's
    vertices in the search order, since both read g's out-darts in dart
    order, so a search yields the maps of the backtracking one, in its
    order.  Every vertex's colour -> out-dart table is one dict, from n
    times the colour's index plus the vertex to the dart."""
    n = g.n
    offset = dict(zip(set(g.colour).union(h.colour), count(0, n)))
    g_key = list(map(offset.__getitem__, g.colour))
    h_table = dict(zip(map(operator.add, map(offset.__getitem__, h.colour),
                           _dart_sources(h)), count()))
    if (len(h_table) < h.n_darts or len(set(map(
            operator.add, g_key, _dart_sources(g)))) < g.n_darts):
        return None
    g_out, g_tau, h_tau = g._index(), g.tau, h.tau
    g_cls, h_cls = g.classes, h.classes
    starts = [i for i, v in enumerate(order) if parent[v] is None]
    spans = list(zip(starts, starts[1:] + [n]))

    def walks(prefix):
        if n == 0:
            yield (), []
            return
        image, used, found = [None] * n, [False] * n, [0] * len(g_tau)

        def retract(start, end):
            """Clear the last walk of a component: a prefix of its span."""
            for i in range(start, end):
                v = order[i]
                if image[v] is None:
                    return
                used[image[v]] = False
                image[v] = None

        def walk(start, end, w):
            """Send the root ``order[start]`` to w and follow colours
            through its component: whether every dart checks out."""
            retract(start, end)
            r = order[start]
            if (used[w] or h_deg[w] != g_deg[r]
                    or (respect_classes and h_cls[w] != g_cls[r])):
                return False
            image[r], used[w] = w, True
            for i in range(start, end):
                v = order[i]
                x = image[v]
                for d in g_out[v]:
                    try:
                        e = found[d] = h_table[g_key[d] + x]
                    except KeyError:        # no dart of d's colour
                        return False
                    u, y = g_tau[d], h_tau[e]
                    z = image[u]
                    if z != y:
                        if z is not None or used[y] or h_deg[y] != g_deg[u] or (
                                respect_classes and h_cls[y] != g_cls[u]):
                            return False
                        image[u], used[y] = y, True  # u is next in order
            return all(image[order[i]] == prefix[i]
                       for i in range(start + 1, min(end, len(prefix))))

        stack = [iter(prefix[:1] or range(n))]
        while stack:
            start, end = spans[len(stack) - 1]
            if not any(walk(start, end, w) for w in stack[-1]):
                retract(start, end)
                stack.pop()
                continue
            if end == n:
                yield tuple(image), found
            else:
                stack.append(iter(prefix[end:end + 1] or range(n)))

    def search(prefix):
        return (vmap for vmap, _ in walks(prefix))

    return search, walks


def dart_bijections(g, h, vmap, colour_ok=None):
    """Yield every dart bijection from g to h over the vertex bijection
    ``vmap`` that commutes with dart reversal and, unless ``colour_ok`` is
    None, passes ``colour_ok`` on both darts of each edge.  When every edge
    has one candidate, as in a simple graph, the map is forced, and it is
    yielded if the candidates are distinct edges.  Otherwise parallel
    bundles are assigned by backtracking, with an explicit stack of one
    level per edge; a loop may map to either orientation of its image."""
    order, g_tau, h_tau, h_out = g.edges(), g.tau, h.tau, h._index()
    g_colour, h_colour = g.colour, h.colour
    candidates = []
    for d in order:
        a, b = vmap[g_tau[d ^ 1]], vmap[g_tau[d]]
        candidates.append([
            e for e in h_out[a] if h_tau[e] == b and (
                colour_ok is None
                or (colour_ok(g_colour[d], h_colour[e])
                    and colour_ok(g_colour[d ^ 1], h_colour[e ^ 1])))])
    if all(len(c) == 1 for c in candidates):
        chosen = [c[0] for c in candidates]
        if len({e >> 1 for e in chosen}) == len(chosen):
            yield _dart_map(order, chosen)
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
            yield _dart_map(order, chosen)


def _dart_map(order, chosen):
    """The dart map that sends each edge's dart ``order[i]`` to
    ``chosen[i]``, and its reverse to the reverse."""
    dmap = {}
    for d, e in zip(order, chosen):
        dmap[d], dmap[d ^ 1] = e, e ^ 1
    return dmap


def isomorphic(g, h, respect_colours=False, respect_classes=False, colour_map=None):
    """A vertex/dart bijection witnessing isomorphism, or None.  The first
    vertex map of ``graph_maps`` that extends to a dart map is returned, as
    the vertex-image tuple that ``graph_maps`` yields, with its dart map.
    With colours respected exactly and at most one out-dart per colour at
    each vertex, the only candidate dart map is the one the colour walk
    read from h's table, taken if it commutes with dart reversal, and
    ``dart_bijections`` is not called.  With a ``colour_map`` (g-colour ->
    allowed h-colours) only dart counts are matched per vertex and colours
    are left to the dart map.  Both searches are exhaustive, so None is a
    certificate."""
    if colour_map is not None:
        colour_ok = lambda gc, hc: hc in colour_map.get(gc, {gc})
    elif respect_colours:
        colour_ok = operator.eq
    else:
        colour_ok = None
    setup = _map_search(g, h, respect_colours and colour_map is None,
                        respect_classes)
    if setup is None:
        return None
    search, walks = setup[2:]
    if walks is not None:
        for vmap, found in walks(()):
            if found[1::2] == [e ^ 1 for e in found[0::2]]:
                return vmap, dict(enumerate(found))
        return None
    for vmap in search(()):
        dmap = next(dart_bijections(g, h, vmap, colour_ok), None)
        if dmap is not None:
            return vmap, dmap
    return None


AUTOMORPHISM_BOUND = 64


def _stabiliser_chain(g, transitive=False):
    """Aut(g) as a stabiliser chain whose base is the search order b_0,
    b_1, ... of ``_map_search(g, g)``, for graphs of at most
    ``AUTOMORPHISM_BOUND`` vertices.  Level i, ``_base_orbit``'s orbit of
    b_i, maps each point of the orbit of b_i under G_i, the automorphisms
    that fix b_0 .. b_(i-1), to one element of G_i that sends b_i there, the
    identity at b_i.  Levels are built from the deepest up, so every map
    found below level i is known there.  Each search is exhaustive, so
    every orbit is exact, and |Aut(g)| is the product of the orbit sizes.

    With ``transitive``, level 0 is built first, from its own maps, and
    None is returned at its first failed search, which shows that g is not
    vertex transitive, so such a graph costs no deeper level."""
    n = g.n
    if n > AUTOMORPHISM_BOUND:
        raise SearchBoundExceeded(
            f"{n} vertices exceeds the bound {AUTOMORPHISM_BOUND}")
    setup, ident = _map_search(g, g), tuple(range(n))
    chain, gens = [None] * n, []
    if transitive:
        chain[0] = _base_orbit(g, setup, 0, [], ident, True)
        if chain[0] is None:
            return None
    for i in range(n - 1, -1, -1):
        if chain[i] is None:
            chain[i] = _base_orbit(g, setup, i, gens, ident, False)
    return chain


def _base_orbit(g, setup, i, gens, start, stop_at_failure):
    """The orbit of b_i, the i-th vertex of the search order of ``setup``,
    ``_map_search(g, g)``, under G_i, the automorphisms that fix b_0 ..
    b_(i-1): a dict from each orbit point to an element that sends b_i
    there, ``start`` at b_i, or None throughout when ``start`` is None.
    The candidates are the vertices outside b_0 .. b_(i-1) among the
    neighbours of b_i's BFS parent, which G_i fixes, or among all vertices
    at a component root.  A candidate runs one search, which stops at its
    first map, unless the maps in ``gens`` reach it from b_i or from a
    candidate whose search failed; each map found joins ``gens``.  With
    ``stop_at_failure``, returns None at the first failed search."""
    order, parent, search, _ = setup
    b, p = order[i], parent[order[i]]
    fixed = set(order[:i])
    orbit, missed = {b: start}, {}
    candidates = range(g.n) if p is None else dict.fromkeys(
        g.tau[d] for d in g._index()[p])
    for w in candidates:
        if w in orbit or w in fixed or w in missed:
            continue
        a = next(search(order[:i] + [w]), None)
        if a is None:
            if stop_at_failure:
                return None
            # Nor can b reach the orbit of w under the maps found.
            missed[w] = None
            _close_orbit(missed, gens)
        else:
            gens.append(a)
            _close_orbit(orbit, gens)
    return orbit


def _close_orbit(orbit, gens):
    """Close ``orbit``, a dict from points to the elements that reach them,
    under ``gens``: a point s[x] it lacks gets s after orbit[x], or None
    where orbit[x] is None."""
    points = list(orbit)
    for x in points:                    # the orbit grows as it is read
        t = orbit[x]
        for s in gens:
            if s[x] not in orbit:
                orbit[s[x]] = t and tuple(map(s.__getitem__, t))
                points.append(s[x])


def _chain_elements(levels, n):
    """Every product, as a vertex-image tuple, of one element from each
    level of a stabiliser chain on n vertices, top level applied last:
    each element of the group at the top level, once."""
    group = [tuple(range(n))]
    for level in reversed(levels):
        if len(level) > 1:
            group = [tuple(map(t.__getitem__, x))
                     for t in level.values() for x in group]
    return group


def automorphism_group(g):
    """Complete list of automorphisms as sorted vertex-image tuples, for
    graphs of at most ``AUTOMORPHISM_BOUND`` vertices, read from the
    stabiliser chain of Aut(g)."""
    return sorted(_chain_elements(_stabiliser_chain(g), g.n))


def is_vertex_transitive(g):
    """Whether Aut(g) is transitive on the vertices; the empty graph is not.
    In a regular graph vertex 0 is the search's first vertex, b_0, and g is
    vertex transitive when its orbit, the chain's level 0, is every vertex.
    The orbit stores None at each point, so no element is kept, and the
    level stops at its first failed search.  Each search is exhaustive, so
    False is a certificate, and Aut(g) is never listed, so there is no size
    bound."""
    return g.n > 0 and g.is_regular() and _base_orbit(
        g, _map_search(g, g), 0, [], None, True) is not None


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
    Aut(g) is read from one stabiliser chain, whose first level is built
    first: it is transitive when the orbit of its first base point, vertex
    0 of a regular graph, is every vertex, and the chain stops at the first
    vertex outside it.  The automorphisms 0 -> v are t_v G_0, with t_v from the
    first level and G_0 the stabiliser of 0 listed from the others.  A
    semiregular subgroup grows from the trivial group: each step adds a
    fixed-point-free automorphism sending 0 to the least vertex its orbit
    of 0 misses.  (All orbits of a semiregular group have its order, so the
    order divides n.)  A regular subgroup has exactly one element per image
    of 0, so the branch that always adds its element reaches it, and None
    is a certificate."""
    n = g.n
    if n == 0:
        return None
    chain = _stabiliser_chain(g, transitive=True)
    if chain is None:
        return None
    ident, stabiliser = tuple(range(n)), _chain_elements(chain[1:], n)

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
            t = chain[0][v]
            candidates[v] = [p for p in (tuple(map(t.__getitem__, x))
                                         for x in stabiliser)
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
# slices.  The same pass raises each error where it meets it, with the line
# number of the bad line: runs come in line order, a bad kind or field
# count is bad on a run's first line, and only a run whose vertex columns
# fail their ``int`` pass is walked a line at a time, tail before head.
# ``_GRAPH_FIELDS`` is the one statement of the field counts.  Here,
# unlike presentation text, the split pays: on the 13 ``.graph`` and ``.col``
# inputs of the pipeline benchmark (seed 1), a reader that took one line at a
# time took 1.2 times as long, and finding the runs with ``groupby`` 1.5 to
# 1.7 times.


def write_graph(g, colouring=None, file=None):
    """The text exchange format.  With a ``colouring`` (canonical dart ->
    colour), every edge line ends in the edge's base colour, '-' for none,
    and its colour in the colouring.  With a ``file``, the text goes to
    ``file.write`` in chunks of at most 4096 lines and None is returned;
    the text returned without one is the join of those chunks."""
    return _written(_graph_chunks(g, colouring), file)


def _written(chunks, file):
    """The chunks joined, or with a ``file``, each written to it in turn."""
    if file is None:
        return "".join(chunks)
    for chunk in chunks:
        file.write(chunk)
    return None


def _graph_chunks(g, colouring):
    """``write_graph``'s lines, each ended by a newline, joined at most 4096
    at a time, so that no chunk holds more than a slice of the graph."""
    head = [f"vertices {g.n}\n"]
    seen = set()
    for c in sorted(k for k in g.colour_inv if k is not None):
        ci = g.colour_inv[c]
        if c in seen:
            continue
        seen.add(c)
        seen.add(ci)
        if ci != c:
            head.append(f"colour {c} {ci}\n")
    yield "".join(head)
    classes = g.classes
    for i in range(0, g.n, 4096):
        yield "".join([f"class {v} {x}\n" for v, x
                       in enumerate(classes[i:i + 4096], i) if x is not None])
    tau, colour = g.tau, g.colour
    for i in range(0, len(tau), 8192):
        j = i + 8192
        ends = zip(tau[i + 1:j:2], tau[i:j:2], colour[i:j:2])
        if colouring is not None:
            column = map(colouring.__getitem__, range(i, min(j, len(tau)), 2))
            yield "".join([f"edge {u} {v} {'-' if c is None else c} {k}\n"
                           for (u, v, c), k in zip(ends, column)])
        else:
            yield "".join([f"edge {u} {v}\n" if c is None
                           else f"edge {u} {v} {c}\n" for u, v, c in ends])


# Fields after the keyword: (fewest, most).
_GRAPH_FIELDS = {"vertices": (1, 1), "colour": (1, 2), "class": (2, 2),
                 "edge": (2, 3)}


def _graph_number(token, lineno, bound=None):
    """A non-negative integer field, below ``bound`` for a vertex and at
    most ``sys.maxsize`` for a count, the largest a list can be."""
    try:
        value = int(token)
    except ValueError:
        raise GraphSyntaxError(f"{token!r} is not an integer", lineno) from None
    if value < 0 or (bound is not None and value >= bound):
        what = "a count" if bound is None else f"a vertex of 0..{bound - 1}"
        raise GraphSyntaxError(f"{value} is not {what}", lineno)
    if value > sys.maxsize:
        raise GraphSyntaxError(f"{value} is too large a count", lineno)
    return value


def _vertex_columns(columns, n, line):
    """``int`` of every field of a run's vertex ``columns`` (tails before
    heads), each a vertex of 0..n-1; the run's first line is ``line``.  Only
    when the bulk pass fails are the fields walked, line by line, to raise
    the error of the first bad one."""
    try:
        ints = [list(map(int, column)) for column in columns]
        if all(0 <= min(column) and max(column) < n for column in ints):
            return ints
    except ValueError:
        pass
    for lineno, fields in enumerate(zip(*columns), line):
        for token in fields:
            _graph_number(token, lineno, n)


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
    return _read_runs(tokens, lines, coloured)


def _line_runs(tokens, lines):
    """``(kind, width, first, k, line)`` for each maximal run of ``k`` lines,
    in order, from line number ``line``, whose tokens start at
    ``tokens[first]`` and which all hold ``width`` tokens, the first of them
    ``kind``.  ``tokens`` ends each of its ``lines`` lines with '#' and
    holds no other '#'.

    The k lines from token p form a run when the slots where their '#'
    would be hold k '#', the slots of their first tokens hold k ``kind``
    and the stretch holds no other '#': a few counts of slices.  Every '#'
    from p on ends one of the remaining lines, so a run to the last line
    needs no count of its whole stretch.  That run is tried first; a failed
    try halves the lines that may try it again, so the tries take linear
    time in all.  Shorter runs are found by doubling k, then halving the
    gap."""
    p, line, may_reach_end = 0, 1, lines
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
        yield kind, width, p, k, line
        p, line, lines = p + k * step, line + k, lines - k


def _read_runs(tokens, lines, coloured):
    """The graph (and colouring) of ``read_graph``'s ``lines``, whose tokens
    are ``tokens``, built a run of lines at a time.  The first malformed
    line raises its error; with ``coloured``, so does the first edge line
    without the colour column when another edge line has it."""
    fields_of = dict(_GRAPH_FIELDS, edge=(2, 4)) if coloured else _GRAPH_FIELDS
    n, classes, tau, dart_colour, colour_inv, column = None, [], [], [], {}, []
    missing = None
    for kind, width, first, k, line in _line_runs(tokens, len(lines)):
        if kind == "#":         # blank lines
            continue
        if kind not in fields_of:
            raise GraphSyntaxError(
                f"unknown graph line {lines[line - 1].strip()!r}", line)
        fewest, most = fields_of[kind]
        if not fewest < width <= most + 1:
            raise GraphSyntaxError(
                f"wrong number of fields in {lines[line - 1].strip()!r}", line)
        step = width + 1
        stop = first + k * step

        def field(i):
            return tokens[first + i:stop:step]

        if kind == "colour":
            for c, ci in zip(field(1), field(width - 1)):
                colour_inv[c], colour_inv[ci] = ci, c
        elif kind == "vertices":
            if n is not None:
                raise GraphSyntaxError("repeated 'vertices' line", line)
            n = _graph_number(tokens[first + 1], line)
            if k > 1:
                raise GraphSyntaxError("repeated 'vertices' line", line + 1)
            classes = [None] * n
        elif n is None:
            raise GraphSyntaxError(f"'{kind}' line before the 'vertices' line",
                                   line)
        elif kind == "class":
            vertices, = _vertex_columns([field(1)], n, line)
            for v, x in zip(vertices, field(2)):
                classes[v] = x
        else:
            tails, heads = _vertex_columns([field(1), field(2)], n, line)
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
            elif missing is None:
                missing = line
            if base is None:
                dart_colour += [None] * (2 * k)
                continue
            for c in dict.fromkeys(base):
                if c is not None:
                    colour_inv.setdefault(c, c)
            darts[0::2], darts[1::2] = base, map(colour_inv.get, base)
            dart_colour += darts
    g = ColouredGraph(n or 0, tau, dart_colour, None, classes, colour_inv)
    if not coloured:
        return g
    if not column:
        return g, None
    if missing is not None:
        raise GraphSyntaxError("some edge lines are missing the colour column",
                               missing)
    return g, dict(zip(range(0, len(tau), 2), column))


_DOT_PALETTE = ["red", "blue", "forestgreen", "orange", "purple", "brown",
                "deeppink", "turquoise", "gray40", "olive"]


def to_dot(g, file=None):
    """The graph in Graphviz DOT, one line per vertex and per edge.  With a
    ``file``, written to it in chunks as ``write_graph`` writes."""
    return _written(_dot_chunks(g), file)


def _dot_chunks(g):
    colours = sorted({c for c in g.colour if c is not None})
    pen = {}
    for c in colours:
        ci = g.colour_inv[c]
        key = min(c, ci)
        if key not in pen:
            pen[key] = _DOT_PALETTE[len(pen) % len(_DOT_PALETTE)]
        pen[c] = pen[key]
    yield "graph {\n"
    for i in range(0, g.n, 4096):
        lines = []
        for v in range(i, min(i + 4096, g.n)):
            label = g.names[v] if g.names[v] is not None else v
            shape = ""
            if g.classes[v] is not None:
                shape = f" xlabel={_dot_string(g.classes[v])}"
            lines.append(f"  {v} [label={_dot_string(label)}{shape}];\n")
        yield "".join(lines)
    for i in range(0, g.n_darts, 8192):
        lines = []
        for d in range(i, min(i + 8192, g.n_darts), 2):
            c = g.colour[d]
            attr = (f" [color={pen[c]} label={_dot_string(c)}]"
                    if c is not None else "")
            lines.append(f"  {g.src(d)} -- {g.tau[d]}{attr};\n")
        yield "".join(lines)
    yield "}\n"


def _dot_string(x):
    """``str(x)`` as a quoted DOT string, its '\\' and '"' escaped."""
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'
