"""Graphs with directed darts, a fixed-point-free involution and a terminus
map, plus optional dart colours and vertex class labels.

A dart is an index; ``inv`` pairs each dart with its reverse and ``tau``
gives its head.  An undirected edge is a dart orbit under ``inv``; loops are
dart pairs with both termini equal and contribute 2 to the degree.
Multi-edges are simply repeated dart pairs, so the model is a multigraph.

``ColouredGraph`` keeps one index, vertex -> out-darts in dart order.  Darts
are only ever added through ``add_edge``, which appends each new dart to the
index of its source, so ``degree``, ``out_darts`` and ``neighbours`` cost
O(deg) and a connectivity search costs O(darts it reaches).  Routines that
walk out of a vertex read this index, and its dart order keeps their
traversals, and so their outputs, deterministic.
"""

from __future__ import annotations

import operator
from collections import Counter, deque

from .errors import (Disconnected, GraphSyntaxError, NotCayleyLike,
                     SearchBoundExceeded)
from .words import Alphabet, reduce as word_reduce


class ColouredGraph:

    def __init__(self):
        self.n = 0
        self.names = []          # optional per-vertex name (any hashable)
        self.classes = []        # optional per-vertex class label
        self.tau = []            # dart -> head vertex
        self.inv = []            # dart -> reverse dart
        self.colour = []         # dart -> colour string or None
        self.colour_inv = {}     # colour -> inverse colour (total on used colours)
        self._out = []           # vertex -> out-darts in dart order
        self._name_index = {}
        self.meta = {}

    # -- construction -------------------------------------------------------

    def add_vertex(self, name=None, cls=None):
        idx = self.n
        self.n += 1
        self.names.append(name)
        self.classes.append(cls)
        self._out.append([])
        if name is not None:
            self._name_index[name] = idx
        return idx

    def vertex(self, name):
        return self._name_index[name]

    def declare_colour(self, colour, inverse=None):
        if colour is None:
            return
        inverse = colour if inverse is None else inverse
        self.colour_inv[colour] = inverse
        self.colour_inv[inverse] = colour

    def add_edge(self, u, v, colour=None, colour_rev=None):
        """Add one undirected edge as a dart pair.  Returns the forward dart."""
        if colour is not None and colour not in self.colour_inv:
            self.declare_colour(colour, colour_rev)
        if colour_rev is None:
            colour_rev = self.colour_inv.get(colour) if colour is not None else None
        out_u, out_v = self._out[u], self._out[v]
        d = len(self.tau)
        r = d + 1   # one int object shared by inv and the index
        self.tau += [v, u]
        self.inv += [r, d]
        self.colour += [colour, colour_rev]
        out_u.append(d)
        out_v.append(r)
        return d

    # -- basic queries -------------------------------------------------------

    @property
    def n_darts(self):
        return len(self.tau)

    @property
    def n_edges(self):
        return len(self.tau) // 2

    def src(self, d):
        return self.tau[self.inv[d]]

    def is_loop(self, d):
        return self.tau[d] == self.tau[self.inv[d]]

    def degree(self, v):
        return len(self._out[v])

    def out_darts(self, v):
        """Darts leaving v, in dart order.  This is the index itself, so
        callers must not modify it."""
        return self._out[v]

    def edges(self):
        """One canonical dart per undirected edge."""
        return [d for d in range(self.n_darts) if d < self.inv[d]]

    def edge_ends(self, d):
        return self.src(d), self.tau[d]

    def neighbours(self, v):
        return sorted({self.tau[d] for d in self._out[v]})

    def is_regular(self):
        return len({len(out) for out in self._out}) <= 1

    def is_connected(self, vertices=None):
        """Whether the subgraph induced on ``vertices`` (default: all of
        them) is connected; an empty set counts as connected."""
        inside = set(range(self.n) if vertices is None else vertices)
        if not inside:
            return True
        start = next(iter(inside))
        seen = {start}
        stack = [start]
        while stack:
            for d in self._out[stack.pop()]:
                w = self.tau[d]
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(inside)

    def class_sizes(self):
        sizes = Counter()
        for c in self.classes:
            sizes[c] += 1
        return dict(sizes)

    def subgraph_edges(self, darts):
        """Subgraph on the same vertex set induced by the given canonical
        darts.  Each new edge remembers its origin in ``meta['origin']``."""
        sub = ColouredGraph()
        for v in range(self.n):
            sub.add_vertex(self.names[v], self.classes[v])
        sub.colour_inv = dict(self.colour_inv)
        origin = {}
        for d in darts:
            nd = sub.add_edge(self.src(d), self.tau[d], self.colour[d],
                              self.colour[self.inv[d]])
            origin[nd] = min(d, self.inv[d])
        sub.meta["origin"] = origin
        return sub

    def copy(self):
        g = self.subgraph_edges(self.edges())
        g.meta = dict(self.meta)
        g.meta.pop("origin", None)
        return g


# ---------------------------------------------------------------------------
# Cayley-like colourings, walks and word maps.


def cayley_like_witness(g):
    """Per-vertex colour -> outgoing dart table, or None if the colouring
    fails any of the three Cayley-likeness conditions."""
    colours = {c for c in g.colour if c is not None}
    if None in g.colour or not colours:
        return None
    for c in colours:
        if g.colour_inv.get(c) not in colours:
            return None
    table = [dict() for _ in range(g.n)]
    for d in range(g.n_darts):
        if g.colour[g.inv[d]] != g.colour_inv[g.colour[d]]:
            return None
        v = g.src(d)
        if g.colour[d] in table[v]:
            return None
        table[v][g.colour[d]] = d
    if any(len(t) != len(colours) for t in table):
        return None
    return table


class Walk:
    """Alternating vertex/dart sequence; stored as a start vertex plus darts."""

    def __init__(self, graph, start, darts=()):
        self.graph = graph
        self.start = start
        self.darts = tuple(darts)
        v = start
        for d in darts:
            if graph.src(d) != v:
                raise ValueError("darts do not chain into a walk")
            v = graph.tau[d]
        self.end = v

    def vertices(self):
        out = [self.start]
        for d in self.darts:
            out.append(self.graph.tau[d])
        return out

    def is_closed(self):
        return self.start == self.end

    def __eq__(self, other):
        return (isinstance(other, Walk) and self.graph is other.graph
                and self.start == other.start and self.darts == other.darts)

    def __len__(self):
        return len(self.darts)


def graph_alphabet(g):
    """Alphabet implied by the dart colours: self-inverse colours become
    involutive generators, inverse pairs contribute one free generator."""
    u_gens, i_gens, seen = [], [], set()
    for d in range(g.n_darts):
        c = g.colour[d]
        if c is None or c in seen:
            continue
        ci = g.colour_inv[c]
        seen.add(c)
        seen.add(ci)
        if ci == c:
            i_gens.append(c)
        else:
            u_gens.append(min(c, ci, key=lambda s: (len(s), s)))
    return Alphabet(u_gens, i_gens)


def _letter_for_colour(alphabet, g, colour):
    name = colour
    if name in alphabet.names:
        return alphabet.code(name)
    return alphabet.code(g.colour_inv[colour], -1)


def walk_word(g, walk, alphabet=None):
    """The reduced word read off a walk's dart colours."""
    witness = cayley_like_witness(g)
    if witness is None:
        raise NotCayleyLike("graph colouring is not Cayley-like")
    alphabet = alphabet or graph_alphabet(g)
    return word_reduce([_letter_for_colour(alphabet, g, g.colour[d])
                        for d in walk.darts], alphabet)


def dictated_walk(g, v, word):
    """Walk from v following the word's letters (first letter first)."""
    witness = cayley_like_witness(g)
    if witness is None:
        raise NotCayleyLike("graph colouring is not Cayley-like")
    alphabet = word.alphabet
    darts = []
    here = v
    for code in word.letters:
        colour = alphabet.colour_of(code)
        d = witness[here].get(colour)
        if d is None:
            raise NotCayleyLike(f"no outgoing dart coloured {colour!r} at {here}")
        darts.append(d)
        here = g.tau[d]
    return Walk(g, v, darts)


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


def fundamental_cycle_words(g, base, alphabet=None):
    """Free generators of the image of the fundamental group at ``base``
    under the walk-to-word map: one word per non-tree edge."""
    witness = cayley_like_witness(g)
    if witness is None:
        raise NotCayleyLike("graph colouring is not Cayley-like")
    alphabet = alphabet or graph_alphabet(g)
    parent, _ = spanning_tree(g, base)

    path_letters = {base: []}

    def letters_to(v):
        if v not in path_letters:
            d = parent[v]
            path_letters[v] = letters_to(g.src(d)) + [
                _letter_for_colour(alphabet, g, g.colour[d])]
        return path_letters[v]

    tree_darts = {d for d in parent if d is not None}
    tree_darts |= {g.inv[d] for d in tree_darts}
    out = []
    for d in g.edges():
        if d in tree_darts:
            continue
        u, w = g.src(d), g.tau[d]
        letters = (letters_to(u) + [_letter_for_colour(alphabet, g, g.colour[d])]
                   + [alphabet.inverse_letter(c) for c in reversed(letters_to(w))])
        out.append(word_reduce(letters, alphabet))
    return out


# ---------------------------------------------------------------------------
# Isomorphism and automorphisms: one search over vertex bijections.  Vertices
# are placed in BFS order; a vertex is tried only at unused neighbours of its
# BFS parent's image, and kept there only if its out-darts to placed vertices
# match those of the image in number (and colour, if asked).  The search is
# exhaustive, so an empty result is a certificate.


def graph_maps(g, h, respect_colours=False, respect_classes=False):
    """Yield, as vertex-image tuples, every vertex bijection from g to h that
    preserves degrees, the number of darts between each pair of vertices
    (per dart colour if ``respect_colours``) and, if asked, class labels.
    A map extends to a graph isomorphism exactly when ``dart_bijections``
    yields a dart map over it.  The search keeps an explicit stack of
    candidate iterators, one per placed vertex."""
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
    g_colour = g.colour if respect_colours else [None] * g.n_darts
    h_colour = h.colour if respect_colours else [None] * h.n_darts
    image, used = [None] * n, [False] * n

    def fits(v, w):
        """Darts out of v to placed vertices match those out of w, with v
        already placed at w, so loops count too."""
        mine = Counter((image[g.tau[d]], g_colour[d]) for d in g._out[v]
                       if image[g.tau[d]] is not None)
        theirs = Counter((h.tau[e], h_colour[e]) for e in h._out[w]
                         if used[h.tau[e]])
        return mine == theirs

    stack = [iter(range(n))]
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
    ``vmap`` that commutes with inv and passes ``colour_ok`` on both darts of
    each edge.  Parallel bundles are assigned by backtracking, with an
    explicit stack of one level per edge; a loop may map to either
    orientation of its image."""
    order = g.edges()
    candidates = []
    for d in order:
        a, b, rev = vmap[g.src(d)], vmap[g.tau[d]], g.inv[d]
        candidates.append([
            e for e in h.out_darts(a)
            if h.tau[e] == b and colour_ok(g.colour[d], h.colour[e])
            and colour_ok(g.colour[rev], h.colour[h.inv[e]])])
    if not order:
        yield {}
        return
    chosen, used = [], set()   # h-dart per edge of ``order`` so far
    stack = [iter(candidates[0])]
    while stack:
        if len(chosen) == len(stack):   # retract this level's last choice
            e = chosen.pop()
            used.difference_update((e, h.inv[e]))
        e = next((e for e in stack[-1] if e not in used), None)
        if e is None:
            stack.pop()
            continue
        chosen.append(e)
        used.update((e, h.inv[e]))
        if len(chosen) < len(order):
            stack.append(iter(candidates[len(chosen)]))
        else:
            dmap = {}
            for d, e in zip(order, chosen):
                dmap[d], dmap[g.inv[d]] = e, h.inv[e]
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


def automorphism_group(g, colour_mode="plain"):
    """Complete list of automorphisms as vertex-image tuples, for graphs of
    at most ``AUTOMORPHISM_BOUND`` vertices."""
    if g.n > AUTOMORPHISM_BOUND:
        raise SearchBoundExceeded(
            f"{g.n} vertices exceeds the bound {AUTOMORPHISM_BOUND}")
    return sorted(graph_maps(g, g, colour_mode == "colour_preserving"))


def is_vertex_transitive(g):
    auts = automorphism_group(g)
    orbit = {a[0] for a in auts}
    return len(orbit) == g.n


def _perm_mul(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def mulclose(perms, cap=None):
    """Closure of a permutation set under composition; stops past ``cap``."""
    n = len(next(iter(perms)))
    ident = tuple(range(n))
    group = {ident}
    frontier = set(perms) - group
    group |= frontier
    while frontier:
        new = set()
        for p in frontier:
            for q in list(group):
                for r in (_perm_mul(p, q), _perm_mul(q, p)):
                    if r not in group:
                        new.add(r)
            if cap is not None and len(group) + len(new) > cap:
                return None
        group |= new
        frontier = new
    return group


def is_cayley(g):
    """A subgroup of Aut(g) acting regularly on the vertices, as a generator
    list, or None after a complete search of semiregular subgroups."""
    auts = automorphism_group(g)
    n = g.n
    ident = tuple(range(n))

    def fixed_point_free(p):
        return all(p[i] != i for i in range(n))

    elements = [p for p in auts if p == ident or fixed_point_free(p)]

    def semiregular(group):
        return all(p == ident or fixed_point_free(p) for p in group)

    seen = set()
    stack = [(frozenset([ident]), ())]
    while stack:
        group, gens = stack.pop()
        if group in seen:
            continue
        seen.add(group)
        if len(group) == n:
            orbit = {p[0] for p in group}
            if len(orbit) == n:
                return list(gens)
            continue
        for p in elements:
            if p in group:
                continue
            closed = mulclose(group | {p}, cap=n)
            if closed is None:
                continue
            closed = frozenset(closed)
            if closed in seen or not semiregular(closed):
                continue
            if n % len(closed) != 0:
                continue
            stack.append((closed, gens + (p,)))
    return None


# ---------------------------------------------------------------------------
# Text exchange format and DOT export.


def write_graph(g):
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
    for v in range(g.n):
        if g.classes[v] is not None:
            lines.append(f"class {v} {g.classes[v]}")
    for d in sorted(g.edges()):
        colour = g.colour[d]
        tail = f" {colour}" if colour is not None else ""
        lines.append(f"edge {g.src(d)} {g.tau[d]}{tail}")
    return "\n".join(lines) + "\n"


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


def read_graph(text):
    """Parse the text exchange format.  Malformed input raises
    ``GraphSyntaxError`` with the line number."""
    g = ColouredGraph()
    declared = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if kind not in _GRAPH_FIELDS:
            raise GraphSyntaxError(f"unknown graph line {line!r}", lineno)
        fewest, most = _GRAPH_FIELDS[kind]
        if not fewest <= len(fields) <= most:
            raise GraphSyntaxError(f"wrong number of fields in {line!r}", lineno)
        if kind == "vertices":
            if declared:
                raise GraphSyntaxError("repeated 'vertices' line", lineno)
            declared = True
            for _ in range(_graph_number(fields[0], lineno)):
                g.add_vertex()
        elif kind == "colour":
            g.declare_colour(*fields)
        elif not declared:
            raise GraphSyntaxError(f"'{kind}' line before the 'vertices' line",
                                   lineno)
        elif kind == "class":
            g.classes[_graph_number(fields[0], lineno, g.n)] = fields[1]
        else:
            g.add_edge(_graph_number(fields[0], lineno, g.n),
                       _graph_number(fields[1], lineno, g.n), *fields[2:])
    return g


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
            shape = f' xlabel="{g.classes[v]}"'
        lines.append(f'  {v} [label="{label}"{shape}];')
    for d in sorted(g.edges()):
        c = g.colour[d]
        attr = f' [color={pen[c]} label="{c}"]' if c is not None else ""
        lines.append(f"  {g.src(d)} -- {g.tau[d]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
