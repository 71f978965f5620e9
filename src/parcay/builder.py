"""Construct the presentation graph, the presentation complex, and the
partite Cayley graph by coset enumeration.

The enumeration is HLT style: rows are discovered breadth first, every
relator of a row's class is scanned at that row and completed by definitions,
deductions fill slots in both directions, and coincidences are merged through
a union-find with slot merging, processed to a fixpoint before any new
definition.  Closing a relator at every row of its class is what realises
the conjugation closure of the relator subgroups.  A closed walk also
closes the cyclic conjugates of its relator (Holt, Eick & O'Brien,
§5.1–5.3): at the rows it passes, the rotations of the relator and of its
inverse close.  A relator's echo table lists, per letter of its walk, the
relators of the class reached that are such a rotation; a power s^e of
one letter is its own rotation, so its walk certifies s^e and s^-e at
every row of its s-cycle.  A scan that a closed walk has certified is
skipped; it would change nothing.  What is certified at a row stays
certified at the row it merges into.

A row's ``dist`` is its breadth-first distance from the base row in the
current table: a deduction or a coincidence that gives a row a shorter
route lowers it, and the drop is passed on along table edges.  A distance
budget, which ``ball_sp`` sets to its radius, therefore bounds true
distance.  Under a budget R a relator of length L is closed at every row
within R plus the longest relator's length minus L, so every relator closes
at every row within R, and a row that the budget held back is processed
again when its distance falls.

The coset table is one flat list, ``table[row * width + slot]``, with one
slot per letter code.  Relators are encoded once, per class, as tuples of
slot indices, and the slot of each letter's inverse is precomputed, so the
scans index lists and never translate letters (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005, ch. 5).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import accumulate

from .errors import BadParameters, Overflow
from .graph import (ColouredGraph, _dictated_darts, _map_search, _witness,
                    alphabet_colours, alphabet_graph, dart_bijections,
                    graph_maps)

DEFAULT_MAX_ROWS = 1_000_000
DEFINE = 1          # a row's definitions, beside its relators' bits


def presentation_graph(p):
    """One vertex per class, one edge orbit per generator along the action."""
    alphabet, image = p.alphabet, p.action.image
    index = {x: i for i, x in enumerate(p.classes)}
    targets = {name: [index[image(alphabet.code(name), x)] for x in p.classes]
               for name in alphabet.names}
    return alphabet_graph(alphabet, targets, p.classes, p.classes)


# cells: (class name, relator Word, dart tuple of the boundary walk) per relator
PresentationComplex = namedtuple("PresentationComplex", "graph cells")


def presentation_complex(p):
    g = presentation_graph(p)
    relators = list(p.all_relators())
    table = _witness(g) if relators else None
    index = {x: i for i, x in enumerate(p.classes)}
    return PresentationComplex(g, [
        (x, r, tuple(_dictated_darts(g, table, index[x], r)))
        for x, r in relators])


class CosetTable:
    """Working state of the enumeration.  Rows are vertices-to-be, with one
    slot per letter code (involutive letters get a single slot), stored flat:
    slot ``s`` of row ``r`` is ``table[r * width + s]``.  Relators are kept
    per class as tuples of slot indices, and ``inverse[s]`` is the slot of
    the inverse letter, so the walks never look at letter codes.
    ``dist[r]`` is the distance of the live row r from the base row along
    the edges of the table."""

    def __init__(self, p, max_rows=DEFAULT_MAX_ROWS, max_dist=None):
        if max_rows < 1:
            raise BadParameters(f"the row bound must be at least 1, got {max_rows}")
        self.p = p
        self.alphabet = p.alphabet
        self.codes = self.alphabet.letters()
        self.width = len(self.codes)
        slot_of = {c: s for s, c in enumerate(self.codes)}
        self.inverse = [slot_of[self.alphabet.inverse_letter(c)] for c in self.codes]
        self.images = [p.action._image[c] for c in self.codes]
        self.relators = {x: [tuple(map(slot_of.__getitem__, r.letters))
                             for r in rels]
                         for x, rels in p.relators.items()}
        # Per class with relators, its plan: one (bit, relator, power, index)
        # per relator; bit 0, DEFINE, stands for a row's definitions, and
        # the index numbers the relators of all classes.  For a power s^e
        # of one letter, power is (the lesser slot of s and its inverse, e),
        # the key of s^e and s^-e in ``powers``: class -> key -> their
        # bits; any other relator has power None.  ``echoes`` maps a
        # relator's index to 0 when its next closure in ``run`` builds its
        # echo table (``_echo_table``), then to the table.  A power starts
        # at 0, since its first walk already covers its s-cycle; any other
        # relator gets 0 at its first closure, so that a relator that
        # closes at one row costs no table.
        self.plans, self.powers, self.echoes = {}, {}, {}
        index = 0
        for x, rels in self.relators.items():
            if not rels:
                continue
            plan = self.plans[x] = []
            for k, rel in enumerate(rels):
                power = None
                if len(rel) > 1 and rel.count(rel[0]) == len(rel):
                    power = min(rel[0], self.inverse[rel[0]]), len(rel)
                    bits = self.powers.setdefault(x, {})
                    bits[power] = bits.get(power, 0) | 2 << k
                    self.echoes[index] = 0
                plan.append((2 << k, rel, power, index))
                index += 1
        self.lookup = {}       # class -> relator -> bits, for the classes
                               # that echo tables visit
        self.max_rows = max_rows
        self.max_dist = max_dist
        self.parent = []
        self.cls = []
        self.dist = []
        self.table = []
        self._blank = [None] * self.width
        self.held = {}         # row -> bits of the work the budget held back
        self.marks = {}        # row -> bits of the relators that closed walks
                               # certify there, for rows that run has yet to
                               # process
        self.again = []        # held rows whose distance fell since
        self.version = 0       # bumps on every slot write or merge
        self.coincidences = 0
        self.scans = 0

    @property
    def stats(self):
        return {"rows": len(self.parent), "coincidences": self.coincidences,
                "scans": self.scans}

    # -- rows ---------------------------------------------------------------

    def new_row(self, cls, dist):
        if len(self.parent) >= self.max_rows:
            raise Overflow(self.max_rows)
        r = len(self.parent)
        self.parent.append(r)
        self.cls.append(cls)
        self.dist.append(dist)
        self.table += self._blank
        return r

    def find(self, r):
        parent = self.parent
        root = r
        while parent[root] != root:
            root = parent[root]
        while parent[r] != root:
            parent[r], r = root, parent[r]
        return root

    def live_rows(self):
        parent = self.parent
        return [r for r in range(len(parent)) if parent[r] == r]

    # -- updates -------------------------------------------------------------

    def set_slot(self, v, s, w):
        """Join live rows v --s--> w.  Slot s of v and the inverse slot of
        w must be empty (for an involution at a loop, they are one slot).
        Where the edge gives either row a shorter route, the drop spreads."""
        self.table[v * self.width + s] = w
        self.table[w * self.width + self.inverse[s]] = v
        self.version += 1
        dist = self.dist
        if dist[w] > dist[v] + 1:
            self._spread([v])
        elif dist[v] > dist[w] + 1:
            self._spread([w])

    def define(self, v, s):
        """A new row behind the empty slot s of the live row v.  Its only
        edge is to v, so no distance falls."""
        w = self.new_row(self.images[s][self.cls[v]], self.dist[v] + 1)
        self.table[v * self.width + s] = w
        self.table[w * self.width + self.inverse[s]] = v
        self.version += 1
        return w

    def coincide(self, a, b):
        table, width, find, dist = self.table, self.width, self.find, self.dist
        marks = self.marks
        queue = [(a, b)]
        moved = []      # roots whose neighbours may now be nearer the base
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            if self.cls[a] != self.cls[b]:
                raise ValueError("attempted to merge rows of different classes; "
                                 "the presentation is inconsistent")
            self.parent[b] = a
            if b in marks:      # what closes at b closes at a
                marks[a] = marks.get(a, 0) | marks.pop(b)
            if dist[a] != dist[b]:
                if dist[b] < dist[a]:
                    dist[a] = dist[b]
                    if a in self.held:
                        self.again.append(a)
                moved.append(a)
            self.coincidences += 1
            self.version += 1
            ra, rb = a * width, b * width
            for i in range(width):
                x = table[rb + i]
                if x is None:
                    continue
                y = table[ra + i]
                if y is None:
                    table[ra + i] = x
                elif find(x) != find(y):
                    queue.append((x, y))
        if moved:
            self._spread(moved)

    def _spread(self, stack):
        """Pass distance drops on from the rows on ``stack`` along table
        edges, until no edge joins live rows whose distances differ by more
        than one.  A row whose distance falls while the budget holds back
        some of its work is queued again."""
        table, width, parent, dist = self.table, self.width, self.parent, self.dist
        held, again = self.held, self.again
        while stack:
            u = stack.pop()
            if parent[u] != u:
                u = self.find(u)
            d = dist[u] + 1
            for x in table[u * width:(u + 1) * width]:
                if x is None:
                    continue
                if parent[x] != x:
                    x = self.find(x)
                if dist[x] > d:
                    dist[x] = d
                    if x in held:
                        again.append(x)
                    stack.append(x)

    # -- scanning -------------------------------------------------------------

    def scan(self, v, rel):
        """Trace a relator (a tuple of slots) at a row, completing it by
        definitions and closing it by a deduction or a coincidence."""
        self.scans += 1
        table, parent, width, inverse = self.table, self.parent, self.width, self.inverse
        f = b = self.find(v)
        i, j = 0, len(rel)
        while True:
            while i < j:
                nxt = table[f * width + rel[i]]
                if nxt is None:
                    break
                f = nxt if parent[nxt] == nxt else self.find(nxt)
                i += 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return
            while j > i:
                prev = table[b * width + inverse[rel[j - 1]]]
                if prev is None:
                    break
                b = prev if parent[prev] == prev else self.find(prev)
                j -= 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return
            if i == j - 1:
                self.set_slot(f, rel[i], b)
                return
            f, i = self.define(f, rel[i]), i + 1

    def scan_closes(self, v, rel):
        """Non-modifying check that the relator's walk closes at v."""
        table, parent, width = self.table, self.parent, self.width
        start = here = v if parent[v] == v else self.find(v)
        for s in rel:
            here = table[here * width + s]
            if here is None:
                return False
            if parent[here] != here:
                here = self.find(here)
        return here == start

    def _echo_table(self, x, rel, bit, power):
        """What one closed walk of ``rel``, the relator of class x with bit
        ``bit`` and power key ``power``, certifies: after i letters the walk
        is at a row of the class that the action gives, and there the i-th
        rotations of rel and of its inverse close too.  For a power these
        are the relators of that class under its key in ``powers``, and no
        rotation is built.  Returns (the bits of the relators of x other
        than rel that close at the walk's start, the bits of those that
        close at the row reached after each letter), or () when rel
        certifies nothing else.  Only the relator lists of the classes that
        the walk visits are read, each indexed once into ``lookup``."""
        n, inverse, powers = len(rel), self.inverse, self.powers
        images, plans, lookup = self.images, self.plans, self.lookup
        back = None if power else tuple([inverse[s] for s in reversed(rel)])
        bits, y = [], x
        for i in range(n):
            if i:
                y = images[rel[i - 1]][y]
            if power:
                bits.append(powers[y].get(power, 0) if y in powers else 0)
                continue
            known = lookup.get(y)
            if known is None:
                known = lookup[y] = {}
                for b, r, _, _ in plans.get(y, ()):
                    known[r] = known.get(r, 0) | b
            bits.append(known.get(rel[i:] + rel[:i], 0)
                        | known.get(back[n - i:] + back[:n - i], 0))
        here, after = bits[0] & ~bit, tuple(bits[1:]) + (0,)
        return (here, after) if here or any(after) else ()

    def _echo(self, v, rel, echo, first, marks):
        """Walk ``rel``, whose echo table is ``echo``, from the live row v.
        If the walk closes, return the bits it certifies at v, having
        recorded in ``marks`` those it certifies at each row from ``first``
        on that it passes; else return None."""
        table, parent, width = self.table, self.parent, self.width
        here, after = echo
        w = v
        for s, bits in zip(rel, after):
            w = table[w * width + s]
            if w is None:
                return None
            if parent[w] != w:
                w = self.find(w)
            if bits and w >= first:
                marks[w] = marks.get(w, 0) | bits
        return here if w == v else None

    # -- main loop -------------------------------------------------------------

    def run(self):
        """Enumerate from a row of the first class, rows in order.  Under a
        distance budget R, with relator lengths from ``shortest`` to
        ``longest``, a relator of length L is scanned at a row v only when
        ``dist[v] + L <= R + longest``: its walk reaches no further than the
        longest relator's walk from a row at distance R.  Only rows with
        ``dist[v] < R + longest - shortest`` define their empty slots; the
        rows they create are the farthest at which a relator is scanned.
        A row that the budget held back is processed again, for the work
        held back, whenever its distance falls.  A relator is not scanned
        at a row where an earlier closed walk certified it, since that scan
        would change nothing: once a relator has a table, each walk of it
        that closes certifies by its echo table the rotations of it and of
        its inverse along the walk.  A power gets its table at its first
        closure, and any other relator at its second.  A row that merges
        into another passes its marks on."""
        base = self.new_row(self.p.classes[0], 0)
        parent, table, width, dist = self.parent, self.table, self.width, self.dist
        cls, plans, held, again = self.cls, self.plans, self.held, self.again
        echoes = self.echoes
        lengths = [len(r) for rels in self.relators.values() for r in rels] or [1]
        reach = math.inf if self.max_dist is None else self.max_dist + max(lengths)
        define_below = reach - min(lengths)
        marks = self.marks
        idx = 0
        while True:
            if again:
                v = again.pop()
                todo = held.pop(v, 0)
            elif idx < len(parent):
                v = idx
                idx += 1
                todo = ~marks.pop(v, 0)
            else:
                return self.find(base)
            if parent[v] != v:
                continue
            x = cls[v]
            for bit, rel, power, i in plans.get(x, ()):
                if not todo & bit:
                    continue
                if dist[v] + len(rel) > reach:
                    held[v] = held.get(v, 0) | bit
                    continue
                self.scan(v, rel)
                if parent[v] != v:
                    break
                echo = echoes.get(i)
                if echo is None:
                    echoes[i] = 0
                    continue
                if echo == 0:
                    echo = echoes[i] = self._echo_table(x, rel, bit, power)
                if echo:
                    todo &= ~self._echo(v, rel, echo, idx, marks)
            if parent[v] != v or not todo & DEFINE:
                continue
            if dist[v] >= define_below:
                held[v] = held.get(v, 0) | DEFINE
                continue
            row = v * width
            for s in range(width):
                if table[row + s] is None:
                    self.define(v, s)

    def is_closed(self):
        """Every slot of every live row is filled and every relator closes
        at every live row of its class.  A walk of a relator with an echo
        table, which ``run`` built from the presentation alone, certifies
        here what it does in ``run``: the rotations of it and of its
        inverse at the rows it passes.  Any other relator is walked at
        every row of its class.  No mark of ``run`` is trusted."""
        table, width, cls, plans = self.table, self.width, self.cls, self.plans
        echoes, marks = self.echoes, {}
        for v in self.live_rows():
            if None in table[v * width:(v + 1) * width]:
                return False
            done = marks.pop(v, 0)
            for bit, rel, _, i in plans.get(cls[v], ()):
                if done & bit:
                    continue
                echo = echoes.get(i)
                if echo:        # one walk checks and marks
                    here = self._echo(v, rel, echo, v + 1, marks)
                elif self.scan_closes(v, rel):
                    continue
                else:
                    return False
                if here is None:
                    return False
                done |= here
        return True

    # -- extraction -------------------------------------------------------------

    def to_graph(self, radius=None):
        """Quotient graph on the live rows, or with a ``radius`` on those
        at most that far from the base row, numbered by distance, then by
        row.  Darts come in row order: first each row's edges of free
        letters, in alphabet order, then each edge of an involutive letter,
        at the lower of its two rows."""
        rows, dist = self.live_rows(), self.dist
        if radius is not None:
            rows = [r for r in rows if dist[r] <= radius]
        table, width, find, parent = self.table, self.width, self.find, self.parent
        by_dist = sorted(rows, key=dist.__getitem__)
        number = [None] * len(parent)
        for i, r in enumerate(by_dist):
            number[r] = i
        colour_inv, free, involutive = alphabet_colours(self.alphabet)
        slot = {c: s for s, c in enumerate(self.codes)}
        free = [(slot[code], colours) for code, colours in free]
        involutive = [(slot[code], colours) for code, colours in involutive]
        tau, colour, tau_i, colour_i = [], [], [], []
        for r in rows:
            v, row = number[r], r * width
            for s, colours in free:
                w = table[row + s]
                if w is not None:
                    w = number[w if parent[w] == w else find(w)]
                    if w is not None:
                        tau += (w, v)
                        colour += colours
            for s, colours in involutive:
                w = table[row + s]
                if w is not None:
                    w = w if parent[w] == w else find(w)
                    if r <= w and number[w] is not None:
                        tau_i += (number[w], v)
                        colour_i += colours
        tau += tau_i
        colour += colour_i
        g = ColouredGraph(len(rows), tau, colour, by_dist,
                          [self.cls[r] for r in by_dist], colour_inv)
        g.meta["stats"] = self.stats
        return g


def build_sp(p, max_rows=DEFAULT_MAX_ROWS):
    """The partite Cayley graph of a valid presentation, or Overflow if the
    table exceeds ``max_rows`` (the graph may be infinite)."""
    table = CosetTable(p, max_rows=max_rows)
    table.run()
    if not table.is_closed():
        raise Overflow(max_rows)
    return table.to_graph()


def ball_table(p, radius, max_rows=DEFAULT_MAX_ROWS):
    """The coset table, run under the distance budget ``radius``, from
    which ``ball_sp`` reads its window."""
    if radius < 0:
        raise BadParameters(f"the radius must be at least 0, got {radius}")
    table = CosetTable(p, max_rows=max_rows, max_dist=radius)
    table.run()
    return table


def ball_sp(p, radius, max_rows=DEFAULT_MAX_ROWS):
    """A radius-``radius`` window of Sp(P) around the base vertex.

    The enumeration runs under the distance budget ``radius``, and the
    table's distances are true distances, so the window holds every row
    within ``radius`` of the base, numbered by distance.  Every relator is
    closed at every row of the window, and a shorter relator also beyond
    it, as far as its walk reaches no further than the longest relator's
    walk from the window's edge.  Vertices are guaranteed distinct only
    relative to the identifications actually performed.

    ``meta["spheres"][d]`` is the number of vertices within distance d,
    one entry per distance up to the farthest vertex's, so the vertices at
    distance d are those from ``spheres[d - 1]`` up to ``spheres[d]``.
    ``meta["frontier"]`` lists, in order, every vertex at the radius and
    every nearer vertex with fewer darts than the presentation's degree.
    """
    table = ball_table(p, radius, max_rows)
    g = table.to_graph(radius)
    counts = Counter(map(table.dist.__getitem__, g.names))
    del table                   # freed before the dart count below
    spheres = list(accumulate(counts[d] for d in range(max(counts) + 1)))
    # The vertices nearer than the radius come first.
    inner = spheres[min(radius, len(spheres)) - 1] if radius else 0
    heads = Counter(g.tau)      # a vertex heads as many darts as leave it
    degree = p.degree()
    g.meta["frontier"] = ([v for v in range(inner) if heads[v] < degree]
                          + list(range(inner, g.n)))
    g.meta["spheres"] = spheres
    g.meta["soundness"] = ("vertices are distinct only relative to the "
                           "identifications performed within the radius plus "
                           "the longest relator")
    return g


# ---------------------------------------------------------------------------
# Invariant checks used by the acceptance battery.


def check_cover(sp, p):
    """The class-label map to the presentation graph commutes with terminus,
    involution and colours, and is locally bijective on darts."""
    c = presentation_graph(p)
    index = {x: i for i, x in enumerate(p.classes)}
    for d in range(sp.n_darts):
        u, v = sp.src(d), sp.tau[d]
        colour = sp.colour[d]
        cu, cv = index[sp.classes[u]], index[sp.classes[v]]
        image = [e for e in c.out_darts(cu)
                 if c.tau[e] == cv and c.colour[e] == colour]
        if len(image) != 1:
            return False
    for v in range(sp.n):
        out = sorted(sp.colour[d] for d in sp.out_darts(v))
        ref = sorted(c.colour[d] for d in c.out_darts(index[sp.classes[v]]))
        if out != ref:
            return False
    return True


def check_relator_closure(sp, p):
    table = None                # the Cayley-like table, at the first relator
    for v in range(sp.n):
        for r in p.relators[sp.classes[v]]:
            table = table or _witness(sp)
            darts = _dictated_darts(sp, table, v, r)
            if darts and sp.tau[darts[-1]] != v:
                return False
    return True


def deck_group(sp):
    """Colour- and class-preserving automorphisms, or None when some vertex
    has two out-darts of one colour: then the search's set-up builds no
    colour walk."""
    _, _, search, walks = _map_search(sp, sp, True, True)
    return None if walks is None else sorted(search(()))


def check_deck_regular(sp):
    """The deck group acts regularly on each class fibre."""
    autos = deck_group(sp)
    if autos is None:
        return False
    sizes = sp.class_sizes()
    if len(autos) != sizes[sp.classes[0]]:
        return False
    if len(set(sizes.values())) != 1:
        return False
    for cls in sizes:
        fibre = [v for v in range(sp.n) if sp.classes[v] == cls]
        images = {a[fibre[0]] for a in autos}
        if images != set(fibre):
            return False
    return True


def check_two_partite_discipline(sp, tp_s1):
    """Edges coloured by the stay-inside generators join equal classes; all
    other colours join different classes."""
    stay = set(tp_s1) | {sp.colour_inv[s] for s in tp_s1}
    for d in sp.edges():
        u, v = sp.src(d), sp.tau[d]
        same = sp.classes[u] == sp.classes[v]
        if (sp.colour[d] in stay) != same:
            return False
    return True


def invariant_report(p, tp_s1=None):
    """Cover-side and quotient-side characterisation checks for one build."""
    sp = build_sp(p)
    report = {
        "regular": sp.is_regular() and (sp.n == 0 or sp.degree(0) == p.degree()),
        "cover": check_cover(sp, p),
        "relator_closure": check_relator_closure(sp, p),
        "deck_regular": check_deck_regular(sp),
    }
    if tp_s1 is not None:
        report["edge_class_discipline"] = check_two_partite_discipline(sp, tp_s1)
    return report


# ---------------------------------------------------------------------------
# Symmetry of the presentation complex as a vertex-transitivity certificate.


def _cell_canonical(darts):
    """Boundary walk up to rotation and reversal."""
    views = []
    n = len(darts)
    rev = tuple(d ^ 1 for d in reversed(darts))
    for seq in (tuple(darts), rev):
        for k in range(n):
            views.append(seq[k:] + seq[:k])
    return min(views)


def presentation_symmetry_implies_vt(p):
    """A set of automorphisms of the presentation complex acting transitively
    on the classes, or None.  Presence is a sufficient certificate that the
    partite Cayley graph is vertex transitive; absence proves nothing."""
    complex_ = presentation_complex(p)
    g = complex_.graph
    cell_counter = Counter(_cell_canonical(darts)
                           for _, _, darts in complex_.cells)
    # Every vertex map of an automorphism of the presentation graph,
    # ignoring colours, over which some dart map preserves the cells.
    witnesses = [vmap for vmap in graph_maps(g, g)
                 if any(Counter(_cell_canonical(tuple(dmap[d] for d in darts))
                                for _, _, darts in complex_.cells) == cell_counter
                        for dmap in dart_bijections(g, g, vmap))]
    # The witnesses form a group, so their images of vertex 0 are its orbit.
    if witnesses and len({w[0] for w in witnesses}) == g.n:
        return witnesses
    return None
