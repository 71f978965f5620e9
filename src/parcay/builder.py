"""Construct the presentation graph, the presentation complex, and the
partite Cayley graph by coset enumeration.

The enumeration is HLT style: rows are discovered breadth first, every
relator of a row's class is scanned at that row and completed by definitions,
deductions fill slots in both directions, and coincidences are merged through
a union-find with slot merging, processed to a fixpoint before any new
definition.  Closing a relator at every row of its class is what realises
the conjugation closure of the relator subgroups.  A closed walk of a power
s^e of one letter closes s^e at every row of its s-cycle, so such a relator
is scanned once per cycle (Holt, Eick & O'Brien, §5.1–5.2).

The coset table is one flat list, ``table[row * width + slot]``, with one
slot per letter code.  Relators are encoded once, per class, as tuples of
slot indices, and the slot of each letter's inverse is precomputed, so the
scans index lists and never translate letters (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005, ch. 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BallRejected, Overflow
from .graph import (ColouredGraph, _dictated_darts, _witness, alphabet_graph,
                    dart_bijections, graph_maps)

DEFAULT_MAX_ROWS = 1_000_000


def presentation_graph(p):
    """One vertex per class, one edge orbit per generator along the action."""
    alphabet, image = p.alphabet, p.action.image
    index = {x: i for i, x in enumerate(p.classes)}
    targets = {name: [index[image(alphabet.code(name), x)] for x in p.classes]
               for name in alphabet.names}
    return alphabet_graph(alphabet, targets, p.classes, p.classes)


@dataclass
class PresentationComplex:
    graph: ColouredGraph
    cells: list  # (class name, relator Word, dart tuple of the boundary walk)


def presentation_complex(p):
    g = presentation_graph(p)
    relators = list(p.all_relators())
    table = _witness(g) if relators else None
    return PresentationComplex(g, [
        (x, r, tuple(_dictated_darts(g, table, g.vertex(x), r)))
        for x, r in relators])


class CosetTable:
    """Working state of the enumeration.  Rows are vertices-to-be, with one
    slot per letter code (involutive letters get a single slot), stored flat:
    slot ``s`` of row ``r`` is ``table[r * width + s]``.  Relators are kept
    per class as tuples of slot indices, and ``inverse[s]`` is the slot of
    the inverse letter, so the walks never look at letter codes."""

    def __init__(self, p, max_rows=DEFAULT_MAX_ROWS, max_dist=None):
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
        # Per class with relators, its plan: one (bit, relator, power) per
        # relator, where power is (s, e) for a power s^e of one slot s with
        # e > 1, else None.  Per class with powers, (s, e) -> their bits.
        self.plans, self.powers = {}, {}
        for x, rels in self.relators.items():
            if not rels:
                continue
            plan = self.plans[x] = []
            for k, rel in enumerate(rels):
                power = None
                if len(rel) > 1 and rel.count(rel[0]) == len(rel):
                    power = rel[0], len(rel)
                    bits = self.powers.setdefault(x, {})
                    bits[power] = bits.get(power, 0) | 1 << k
                plan.append((1 << k, rel, power))
        self.max_rows = max_rows
        self.max_dist = max_dist
        self.parent = []
        self.cls = []
        self.dist = []
        self.table = []
        self._blank = [None] * self.width
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
        w must be empty (for an involution at a loop, they are one slot)."""
        self.table[v * self.width + s] = w
        self.table[w * self.width + self.inverse[s]] = v
        self.version += 1

    def define(self, v, s):
        """A new row behind the empty slot s of the live row v, or None
        past the distance budget."""
        d = self.dist[v] + 1
        if self.max_dist is not None and d > self.max_dist:
            return None
        w = self.new_row(self.images[s][self.cls[v]], d)
        self.set_slot(v, s, w)
        return w

    def coincide(self, a, b):
        table, width, find = self.table, self.width, self.find
        queue = [(a, b)]
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
            self.dist[a] = min(self.dist[a], self.dist[b])
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

    # -- scanning -------------------------------------------------------------

    def scan(self, v, rel, fill=True):
        """Trace a relator (a tuple of slots) at a row; returns False when
        left incomplete (only possible when filling is blocked by the
        distance budget)."""
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
                return True
            while j > i:
                prev = table[b * width + inverse[rel[j - 1]]]
                if prev is None:
                    break
                b = prev if parent[prev] == prev else self.find(prev)
                j -= 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return True
            if i == j - 1:
                self.set_slot(f, rel[i], b)
                return True
            if not fill:
                return False
            w = self.define(f, rel[i])
            if w is None:
                return False
            f, i = w, i + 1

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

    def _mark_power(self, v, power, first, marks):
        """The walk of s^e, ``power == (s, e)``, closes at the live row v, so
        it closes at every row of v's s-cycle.  Record the bit of s^e in
        ``marks`` at each row from ``first`` on that the walk passes and
        whose class has s^e among its relators."""
        table, parent, width, cls, powers = (self.table, self.parent, self.width,
                                             self.cls, self.powers)
        s, e = power
        w = v
        for _ in range(e - 1):
            w = table[w * width + s]
            if parent[w] != w:
                w = self.find(w)
            if w >= first and cls[w] in powers:
                bit = powers[cls[w]].get(power)
                if bit:
                    marks[w] = marks.get(w, 0) | bit

    # -- main loop -------------------------------------------------------------

    def run(self, base_class=None):
        """Enumerate from a row of ``base_class``.  A power s^e of one
        letter is not scanned at a row that an earlier closed walk of s^e
        passed through: that scan would change nothing."""
        p = self.p
        base_class = base_class or p.classes[0]
        base = self.new_row(base_class, 0)
        parent, table, width, dist = self.parent, self.table, self.width, self.dist
        cls, plans, max_dist = self.cls, self.plans, self.max_dist
        marks = {}  # row -> the bits of its relators known to close there
        idx = 0
        while idx < len(parent):
            v = idx
            idx += 1
            done = marks.pop(v, 0)
            if parent[v] != v:
                continue
            for bit, rel, power in plans.get(cls[v], ()):
                if done & bit:
                    continue
                if max_dist is not None and dist[v] + len(rel) > max_dist:
                    continue
                closed = self.scan(v, rel)
                if parent[v] != v:
                    break
                if power and closed:
                    self._mark_power(v, power, idx, marks)
            if parent[v] != v:
                continue
            # Every definition from a row at the edge of the budget would
            # be refused.
            if max_dist is not None and dist[v] >= max_dist:
                continue
            row = v * width
            for s in range(width):
                if table[row + s] is None:
                    self.define(v, s)
        return self.find(base)

    def _settle(self):
        """Re-scan everything to a fixpoint.  Without a distance budget
        every live row has had every relator scanned to completion by
        ``run``, and merges keep a closed relator closed, so only a
        budgeted table needs this.  The loop keys on actual table
        modifications, since a budgeted scan may legitimately make no
        progress."""
        parent, dist, max_dist = self.parent, self.dist, self.max_dist
        fill = max_dist is None
        while True:
            before = self.version
            for v in self.live_rows():
                for rel in self.relators[self.cls[v]]:
                    if max_dist is not None:
                        root = v if parent[v] == v else self.find(v)
                        if dist[root] + len(rel) > max_dist:
                            continue
                    if self.scan_closes(v, rel):
                        continue
                    self.scan(v, rel, fill=fill)
            if self.version == before:
                return

    def is_closed(self):
        """Every slot of every live row is filled and every relator closes
        at every live row of its class.  A walk of a power s^e of one
        letter that closes here certifies s^e at the rows it passes; no
        mark of ``run`` is trusted."""
        table, width, cls, plans = self.table, self.width, self.cls, self.plans
        marks = {}
        for v in self.live_rows():
            if None in table[v * width:(v + 1) * width]:
                return False
            done = marks.pop(v, 0)
            for bit, rel, power in plans.get(cls[v], ()):
                if done & bit:
                    continue
                if not self.scan_closes(v, rel):
                    return False
                if power:
                    self._mark_power(v, power, v + 1, marks)
        return True

    # -- extraction -------------------------------------------------------------

    def to_graph(self, keep=None):
        """Quotient graph on the live rows (optionally restricted), numbered
        by distance, with edges added in row order."""
        rows = self.live_rows()
        if keep is not None:
            rows = [r for r in rows if keep(r)]
        by_dist = sorted(rows, key=self.dist.__getitem__)
        number = {r: i for i, r in enumerate(by_dist)}
        table, width, find, parent = self.table, self.width, self.find, self.parent
        targets = {}
        for name in self.alphabet.names:
            s = self.codes.index(self.alphabet.code(name))
            image = targets[name] = [None] * len(rows)
            for r in rows:
                w = table[r * width + s]
                if w is not None:
                    image[number[r]] = number.get(w if parent[w] == w else find(w))
        g = alphabet_graph(self.alphabet, targets, by_dist,
                           [self.cls[r] for r in by_dist],
                           [number[r] for r in rows])
        g.meta["stats"] = self.stats
        return g


def build_sp(p, max_rows=DEFAULT_MAX_ROWS):
    """The partite Cayley graph of a valid presentation, or Overflow if the
    table exceeds ``max_rows`` (the graph may be infinite)."""
    table = CosetTable(p, max_rows=max_rows)
    table.run()
    if not table.is_closed():
        raise Overflow(max_rows)
    g = table.to_graph()
    g.meta["closed"] = True
    return g


def ball_sp(p, radius, scan_margin=None, max_rows=DEFAULT_MAX_ROWS):
    """A radius-``radius`` window of Sp(P) around the base vertex.

    Rows are explored out to ``radius + scan_margin`` and relators are
    scanned wherever their walk fits inside that budget.  Vertices are
    guaranteed distinct only relative to the identifications actually
    performed; the window is rejected if any relator that fits entirely
    inside the requested radius fails to close.  The frontier is every
    vertex at the radius or with fewer darts than the presentation's degree.
    """
    if scan_margin is None:
        scan_margin = max((len(r) for _, r in p.all_relators()), default=0)
    table = CosetTable(p, max_rows=max_rows, max_dist=radius + scan_margin)
    table.run()
    table._settle()
    for v in table.live_rows():
        if table.dist[v] > radius:
            continue
        cls = table.cls[v]
        for r, rel in zip(p.relators[cls], table.relators[cls]):
            if table.dist[v] + len(rel) <= radius:
                if not table.scan_closes(v, rel):
                    raise BallRejected(
                        f"relator {r} does not close at a row of distance "
                        f"{table.dist[v]}; enlarge the scan margin")
    g = table.to_graph(keep=lambda r: table.dist[r] <= radius)
    distance = {i: table.dist[g.names[i]] for i in range(g.n)}
    degree = p.degree()
    g.meta["frontier"] = {i for i in range(g.n)
                          if distance[i] == radius or g.degree(i) < degree}
    g.meta["distance"] = distance
    g.meta["soundness"] = ("vertices are distinct only relative to the "
                           "identifications performed within the scan margin")
    return g


def vertex_group_order(p, cls, max_rows=DEFAULT_MAX_ROWS):
    """|V_x|: the order of the vertex group over class ``cls``."""
    g = build_sp(p, max_rows=max_rows)
    return g.class_sizes()[cls]


# ---------------------------------------------------------------------------
# Invariant checks used by the acceptance battery.


def check_cover(sp, p):
    """The class-label map to the presentation graph commutes with terminus,
    involution and colours, and is locally bijective on darts."""
    c = presentation_graph(p)
    for d in range(sp.n_darts):
        u, v = sp.src(d), sp.tau[d]
        colour = sp.colour[d]
        cu, cv = c.vertex(sp.classes[u]), c.vertex(sp.classes[v])
        image = [e for e in c.out_darts(cu)
                 if c.tau[e] == cv and c.colour[e] == colour]
        if len(image) != 1:
            return False
    for v in range(sp.n):
        out = sorted(sp.colour[d] for d in sp.out_darts(v))
        ref = sorted(c.colour[d] for d in c.out_darts(c.vertex(sp.classes[v])))
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
    has two out-darts of one colour."""
    for v in range(sp.n):
        if len({sp.colour[d] for d in sp.out_darts(v)}) < sp.degree(v):
            return None
    return sorted(graph_maps(sp, sp, respect_colours=True, respect_classes=True))


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


def invariant_report(p, sp=None, tp_s1=None):
    """Cover-side and quotient-side characterisation checks for one build."""
    if sp is None:
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
    witnesses = []
    # Every (vertex map, dart map) automorphism of the presentation graph,
    # ignoring colours, one witness per pair that preserves the cells.
    for vmap in graph_maps(g, g):
        for dmap in dart_bijections(g, g, vmap):
            image = Counter(_cell_canonical(tuple(dmap[d] for d in darts))
                            for _, _, darts in complex_.cells)
            if image == cell_counter:
                witnesses.append(vmap)
    # The witnesses form a group, so their images of vertex 0 are its orbit.
    if witnesses and len({w[0] for w in witnesses}) == g.n:
        return witnesses
    return None
