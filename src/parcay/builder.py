"""Construct the presentation graph, the presentation complex, and the
partite Cayley graph by coset enumeration.

The enumeration is HLT style: rows are discovered breadth first, every
relator of a row's class is scanned at that row and completed by definitions,
deductions fill slots in both directions, and coincidences are merged through
a union-find with slot merging, processed to a fixpoint before any new
definition.  Scanning a relator at every row of its class is what realises
the conjugation closure of the relator subgroups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BallRejected, Overflow
from .graph import ColouredGraph, dart_bijections, dictated_walk, graph_maps

DEFAULT_MAX_ROWS = 1_000_000


def presentation_graph(p):
    """One vertex per class, one edge orbit per generator along the action."""
    g = ColouredGraph()
    for x in p.classes:
        g.add_vertex(name=x, cls=x)
    alphabet = p.alphabet
    for name in alphabet.u_gens:
        g.declare_colour(name, name + "^-1")
        for x in p.classes:
            y = p.action.image(alphabet.code(name), x)
            g.add_edge(g.vertex(x), g.vertex(y), name)
    for name in alphabet.i_gens:
        g.declare_colour(name)
        done = set()
        for x in p.classes:
            if x in done:
                continue
            y = p.action.image(alphabet.code(name), x)
            done.add(x)
            done.add(y)
            g.add_edge(g.vertex(x), g.vertex(y), name)
    return g


@dataclass
class PresentationComplex:
    graph: ColouredGraph
    cells: list  # (class name, relator Word, dart tuple of the boundary walk)


def presentation_complex(p):
    g = presentation_graph(p)
    cells = []
    for x, r in p.all_relators():
        walk = dictated_walk(g, g.vertex(x), r)
        cells.append((x, r, walk.darts))
    return PresentationComplex(g, cells)


class CosetTable:
    """Working state of the enumeration.  Rows are vertices-to-be; one slot
    per letter code (involutive letters get a single slot)."""

    def __init__(self, p, max_rows=DEFAULT_MAX_ROWS, max_dist=None):
        self.p = p
        self.alphabet = p.alphabet
        self.codes = self.alphabet.letters()
        self.slot_of = {c: i for i, c in enumerate(self.codes)}
        self.max_rows = max_rows
        self.max_dist = max_dist
        self.parent = []
        self.cls = []
        self.dist = []
        self.table = []
        self.version = 0       # bumps on every slot write or merge
        self.stats = {"rows": 0, "coincidences": 0, "scans": 0}

    # -- rows ---------------------------------------------------------------

    def new_row(self, cls, dist):
        if len(self.parent) >= self.max_rows:
            raise Overflow(self.max_rows)
        r = len(self.parent)
        self.parent.append(r)
        self.cls.append(cls)
        self.dist.append(dist)
        self.table.append([None] * len(self.codes))
        self.stats["rows"] += 1
        return r

    def find(self, r):
        root = r
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[r] != root:
            self.parent[r], r = root, self.parent[r]
        return root

    def slot(self, r, code):
        v = self.table[self.find(r)][self.slot_of[code]]
        return None if v is None else self.find(v)

    def live_rows(self):
        return [r for r in range(len(self.parent)) if self.find(r) == r]

    # -- updates -------------------------------------------------------------

    def set_slot(self, v, code, w):
        v, w = self.find(v), self.find(w)
        inv = self.alphabet.inverse_letter(code)
        for a, c, b in ((v, code, w), (w, inv, v)):
            cur = self.table[a][self.slot_of[c]]
            if cur is None:
                self.table[a][self.slot_of[c]] = b
                self.version += 1
            elif self.find(cur) != self.find(b):
                self.coincide(cur, b)

    def define(self, v, code):
        v = self.find(v)
        d = self.dist[v] + 1
        if self.max_dist is not None and d > self.max_dist:
            return None
        cls = self.p.action.image(code, self.cls[v])
        w = self.new_row(cls, d)
        self.set_slot(v, code, w)
        return self.find(w)

    def coincide(self, a, b):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            if self.cls[a] != self.cls[b]:
                raise ValueError("attempted to merge rows of different classes; "
                                 "the presentation is inconsistent")
            self.parent[b] = a
            self.dist[a] = min(self.dist[a], self.dist[b])
            self.stats["coincidences"] += 1
            self.version += 1
            for i in range(len(self.codes)):
                x = self.table[b][i]
                if x is None:
                    continue
                y = self.table[a][i]
                if y is None:
                    self.table[a][i] = x
                elif self.find(x) != self.find(y):
                    queue.append((x, y))

    # -- scanning -------------------------------------------------------------

    def scan(self, v, letters, fill=True):
        """Trace a relator at a row; returns False when left incomplete
        (only possible when filling is blocked by the distance budget)."""
        self.stats["scans"] += 1
        inv = self.alphabet.inverse_letter
        f = self.find(v)
        b = self.find(v)
        i, j = 0, len(letters)
        while True:
            while i < j:
                nxt = self.slot(f, letters[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return True
            while j > i:
                prev = self.slot(b, inv(letters[j - 1]))
                if prev is None:
                    break
                b, j = prev, j - 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return True
            if i == j - 1:
                self.set_slot(f, letters[i], b)
                return True
            if not fill:
                return False
            w = self.define(f, letters[i])
            if w is None:
                return False
            f, i = w, i + 1

    def scan_closes(self, v, letters):
        """Non-modifying check that the relator's walk closes at v."""
        here = self.find(v)
        for code in letters:
            here = self.slot(here, code)
            if here is None:
                return False
        return here == self.find(v)

    # -- main loop -------------------------------------------------------------

    def run(self, base_class=None):
        p = self.p
        base_class = base_class or p.classes[0]
        base = self.new_row(base_class, 0)
        idx = 0
        while idx < len(self.parent):
            v = idx
            idx += 1
            if self.find(v) != v:
                continue
            for r in p.relators[self.cls[v]]:
                if not self._relator_fits(v, r):
                    continue
                self.scan(v, r.letters)
                if self.find(v) != v:
                    break
            if self.find(v) != v:
                continue
            for code in self.codes:
                if self.slot(v, code) is None:
                    self.define(v, code)
                if self.find(v) != v:
                    break
        self._settle()
        return self.find(base)

    def _relator_fits(self, v, r):
        if self.max_dist is None:
            return True
        return self.dist[self.find(v)] + len(r) <= self.max_dist

    def _settle(self):
        """Re-scan everything to a fixpoint; merges can outrun the single
        pass over rows.  The loop keys on actual table modifications, since
        a distance-budgeted scan may legitimately make no progress."""
        while True:
            before = self.version
            for v in self.live_rows():
                for r in self.p.relators[self.cls[v]]:
                    if not self._relator_fits(v, r):
                        continue
                    if self.scan_closes(v, r.letters):
                        continue
                    self.scan(v, r.letters, fill=self.max_dist is None)
            if self.version == before:
                return

    def is_closed(self):
        for v in self.live_rows():
            if any(s is None for s in self.table[v]):
                return False
            for r in self.p.relators[self.cls[v]]:
                if not self.scan_closes(v, r.letters):
                    return False
        return True

    # -- extraction -------------------------------------------------------------

    def to_graph(self, keep=None):
        """Quotient graph on the live rows (optionally restricted)."""
        rows = self.live_rows()
        if keep is not None:
            rows = [r for r in rows if keep(r)]
        number = {r: i for i, r in enumerate(sorted(rows, key=lambda r: self.dist[r]))}
        g = ColouredGraph()
        for r in sorted(rows, key=lambda r: self.dist[r]):
            g.add_vertex(name=r, cls=self.cls[r])
        alphabet = self.alphabet
        for name in alphabet.u_gens:
            g.declare_colour(name, name + "^-1")
        for name in alphabet.i_gens:
            g.declare_colour(name)
        for r in rows:
            for name in alphabet.u_gens:
                w = self.slot(r, alphabet.code(name))
                if w is not None and w in number:
                    g.add_edge(number[r], number[w], name)
        done = set()
        for r in rows:
            for name in alphabet.i_gens:
                w = self.slot(r, alphabet.code(name))
                if w is None or w not in number:
                    continue
                key = (min(r, w), max(r, w), name)
                if key in done:
                    continue
                done.add(key)
                g.add_edge(number[r], number[w], name)
        g.meta["stats"] = dict(self.stats)
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
    inside the requested radius fails to close.
    """
    if scan_margin is None:
        scan_margin = max((len(r) for _, r in p.all_relators()), default=1)
    table = CosetTable(p, max_rows=max_rows, max_dist=radius + scan_margin)
    table.run()
    for v in table.live_rows():
        if table.dist[v] > radius:
            continue
        for r in p.relators[table.cls[v]]:
            if table.dist[v] + len(r) <= radius:
                if not table.scan_closes(v, r.letters):
                    raise BallRejected(
                        f"relator {r} does not close at a row of distance "
                        f"{table.dist[v]}; enlarge the scan margin")
    g = table.to_graph(keep=lambda r: table.dist[r] <= radius)
    frontier = set()
    for i in range(g.n):
        row = g.names[i]
        if table.dist[row] == radius:
            frontier.add(i)
        else:
            for code in table.codes:
                w = table.slot(row, code)
                if w is None or table.dist[w] > radius:
                    frontier.add(i)
                    break
    g.meta["frontier"] = frontier
    g.meta["distance"] = {i: table.dist[g.names[i]] for i in range(g.n)}
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
    for v in range(sp.n):
        for r in p.relators[sp.classes[v]]:
            if not dictated_walk(sp, v, r).is_closed():
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
    stay = set(tp_s1) | {s + "^-1" for s in tp_s1}
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


def _cell_canonical(graph, darts):
    """Boundary walk up to rotation and reversal."""
    views = []
    n = len(darts)
    rev = tuple(graph.inv[d] for d in reversed(darts))
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
    cell_counter = Counter(_cell_canonical(g, darts)
                           for _, _, darts in complex_.cells)
    witnesses = []
    # Every (vertex map, dart map) automorphism of the presentation graph,
    # ignoring colours, one witness per pair that preserves the cells.
    for vmap in graph_maps(g, g):
        for dmap in dart_bijections(g, g, vmap):
            image = Counter(_cell_canonical(g, tuple(dmap[d] for d in darts))
                            for _, _, darts in complex_.cells)
            if image == cell_counter:
                witnesses.append(vmap)
    if not witnesses:
        return None
    orbit = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in witnesses:
            if w[v] not in orbit:
                orbit.add(w[v])
                frontier.append(w[v])
    if len(orbit) == g.n:
        return witnesses
    return None
