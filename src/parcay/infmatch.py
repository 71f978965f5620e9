"""Finite-window matching machinery: exhaustion sequences, miss sequences,
lexicographically maximal matchings, symmetric-difference structure reports,
and windowed perfect matchings for infinite vertex-transitive families.

The miss-sequence order prefers fewer misses on earlier exhaustion levels.
On a finite window a lexicographically optimal matching is computed greedily
vertex by vertex: the sets of vertices coverable by a single matching form a
matroid, so forcing vertices in exhaustion order and testing coverability
with a blossom call per vertex is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import Matching, canonical, maximum_matching
from .errors import NoTransitiveSupply
from .graph import ColouredGraph


@dataclass
class Exhaustion:
    """Nested finite vertex sets of a window, innermost first.  ``frontier``
    marks window-boundary vertices whose incidences are truncated.  The
    window theory wants every level to induce a connected subgraph;
    ``connected`` says whether it does."""
    graph: ColouredGraph
    levels: list
    frontier: frozenset = frozenset()

    def __post_init__(self):
        self.levels = [frozenset(B) for B in self.levels]
        for inner, outer in zip(self.levels, self.levels[1:]):
            if not inner <= outer:
                raise ValueError("exhaustion levels must be nested")

    @property
    def connected(self):
        """Every level induces a connected subgraph."""
        return all(self.graph.is_connected(B) for B in self.levels)

    def shell(self, v):
        """Index of the first level containing v, or None."""
        for i, B in enumerate(self.levels):
            if v in B:
                return i
        return None


def miss_sequence(matching, exhaustion):
    """Number of vertices of each level the matching misses; non-decreasing
    because the levels are nested."""
    seq = tuple(sum(1 for v in B if not matching.covers(v))
                for B in exhaustion.levels)
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    return seq


def compare(m1, m2, exhaustion):
    """'less', 'greater' or 'equal-sequence'; fewer misses is greater."""
    a = miss_sequence(m1, exhaustion)
    b = miss_sequence(m2, exhaustion)
    for x, y in zip(a, b):
        if x != y:
            return "greater" if x < y else "less"
    return "equal-sequence"


# ---------------------------------------------------------------------------
# Coverability: does some matching cover a given vertex set?  Tested on two
# copies of the graph with bridges at the unconstrained vertices; the set is
# coverable exactly when the doubled graph has a perfect matching.


def _coverability(g, forced):
    n = g.n
    gg = ColouredGraph()
    for _ in range(2 * n):
        gg.add_vertex()
    back = {}
    for d in g.edges():
        u, v = g.edge_ends(d)
        if u == v:
            continue
        nd = gg.add_edge(u, v)
        back[canonical(gg, nd)] = d
        gg.add_edge(n + u, n + v)
    for v in range(n):
        if v not in forced:
            gg.add_edge(v, n + v)
    m = maximum_matching(gg)
    if 2 * len(m) != gg.n:
        return None
    darts = [back[d] for d in m.darts if d in back]
    return Matching(g, darts)


def is_coverable(g, vertices):
    return _coverability(g, frozenset(vertices)) is not None


def maximal_matching_wrt_miss(exhaustion):
    """A matching maximal for the miss-sequence order: greedy over vertices
    in exhaustion order, forcing each vertex whose addition keeps the forced
    set coverable."""
    g = exhaustion.graph
    order = []
    seen = set()
    for B in exhaustion.levels:
        for v in sorted(B):
            if v not in seen:
                seen.add(v)
                order.append(v)
    forced = set()
    witness = _coverability(g, frozenset())
    for v in order:
        candidate = _coverability(g, frozenset(forced | {v}))
        if candidate is not None:
            forced.add(v)
            witness = candidate
    return witness


def is_critical(g, v):
    """True when every maximum matching covers v."""
    full = len(maximum_matching(g))
    without = len(maximum_matching(
        g, [d for d in g.edges() if v not in g.edge_ends(d)]))
    return without < full


# ---------------------------------------------------------------------------
# Symmetric differences of matchings.


def symmetric_difference_report(m1, m2, exhaustion):
    """Classify the components of the symmetric difference: even cycles,
    even paths with both ends in the same shell, or boundary-truncated
    window artifacts (excluded from the parity assertions)."""
    g = exhaustion.graph
    sym = m1.darts ^ m2.darts
    adj = {}
    for d in sym:
        u, v = g.edge_ends(d)
        adj.setdefault(u, []).append((v, d))
        adj.setdefault(v, []).append((u, d))
    seen_v = set()
    reports = []
    for start in sorted(adj):
        if start in seen_v:
            continue
        comp_v, comp_e = set(), set()
        stack = [start]
        seen_v.add(start)
        while stack:
            v = stack.pop()
            comp_v.add(v)
            for w, d in adj[v]:
                comp_e.add(d)
                if w not in seen_v:
                    seen_v.add(w)
                    stack.append(w)
        degrees = {v: sum(1 for _, d in adj[v] if d in comp_e) for v in comp_v}
        ends = sorted(v for v, k in degrees.items() if k == 1)
        kind = "cycle" if not ends else "path"
        boundary = bool(comp_v & exhaustion.frontier)
        alternating = all(
            len({d in m1.darts for _, d in adj[v] if d in comp_e}) == 2
            for v in comp_v if degrees[v] == 2)
        entry = {
            "kind": kind,
            "vertices": sorted(comp_v),
            "n_edges": len(comp_e),
            "boundary": boundary,
            "alternating": alternating,
            "even": len(comp_e) % 2 == 0,
        }
        if kind == "path" and not boundary:
            shells = [exhaustion.shell(v) for v in ends]
            entry["endpoint_shells"] = shells
            entry["same_shell"] = len(set(shells)) == 1
        reports.append(entry)
    return reports


# ---------------------------------------------------------------------------
# Window families with a translation supply.


@dataclass
class WindowFamily:
    """Builds windows around shifted centres; the shifts realise an
    automorphism supply that can move a missed vertex out of any ball."""
    name: str
    build: callable            # (n, margin, shift) -> (graph, levels)
    shifts: tuple = (0,)


def _two_ended_build(n, margin, shift):
    from .constructions import two_ended_window

    lo, hi = shift - n - margin, shift + n + margin
    g = two_ended_window(lo, hi)
    levels = []
    for k in range(n + 1):
        levels.append(frozenset(v for v in range(g.n)
                                if abs(g.names[v][0]) <= k))
    frontier = frozenset(v for v in range(g.n) if g.names[v][0] in (lo, hi))
    return g, levels, frontier


def _ladder_build(n, margin, shift):
    g = ColouredGraph()
    lo, hi = shift - n - margin, shift + n + margin
    for i in range(lo, hi + 1):
        g.add_vertex(name=(i, 0))
        g.add_vertex(name=(i, 1))
    for i in range(lo, hi + 1):
        g.add_edge(g.vertex((i, 0)), g.vertex((i, 1)), "rung")
        if i < hi:
            for side in (0, 1):
                g.add_edge(g.vertex((i, side)), g.vertex((i + 1, side)), "rail")
    levels = [frozenset(v for v in range(g.n) if abs(g.names[v][0]) <= k)
              for k in range(n + 1)]
    frontier = frozenset(v for v in range(g.n) if g.names[v][0] in (lo, hi))
    return g, levels, frontier


FAMILIES = {
    "two-ended": WindowFamily("two-ended", _two_ended_build,
                              shifts=(0, 1, -1, 2, -2)),
    "ladder": WindowFamily("ladder", _ladder_build, shifts=(0, 1, -1, 2, -2)),
}


def window_exhaustion(family, n, margin=2, shift=0):
    fam = FAMILIES[family] if isinstance(family, str) else family
    ex = Exhaustion(*fam.build(n, margin, shift))
    if not ex.connected:
        raise ValueError(f"family {fam.name!r} built a level that does not "
                         f"induce a connected subgraph")
    return ex


def windowed_perfect_matching(family, n, margin=2):
    """A matching of a window covering the whole ball B_n.

    Computes a maximum matching on the window; if the ball is not covered,
    the window is re-centred by a translation automorphism so the miss lands
    outside the ball, and the matching is re-derived.
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    for shift in fam.shifts:
        ex = window_exhaustion(fam, n, margin, shift)
        m = maximum_matching(ex.graph)
        if all(m.covers(v) for v in ex.levels[-1]):
            return ex, m
    if len(fam.shifts) <= 1:
        raise NoTransitiveSupply(
            f"family {fam.name!r} provides no translations to move the "
            f"missed vertex out of the ball")
    raise NoTransitiveSupply(
        f"no window of family {fam.name!r} yielded a ball-covering matching")
