"""Finite-window matching machinery: exhaustion sequences, miss sequences,
lexicographically maximal matchings, symmetric-difference structure reports,
and windowed perfect matchings for infinite vertex-transitive families.

The miss-sequence order prefers fewer misses on earlier exhaustion levels.
On a finite window a lexicographically optimal matching is computed greedily
vertex by vertex: the sets of vertices coverable by a single matching form a
matroid, so forcing vertices in exhaustion order is exact.  One maximum
matching is kept covering the forced set, and a vertex it misses costs one
alternating-path search, not a blossom run of its own.  All the searches
on one matching share one scratch, so a search costs time in proportion
to the alternating tree it grows, not to the size of the window.  An
exhaustion stores each vertex once, in its shell, the first level holding
it: a window's memory is linear in its size, and its connectivity, its
miss sequences and its staged order each cost one pass over the vertices.
Its levels are unions of shells, n·levels entries, built only when read.

A family is a builder ``(lo, hi) -> ColouredGraph`` of layers lo..hi with
vertices named (layer, index).  Its window around the ball B_n has the
balls B_0..B_n (|layer| <= k) as levels and the two end layers as its
frontier, and the same greedy over B_n decides whether some matching of
the window covers the ball.
"""

from __future__ import annotations

from itertools import accumulate

from .constructions import two_ended_window
from .decompose import _matching_of, _maximum_mates, component_walks
from .errors import BadParameters, NoTransitiveSupply
from .graph import ColouredGraph


class Exhaustion:
    """Nested finite vertex sets of a window, the levels, innermost first,
    stored as their shells: shell i holds the vertices whose first level is
    level i, so each vertex is kept once.  ``frontier`` marks window-boundary
    vertices whose incidences are truncated.  The window theory wants every
    level to induce a connected subgraph; ``connected`` says whether it does."""

    def __init__(self, graph, levels, frontier=frozenset()):
        shells, inner = [], frozenset()
        for outer in map(frozenset, levels):
            if not inner <= outer:
                raise ValueError("exhaustion levels must be nested")
            shells.append(outer - inner)
            inner = outer
        self._set_shells(graph, shells, frontier)

    @classmethod
    def from_shells(cls, graph, shells, frontier):
        """The exhaustion whose level i is the union of shells 0..i."""
        ex = cls.__new__(cls)
        ex._set_shells(graph, shells, frontier)
        return ex

    def _set_shells(self, graph, shells, frontier):
        self.graph, self.frontier = graph, frozenset(frontier)
        self.shells = [frozenset(shell) for shell in shells]
        self._shell_of = {v: i for i, shell in enumerate(self.shells)
                          for v in shell}

    @property
    def levels(self):
        """The levels, each the union of the shells up to it: reading them
        builds n·levels entries, which nothing in the package does."""
        return list(accumulate(self.shells, frozenset.union))

    @property
    def connected(self):
        """Every level induces a connected subgraph: one union-find pass
        adds the shells from the innermost outwards, joining each vertex
        to its neighbours added before it or with it."""
        tau, out_darts = self.graph.tau, self.graph.out_darts
        shell_of = self._shell_of
        root = {}

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        components = 0
        for i, shell in enumerate(self.shells):
            root.update((v, v) for v in shell)
            components += len(shell)
            for v in shell:
                for d in out_darts(v):
                    w = tau[d]
                    j = shell_of.get(w)
                    if j is not None and j <= i:
                        a, b = find(v), find(w)
                        if a != b:
                            root[a] = b
                            components -= 1
            if components > 1:
                return False
        return True

    def shell(self, v):
        """Index of the first level containing v, or None."""
        return self._shell_of.get(v)


def miss_sequence(matching, exhaustion):
    """Number of vertices of each level the matching misses; non-decreasing
    because the levels are nested: the prefix sums of the misses per
    shell.  The miss-sequence order is the tuple order: the smaller
    sequence is the better matching."""
    return tuple(accumulate(sum(not matching.covers(v) for v in shell)
                            for shell in exhaustion.shells))


# ---------------------------------------------------------------------------
# Coverability: the vertex sets some matching covers are the independent sets
# of the matching matroid, so they are found greedily on one maximum
# matching.


def _cover_greedy(g, order):
    """Force the vertices of ``order`` in turn, keeping each that some
    matching covers together with those forced before it.  One maximum
    matching is kept covering the forced set; a vertex it misses is forced
    when one search from it augments or moves the miss to an unforced
    vertex.  Returns that matching and the forced set."""
    search, match = _maximum_mates(g)
    forced = set()
    for v in order:
        if match[v] != -1 or search(v, lambda x: x not in forced):
            forced.add(v)
    return _matching_of(g, match), forced


def is_coverable(g, vertices):
    """Whether one matching covers every vertex of ``vertices``."""
    vertices = set(vertices)
    return _cover_greedy(g, vertices)[1] == vertices


def maximal_matching_wrt_miss(exhaustion):
    """A maximum matching maximal for the miss-sequence order: greedy over
    vertices in exhaustion order, forcing each vertex whose addition keeps
    the forced set coverable."""
    order = [v for shell in exhaustion.shells for v in sorted(shell)]
    return _cover_greedy(exhaustion.graph, order)[0]


def is_critical(g, v):
    """True when every maximum matching covers v (Gallai-Edmonds: a maximum
    matching covers v and no even alternating path joins v to a vertex it
    misses)."""
    search, match = _maximum_mates(g)
    return match[v] != -1 and not any(
        search(r, v.__eq__) for r in range(g.n) if match[r] == -1)


# ---------------------------------------------------------------------------
# Symmetric differences of matchings.


def symmetric_difference_report(m1, m2, exhaustion):
    """Classify the components of the symmetric difference: even cycles,
    even paths with both ends in the same shell, or boundary-truncated
    window artifacts (excluded from the parity assertions).  Entries come
    in order of least vertex."""
    g = exhaustion.graph
    reports = []
    paths, cycles = component_walks(g, m1.darts ^ m2.darts)
    for i, walk in enumerate(paths + cycles):
        first, heads = g.src(walk[0]), [g.tau[d] for d in walk]
        kind = "path" if i < len(paths) else "cycle"
        vertices = sorted(heads if kind == "cycle" else [first] + heads)
        boundary = not exhaustion.frontier.isdisjoint(vertices)
        in_m1 = [(d & ~1) in m1.darts for d in walk]
        turns = in_m1[1:] + in_m1[:1] if kind == "cycle" else in_m1[1:]
        entry = {
            "kind": kind,
            "vertices": vertices,
            "n_edges": len(walk),
            "boundary": boundary,
            "alternating": all(a != b for a, b in zip(in_m1, turns)),
            "even": len(walk) % 2 == 0,
        }
        if kind == "path" and not boundary:
            shells = [exhaustion.shell(first), exhaustion.shell(heads[-1])]
            entry["endpoint_shells"] = shells
            entry["same_shell"] = len(set(shells)) == 1
        reports.append(entry)
    return sorted(reports, key=lambda entry: entry["vertices"][0])


# ---------------------------------------------------------------------------
# Windows of the infinite families: layers lo..hi of vertices named
# (layer, index), with the ball B_n the layers |layer| <= n.


def _ladder_window(lo, hi):
    """Rungs (i, 0)(i, 1) for lo <= i <= hi, and rails joining each side's
    consecutive rungs."""
    tau, colour = [], []
    for i in range(hi - lo + 1):
        tau += (2 * i + 1, 2 * i)
        colour += ("rung", "rung")
        if i < hi - lo:
            tau += (2 * i + 2, 2 * i, 2 * i + 3, 2 * i + 1)
            colour += ("rail",) * 4
    return ColouredGraph(2 * (hi - lo + 1), tau, colour,
                         [(i, side) for i in range(lo, hi + 1) for side in (0, 1)],
                         colour_inv={"rung": "rung", "rail": "rail"})


FAMILIES = {"two-ended": two_ended_window, "ladder": _ladder_window}


def window_exhaustion(family, n, margin=2):
    """The window of layers -n - margin..n + margin of a family, with the
    balls B_0..B_n as its levels and its two end layers as its frontier."""
    if family not in FAMILIES:
        raise BadParameters(f"unknown family {family!r}; the families are "
                            + ", ".join(sorted(FAMILIES)))
    if n < 0 or margin < 0:
        raise BadParameters(f"a window needs n >= 0 and margin >= 0, got "
                            f"n = {n}, margin = {margin}")
    lo, hi = -n - margin, n + margin
    g = FAMILIES[family](lo, hi)
    at_size = {}                    # |layer| -> the vertices there
    for v, name in enumerate(g.names):
        at_size.setdefault(abs(name[0]), []).append(v)
    ex = Exhaustion.from_shells(g, [at_size.get(k, ()) for k in range(n + 1)],
                                at_size.get(hi, ()))
    if not ex.connected:
        raise ValueError(f"family {family!r} built a level that does not "
                         f"induce a connected subgraph")
    return ex


def windowed_perfect_matching(family, n, margin=2):
    """A matching of a window covering the whole ball B_n.

    Greedy over the ball on one maximum matching is exact (the coverable
    sets are a matroid), so the ball is covered exactly when some matching
    of the window covers it.  When the window has a perfect matching, the
    result is the maximum matching itself.
    """
    ex = window_exhaustion(family, n, margin)
    ball = ex._shell_of             # the vertices that have a shell
    m, forced = _cover_greedy(ex.graph, sorted(ball))
    if len(forced) < len(ball):
        raise NoTransitiveSupply(f"no matching of the {family!r} window "
                                 f"covers the ball B_{n}")
    return ex, m
