"""From a connected graph with a partition-friendly weak multicycle
colouring, produce a partite presentation whose partite Cayley graph is the
input; plus the bi-Cayley to two-partite conversion.

The vertex classes are the vertices themselves.  Each 2-regular colour is
oriented deterministically and becomes a free generator acting by the cycle
successor permutation; each matching colour becomes an involutive generator.
The relators are a free generating set of the fundamental group, read off a
spanning tree at one base vertex: conjugation closure at every vertex then
kills the whole fundamental group, so the presentation complex is simply
connected and the rebuild reproduces the input.
"""

from __future__ import annotations

from .builder import presentation_graph
from .decompose import _class_walks, weak_multicycle_colouring
from .errors import (Disconnected, InvolutionInR, NotPartitionFriendly,
                     SizeMismatch)
from .graph import alphabet_graph, fundamental_cycle_words
from .presentation import PartitePresentation, TwoPartitePresentation
from .words import Alphabet, ClassAction


def _colouring_presentation(g, colouring):
    """The relator-free presentation with one class ``str(v)`` per vertex v
    of ``g``: each 2-regular colour is a free generator taking every vertex
    to its successor on the colour's cycle walks, each matching colour an
    involutive generator."""
    walks_of = _class_walks(g, colouring, "pf")
    if walks_of is None:
        raise NotPartitionFriendly(
            "the colouring is not a partition-friendly weak multicycle colouring")
    classes = tuple(str(v) for v in range(g.n))
    tau = g.tau
    u_gens, i_gens, images = [], [], {}
    for colour, (edges, cycles) in walks_of.items():
        name = str(colour)
        steps = [(str(tau[d ^ 1]), str(tau[d]))
                 for w in cycles or edges for d in w]
        if cycles:
            u_gens.append(name)
            images[name] = dict(steps)
        else:
            i_gens.append(name)
            images[name] = dict(steps + [(w, u) for u, w in steps])
    alphabet = Alphabet(tuple(sorted(u_gens)), tuple(sorted(i_gens)))
    action = ClassAction(alphabet, classes, images)
    return PartitePresentation(classes, alphabet, action, {})


def refine_colouring(g, colouring):
    """The undirected decomposition colours refined onto the darts: the
    presentation graph of the relator-free one-class-per-vertex presentation,
    so 2-regular colours get a deterministic cycle orientation and an
    inverse colour, matching colours stay self-inverse.  Vertex v is named
    and classed ``str(v)``; this is also the presentation graph of
    ``presentation_from_colouring(g, colouring)``."""
    return presentation_graph(_colouring_presentation(g, colouring))


def presentation_from_colouring(g, colouring, base=0):
    """Partite presentation with one class per vertex of ``g``; its relators
    are the fundamental cycle words of its own presentation graph."""
    if not g.is_connected():
        raise Disconnected("input graph must be connected")
    free = _colouring_presentation(g, colouring)
    words = fundamental_cycle_words(presentation_graph(free), base, free.alphabet)
    return PartitePresentation(free.classes, free.alphabet, free.action,
                               {str(base): words})


def pipeline_presentation(g, base=0):
    """Decompose, then extract: a presentation for any finite connected
    regular graph with a partition-friendly decomposition."""
    colouring = weak_multicycle_colouring(g)
    return presentation_from_colouring(g, colouring, base)


# ---------------------------------------------------------------------------
# Bi-Cayley conversion.


def bicayley_to_presentation(group, R, L, S):
    """Two-partite presentation of Bi(group, R, L, S).

    Needs R and L inverse-closed and involution-free with |R| = |L|, and the
    bi-Cayley graph connected.  Returns the presentation together with the
    chosen orientation set and pairing, so callers can match colours.
    """
    R = sorted(set(R))
    L = sorted(set(L))
    for label, conn in (("R", R), ("L", L)):
        for x in conn:
            if group.inv(x) == x:
                raise InvolutionInR(
                    f"{label} contains the involution {group.names[x]}")
            if group.inv(x) not in conn:
                raise InvolutionInR(f"{label} is not closed under inverses")
    if len(R) != len(L):
        raise SizeMismatch(f"|R| = {len(R)} but |L| = {len(L)}")

    def inverse_pairs(conn):
        pairs = []
        seen = set()
        for x in conn:
            if x in seen:
                continue
            seen.add(x)
            seen.add(group.inv(x))
            pairs.append((x, group.inv(x)))
        return pairs

    pairing = {}      # l -> r and l^-1 -> r^-1
    stay = []         # (r, l): r acts as r on side 0 and as l on side 1
    for (r, r_inv), (l, l_inv) in zip(inverse_pairs(R), inverse_pairs(L)):
        stay.append((r, l))
        pairing[l], pairing[l_inv] = r, r_inv
    s1 = tuple(group.names[r] for r, _ in stay)

    # Spokes become involutive generators; a spoke name clashing with a
    # stay-side generator or its inverse gets a suffix.
    used = {group.names[x] for r, _ in stay for x in (r, group.inv(r))}
    spoke_name = {}
    for s in sorted(set(S)):
        name = group.names[s]
        while name in used:
            name += "_s"
        used.add(name)
        spoke_name[s] = name
    alphabet = Alphabet(s1, tuple(sorted(spoke_name.values())))

    # Point x is the element x of side 0, point n + x that of side 1.
    n, mul = len(group), group.mul
    targets = {}
    for r, l in stay:
        targets[group.names[r]] = ([mul(x, r) for x in range(n)]
                                   + [n + mul(x, l) for x in range(n)])
    for s, name in spoke_name.items():
        s_inv = group.inv(s)
        targets[name] = ([n + mul(x, s) for x in range(n)]
                         + [mul(x, s_inv) for x in range(n)])
    graph = alphabet_graph(alphabet, targets,
                           [(group.names[x], side) for side in (0, 1)
                            for x in range(n)],
                           ["0"] * n + ["1"] * n)
    if not graph.is_connected():
        raise Disconnected("the bi-Cayley graph is not connected")
    relators = fundamental_cycle_words(graph, group.identity, alphabet)
    tp = TwoPartitePresentation(s1, (), alphabet.i_gens, tuple(relators), ())
    tp.pairing = {group.names[l]: group.names[r] for l, r in pairing.items()}
    return tp
