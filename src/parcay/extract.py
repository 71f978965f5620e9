"""From a connected graph with a partition-friendly weak multicycle
colouring, produce a partite presentation whose partite Cayley graph is the
input; plus the bi-Cayley to two-partite conversion.

The vertex classes are the vertices themselves.  Each 2-regular colour is
oriented deterministically and becomes a free generator acting by the cycle
successor permutation; each matching colour becomes an involutive generator.
There is one relator per edge outside a BFS tree at vertex 0, and it kills
that edge: mostly a short cycle through the edge, tree edges and edges
killed before it, kept at the class of the cycle's earliest vertex; where
no short cycle is found, the edge's cycle through the tree, kept at the
class of the lowest common ancestor of its ends.
By induction every edge outside the tree is trivial, so the presentation
complex is simply connected and the rebuild reproduces the input.  Since
different vertices obey different relators, the relator text grows with
the cycles' lengths, not with the tree's depth.

The bi-Cayley conversion has two classes, one per side of the graph, and
takes the same relators from the bi-Cayley graph: each word goes, once, to
the class of the side where it closes.
"""

from __future__ import annotations

from .decompose import _class_walks, weak_multicycle_colouring
from .errors import (BadParameters, InvolutionInR, NotPartitionFriendly,
                     SizeMismatch)
from .graph import _short_cycle_relators, alphabet_graph
from .presentation import PartitePresentation, TwoPartitePresentation
from .words import Alphabet, ClassAction, is_generator_name


def _colouring_presentation(g, colouring):
    """``(p, graph)``: the relator-free presentation with one class
    ``str(v)`` per vertex v of ``g``, and its presentation graph, whose
    vertex v is class ``str(v)``.  Each 2-regular colour is a free generator
    taking every vertex to its successor on the colour's cycle walks, each
    matching colour an involutive generator.  A colour must be a generator
    name (see ``is_generator_name``), or BadParameters is raised."""
    walks_of = _class_walks(g, colouring, "pf")
    if walks_of is None:
        raise NotPartitionFriendly(
            "the colouring is not a partition-friendly weak multicycle colouring")
    classes = tuple(str(v) for v in range(g.n))
    tau = g.tau
    u_gens, i_gens, images, targets = [], [], {}, {}
    for colour, (edges, cycles) in walks_of.items():
        name = str(colour)
        if not is_generator_name(name):
            raise BadParameters(f"colour {name!r} cannot name a generator: "
                                f"use letters, digits and '_'")
        steps = [(tau[d ^ 1], tau[d]) for w in cycles or edges for d in w]
        if cycles:
            u_gens.append(name)
        else:
            i_gens.append(name)
            steps += [(w, u) for u, w in steps]
        images[name] = {classes[u]: classes[w] for u, w in steps}
        targets[name] = [w for _, w in sorted(steps)]   # one step per vertex
    alphabet = Alphabet(tuple(sorted(u_gens)), tuple(sorted(i_gens)))
    action = ClassAction(alphabet, classes, images)
    return (PartitePresentation(classes, alphabet, action, {}),
            alphabet_graph(alphabet, targets, classes, classes))


def presentation_from_colouring(g, colouring):
    """Partite presentation with one class per vertex of ``g``: one relator
    per non-tree edge of the BFS tree at vertex 0 of its own presentation
    graph, a short cycle at the class of its earliest vertex, or the edge's
    cycle through the tree where no shorter cycle was found.  The tree
    raises Disconnected when ``g`` is not connected."""
    if not g.n:
        raise BadParameters("a graph with no vertices has no presentation")
    free, sp = _colouring_presentation(g, colouring)
    relators = {}
    for _, v, word in _short_cycle_relators(sp, free.alphabet):
        relators.setdefault(sp.classes[v], []).append(word)
    return PartitePresentation(free.classes, free.alphabet, free.action,
                               relators)


def pipeline_presentation(g):
    """Decompose, then extract: a presentation for any finite connected
    regular graph with a partition-friendly decomposition."""
    colouring = weak_multicycle_colouring(g)
    return presentation_from_colouring(g, colouring)


# ---------------------------------------------------------------------------
# Bi-Cayley conversion.


def bicayley_to_presentation(group, R, L, S):
    """Two-partite presentation of Bi(group, R, L, S).

    Needs R and L inverse-closed and involution-free with |R| = |L|, and the
    bi-Cayley graph connected (its BFS tree raises Disconnected).  Returns
    the presentation together with the chosen orientation set and pairing,
    so callers can match colours.
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
    # Left multiplication preserves colours and is transitive on each side,
    # so a cycle's word closes at every vertex on the side where it closes.
    found = _short_cycle_relators(graph, alphabet)
    r0, r1 = (tuple(dict.fromkeys(w for _, v, w in found
                                  if graph.classes[v] == side))
              for side in "01")
    tp = TwoPartitePresentation(s1, (), alphabet.i_gens, r0, r1)
    tp.pairing = {group.names[l]: group.names[r] for l, r in pairing.items()}
    return tp
