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

from .decompose import is_partition_friendly, weak_multicycle_colouring
from .errors import (Disconnected, InvolutionInR, NotPartitionFriendly,
                     SizeMismatch)
from .graph import fundamental_cycle_words
from .presentation import PartitePresentation, TwoPartitePresentation
from .words import Alphabet, ClassAction


def _orient_colour(g, darts):
    """Orientation of a 2-regular colour class: the successor dart per
    vertex.  Each cycle is traversed from its least vertex toward its least
    neighbour, which makes the choice deterministic."""
    free = set(darts) | {g.inv[d] for d in darts}   # both darts of each unused edge
    succ = {}
    for start in sorted({g.src(d) for d in free}):
        here = start
        while here not in succ:
            e = min((x for x in g.out_darts(here) if x in free),
                    key=lambda x: (g.tau[x], x))
            succ[here] = e
            free -= {e, g.inv[e]}
            here = g.tau[e]
    return succ


def refine_colouring(g, colouring):
    """Copy of ``g`` with the undirected decomposition colours refined onto
    the darts: 2-regular colours get a deterministic cycle orientation and an
    inverse colour, matching colours stay self-inverse."""
    if not is_partition_friendly(g, colouring):
        raise NotPartitionFriendly(
            "the colouring is not a partition-friendly weak multicycle colouring")
    directed = g.subgraph_edges([])
    directed.colour_inv = {}
    images = {}
    for colour, darts in sorted(colouring.colour_classes().items()):
        name = str(colour)
        deg = colouring.class_degree(colour)[0]
        if deg == 2:
            directed.declare_colour(name, name + "^-1")
            orient = _orient_colour(g, darts)
            images[name] = {str(v): str(g.tau[orient[v]]) for v in range(g.n)}
            for v, d in orient.items():
                directed.add_edge(v, g.tau[d], name)
        else:
            directed.declare_colour(name)
            table = {}
            for d in darts:
                u, w = g.edge_ends(d)
                table[str(u)] = str(w)
                table[str(w)] = str(u)
                directed.add_edge(u, w, name)
            images[name] = table
    directed.meta["images"] = images
    return directed


def presentation_from_colouring(g, colouring, base=0):
    """Partite presentation with one class per vertex of ``g``."""
    if not g.is_connected():
        raise Disconnected("input graph must be connected")
    directed = refine_colouring(g, colouring)
    images = directed.meta["images"]
    classes = tuple(str(v) for v in range(g.n))
    u_gens = sorted(c for c in directed.colour_inv
                    if directed.colour_inv[c] != c and not c.endswith("^-1"))
    i_gens = sorted(c for c in directed.colour_inv if directed.colour_inv[c] == c)
    for v in range(g.n):
        directed.classes[v] = str(v)
    alphabet = Alphabet(tuple(u_gens), tuple(i_gens))
    action = ClassAction(alphabet, classes, images)
    relators = {x: [] for x in classes}
    relators[str(base)] = fundamental_cycle_words(directed, base, alphabet)
    return PartitePresentation(classes, alphabet, action, relators)


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
    from .constructions import bi_cayley

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

    pairing = {}
    s1 = []
    for (r, r_inv), (l, l_inv) in zip(inverse_pairs(R), inverse_pairs(L)):
        s1.append(group.names[r])
        pairing[l] = r
        pairing[l_inv] = r_inv

    graph = bi_cayley(group, R, L, S)
    if not graph.is_connected():
        raise Disconnected("the bi-Cayley graph is not connected")

    # Recolour with the presentation generators: r-edges keep their name, the
    # paired l-edges borrow it, spokes become involutive generators.  Spoke
    # names clashing with a stay-side generator get a suffix.
    used = set(s1) | {group.names[group.inv(group.index(x))] for x in s1}
    spoke_name = {}
    for s in sorted(set(S)):
        name = group.names[s]
        while name in used:
            name += "_s"
        used.add(name)
        spoke_name[group.names[s]] = name
    coloured = graph.subgraph_edges([])
    coloured.colour_inv = {}
    i_gens = sorted(spoke_name.values())
    for name in s1:
        coloured.declare_colour(name, name + "^-1")
    for name in i_gens:
        coloured.declare_colour(name)
    for d in graph.edges():
        label = graph.colour[d]
        kind, elem = label.split(":", 1)
        u, v = graph.src(d), graph.tau[d]
        if kind == "S":
            coloured.add_edge(u, v, spoke_name[elem])
        elif kind == "R":
            if elem in s1:
                coloured.add_edge(u, v, elem)
            else:
                coloured.add_edge(v, u, group.names[group.inv(group.index(elem))])
        else:
            r = pairing[group.index(elem)]
            name = group.names[r]
            if name in s1:
                coloured.add_edge(u, v, name)
            else:
                coloured.add_edge(v, u, group.names[group.inv(r)])

    alphabet = Alphabet(tuple(s1), tuple(i_gens))
    base = graph.vertex((group.names[group.identity], 0))
    relators = fundamental_cycle_words(coloured, base, alphabet)
    tp = TwoPartitePresentation(tuple(s1), (), tuple(i_gens),
                                tuple(relators), ())
    tp.pairing = {group.names[l]: group.names[r] for l, r in pairing.items()}
    tp.coloured_graph = coloured
    return tp
