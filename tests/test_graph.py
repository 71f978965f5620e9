import math
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (brute_force_automorphisms, complete_graph, cycle_graph,
                      listing_is_vertex_transitive, multigraph_colourings,
                      multigraphs, read_graph_by_lines, scan_connected,
                      scan_out_darts, semiregular_subgroup_cayley,
                      two_sided_closure)

import parcay.graph as graph_module
from parcay.builder import build_sp, presentation_symmetry_implies_vt
from parcay.constructions import generalized_petersen, petersen_presentation
from parcay.errors import (Disconnected, GraphSyntaxError, NotCayleyLike,
                           ParcayError, SearchBoundExceeded)
from parcay.graph import (ColouredGraph, _dictated_darts,
                          _short_cycle_relators, automorphism_group,
                          cayley_like_witness, dart_bijections, graph_maps,
                          is_cayley, is_vertex_transitive, isomorphic,
                          mulclose, read_graph, to_dot, write_graph)
from parcay.presentation import from_two_partite
from parcay.words import Alphabet, parse_word


def coloured_triangle():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    for i in range(3):
        g.add_edge(i, (i + 1) % 3, "a")
    return g


def test_dart_involution_invariants(petersen_sp):
    g = petersen_sp
    for d in range(g.n_darts):
        assert g.src(d ^ 1) == g.tau[d]
        assert d in g.out_darts(g.src(d))
    assert g.n_edges * 2 == g.n_darts


def test_loops_count_twice_in_degree():
    g = ColouredGraph()
    v = g.add_vertex()
    g.add_edge(v, v)
    assert g.degree(v) == 2


def _graph_fields(g):
    return (g.n, g.tau, g.colour, g.colour_inv, g.classes,
            [g.out_darts(v) for v in range(g.n)])


@given(multigraph_colourings(), st.data())
def test_bulk_build_equals_incremental_build(case, data):
    # The colouring's colours become dart colours: x has the declared
    # inverse X, and y and z become self-inverse at their first edge.
    shape, colouring = case
    n = shape.n
    names = data.draw(st.lists(st.none() | st.integers(0, 3), min_size=n,
                               max_size=n))
    classes = data.draw(st.lists(st.none() | st.sampled_from("pq"),
                                 min_size=n, max_size=n))
    edges = [(shape.src(d), shape.tau[d], colouring.get(d))
             for d in shape.edges()]
    g = ColouredGraph()
    for name, cls in zip(names, classes):
        g.add_vertex(name, cls)
    g.declare_colour("x", "X")
    for u, v, c in edges:
        g.add_edge(u, v, c)
    colour_inv, tau, colours = {"x": "X", "X": "x"}, [], []
    for u, v, c in edges:
        tau += [v, u]
        colours += [c, None if c is None else colour_inv.setdefault(c, c)]
    bulk = ColouredGraph(n, tau, colours, list(names), list(classes),
                         colour_inv)
    assert _graph_fields(bulk) == _graph_fields(g)
    assert bulk.names == g.names
    read = read_graph(write_graph(bulk))
    assert _graph_fields(read) == _graph_fields(g)
    assert read.names == [None] * n


@given(multigraphs(7, 14, rebuilt=True))
def test_out_dart_index_matches_a_dart_scan(g):
    degrees = []
    for v in range(g.n):
        scan = scan_out_darts(g, v)
        assert g.degree(v) == sum(1 for h in g.tau if h == v) == len(scan)
        assert set(g.out_darts(v)) == scan
        assert g.out_darts(v) == sorted(scan)  # dart order
        assert g.neighbours(v) == sorted({g.tau[d] for d in scan})
        degrees.append(len(scan))
    assert g.is_regular() == (len(set(degrees)) <= 1)
    assert g.is_connected() == scan_connected(g, range(g.n))


def test_the_empty_graph_is_connected():
    assert ColouredGraph().is_connected()


# -- walks and words -----------------------------------------------------------

def walk_end(g, v, word):
    """Where the walk from v along the word's letters ends."""
    for d in _dictated_darts(g, cayley_like_witness(g), v, word):
        v = g.tau[d]
    return v


def test_dictated_walk_of_empty_word(petersen_sp):
    alph = Alphabet(("a",), ("b",))
    word = parse_word("", alph)
    assert _dictated_darts(petersen_sp, cayley_like_witness(petersen_sp),
                           3, word) == []


def test_triangle_walk_closes():
    g = coloured_triangle()
    alph = Alphabet(("a",), ())
    assert walk_end(g, 0, parse_word("a^3", alph)) == 0
    assert walk_end(g, 0, parse_word("a^2", alph)) != 0


def test_intro_relation_closes_only_on_its_class(petersen_sp):
    # following b a b a a returns to the start exactly at one class's
    # vertices: the word is a rotation of the a b a^2 b relator
    alph = Alphabet(("a",), ("b",))
    word = parse_word("b a b a a", alph)
    for v in range(petersen_sp.n):
        closed = walk_end(petersen_sp, v, word) == v
        assert closed == (petersen_sp.classes[v] == "1")


def test_cayley_like_witness_rejects_duplicate_colours():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    g.add_edge(0, 1, "a")
    g.add_edge(0, 2, "a")
    assert cayley_like_witness(g) is None


def test_one_vertex_without_edges_is_cayley_like():
    # the Cayley graph of the trivial group and the empty set
    g = ColouredGraph(1, [])
    assert cayley_like_witness(g) == [{}]
    assert _short_cycle_relators(g, Alphabet((), ())) == []


# -- relators from cycles -------------------------------------------------------

def test_fundamental_cycles_of_tree():
    g = ColouredGraph()
    for _ in range(4):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    g.declare_colour("b", "b^-1")
    g.add_edge(0, 1, "a")
    g.add_edge(1, 2, "b")
    g.add_edge(1, 3, "a")
    # not Cayley-like (vertex 1 has two outgoing a-darts), so recolour
    g2 = ColouredGraph()
    for _ in range(3):
        g2.add_vertex()
    g2.declare_colour("a", "a^-1")
    g2.add_edge(0, 1, "a")
    with pytest.raises(NotCayleyLike):
        _short_cycle_relators(g2, Alphabet(("a",), ()))


def test_fundamental_cycles_of_cycle():
    g = coloured_triangle()
    relators = _short_cycle_relators(g, Alphabet(("a",), ()))
    assert len(relators) == 1
    assert str(relators[0][2]) in ("a^3", "a^-3")


def test_fundamental_cycles_of_petersen(petersen_sp):
    g = petersen_sp
    relators = _short_cycle_relators(g, Alphabet(("a",), ("b",)))
    assert len(relators) == g.n_edges - g.n + 1 == 6
    for _, v, w in relators:
        assert walk_end(g, v, w) == v


def test_fundamental_cycles_ignore_a_declared_but_unused_colour():
    # The alphabet need not name a colour that no edge carries.
    g = read_graph("vertices 3\ncolour a a^-1\ncolour b b^-1\n"
                   "edge 0 1 a\nedge 1 2 a\nedge 2 0 a\n")
    relators = _short_cycle_relators(g, Alphabet(("a",), ()))
    assert [str(w) for _, _, w in relators] in (["a^3"], ["a^-3"])


def test_fundamental_cycles_need_connectivity():
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    g.add_edge(0, 0, "a")
    g.add_edge(1, 1, "a")
    with pytest.raises(Disconnected):
        _short_cycle_relators(g, Alphabet(("a",), ()))


@st.composite
def cayley_like_graphs(draw):
    """A connected Cayley-like colouring on at most 12 vertices: each random
    permutation (fixed points give loops) is a free colour, and an optional
    perfect matching is an involutive one.  Returns the graph and the
    alphabet of its colours."""
    n = draw(st.integers(1, 12))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    free, involutive = [], []
    for i in range(draw(st.integers(0, 3))):
        perm = draw(st.permutations(range(n)))
        free.append(f"a{i}")
        g.declare_colour(f"a{i}", f"a{i}^-1")
        for v in range(n):
            g.add_edge(v, perm[v], f"a{i}")
    if n % 2 == 0 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        involutive.append("s")
        g.declare_colour("s")
        for i in range(0, n, 2):
            g.add_edge(order[i], order[i + 1], "s")
    assume(g.n_darts and g.is_connected())
    return g, Alphabet(tuple(free), tuple(involutive))


@given(cayley_like_graphs())
def test_short_cycle_relators_close_at_their_vertices(case):
    g, alphabet = case
    parent, order = graph_module.spanning_tree(g, 0)
    depth = {0: 0}
    for v in order[1:]:
        depth[v] = depth[g.src(parent[v])] + 1
    tree = {d & ~1 for d in parent if d is not None}
    relators = _short_cycle_relators(g, alphabet)
    assert sorted(d for d, _, _ in relators) == [d for d in g.edges()
                                                  if d not in tree]
    assert len(relators) == g.n_edges - g.n + 1
    for d, v, w in relators:
        assert walk_end(g, v, w) == v
        assert 0 < len(w) <= depth[g.src(d)] + depth[g.tau[d]] + 1
        letters = w.letters
        if len(letters) > 1:        # cyclically reduced
            assert all(y != alphabet.inverse_letter(x)
                       for x, y in zip(letters, letters[1:] + letters[:1]))


# -- isomorphism -----------------------------------------------------------------

def test_cycle_relabelled_isomorphic():
    g = cycle_graph(6)
    h = ColouredGraph()
    for _ in range(6):
        h.add_vertex()
    perm = [3, 1, 4, 0, 5, 2]
    for i in range(6):
        h.add_edge(perm[i], perm[(i + 1) % 6])
    assert isomorphic(g, h) is not None


def test_prism_not_isomorphic_to_k33():
    prism = generalized_petersen(3, 1)
    k33 = ColouredGraph()
    for _ in range(6):
        k33.add_vertex()
    for i in range(3):
        for j in range(3):
            k33.add_edge(i, 3 + j)
    assert isomorphic(prism, k33) is None


def test_iso_counts_parallel_edges():
    doubled = ColouredGraph()
    for _ in range(2):
        doubled.add_vertex()
    doubled.add_edge(0, 1)
    doubled.add_edge(0, 1)
    c2 = cycle_graph(2)  # also a doubled edge
    assert isomorphic(doubled, c2) is not None
    single = ColouredGraph()
    for _ in range(2):
        single.add_vertex()
    single.add_edge(0, 1)
    assert isomorphic(doubled, single) is None


def test_iso_respects_colour_map(petersen_sp):
    gp = generalized_petersen(5, 2)
    cmap = {"a": {"outer", "inner"}, "a^-1": {"outer", "inner"}, "b": {"spoke"}}
    assert isomorphic(petersen_sp, gp, colour_map=cmap) is not None
    bad = {"a": {"spoke"}, "a^-1": {"spoke"}, "b": {"outer", "inner"}}
    assert isomorphic(petersen_sp, gp, colour_map=bad) is None


def test_iso_returns_commuting_maps(petersen_sp):
    gp = generalized_petersen(5, 2)
    vmap, dmap = isomorphic(petersen_sp, gp)
    g, h = petersen_sp, gp
    for d in range(g.n_darts):
        assert h.tau[dmap[d]] == vmap[g.tau[d]]
        assert dmap[d ^ 1] == dmap[d] ^ 1


def test_dart_bijections_enumerate_parallel_and_loop_choices():
    # a triple edge and two loops at one vertex: 3! ways for the triple
    # edge, 2! for the loops, each loop in either orientation
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex()
    for _ in range(3):
        g.add_edge(0, 1)
    g.add_edge(1, 1)
    g.add_edge(1, 1)
    maps = list(dart_bijections(g, g, {0: 0, 1: 1}))
    assert len(maps) == 3 * 2 * 2 * 2 * 2 == len({tuple(sorted(m.items())) for m in maps})
    for dmap in maps:
        assert sorted(dmap.values()) == list(range(g.n_darts))
        assert all(dmap[d ^ 1] == dmap[d] ^ 1 for d in dmap)


def test_dart_bijections_need_no_recursion_per_edge():
    g = cycle_graph(3000)
    dmap = next(dart_bijections(g, g, {v: v for v in range(g.n)}))
    assert dmap == {d: d for d in range(g.n_darts)}


def _relabelled(g, perm, flips):
    """g with vertex v renamed perm[v], edges added in reverse order and the
    i-th edge's orientation flipped where flips[i] is set."""
    h = ColouredGraph()
    for _ in range(g.n):
        h.add_vertex()
    h.colour_inv = dict(g.colour_inv)
    for d, flip in zip(reversed(g.edges()), flips):
        if flip:
            d ^= 1
        h.add_edge(perm[g.src(d)], perm[g.tau[d]], g.colour[d])
    return h


def _from_edges(n, edges, colours=None):
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    g.declare_colour("a", "A")
    for i, (u, v) in enumerate(edges):
        g.add_edge(u, v, None if colours is None else colours[i])
    return g


def _networkx(nx, g):
    m = nx.MultiGraph()
    m.add_nodes_from(range(g.n))
    m.add_edges_from(g.edge_ends(d) for d in g.edges())
    return m


@given(st.data())
def test_isomorphic_agrees_with_networkx(data):
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    g = _from_edges(n, edges)
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges)))
        h = _relabelled(g, perm, flips)
    else:
        h = _from_edges(n, data.draw(st.lists(st.tuples(vertex, vertex),
                                              min_size=len(edges),
                                              max_size=len(edges))))
    want = nx.is_isomorphic(_networkx(nx, g), _networkx(nx, h))
    found = isomorphic(g, h)
    assert (found is not None) == want
    if found is not None:
        vmap, dmap = found
        assert sorted(dmap) == sorted(dmap.values()) == list(range(g.n_darts))
        for d in range(g.n_darts):
            assert h.tau[dmap[d]] == vmap[g.tau[d]]
            assert dmap[d ^ 1] == dmap[d] ^ 1


def test_isomorphic_needs_no_recursion_per_vertex():
    g = cycle_graph(3000)
    perm = list(range(3000))
    random.Random(0).shuffle(perm)
    found = isomorphic(g, _relabelled(g, perm, [False] * g.n_edges))
    assert found is not None
    vmap, _ = found
    assert sorted(vmap.values()) == list(range(3000))


# -- automorphisms ----------------------------------------------------------------

def test_petersen_automorphism_group_order():
    auts = automorphism_group(generalized_petersen(5, 2))
    assert len(auts) == 120
    # closed under composition and inverse
    ids = tuple(range(10))
    sample = auts[:5]
    for p in sample:
        assert tuple(sorted(p)) == ids
        inv = [0] * 10
        for i, x in enumerate(p):
            inv[x] = i
        assert tuple(inv) in set(auts)


def test_single_vertex_automorphisms():
    g = ColouredGraph()
    g.add_vertex()
    assert automorphism_group(g) == [(0,)]


def test_colour_preserving_group_of_petersen(petersen_sp):
    auts = list(graph_maps(petersen_sp, petersen_sp, respect_colours=True))
    assert len(auts) == 5


def _assert_symmetry_matches_the_listing_oracles(g, auts):
    assert is_vertex_transitive(g) == listing_is_vertex_transitive(auts, g.n)
    gens = is_cayley(g)
    assert (gens is None) == (semiregular_subgroup_cayley(auts, g.n) is None)
    if gens is not None:
        assert set(gens) <= set(auts)
        group = two_sided_closure(set(gens) | {tuple(range(g.n))})
        assert len(group) == g.n and len({p[0] for p in group}) == g.n


@settings(deadline=None)
@given(st.data())
def test_automorphism_group_matches_brute_force(data):
    n = data.draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    colours = data.draw(st.lists(st.sampled_from(("a", "A", "b")),
                                 min_size=len(edges), max_size=len(edges)))
    g = _from_edges(n, edges, colours)
    auts = brute_force_automorphisms(g)
    assert automorphism_group(g) == auts
    assert (sorted(graph_maps(g, g, respect_colours=True))
            == brute_force_automorphisms(g, colour_preserving=True))
    _assert_symmetry_matches_the_listing_oracles(g, auts)


@pytest.mark.parametrize("n,edges", [
    (1, [(0, 0)]),
    (2, [(0, 1), (1, 0), (0, 1)]),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)]),
    (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
         (0, 3), (1, 4), (2, 5)]),
    (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    (6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
    (7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
    (8, [(u, v) for u in range(4) for v in range(4, 8)]),
    (8, [(i, (i + 1) % 4) for i in range(4)]
        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]),
])
def test_symmetry_of_small_multigraphs_matches_the_listing_oracles(n, edges):
    # Mostly vertex-transitive multigraphs, which random draws seldom give.
    # K_{4,4} has a subgroup of order 8, generated by fixed-point-free
    # automorphisms, that is not semiregular.
    g = _from_edges(n, edges)
    _assert_symmetry_matches_the_listing_oracles(g, automorphism_group(g))


def test_search_bound():
    g = cycle_graph(70)
    with pytest.raises(SearchBoundExceeded):
        automorphism_group(g)
    with pytest.raises(SearchBoundExceeded):
        is_cayley(g)
    assert is_vertex_transitive(g)


def _petersen_parameters():
    return [(n, k) for n in range(3, 15) for k in range(1, (n + 1) // 2)]


def test_vertex_transitivity():
    assert is_vertex_transitive(ColouredGraph()) is False
    assert is_vertex_transitive(generalized_petersen(5, 2))
    assert not is_vertex_transitive(generalized_petersen(4, 2))
    assert is_vertex_transitive(cycle_graph(7))
    # Frucht, Graver and Watkins: P(n, k) is vertex transitive exactly when
    # k^2 = +-1 (mod n) or (n, k) = (10, 2).
    for n, k in _petersen_parameters() + [(200, 49), (200, 7)]:
        assert is_vertex_transitive(generalized_petersen(n, k)) == (
            k * k % n in (1, n - 1) or (n, k) == (10, 2)), (n, k)


def _orbit(v, maps):
    orbit = [v]
    for x in orbit:
        orbit += [a[x] for a in maps if a[x] not in orbit]
    return set(orbit)


@pytest.mark.parametrize("g", [generalized_petersen(24, 5),
                               generalized_petersen(10, 2),
                               generalized_petersen(8, 3), cycle_graph(12),
                               complete_graph(5)])
def test_vertex_transitivity_searches_only_outside_the_orbit(g, monkeypatch):
    # Each search asks for an automorphism sending 0 to a vertex outside
    # the orbit of 0 under the automorphisms found before it.
    searches, graph_maps = [], graph_module.graph_maps

    def recording(*args, root_image=None, **kwargs):
        searches.append((root_image, []))
        for a in graph_maps(*args, root_image=root_image, **kwargs):
            searches[-1][1].append(a)
            yield a

    monkeypatch.setattr(graph_module, "graph_maps", recording)
    assert is_vertex_transitive(g)
    found = []
    for v, maps in searches:
        assert v not in _orbit(0, found)
        assert len(maps) == 1 and maps[0][0] == v
        found += maps
    assert _orbit(0, found) == set(range(g.n))


def test_is_cayley():
    assert is_cayley(ColouredGraph()) is None
    assert is_cayley(generalized_petersen(5, 2)) is None
    gens = is_cayley(cycle_graph(6))
    assert gens is not None
    group = mulclose(set(gens) | {tuple(range(6))})
    assert len(group) == 6 and len({p[0] for p in group}) == 6


@settings(deadline=None)
@given(st.data())
def test_mulclose_matches_the_two_sided_closure(data):
    n = data.draw(st.integers(1, 6))
    perms = data.draw(st.lists(st.permutations(range(n)).map(tuple),
                               min_size=1, max_size=3))
    # Degree 6 always has a cap: the oracle takes over a second on S6.
    caps = st.integers(1, 130)
    cap = data.draw(caps if n == 6 else st.none() | caps)
    assert mulclose(perms, cap) == two_sided_closure(perms, cap)


def test_is_cayley_of_petersen_graphs():
    # Nedela and Skoviera: P(n, k) is a Cayley graph exactly when
    # k^2 = 1 (mod n).
    for n, k in _petersen_parameters():
        gens = is_cayley(generalized_petersen(n, k))
        assert (gens is not None) == (k * k % n == 1), (n, k)
        if gens is not None:
            group = mulclose(gens)
            assert len(group) == 2 * n and len({p[0] for p in group}) == 2 * n


def test_regular_witness_implies_transitive():
    for g in (cycle_graph(5), complete_graph(4), generalized_petersen(4, 1)):
        if is_cayley(g) is not None:
            assert is_vertex_transitive(g)


# -- presentation complex symmetry -------------------------------------------------

def test_symmetry_certificate_single_class():
    from parcay.presentation import PartitePresentation
    from parcay.words import Alphabet, ClassAction
    alph = Alphabet(("a",), ())
    act = ClassAction(alph, ("0",), {"a": {"0": "0"}})
    p = PartitePresentation(("0",), alph, act, {"0": [parse_word("a^3", alph)]})
    assert presentation_symmetry_implies_vt(p) is not None


@pytest.mark.parametrize("k,expect", [(1, True), (2, False)])
def test_symmetry_certificate_petersen(k, expect):
    p = from_two_partite(petersen_presentation(5, k))
    cert = presentation_symmetry_implies_vt(p)
    assert (cert is not None) == expect


def test_symmetry_certificate_is_sound():
    # where the certificate exists the graph really is vertex transitive
    p = from_two_partite(petersen_presentation(6, 1))
    if presentation_symmetry_implies_vt(p) is not None:
        assert is_vertex_transitive(build_sp(p))


# -- text format --------------------------------------------------------------------

def test_graph_format_roundtrip(petersen_sp):
    text = write_graph(petersen_sp)
    g = read_graph(text)
    assert g.n == petersen_sp.n
    assert g.n_edges == petersen_sp.n_edges
    assert g.classes == petersen_sp.classes
    assert isomorphic(g, petersen_sp, respect_colours=True,
                      respect_classes=True) is not None
    assert write_graph(g) == text


def test_graph_format_multi_edges_and_loops():
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 0)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    h = read_graph(write_graph(g))
    assert h.n_edges == 3
    assert h.degree(0) == 4


MALFORMED_GRAPH_TEXTS = [     # (text, line of the error, coloured)
    ("vertices 3\nedge 1 7\n", 2, False),
    ("vertices 3\nedge 0 x\n", 2, False),
    ("vertices 3\n\nedge 1 -1\n", 3, False),
    ("vertices 3\nclass 3 a\n", 2, False),
    ("vertices -2\n", 1, False),
    ("edge 0 1\nvertices 2\n", 1, False),
    ("class 0 a\nvertices 2\n", 1, False),
    ("vertices 2\nvertices 2\n", 2, False),
    ("vertices 2\nedge 0\n", 2, False),
    ("vertices 2\nedge 0 1 a b\n", 2, False),
    ("vertices 2\nvertex 0\n", 2, False),
    # The first edge line without the colour column, after one with it.
    ("vertices 3\nedge 0 1 - c0\nedge 1 2 a\nedge 2 0\n", 3, True),
]


@pytest.mark.parametrize("text,line,coloured", MALFORMED_GRAPH_TEXTS,
                         ids=[f"{text}-{line}" for text, line, _ in MALFORMED_GRAPH_TEXTS])
def test_malformed_graph_text_names_its_line(text, line, coloured):
    with pytest.raises(GraphSyntaxError) as info:
        read_graph(text, coloured=coloured)
    assert info.value.line == line


# Graph texts to mutate: a coloured, classed build and a plain multigraph
# with a loop.
GRAPH_MUTATION_SEEDS = (
    "vertices 4\ncolour a a^-1\nclass 0 x\nclass 1 y\nclass 2 x\nclass 3 y\n"
    "edge 0 1 a\nedge 1 2 a\nedge 2 3 s\nedge 3 0 a^-1\n",
    "# plain\nvertices 3\nedge 0 1\nedge 1 2\nedge 1 2\nedge 2 2\n")
GRAPH_MUTATION_PIECES = ("vertices ", "edge ", "class ", "colour ", "0", "2",
                         "9", "-", "+", "_", " ", "\t", "\n", "#", "a", "a^-1",
                         "x", "\u00b2", "\u0663", "\u00e9")


@given(st.data())
def test_mutated_graph_text_reads_or_raises_parcay_error(data):
    text = data.draw(st.sampled_from(GRAPH_MUTATION_SEEDS))
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        piece = data.draw(st.sampled_from(GRAPH_MUTATION_PIECES))
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    # Bound the product of every number in the text, which bounds the
    # vertex count.
    numbers = re.findall(r"\d+(?:_\d+)*", text)   # int() reads 1_0 as 10
    assume(math.prod(int(d) or 1 for d in numbers) < 10 ** 4)
    try:
        read_graph(text)
    except ParcayError:
        pass


# A decomposed graph: base colours, '-' for none, then the colour column.
COLOURED_GRAPH_SEED = ("# decomposed\nvertices 4\ncolour a a^-1\n"
                       "edge 0 1 a c0\nedge 1 2 - c1\nedge 2 3 s c0\n"
                       "edge 3 0 - c1\n")


def first_edge_line_without_column(text):
    """The number of the first edge line with fewer than four fields."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if fields[:1] == ["edge"] and len(fields) < 5:
            return lineno
    return None


@given(st.data(), st.booleans())
def test_mutated_graph_text_reads_as_the_line_reader_reads_it(data, coloured):
    text = data.draw(st.sampled_from(GRAPH_MUTATION_SEEDS + (COLOURED_GRAPH_SEED,)))
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        piece = data.draw(st.sampled_from(GRAPH_MUTATION_PIECES))
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    numbers = re.findall(r"\d+(?:_\d+)*", text)
    assume(math.prod(int(d) or 1 for d in numbers) < 10 ** 4)
    try:
        want = read_graph_by_lines(text, coloured)
    except GraphSyntaxError as exc:
        with pytest.raises(GraphSyntaxError) as info:
            read_graph(text, coloured)
        if exc.line is None:
            # The one change: the missing-column error names its line.
            assert str(exc) == "some edge lines are missing the colour column"
            line = first_edge_line_without_column(text)
            assert (str(info.value), info.value.line) == (
                f"{exc} (line {line})", line)
        else:
            assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return
    got = read_graph(text, coloured)
    if coloured:
        (want, want_column), (got, got_column) = want, got
        assert got_column == want_column
    assert (got.n, got.tau, got.colour, got.classes, list(got.colour_inv.items())) == (
        want.n, want.tau, want.colour, want.classes, list(want.colour_inv.items()))
    assert [got.out_darts(v) for v in range(got.n)] == [
        want.out_darts(v) for v in range(want.n)]


def test_dot_export(petersen_sp):
    dot = to_dot(petersen_sp)
    assert dot.startswith("graph {")
    assert "color=" in dot


def test_dot_export_escapes_quotes_and_backslashes():
    # Graph text allows '"' and '\\' in class and colour tokens; DOT needs
    # both escaped inside a quoted string.
    g = read_graph('vertices 2\nclass 0 x"y\nclass 1 p\\q\nedge 0 1 a"b\n')
    assert to_dot(g).splitlines()[1:4] == [
        '  0 [label="0" xlabel="x\\"y"];',
        '  1 [label="1" xlabel="p\\\\q"];',
        '  0 -- 1 [color=red label="a\\"b"];']
