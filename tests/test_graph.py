import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (brute_force_maps, coloured_triangle, complete_graph,
                      cycle_graph, deque_bfs, listing_is_vertex_transitive,
                      multigraph_colourings, multigraphs, read_graph_by_lines,
                      scan_connected, scan_out_darts,
                      semiregular_subgroup_cayley, table_cayley_graph,
                      two_sided_closure, walk_end)

import parcay.graph as graph_module
from parcay.builder import build_sp, presentation_symmetry_implies_vt
from parcay.constructions import (cyclic_group, dihedral_group,
                                  generalized_petersen, petersen_presentation)
from parcay.errors import (Disconnected, GraphSyntaxError, ParcayError,
                           SearchBoundExceeded)
from parcay.graph import (ColouredGraph, _dictated_darts, automorphism_group,
                          cayley_like_witness, dart_bijections, graph_maps,
                          is_cayley, is_vertex_transitive, isomorphic,
                          mulclose, read_graph, to_dot, write_graph)
from parcay.presentation import from_two_partite, parse
from parcay.words import Alphabet, parse_word


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


@given(multigraphs(7, 14, rebuilt=True))
def test_bfs_forests_match_the_deque_oracle(g):
    # spanning_tree from every base, is_connected, and the map search's
    # order and BFS parents from the roots by decreasing degree, on graphs
    # that are often disconnected.
    for base in range(g.n):
        parent, order = deque_bfs(g, [base])
        if len(order) == g.n:
            assert graph_module.spanning_tree(g, base) == (parent, order)
        else:
            with pytest.raises(Disconnected):
                graph_module.spanning_tree(g, base)
    assert g.is_connected() == (len(deque_bfs(g, [0])[1]) == g.n)
    parent, order = deque_bfs(g, sorted(range(g.n), key=g.degree,
                                        reverse=True))
    setup = graph_module._map_search(g, g)
    assert setup[0] == order
    assert setup[1] == [None if d is None else g.src(d) for d in parent]


# -- walks and words -----------------------------------------------------------

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
    assert cayley_like_witness(ColouredGraph(1, [])) == [{}]


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


@pytest.mark.parametrize("coloured", [False, True])
def test_two_empty_graphs_have_the_one_empty_map(coloured):
    # The colour walk serves the coloured search, the backtracking one the
    # other: each yields the empty map once.
    g, h = ColouredGraph(), ColouredGraph()
    assert list(graph_maps(g, h, respect_colours=coloured)) == [()]
    assert isomorphic(g, h, respect_colours=coloured) == ((), {})


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
    assert sorted(vmap) == list(range(3000))


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
    auts = brute_force_maps(g, g)
    assert automorphism_group(g) == auts
    assert (sorted(graph_maps(g, g, respect_colours=True))
            == brute_force_maps(g, g, colour_preserving=True))
    _assert_symmetry_matches_the_listing_oracles(g, auts)


@settings(deadline=None)
@given(st.data())
def test_graph_maps_match_brute_force(data):
    # Maps between two multigraphs with loops and parallel edges of
    # different colours, under each filter and root image.  A small random
    # g is often disconnected, and only its first component has distances
    # from the search's first vertex.
    n = data.draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    colour = st.sampled_from(("a", "A", "b", None))
    colours = data.draw(st.lists(colour, min_size=len(edges),
                                 max_size=len(edges)))
    classes = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    g = _from_edges(n, edges, colours)
    g.classes = data.draw(classes)
    how = data.draw(st.sampled_from(("relabelled", "recoloured", "random")))
    if how == "random":
        h = _from_edges(n, data.draw(st.lists(st.tuples(vertex, vertex),
                                              min_size=len(edges),
                                              max_size=len(edges))), colours)
        h.classes = data.draw(classes)
    else:
        perm = data.draw(st.permutations(range(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges)))
        h = _relabelled(g, perm, flips)
        h.classes = [None] * n
        for v in range(n):
            h.classes[perm[v]] = g.classes[v]
        if how == "recoloured" and edges:
            d = 2 * data.draw(st.integers(0, len(edges) - 1))
            c = data.draw(st.sampled_from(("a", "b", None)))
            h.colour[d], h.colour[d + 1] = c, {"a": "A"}.get(c, c)
    respect_colours, respect_classes = data.draw(st.booleans()), data.draw(
        st.booleans())
    r = data.draw(st.none() | vertex)
    first = min(range(n), key=lambda v: -g.degree(v))
    want = [p for p in brute_force_maps(g, h, respect_colours)
            if r in (None, p[first]) and not (respect_classes and any(
                h.classes[p[v]] != g.classes[v] for v in range(n)))]
    setup = graph_module._map_search(g, h, respect_colours, respect_classes)
    maps = [] if setup is None else setup[2](() if r is None else (r,))
    assert sorted(maps) == want


def test_graph_maps_measure_distances_in_the_first_component_only():
    # The search starts at vertex 1, the middle of the path.  The triangle
    # has no distances from it, and its vertices map to each other freely.
    g = _from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    h = _relabelled(g, [5, 3, 4, 0, 2, 1], [False] * 5)
    maps = brute_force_maps(g, h)
    assert len(maps) == 12 and sorted(graph_maps(g, h)) == maps


def _walk_and_backtracking(g, h, respect_classes, root_image, prefix=()):
    """The maps of ``graph_maps(g, h, respect_colours=True, ...)``, after
    checking that they, the maps of a search with fixed images ``prefix``
    and the vertex and dart maps of ``isomorphic`` are the backtracking
    search's, in its order, and that when no vertex of g or h has two
    out-darts of one colour, the search builds no dart-count table."""
    tabled, dart_counts = [], graph_module._dart_counts
    walks = all(len({x.colour[d] for d in x.out_darts(v)}) == x.degree(v)
                for x in (g, h) for v in range(x.n))

    def counting(out, tau, weight, v):
        tabled.append(v)
        return dart_counts(out, tau, weight, v)

    def run():
        setup = graph_module._map_search(g, h, True, respect_classes)
        first = () if root_image is None else (root_image,)
        return ([] if setup is None else list(setup[2](first)),
                setup and list(setup[2](prefix)),
                isomorphic(g, h, True, respect_classes))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_dart_counts", counting)
        walked = run()
        assert not (walks and tabled)
        mp.setattr(graph_module, "_colour_walk", lambda *args: None)
        assert run() == walked
        assert tabled or g.n == 0 or not walked[0]
    return walked[0]


def _oracle_maps(g, h, respect_classes, root_image):
    first = min(range(g.n), key=lambda v: -g.degree(v))
    return [p for p in brute_force_maps(g, h, colour_preserving=True)
            if root_image in (None, p[first]) and not (respect_classes and any(
                h.classes[p[v]] != g.classes[v] for v in range(g.n)))]


@pytest.mark.parametrize("group,gens", [
    (cyclic_group(1), {"a": 0}), (cyclic_group(5), {"a": 1}),
    (cyclic_group(6), {"a": 2, "b": 3}), (cyclic_group(4), {"a": 1, "b": 2}),
    (dihedral_group(3), {"r": 1, "s": 3})])
def test_colour_walk_matches_backtracking_on_cayley_graphs(group, gens):
    # One out-dart per colour at every vertex, so a root image fixes the
    # map.  Classes by parity make some root images fail.
    g = table_cayley_graph(group, gens)
    rng = random.Random(len(group))
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = _relabelled(g, perm, [rng.random() < 0.5 for _ in range(g.n_edges)])
    for v in range(g.n):
        g.classes[v] = h.classes[perm[v]] = v % 2
    for respect_classes in (False, True):
        for root_image in (None, perm[0], perm[-1]):
            assert sorted(_walk_and_backtracking(
                g, h, respect_classes, root_image)) == _oracle_maps(
                    g, h, respect_classes, root_image)


def test_colour_walk_dart_map_commutes_with_reversal():
    # One out-dart per colour at each vertex, and the colour counts between
    # the two vertices agree, but h reverses a into B and b into A: the
    # vertex map exists, and no dart map commutes with reversal.
    g, h = ColouredGraph(2), ColouredGraph(2)
    g.declare_colour("a", "A")
    g.declare_colour("b", "B")
    h.declare_colour("a", "B")
    h.declare_colour("b", "A")
    for x in (g, h):
        x.add_edge(0, 1, "a")
        x.add_edge(0, 1, "b")
    assert _walk_and_backtracking(g, h, False, None) == [(0, 1)]
    assert isomorphic(g, h, respect_colours=True) is None


def test_colour_walk_needs_one_out_dart_per_colour_in_both_graphs():
    # g has two parallel darts coloured a, h one coloured a and one b: no
    # map keeps the colour counts, though a walk from g would check out.
    g, h = ColouredGraph(2), ColouredGraph(2)
    for x, colours in ((g, "aa"), (h, "ab")):
        for c in colours:
            x.declare_colour(c, c.upper())
            x.add_edge(0, 1, c)
    assert _walk_and_backtracking(g, h, False, None) == []
    assert _walk_and_backtracking(h, g, False, None) == []


@st.composite
def colour_deterministic_multigraphs(draw):
    """A ``multigraphs()`` draw, often disconnected, coloured so that no
    vertex has two out-darts of one colour: each edge takes the first pair
    of (colour, inverse) from a drawn place in a short list that is free at
    both ends, or else a pair of its own.  The list has a self-inverse
    colour, which no loop can take."""
    m = draw(multigraphs(6, 9))
    pairs = [("a", "A"), ("b", "B"), ("c", "c"), ("d", "D")]
    g = ColouredGraph()
    for _ in range(m.n):
        g.add_vertex()
    taken = [set() for _ in range(m.n)]
    for i, d in enumerate(m.edges()):
        u, v = m.edge_ends(d)
        start = draw(st.integers(0, len(pairs) - 1))
        c, c_inv = next(
            ((c, c_inv) for c, c_inv in pairs[start:] + pairs[:start]
             if c not in taken[u] and c_inv not in taken[v]
             and (u != v or c != c_inv)), (f"x{i}", f"X{i}"))
        taken[u].add(c)
        taken[v].add(c_inv)
        g.declare_colour(c, c_inv)
        g.add_edge(u, v, c)
    return g


@settings(deadline=None)
@given(colour_deterministic_multigraphs(), st.data())
def test_colour_walk_matches_backtracking_on_multigraphs(g, data):
    # Relabelled and reoriented copies have maps; a recoloured edge may
    # leave none, or leave h with two out-darts of one colour, where the
    # walk is not used, in either direction.  A prefix fixes the images of
    # the first vertices of the search order.
    n = g.n
    g.classes = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    h = _relabelled(g, perm, data.draw(st.lists(
        st.booleans(), min_size=g.n_edges, max_size=g.n_edges)))
    for v in range(n):
        h.classes[perm[v]] = g.classes[v]
    if g.n_edges and data.draw(st.booleans()):
        d = 2 * data.draw(st.integers(0, g.n_edges - 1))
        h.colour[d], h.colour[d + 1] = data.draw(st.sampled_from(
            [("a", "A"), ("b", "B"), ("c", "c")]))
    respect_classes = data.draw(st.booleans())
    root_image = data.draw(st.none() | st.integers(0, n - 1))
    prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    for x, y in ((g, h), (h, g)):
        assert sorted(_walk_and_backtracking(
            x, y, respect_classes, root_image, prefix)) == _oracle_maps(
                x, y, respect_classes, root_image)


# Small multigraphs, for the symmetry oracles and the stabiliser chain.
SMALL_MULTIGRAPHS = [
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
]


@pytest.mark.parametrize("n,edges", SMALL_MULTIGRAPHS)
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
    return [(n, k) for n in range(3, 17) for k in range(1, (n + 1) // 2)]


def test_petersen_isomorphism_classes():
    # Steimle and Staton: P(n, k) and P(n, l) are isomorphic exactly when
    # k = +-l or kl = +-1 (mod n).
    rng = random.Random(0)
    for n in range(3, 17):
        for l in range(1, (n + 1) // 2):
            h = generalized_petersen(n, l)
            perm = list(range(h.n))
            rng.shuffle(perm)
            h = _relabelled(h, perm, [rng.random() < 0.5
                                      for _ in range(h.n_edges)])
            for k in range(1, (n + 1) // 2):
                want = (k in (l, n - l)) or k * l % n in (1, n - 1)
                found = isomorphic(generalized_petersen(n, k), h)
                assert (found is not None) == want, (n, k, l)


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


def test_vertex_transitivity_keeps_no_transversal():
    # The orbit of vertex 0 stores None at each point.  An element tuple
    # per point of C3000 would hold 3000 tuples of 3000 entries, about
    # 70 MiB; without them the search peaks at about 2 MiB.
    g = cycle_graph(3000)
    tracemalloc.start()
    try:
        assert is_vertex_transitive(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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
    # the orbit of 0 under the automorphisms found before it, and every
    # search runs on one set-up.
    recorded = _recording_searches(monkeypatch)
    assert is_vertex_transitive(g)
    assert len({id(order) for order, _, _ in recorded}) == 1
    searches = [(prefix[0], maps) for _, prefix, maps in recorded]
    found = []
    for v, maps in searches:
        assert v not in _orbit(0, found)
        assert len(maps) == 1 and maps[0][0] == v
        found += maps
    assert _orbit(0, found) == set(range(g.n))


@pytest.mark.parametrize(
    "g", [generalized_petersen(n, k) for n in range(3, 13)
          for k in range(1, (n + 1) // 2)]
    + [complete_graph(n) for n in range(1, 8)]
    + [cycle_graph(n) for n in range(3, 13)]
    + [_from_edges(n, edges) for n, edges in SMALL_MULTIGRAPHS])
def test_automorphism_group_matches_the_search_listing(g):
    # The stabiliser chain's products are the maps of one search over all
    # of Aut(g), which lists each automorphism once.
    assert automorphism_group(g) == sorted(graph_maps(g, g))


def test_automorphism_group_of_the_empty_graph():
    assert automorphism_group(ColouredGraph()) == [()]


@pytest.mark.parametrize("g,order", [
    (complete_graph(8), 40320), (complete_graph(10), 3628800),
    (generalized_petersen(24, 5), 288), (generalized_petersen(30, 11), 120)])
def test_stabiliser_chain_orders(g, order, monkeypatch):
    # |Aut(g)| is the product of the orbit sizes, found without listing:
    # at most one search per level and vertex, each drawing at most one
    # map, where listing K10 drew 3,628,800.  Level i holds, per orbit
    # point u of b_i, an automorphism that fixes b_0 .. b_(i-1) and sends
    # b_i to u.
    searches = _recording_searches(monkeypatch)
    chain = graph_module._stabiliser_chain(g)
    assert len(searches) <= g.n ** 2
    assert all(len(maps) <= 1 for _, _, maps in searches)
    assert math.prod(map(len, chain)) == order
    base = graph_module._map_search(g, g)[0]
    edges = Counter(tuple(sorted(g.edge_ends(d))) for d in g.edges())
    for i, level in enumerate(chain):
        for u, t in level.items():
            assert t[base[i]] == u
            assert all(t[b] == b for b in base[:i])
            assert Counter(tuple(sorted((t[x], t[y])))
                           for x, y in edges.elements()) == edges


def _recording_searches(monkeypatch):
    """Record every search of every ``_map_search`` set-up, as (the search
    order, the prefix, the maps the caller drew)."""
    searches, map_search = [], graph_module._map_search

    def recording(*args, **kwargs):
        order, parent, search, walks = map_search(*args, **kwargs)

        def recorded(prefix):
            searches.append((order, list(prefix), []))
            for a in search(prefix):
                searches[-1][2].append(a)
                yield a

        return order, parent, recorded, walks

    monkeypatch.setattr(graph_module, "_map_search", recording)
    return searches


@pytest.mark.parametrize("g,count", [(generalized_petersen(10, 2), 6),
                                     (complete_graph(6), 5),
                                     (cycle_graph(12), 2),
                                     (generalized_petersen(7, 2), 8)])
def test_stabiliser_chain_searches_only_outside_the_orbit(g, count,
                                                         monkeypatch):
    # Each search fixes b_0 .. b_(i-1), asks for b_i -> w with w outside the
    # orbit of b_i under the maps found before it, and stops at its first
    # map.  Without the orbit test the chain is still right, only slower,
    # so the count of searches is pinned.  P(7,2) is not vertex transitive:
    # one failed search at its first level rules out the inner rim.
    want = len(automorphism_group(g))
    searches = _recording_searches(monkeypatch)
    chain = graph_module._stabiliser_chain(g)
    found = []
    for order, prefix, maps in searches:
        i = len(prefix) - 1
        assert prefix[:i] == order[:i]
        assert prefix[i] not in _orbit(order[i], found)
        assert len(maps) <= 1
        found += maps
    assert len(searches) == count
    assert math.prod(map(len, chain)) == want


@pytest.mark.parametrize("g", [generalized_petersen(12, 2),
                               generalized_petersen(7, 2),
                               generalized_petersen(4, 2)])
def test_is_cayley_stops_at_the_first_vertex_outside_the_first_orbit(
        g, monkeypatch):
    # is_cayley builds the chain's first level first, from its own maps,
    # and a graph that is not vertex transitive costs no deeper level.
    searches = _recording_searches(monkeypatch)
    assert is_cayley(g) is None
    assert all(len(prefix) == 1 for _, prefix, _ in searches)
    assert ([len(maps) for _, _, maps in searches]
            == [1] * (len(searches) - 1) + [0])


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


@pytest.mark.parametrize("text,witnesses", [
    ("classes: 0\ngen a : U : (0)\ngen b : U : (0)\nrel 0 : a b a^-1 b^-1\n",
     [(0,)]),
    ("classes: 0 1\ngen a : U : (0 1)\ngen b : U : (0 1)\n"
     "rel 0 : a b^-1\nrel 1 : a b^-1\n", [(0, 1), (1, 0)]),
], ids=["torus", "two classes"])
def test_symmetry_certificate_lists_each_vertex_map_once(text, witnesses):
    # Several dart maps over one vertex map preserve the cells here (eight
    # for the torus, the identity on its one vertex); the set of
    # automorphisms holds the vertex map once.
    assert presentation_symmetry_implies_vt(parse(text)) == witnesses


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
    # Errors inside runs of lines of one kind and field count: the first
    # bad line, its tail before its head.
    ("vertices 3\nedge 0 1\nedge 1 2\nedge 2 9\nedge 0 x\n", 4, False),
    ("vertices 3\nedge 0 1\nedge 1 9\nedge x 2\n", 3, False),
    ("vertices 2\nedge 5 x\n", 2, False),
    ("vertices 3\nclass 0 a\nclass 1 b\nclass 7 c\n", 4, False),
    ("vertices 3\n\nfoo 1\nfoo 2\n", 3, False),
    ("# c\nvertices 3\n# x\nclass 0 a # y\nedge 0 1\nedge 1 3\n", 6, False),
    # A count no list can hold.
    ("vertices 99999999999999999999\n", 1, False),
]

# The line reader names no line for a missing colour column, and a count no
# list can hold overflows its list of classes.
NOT_AS_THE_LINE_READER = {"vertices 3\nedge 0 1 - c0\nedge 1 2 a\nedge 2 0\n",
                          "vertices 99999999999999999999\n"}


@pytest.mark.parametrize("text,line,coloured", MALFORMED_GRAPH_TEXTS,
                         ids=[f"{text}-{line}" for text, line, _ in MALFORMED_GRAPH_TEXTS])
def test_malformed_graph_text_names_its_line(text, line, coloured):
    with pytest.raises(GraphSyntaxError) as info:
        read_graph(text, coloured=coloured)
    assert info.value.line == line
    if text not in NOT_AS_THE_LINE_READER:
        with pytest.raises(GraphSyntaxError) as want:
            read_graph_by_lines(text, coloured)
        assert str(info.value) == str(want.value)


# Graph texts to mutate: a coloured, classed build, a plain multigraph
# with a loop, and runs of 9 lines (classes, edges with the colour column,
# edges without it), so that mutations land deep inside a run; its numbers
# are all 0, 1 or 2, which leaves room under the bound on their product.
GRAPH_MUTATION_SEEDS = (
    "vertices 4\ncolour a a^-1\nclass 0 x\nclass 1 y\nclass 2 x\nclass 3 y\n"
    "edge 0 1 a\nedge 1 2 a\nedge 2 3 s\nedge 3 0 a^-1\n",
    "# plain\nvertices 3\nedge 0 1\nedge 1 2\nedge 1 2\nedge 2 2\n",
    "vertices 2\n" + "class 0 x\nclass 1 y\n" * 4 + "class 0 x\n"
    + "edge 0 1 a p\nedge 1 0 - q\n" * 4 + "edge 0 1 a p\n"
    + "edge 0 1 b\nedge 1 1 b\n" * 4 + "edge 0 0 b\n")
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
