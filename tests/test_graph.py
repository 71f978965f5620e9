import random

import pytest
from hypothesis import given, strategies as st

from conftest import (brute_force_automorphisms, complete_graph, cycle_graph,
                      scan_connected, scan_out_darts)

from parcay.builder import build_sp, presentation_symmetry_implies_vt
from parcay.constructions import generalized_petersen, petersen_presentation
from parcay.errors import (Disconnected, GraphSyntaxError, NotCayleyLike,
                           SearchBoundExceeded)
from parcay.graph import (ColouredGraph, automorphism_group,
                          cayley_like_witness, dart_bijections, dictated_walk,
                          fundamental_cycle_words, is_cayley,
                          is_vertex_transitive, isomorphic, read_graph, to_dot,
                          walk_word, write_graph)
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
        assert g.inv[g.inv[d]] == d
        assert g.inv[d] != d
    assert g.n_edges * 2 == g.n_darts


def test_loops_count_twice_in_degree():
    g = ColouredGraph()
    v = g.add_vertex()
    g.add_edge(v, v)
    assert g.degree(v) == 2


@st.composite
def multigraphs(draw):
    """Random multigraphs with loops and parallel edges, possibly passed
    through ``subgraph_edges`` or ``copy``."""
    n = draw(st.integers(1, 7))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=14)):
        g.add_edge(u, v)
    how = draw(st.sampled_from(("built", "subgraph", "copy")))
    if how == "subgraph":
        g = g.subgraph_edges([d for d in g.edges() if draw(st.booleans())])
    elif how == "copy":
        g = g.copy()
    return g, draw(st.sets(vertex))


@given(multigraphs())
def test_out_dart_index_matches_a_dart_scan(case):
    g, subset = case
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
    assert g.is_connected(subset) == scan_connected(g, subset)


# -- walks and words -----------------------------------------------------------

def test_dictated_walk_of_empty_word(petersen_sp):
    alph = Alphabet(("a",), ("b",))
    w = dictated_walk(petersen_sp, 3, parse_word("", alph))
    assert w.darts == () and w.start == w.end == 3


def test_triangle_walk_closes():
    g = coloured_triangle()
    alph = Alphabet(("a",), ())
    walk = dictated_walk(g, 0, parse_word("a^3", alph))
    assert walk.is_closed()
    assert not dictated_walk(g, 0, parse_word("a^2", alph)).is_closed()


def test_intro_relation_closes_only_on_its_class(petersen_sp):
    # following b a b a a returns to the start exactly at one class's
    # vertices: the word is a rotation of the a b a^2 b relator
    alph = Alphabet(("a",), ("b",))
    word = parse_word("b a b a a", alph)
    for v in range(petersen_sp.n):
        closed = dictated_walk(petersen_sp, v, word).is_closed()
        assert closed == (petersen_sp.classes[v] == "1")


def test_walk_word_roundtrip(petersen_sp):
    import random
    alph = Alphabet(("a",), ("b",))
    rng = random.Random(1)
    letters = alph.letters()
    for _ in range(50):
        from parcay.words import reduce
        w = reduce([rng.choice(letters) for _ in range(8)], alph)
        walk = dictated_walk(petersen_sp, 0, w)
        assert walk_word(petersen_sp, walk, alph) == w


def test_walk_word_requires_cayley_like():
    g = cycle_graph(4)  # uncoloured
    with pytest.raises(NotCayleyLike):
        dictated_walk(g, 0, parse_word("a", Alphabet(("a",), ())))


def test_cayley_like_witness_rejects_duplicate_colours():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    g.add_edge(0, 1, "a")
    g.add_edge(0, 2, "a")
    assert cayley_like_witness(g) is None


# -- fundamental cycles ---------------------------------------------------------

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
        fundamental_cycle_words(g2, 0)


def test_fundamental_cycles_of_cycle():
    g = coloured_triangle()
    words = fundamental_cycle_words(g, 0)
    assert len(words) == 1
    assert str(words[0]) in ("a^3", "a^-3")


def test_fundamental_cycles_of_petersen(petersen_sp):
    g = petersen_sp
    words = fundamental_cycle_words(g, 0)
    assert len(words) == g.n_edges - g.n + 1 == 6
    for w in words:
        assert dictated_walk(g, 0, w).is_closed()


def test_fundamental_cycles_need_connectivity():
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex()
    g.declare_colour("a", "a^-1")
    g.add_edge(0, 0, "a")
    g.add_edge(1, 1, "a")
    with pytest.raises(Disconnected):
        fundamental_cycle_words(g, 0)


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
        assert dmap[g.inv[d]] == h.inv[dmap[d]]


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
        assert all(dmap[g.inv[d]] == g.inv[dmap[d]] for d in dmap)


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
            d = g.inv[d]
        h.add_edge(perm[g.src(d)], perm[g.tau[d]], g.colour[d],
                   g.colour[g.inv[d]])
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
            assert dmap[g.inv[d]] == h.inv[dmap[d]]


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
    auts = automorphism_group(petersen_sp, "colour_preserving")
    assert len(auts) == 5


@given(st.data())
def test_automorphism_group_matches_brute_force(data):
    n = data.draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    colours = data.draw(st.lists(st.sampled_from(("a", "A", "b")),
                                 min_size=len(edges), max_size=len(edges)))
    g = _from_edges(n, edges, colours)
    assert automorphism_group(g) == brute_force_automorphisms(g)
    assert (automorphism_group(g, "colour_preserving")
            == brute_force_automorphisms(g, colour_preserving=True))


def test_search_bound():
    g = cycle_graph(70)
    with pytest.raises(SearchBoundExceeded):
        automorphism_group(g)


def test_vertex_transitivity():
    assert is_vertex_transitive(generalized_petersen(5, 2))
    assert not is_vertex_transitive(generalized_petersen(4, 2))
    assert is_vertex_transitive(cycle_graph(7))


def test_is_cayley():
    assert is_cayley(generalized_petersen(5, 2)) is None
    gens = is_cayley(cycle_graph(6))
    assert gens is not None
    from parcay.graph import mulclose
    group = mulclose(set(gens) | {tuple(range(6))})
    assert len(group) == 6 and len({p[0] for p in group}) == 6


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


@pytest.mark.parametrize("text,line", [
    ("vertices 3\nedge 1 7\n", 2),
    ("vertices 3\nedge 0 x\n", 2),
    ("vertices 3\n\nedge 1 -1\n", 3),
    ("vertices 3\nclass 3 a\n", 2),
    ("vertices -2\n", 1),
    ("edge 0 1\nvertices 2\n", 1),
    ("class 0 a\nvertices 2\n", 1),
    ("vertices 2\nvertices 2\n", 2),
    ("vertices 2\nedge 0\n", 2),
    ("vertices 2\nedge 0 1 a b\n", 2),
    ("vertices 2\nvertex 0\n", 2),
])
def test_malformed_graph_text_names_its_line(text, line):
    with pytest.raises(GraphSyntaxError) as info:
        read_graph(text)
    assert info.value.line == line


def test_dot_export(petersen_sp):
    dot = to_dot(petersen_sp)
    assert dot.startswith("graph {")
    assert "color=" in dot


def test_dictated_walk_inverts_walk_word(petersen_sp):
    # spur-free random walks survive the word roundtrip
    import random
    from parcay.graph import cayley_like_witness
    g = petersen_sp
    witness = cayley_like_witness(g)
    rng = random.Random(7)
    for _ in range(40):
        v = rng.randrange(g.n)
        darts, here, last = [], v, None
        for _ in range(9):
            options = [d for d in witness[here].values() if d != last]
            d = rng.choice(options)
            darts.append(d)
            last = g.inv[d]
            here = g.tau[d]
        from parcay.graph import Walk
        walk = Walk(g, v, darts)
        word = walk_word(g, walk)
        assert dictated_walk(g, v, word) == walk
