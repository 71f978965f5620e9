from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import cycle_graph, group_law_tables, triple_scan_table_error

from parcay.builder import build_sp
from parcay.constructions import (FiniteGroupTable, bi_cayley, cayley_graph,
                                  cubic_no_perfect_matching, cyclic_group,
                                  dihedral_group, generalized_petersen,
                                  line_graph, line_graph_presentation,
                                  parse_auto_word, petersen_presentation,
                                  two_ended_adjacent, two_ended_auto,
                                  two_ended_window, two_ended_word)
from parcay.errors import (BadParameters, LoopsUnsupported, NotSymmetric,
                           ParcayError)
from parcay.graph import ColouredGraph, is_vertex_transitive, isomorphic
from parcay.presentation import from_two_partite, validate
from parcay.words import parse_word


# -- generalized Petersen graphs -----------------------------------------------

def test_petersen_counts():
    g = generalized_petersen(5, 2)
    assert g.n == 10 and g.n_edges == 15
    assert g.is_regular() and g.degree(0) == 3


def test_p41_is_the_cube():
    cube = ColouredGraph()
    for _ in range(8):
        cube.add_vertex()
    for v in range(8):
        for bit in (1, 2, 4):
            if v < v ^ bit:
                cube.add_edge(v, v ^ bit)
    assert isomorphic(generalized_petersen(4, 1), cube) is not None


def test_p42_has_doubled_inner_edges():
    g = generalized_petersen(4, 2)
    mult = Counter(tuple(sorted(g.edge_ends(d))) for d in g.edges())
    assert max(mult.values()) == 2
    assert g.n == 8 and g.n_edges == 12
    assert not is_vertex_transitive(g)


def test_petersen_bad_parameters():
    with pytest.raises(BadParameters):
        generalized_petersen(2, 1)
    with pytest.raises(BadParameters):
        generalized_petersen(5, 5)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 1), (7, 2)])
def test_petersen_presentation_rebuilds(n, k):
    sp = build_sp(from_two_partite(petersen_presentation(n, k)))
    assert isomorphic(sp, generalized_petersen(n, k)) is not None


def test_petersen_presentation_n1_gives_prism():
    # circular ladder built directly
    n = 6
    prism = ColouredGraph()
    for _ in range(2 * n):
        prism.add_vertex()
    for i in range(n):
        prism.add_edge(i, (i + 1) % n)
        prism.add_edge(n + i, n + (i + 1) % n)
        prism.add_edge(i, n + i)
    sp = build_sp(from_two_partite(petersen_presentation(n, 1)))
    assert isomorphic(sp, prism) is not None


# -- groups and bi-Cayley graphs ---------------------------------------------------

def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable(["e", "x"], [[0, 1], [1, 1]])
    g = cyclic_group(4)
    assert g.inv(1) == 3
    d = dihedral_group(5)
    assert len(d) == 10
    s = d.index("r0s")
    assert d.mul(s, s) == d.identity


@settings(max_examples=300, deadline=None)
@given(group_law_tables())
def test_group_table_checks_agree_with_the_triple_scan(case):
    # Light's test over a greedy generating set gives the verdict, and the
    # message, of the check over every triple.
    _, table = case
    try:
        FiniteGroupTable([f"x{i}" for i in range(len(table))], table)
        error = None
    except ValueError as e:
        error = str(e)
    assert error == triple_scan_table_error(table)


def test_bi_cayley_petersen_example():
    g = bi_cayley(cyclic_group(5), [1, 4], [2, 3], [0])
    assert isomorphic(g, generalized_petersen(5, 2)) is not None


def test_bi_cayley_matching_only():
    group = cyclic_group(4)
    g = bi_cayley(group, [], [], [group.identity])
    assert g.n == 8 and g.n_edges == 4
    assert all(g.degree(v) == 1 for v in range(g.n))


def test_bi_cayley_haar_k33():
    g = bi_cayley(cyclic_group(3), [], [], [0, 1, 2])
    k33 = ColouredGraph()
    for _ in range(6):
        k33.add_vertex()
    for i in range(3):
        for j in range(3):
            k33.add_edge(i, 3 + j)
    assert isomorphic(g, k33) is not None


def test_bi_cayley_degrees():
    g = bi_cayley(cyclic_group(7), [1, 6], [2, 5], [0, 3])
    for v in range(g.n):
        assert g.degree(v) == 4


def test_bi_cayley_rejects_asymmetric_sets():
    with pytest.raises(NotSymmetric):
        bi_cayley(cyclic_group(5), [1], [2, 3], [0])


@pytest.mark.parametrize("R,L,S", [([], [], [5]), ([], [], [-1]),
                                   ([1, -1], [], [0]), ([], [7], [0])])
def test_bi_cayley_takes_only_element_indices(R, L, S):
    # An index past the group, or a negative one, is not an element.
    with pytest.raises(BadParameters):
        bi_cayley(cyclic_group(5), R, L, S)


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_group_needs_positive_order(n):
    with pytest.raises(BadParameters):
        cyclic_group(n)


# -- Cayley graphs and line graphs ----------------------------------------------------

def test_cayley_graph_standard_semantics():
    g = cayley_graph(["a", "b"], ["a^5", "b^2", "a b a^-1 b^-1"])
    assert g.n == 10
    assert g.degree(0) == 4  # the involution contributes a parallel pair
    mult = Counter(tuple(sorted(g.edge_ends(d))) for d in g.edges())
    assert sorted(mult.values()).count(2) == 5


def test_line_graph_of_k3():
    from conftest import complete_graph
    k3 = complete_graph(3)
    assert isomorphic(line_graph(k3), k3) is not None


def test_line_graph_of_petersen():
    lg = line_graph(generalized_petersen(5, 2))
    assert lg.n == 15
    assert lg.is_regular() and lg.degree(0) == 4


def test_line_graph_of_k4_is_octahedron():
    from conftest import complete_graph
    octa = ColouredGraph()
    for _ in range(6):
        octa.add_vertex()
    for i in range(6):
        for j in range(i + 1, 6):
            if j - i != 3:
                octa.add_edge(i, j)
    assert isomorphic(line_graph(complete_graph(4)), octa) is not None


def test_line_graph_rejects_loops():
    g = ColouredGraph()
    g.add_vertex()
    g.add_edge(0, 0)
    with pytest.raises(LoopsUnsupported):
        line_graph(g)


def test_line_graph_of_parallel_edges():
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    lg = line_graph(g)
    assert lg.n == 2 and lg.n_edges == 2  # joined once per shared endpoint


# -- line-graph presentations ----------------------------------------------------------

def test_line_graph_presentation_d10():
    gens, rels = ["a", "b"], ["a^5", "b^2", "a b a^-1 b^-1"]
    p = line_graph_presentation(gens, rels).presentation
    assert p.classes == ("a", "b")
    assert validate(p) == []
    w = lambda t: parse_word(t, p.alphabet)
    assert w("e^5") in p.relators["a"]
    assert w("e^2") in p.relators["b"]
    assert w("m0_pp m0_pm m0_pp^-1 m0_mp") in p.relators["a"]
    for star in ("e m0_mp m0_pp^-1", "e m0_pp^-1 m0_pm",
                 "m0_pp e^-1 m0_pm", "m0_mp e^-1 m0_pp"):
        assert w(star) in p.relators["a"]
    sp = build_sp(p)
    assert sp.n == 20
    assert isomorphic(sp, line_graph(cayley_graph(gens, rels))) is not None


def test_line_graph_presentation_single_generator():
    res = line_graph_presentation(["a"], ["a^6"])
    p = res.presentation
    assert len(p.classes) == 1
    sp = build_sp(p)
    assert isomorphic(sp, cycle_graph(6)) is not None


def test_line_graph_presentation_three_generators():
    # Z/2 x Z/2 x Z/2-flavoured presentation with three free generators of
    # order 4: classes = generators
    gens, rels = ["a", "b"], ["a^4", "b^4", "a b a^-1 b^-1", "a^2 b^2"]
    p = line_graph_presentation(gens, rels).presentation
    assert len(p.classes) == 2
    sp = build_sp(p)
    line = line_graph(cayley_graph(gens, rels))
    assert sp.n == line.n
    assert isomorphic(sp, line) is not None


def test_line_graph_presentation_of_an_infinite_group():
    # Nothing is enumerated, so Z x Z gives its presentation: the line
    # graph of the 4-regular grid is 6-regular.
    p = line_graph_presentation(["a", "b"], ["a b a^-1 b^-1"]).presentation
    assert p.classes == ("a", "b")
    assert validate(p) == []
    assert p.degree() == 6


def test_chi_respects_inversion():
    res = line_graph_presentation(
        ["a", "b", "c"], ["a^2", "b^2", "c^2", "(ab)^2", "(ac)^2", "(bc)^2"])
    alph = res.presentation.alphabet
    signed = [(n, s) for n in ("a", "b", "c") for s in (1, -1)]
    for x in signed:
        for y in signed:
            if y == (x[0], -x[1]):
                continue
            code = res.chi(x, y)
            mirrored = res.chi((y[0], -y[1]), (x[0], -x[1]))
            assert mirrored == alph.inverse_letter(code)


# -- the two-ended cubic graph -----------------------------------------------------------

def test_window_counts():
    g = two_ended_window(-2, 2)
    assert g.n == 50
    interior = [v for v in range(g.n) if -2 < g.names[v][0] < 2]
    assert all(g.degree(v) == 3 for v in interior)


def test_layers_are_ten_cycles():
    g = two_ended_window(-1, 1)
    ring = [d for d in g.edges() if g.colour[d] == "ring"
            and g.names[g.src(d)][0] == 0]
    assert len(ring) == 10


def test_window_is_at_least_one_layer():
    g = two_ended_window(3, 3)
    assert g.n == 10 and g.n_edges == 10       # one layer: a 10-cycle
    with pytest.raises(BadParameters):
        two_ended_window(3, 2)


def test_sigma_and_tau_examples():
    assert two_ended_auto("sigma", (0, 0)) == (1, 0)
    assert two_ended_auto("tau", (1, 4)) == (-1, 9)   # 3 - 4 mod 10
    word = parse_auto_word("t^-3 s t s")
    assert two_ended_word(word, (0, 0)) == (0, 0)
    assert two_ended_word(word, (0, 1)) == (0, 9)


@pytest.mark.parametrize("text", ["soup", "t^x", "s t^", "(s t"])
def test_auto_words_use_the_word_grammar(text):
    with pytest.raises(ParcayError):
        parse_auto_word(text)


def test_auto_word_letters_may_be_juxtaposed():
    assert parse_auto_word("st") == [("sigma", 1), ("tau", 1)]
    assert parse_auto_word("(st)^-1") == [("tau", -1), ("sigma", -1)]


def test_auto_words_keep_the_letters_as_written():
    assert parse_auto_word("t t^-1") == [("tau", 1), ("tau", -1)]
    assert parse_auto_word("s^2 s^-1") == [("sigma", 1)] * 2 + [("sigma", -1)]


def test_named_tau_maps_are_mutually_inverse():
    for n in range(-5, 6):
        for k in range(10):
            v = (n, k)
            assert two_ended_auto("tau^-1", two_ended_auto("tau", v)) == v
            assert two_ended_auto("tau", two_ended_auto("tau^-1", v)) == v


def test_tau_inverse_is_inverse():
    for n in range(-5, 6):
        for k in range(10):
            v = (n, k)
            assert two_ended_word(parse_auto_word("t t^-1"), v) == v
            assert two_ended_word(parse_auto_word("t^-1 t"), v) == v


def test_derived_maps_match_their_words():
    sample = [(n, k) for n in range(-4, 5) for k in range(10)]
    for v in sample:
        assert (two_ended_auto("tau_tilde", v)
                == two_ended_word(parse_auto_word("s t s"), v))
        assert (two_ended_auto("sigma_tilde", v)
                == two_ended_word(parse_auto_word("s t^-1 s t s"), v))


def test_derived_inverses_match_the_inverse_words():
    for n in range(-9, 10):
        for k in range(10):
            v = (n, k)
            assert (two_ended_auto("sigma_tilde^-1", v)
                    == two_ended_word(parse_auto_word("s^-1 t^-1 s^-1 t s^-1"), v))
            assert (two_ended_auto("tau_tilde^-1", v)
                    == two_ended_word(parse_auto_word("s^-1 t^-1 s^-1"), v))
            assert (two_ended_word([("tau_tilde", -1)], v)
                    == two_ended_auto("tau_tilde^-1", v))
    with pytest.raises(BadParameters):
        two_ended_auto("rho^-1", (0, 0))


def test_automorphisms_preserve_edges():
    g = two_ended_window(-4, 4)
    for d in g.edges():
        u, v = g.names[g.src(d)], g.names[g.tau[d]]
        if not (-4 < u[0] < 4 and -4 < v[0] < 4):
            continue
        for name in ("sigma", "tau", "sigma_tilde", "tau_tilde"):
            assert two_ended_adjacent(two_ended_auto(name, u),
                                      two_ended_auto(name, v))


def test_transitivity_witness():
    for (n, k) in [(-3, 7), (0, 1), (2, 9), (4, 4)]:
        word = [("sigma", 1)] * n if n >= 0 else [("sigma", -1)] * (-n)
        word = word + [("tau", 1)] * k
        assert two_ended_word(word, (0, 0)) == (n, k)


def test_stabiliser_words_up_to_length_eight():
    # every reduced word of length <= 8 fixing the base vertex acts either
    # as the identity or as the known involution
    letters = [("sigma", 1), ("sigma", -1), ("tau", 1), ("tau", -1)]
    sample = [(n, k) for n in range(-2, 3) for k in range(10)]
    stab = parse_auto_word("t^-3 s t s")
    stab_map = tuple(two_ended_word(stab, v) for v in sample)
    id_map = tuple(sample)
    found = {"id": 0, "stab": 0}

    def rec(word, last):
        if word and two_ended_word(word, (0, 0)) == (0, 0):
            image = tuple(two_ended_word(word, v) for v in sample)
            assert image in (id_map, stab_map)
            found["id" if image == id_map else "stab"] += 1
        if len(word) == 6:
            return
        for l in letters:
            if last and l == (last[0], -last[1]):
                continue
            rec(word + [l], l)

    rec([], None)
    assert found["stab"] > 0


def test_claim_seven_fixed_points():
    def compose(names):
        def f(v):
            for name in reversed(names):
                v = two_ended_auto(name, v)
            return v
        return f

    cases = [
        (("tau", "sigma_tilde", "tau", "sigma_tilde"), (0, 3)),
        (("tau_tilde", "sigma", "tau_tilde", "sigma"), (0, 2)),
        (("tau_tilde", "sigma_tilde", "tau_tilde", "sigma_tilde"), (0, 9)),
    ]
    sample = [(0, k) for k in range(10)]
    for names, fixed in cases:
        f = compose(names)
        assert f(fixed) == fixed
        assert any(f(v) != v for v in sample)


def test_cubic_counterexample_shape():
    g = cubic_no_perfect_matching()
    assert g.n == 22 and g.n_edges == 33
    assert g.is_regular() and g.degree(0) == 3
