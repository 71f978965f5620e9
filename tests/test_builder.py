from collections import Counter

import pytest

from parcay.acceptance import (counterexample_expected_graph,
                               counterexample_presentations,
                               line_petersen_presentation)
from parcay.builder import (ball_sp, build_sp, check_cover, check_relator_closure,
                            deck_group, invariant_report, presentation_complex,
                            presentation_graph, vertex_group_order)
from parcay.constructions import petersen_presentation
from parcay.errors import Overflow
from parcay.graph import (ColouredGraph, automorphism_group, isomorphic,
                          write_graph)
from parcay.presentation import PartitePresentation, from_two_partite
from parcay.words import Alphabet, ClassAction, parse_word


def one_class(u_gens, relator_texts, i_gens=()):
    alph = Alphabet(tuple(u_gens), tuple(i_gens))
    act = ClassAction(alph, ("0",), {g: {"0": "0"} for g in alph.names})
    rels = [parse_word(t, alph) for t in relator_texts]
    return PartitePresentation(("0",), alph, act, {"0": rels})


def petersen():
    return from_two_partite(petersen_presentation(5, 2))


# -- presentation graph ---------------------------------------------------------

def test_presentation_graph_petersen():
    c = presentation_graph(petersen())
    assert c.n == 2
    assert c.degree(0) == c.degree(1) == 3
    loops = [d for d in c.edges() if c.is_loop(d)]
    assert len(loops) == 2  # one a-loop per class


def test_presentation_graph_rose():
    c = presentation_graph(one_class(["a"], []))
    assert c.n == 1 and c.degree(0) == 2


def test_presentation_graph_line_petersen():
    c = presentation_graph(line_petersen_presentation())
    assert c.n == 3
    assert all(c.degree(v) == 4 for v in range(3))


def test_presentation_complex_cells_close():
    complex_ = presentation_complex(petersen())
    assert len(complex_.cells) == 3
    for x, r, darts in complex_.cells:
        walk_start = complex_.graph.vertex(x)
        here = walk_start
        for d in darts:
            assert complex_.graph.src(d) == here
            here = complex_.graph.tau[d]
        assert here == walk_start


# -- build_sp ----------------------------------------------------------------------

def test_build_petersen(petersen_sp):
    assert petersen_sp.n == 10
    assert petersen_sp.n_edges == 15
    assert petersen_sp.class_sizes() == {"0": 5, "1": 5}


def test_build_triangle():
    g = build_sp(one_class(["a"], ["a^3"]))
    assert g.n == 3 and g.n_edges == 3


def test_build_counterexample_matches_figure():
    verbatim, closing = counterexample_presentations()
    with pytest.raises(Overflow):
        build_sp(from_two_partite(verbatim), max_rows=2000)
    sp = build_sp(from_two_partite(closing))
    expected = counterexample_expected_graph()
    assert isomorphic(sp, expected, respect_colours=True,
                      respect_classes=True) is not None
    multiplicities = Counter(tuple(sorted(sp.edge_ends(d))) for d in sp.edges())
    assert sorted(multiplicities.values()) == [1, 1, 2, 2, 2]


def test_build_line_petersen():
    sp = build_sp(line_petersen_presentation())
    assert sp.n == 15
    assert sp.is_regular() and sp.degree(0) == 4


def test_build_is_deterministic():
    a = write_graph(build_sp(petersen()))
    b = write_graph(build_sp(petersen()))
    assert a == b


def test_overflow_on_free_presentation():
    with pytest.raises(Overflow):
        build_sp(one_class(["a", "b"], []), max_rows=50)


# -- ball_sp ----------------------------------------------------------------------

def test_ball_of_free_presentation():
    g = ball_sp(one_class(["a", "b"], []), radius=2)
    assert g.n == 1 + 4 + 12
    assert g.meta["frontier"] == {v for v in range(g.n)
                                  if g.meta["distance"][v] == 2}


def test_ball_of_integer_line():
    g = ball_sp(one_class(["a"], []), radius=3)
    assert g.n == 7
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1, 1, 2, 2, 2, 2, 2]


def test_ball_stabilises_on_finite_graph(petersen_sp):
    g = ball_sp(petersen(), radius=12)
    assert g.n == 10
    assert g.meta["frontier"] == set()
    assert isomorphic(g, petersen_sp, respect_colours=True) is not None


def test_small_margin_identifies_less():
    # with no scan margin, relators are only scanned where they fit inside
    # the radius itself; the window is coarser but still validates
    coarse = ball_sp(petersen(), radius=6, scan_margin=0)
    exact = ball_sp(petersen(), radius=6)
    assert exact.n == 10
    assert coarse.n >= exact.n


def test_ball_of_infinite_caterpillar():
    verbatim, _ = counterexample_presentations()
    g = ball_sp(from_two_partite(verbatim), radius=3)
    assert g.meta["frontier"]
    assert all(g.degree(v) == 4
               for v in range(g.n) if v not in g.meta["frontier"])


# -- vertex groups and invariants ----------------------------------------------------

def test_vertex_group_orders():
    p = petersen()
    assert vertex_group_order(p, "0") == 5
    assert vertex_group_order(p, "1") == 5
    assert vertex_group_order(one_class(["a"], ["a^7"]), "0") == 7
    lp = line_petersen_presentation()
    assert [vertex_group_order(lp, x) for x in lp.classes] == [5, 5, 5]


def test_cover_and_closure_checks(petersen_sp):
    p = petersen()
    assert check_cover(petersen_sp, p)
    assert check_relator_closure(petersen_sp, p)


def test_deck_group_acts_regularly(petersen_sp):
    autos = deck_group(petersen_sp)
    assert len(autos) == 5
    for cls in ("0", "1"):
        fibre = [v for v in range(petersen_sp.n)
                 if petersen_sp.classes[v] == cls]
        assert {a[fibre[0]] for a in autos} == set(fibre)


def test_deck_group_needs_one_out_dart_per_colour():
    g = ColouredGraph()
    for _ in range(2):
        g.add_vertex(cls="0")
    g.add_edge(0, 1, "a")
    g.add_edge(0, 1, "a")
    assert deck_group(g) is None


@pytest.mark.parametrize("p", [petersen(), from_two_partite(
    counterexample_presentations()[1])], ids=["petersen", "counterexample"])
def test_deck_group_is_the_class_preserving_colour_group(p):
    sp = build_sp(p)
    autos = deck_group(sp)
    assert autos
    assert autos == [a for a in automorphism_group(sp, "colour_preserving")
                     if all(sp.classes[a[v]] == sp.classes[v]
                            for v in range(sp.n))]


def test_invariant_report_all_green():
    tp = petersen_presentation(7, 2)
    report = invariant_report(from_two_partite(tp), tp_s1=tp.s1)
    assert all(report.values()), report


def test_stay_inside_subgraph_splits_into_isomorphic_halves(petersen_sp):
    # the a-coloured subgraph restricted to either class yields two
    # colour-isomorphic components (here: two directed 5-cycles)
    g = petersen_sp
    halves = []
    for cls in ("0", "1"):
        darts = [d for d in g.edges()
                 if g.colour[d] in ("a", "a^-1")
                 and g.classes[g.src(d)] == cls and g.classes[g.tau[d]] == cls]
        halves.append(g.subgraph_edges(darts))
    assert isomorphic(halves[0], halves[1], respect_colours=True) is not None


@pytest.mark.parametrize("gens,rels,order", [
    (["a"], ["a^12"], 12),
    (["a", "b"], ["a^3", "b^2", "(ab)^2"], 6),           # symmetric group S3
    (["a", "b"], ["a^4", "b^2", "(ab)^2"], 8),           # dihedral of order 8
    (["a", "b"], ["a^4", "a^2 b^-2", "b a b^-1 a"], 8),  # quaternion group
    (["a", "b"], ["a^2", "b^3", "(ab)^3"], 12),          # alternating group A4
    (["a", "b"], ["a^2", "b^2", "(ab)^4"], 8),
])
def test_one_class_builds_match_group_orders(gens, rels, order):
    from parcay.constructions import cayley_graph
    assert cayley_graph(gens, rels).n == order


def test_coincidence_collapse_of_equal_generators():
    # a b^-1 forces the two generators to label parallel edges
    from parcay.constructions import cayley_graph
    g = cayley_graph(["a", "b"], ["a b^-1", "a^5"])
    assert g.n == 5 and g.n_edges == 10
    assert g.is_regular() and g.degree(0) == 4


def test_doubled_inner_petersen_builds():
    from parcay.constructions import generalized_petersen
    sp = build_sp(from_two_partite(petersen_presentation(6, 3)))
    assert isomorphic(sp, generalized_petersen(6, 3)) is not None
