import bisect
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (action_darts, alphabet_graph_quotient, free_product_balls,
                      petersen, power_presentations, relators_close_within,
                      rotation_closed_presentations, scan_everything_is_closed,
                      scan_everything_run, settle, table_cayley_graph,
                      table_distances)

from parcay.acceptance import (counterexample_expected_graph,
                               counterexample_presentations,
                               line_petersen_presentation)
from parcay.builder import (CosetTable, ball_sp, ball_table, build_sp,
                            check_cover, check_deck_regular,
                            check_relator_closure,
                            check_two_partite_discipline, deck_group,
                            invariant_report, presentation_complex,
                            presentation_graph)
from parcay.constructions import (FiniteGroupTable, dihedral_group,
                                  line_graph_presentation, petersen_presentation)
from parcay.errors import BadParameters, Overflow
from parcay.graph import ColouredGraph, graph_maps, isomorphic, write_graph
from parcay.presentation import PartitePresentation, from_two_partite, parse
from parcay.words import Alphabet, ClassAction, Word, parse_word


def one_class(u_gens, relator_texts, i_gens=()):
    alph = Alphabet(tuple(u_gens), tuple(i_gens))
    act = ClassAction(alph, ("0",), {g: {"0": "0"} for g in alph.names})
    rels = [parse_word(t, alph) for t in relator_texts]
    return PartitePresentation(("0",), alph, act, {"0": rels})


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_presentation_graph_matches_the_action(data):
    # Random class actions: free generators act by any permutation, fixed
    # points included; involutive ones by a fixed-point-free involution.
    n = data.draw(st.integers(1, 7), label="classes")
    classes = tuple(f"c{i}" for i in range(n))
    u_gens = tuple(f"a{i}" for i in range(data.draw(st.integers(0, 3))))
    i_gens = tuple(f"b{i}" for i in range(
        data.draw(st.integers(0, 2)) if n % 2 == 0 else 0))
    images = {}
    for name in u_gens:
        images[name] = dict(zip(classes, data.draw(st.permutations(classes))))
    for name in i_gens:
        perm = data.draw(st.permutations(classes))
        images[name] = {**dict(zip(perm[::2], perm[1::2])),
                        **dict(zip(perm[1::2], perm[::2]))}
    alphabet = Alphabet(u_gens, i_gens)
    p = PartitePresentation(classes, alphabet,
                            ClassAction(alphabet, classes, images), {})
    c = presentation_graph(p)
    assert c.names == c.classes == list(classes)
    darts = Counter((c.names[c.src(d)], c.names[c.tau[d]], c.colour[d])
                    for d in range(c.n_darts))
    assert darts == action_darts(p)


def test_presentation_complex_cells_close():
    p = petersen()
    complex_ = presentation_complex(p)
    assert len(complex_.cells) == 3
    for x, r, darts in complex_.cells:
        walk_start = p.classes.index(x)
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


def _abelian_group(m, n):
    """Z_m x Z_n, element (i, j) numbered i * n + j."""
    table = [[((x // n + y // n) % m) * n + (x % n + y % n) % n
              for y in range(m * n)] for x in range(m * n)]
    return FiniteGroupTable([f"{x // n},{x % n}" for x in range(m * n)], table)


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(1, 9))
def test_build_matches_the_table_cayley_graph_of_abelian_groups(m, n):
    sp = build_sp(one_class(["a", "b"], [f"a^{m}", f"b^{n}", "a b a^-1 b^-1"]))
    # a = (1, 0) and b = (0, 1), either of which is 0 in a trivial factor.
    oracle = table_cayley_graph(_abelian_group(m, n),
                                {"a": (1 % m) * n, "b": 1 % n})
    assert sp.n == m * n
    assert isomorphic(sp, oracle, respect_colours=True,
                      respect_classes=True) is not None


@settings(deadline=None)
@given(st.integers(3, 12))
def test_build_matches_the_table_cayley_graph_of_dihedral_groups(n):
    sp = build_sp(one_class(["r", "s"], [f"r^{n}", "s^2", "(r s)^2"]))
    # In dihedral_group(n), element 1 is r and element n is s.
    oracle = table_cayley_graph(dihedral_group(n), {"r": 1, "s": n})
    assert sp.n == 2 * n
    assert isomorphic(sp, oracle, respect_colours=True,
                      respect_classes=True) is not None


FREE_F2 = "classes: 0\ngen a : U : (0)\ngen b : U : (0)\n"
FREE_Z2_Z = FREE_F2 + "rel 0 : a^2\n"


def _abelian_line(orders):
    """The line presentation of the Cayley graph of Z_{o1} x ... x Z_{ok}
    on its k standard generators, as the enumerate benchmark writes it."""
    gens = [f"s{i}" for i in range(len(orders))]
    rels = [f"{g}^{o}" for g, o in zip(gens, orders)]
    rels += [f"{x} {y} {x}^-1 {y}^-1" for i, x in enumerate(gens)
             for y in gens[i + 1:]]
    return line_graph_presentation(gens, rels).presentation


@pytest.mark.parametrize("make,vertices,stats", [
    (lambda: build_sp(petersen()), 10,
     {"rows": 15, "coincidences": 5, "scans": 7}),
    (lambda: build_sp(from_two_partite(petersen_presentation(200, 3))), 400,
     {"rows": 800, "coincidences": 400, "scans": 202}),
    # The shape that the enumerate benchmark builds: one scan of a^799 per
    # a-cycle, not per row.
    (lambda: build_sp(from_two_partite(petersen_presentation(799, 3))), 1598,
     {"rows": 3196, "coincidences": 1598, "scans": 801}),
    (lambda: ball_sp(parse(FREE_F2), 4), 161,
     {"rows": 161, "coincidences": 0, "scans": 0}),
    (lambda: ball_sp(parse(FREE_Z2_Z), 6), 190,
     {"rows": 254, "coincidences": 0, "scans": 127}),
    (lambda: ball_sp(parse(FREE_F2 + "rel 0 : a^5\n"), 8), 10269,
     {"rows": 26505, "coincidences": 0, "scans": 5301}),
    # The line presentations list every rotation of a relator, and of its
    # inverse, at the class where it starts, so one closed walk certifies
    # them all: 27,817 and 258 scans before the echo tables.
    (lambda: build_sp(_abelian_line((3, 3, 3, 3))), 324,
     {"rows": 503, "coincidences": 179, "scans": 5459}),
    (lambda: build_sp(line_graph_presentation(
        ["a", "b"], ["a^5", "b^2", "a b a^-1 b^-1"]).presentation), 20,
     {"rows": 23, "coincidences": 3, "scans": 79}),
], ids=["P(5,2)", "P(200,3)", "P(799,3)", "F2 ball r4", "Z2*Z ball r6",
        "Z5*Z ball r8", "L(Z3^4)", "criterion 7"])
def test_builder_counters_are_pinned(make, vertices, stats):
    g = make()
    assert g.n == vertices
    assert g.meta["stats"] == stats


def _table_state(t):
    # Each row's root, not the raw parent list: path compression in a find
    # that one side makes and the other skips rewrites parent, not roots.
    roots = [t.find(r) for r in range(len(t.parent))]
    return t.table, roots, t.dist, t.cls, t.coincidences, t.version


def _run(table, run):
    try:
        return run(table)
    except Overflow:
        return None


def _closing_walks(table, is_closed):
    """``is_closed(table)`` and the number of relator walks that it checked
    closure with: ``_echo`` for a relator with an echo table, which ``run``
    builds at a power's first closure and at any other relator's second,
    else ``scan_closes``.  These are all of its walks."""
    walks = 0

    def counted(walk):
        def counted_walk(*args):
            nonlocal walks
            walks += 1
            return walk(*args)
        return counted_walk

    table.scan_closes, table._echo = counted(table.scan_closes), counted(table._echo)
    try:
        return is_closed(table), walks
    finally:
        del table.scan_closes, table._echo


@pytest.mark.parametrize("make,walks,pairs", [
    (lambda: _abelian_line((3, 3, 3, 3)), 5130, 28026),
    (lambda: from_two_partite(petersen_presentation(200, 3)), 202, 600),
    (lambda: one_class(["a"], ["a^5"]), 1, 5),
], ids=["L(Z3^4)", "P(200,3)", "<a | a^5>"])
def test_is_closed_walks_are_pinned(make, walks, pairs):
    # is_closed checks every relator at every live row of its class, and a
    # closed walk certifies the rotations of its relator, powers included,
    # at the rows it passes.  A certificate lost here fails this test, not
    # only a slower run.
    table = CosetTable(make())
    table.run()
    assert sum(len(table.relators[table.cls[v]])
               for v in table.live_rows()) == pairs
    assert _closing_walks(table, CosetTable.is_closed) == (True, walks)


@settings(max_examples=400, deadline=None)
@given(power_presentations() | rotation_closed_presentations(),
       st.integers(1, 40) | st.just(400), st.none() | st.integers(0, 8),
       st.data())
def test_run_and_is_closed_match_the_scan_everything_oracle(p, max_rows, max_dist,
                                                            data):
    # Skipping the scans that a closed walk has certified, of powers and
    # their inverse powers along its cycle and of rotations along its walk,
    # leaves the table as scanning everything leaves it, row for row, also
    # when the row budget runs out, and walks no more.  With every rotation
    # listed, as in rotation_closed_presentations, most scans are skipped.
    new = CosetTable(p, max_rows=max_rows, max_dist=max_dist)
    old = CosetTable(p, max_rows=max_rows, max_dist=max_dist)
    finished = _run(new, CosetTable.run)
    assert finished == _run(old, scan_everything_run)
    assert _table_state(new) == _table_state(old)
    assert new.scans <= old.scans
    closed, walks = _closing_walks(new, CosetTable.is_closed)
    oracle, oracle_walks = _closing_walks(new, scan_everything_is_closed)
    assert closed == oracle and walks <= oracle_walks
    # Each live row's dist is its BFS distance in the table, at any stop.
    assert table_distances(new) == {r: new.dist[r] for r in new.live_rows()}
    if max_dist is not None and finished is not None:
        # A finished budgeted run leaves no relator open within the budget;
        # a scan at the budget defines rows at most its relator's length
        # minus one beyond it.
        longest = max((len(r) for _, r in p.all_relators()), default=1)
        assert max(new.dist) <= max_dist + longest - 1
        before = new.version
        settle(new)
        assert new.version == before
    # The table judged against powers that were not enumerated: they close
    # on the cycles whose length divides them, and nowhere else.
    free = p.alphabet.letters()[:2 * len(p.alphabet.u_gens)]
    powers = st.builds(lambda s, e: Word(p.alphabet, [s] * e),
                       st.sampled_from(free), st.integers(2, 8))
    more = {x: list(rels) + data.draw(st.lists(powers, max_size=2))
            for x, rels in p.relators.items()}
    judged = CosetTable(PartitePresentation(p.classes, p.alphabet, p.action, more))
    judged.table, judged.parent, judged.dist, judged.cls = (
        new.table, new.parent, new.dist, new.cls)
    assert judged.is_closed() == scan_everything_is_closed(judged)


def test_the_distance_budget_leaves_no_fitting_relator_open():
    # a b a c joins rows whose definition depths differ by more than one
    # edge.  With dist the distance in the table, every relator is scanned
    # at every row within the budget, and closes there.
    p = parse("classes: 0\ngen a : U : (0)\ngen b : U : (0)\ngen c : U : (0)\n"
              "rel 0 : a b a c, a^3\n")
    new, old = CosetTable(p, max_dist=7), CosetTable(p, max_dist=7)
    assert new.run() == scan_everything_run(old)
    assert _table_state(new) == _table_state(old)
    assert new.scans < old.scans
    assert relators_close_within(new, 7)
    before = new.version
    settle(new)
    assert new.version == before


@settings(max_examples=100, deadline=None)
@given(power_presentations(), st.none() | st.integers(0, 6), st.integers(0, 6))
def test_to_graph_matches_the_alphabet_graph_route(p, max_dist, radius):
    table = CosetTable(p, max_rows=400, max_dist=max_dist)
    try:
        table.run()
    except Overflow:
        pass
    for bound, keep in ((None, None),
                        (radius, lambda r: table.dist[r] <= radius)):
        g, oracle = table.to_graph(bound), alphabet_graph_quotient(table, keep)
        assert (g.tau, g.colour, g.names, g.classes, g.colour_inv) == (
            oracle.tau, oracle.colour, oracle.names, oracle.classes,
            oracle.colour_inv)


# -- ball_sp ----------------------------------------------------------------------

def test_ball_of_free_presentation():
    g = ball_sp(one_class(["a", "b"], []), radius=2)
    assert g.n == 1 + 4 + 12
    assert g.meta["frontier"] == [v for v, d in _ball_distances(g).items()
                                  if d == 2]


Z3_Z = ("classes: 0 1\ngen a : U : (0)(1)\ngen b : U : (0 1)\n"
        "rel 0 : a^3\nrel 1 : a^3\n")
Z2_Z2_Z = "classes: 0 1\ngen s : I : (0 1)\ngen t : I : (0 1)\ngen a : U : (0)(1)\n"


@pytest.mark.parametrize("text,factors", [
    (Z3_Z, (3, 0)), (FREE_F2, (0, 0)), (FREE_Z2_Z, (2, 0)), (Z2_Z2_Z, (2, 2, 0)),
    (FREE_F2 + "rel 0 : a^4\n", (4, 0)),
], ids=["Z3*Z", "F2", "Z2*Z", "Z2*Z2*Z", "Z4*Z"])
def test_ball_sizes_are_the_growth_series(text, factors):
    p = parse(text)
    assert [ball_sp(p, r).n for r in range(9)] == free_product_balls(factors, 8)


def _ball_distances(g):
    """vertex -> distance, read from a ball's ``meta["spheres"]``."""
    spheres = g.meta["spheres"]
    return {v: bisect.bisect_right(spheres, v) for v in range(g.n)}


def _bfs_distances(g):
    dist, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbours(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


@settings(max_examples=100, deadline=None)
@given(power_presentations(), st.integers(0, 4))
def test_ball_distances_are_bfs_distances(p, radius):
    try:
        g = ball_sp(p, radius, max_rows=3000)
    except Overflow:
        return
    assert _ball_distances(g) == _bfs_distances(g)
    # The run that ball_sp reads closes every relator at every window row.
    assert relators_close_within(ball_table(p, radius, max_rows=3000), radius)


@settings(max_examples=100, deadline=None)
@given(power_presentations())
def test_a_ball_maps_onto_the_ball_of_its_finite_graph(p):
    # Following colours from vertex 0 maps each window onto the ball of the
    # closed build, and no vertex maps farther out than it lies.  The window
    # never identifies what the graph keeps apart; it may identify less.
    try:
        sp = build_sp(p, max_rows=3000)
        balls = [ball_sp(p, r, max_rows=3000) for r in range(6)]
    except Overflow:
        return
    whole = _bfs_distances(sp)
    for r, g in enumerate(balls):
        image, stack = {0: 0}, [0]
        while stack:
            v = stack.pop()
            step = {sp.colour[d]: sp.tau[d] for d in sp.out_darts(image[v])}
            for d in g.out_darts(v):
                w, x = g.tau[d], step[g.colour[d]]
                if w not in image:
                    image[w] = x
                    stack.append(w)
                assert image[w] == x
        assert set(image.values()) == {x for x, d in whole.items() if d <= r}
        assert all(whole[image[v]] <= d for v, d in _ball_distances(g).items())


def test_ball_radius_must_be_at_least_0():
    with pytest.raises(BadParameters):
        ball_sp(one_class(["a"], []), radius=-1)


def test_short_relators_close_beyond_the_radius():
    # a0^2 and a0 a1 are shorter than a0^6, so they are also closed beyond
    # the radius, as far as their walks reach no further than a0^6's walk
    # from the window's edge.  Closed only within the radius, they left the
    # windows of radius 1, 2 and 3 with 6, 18 and 47 vertices.
    p = parse("classes: 0 1 2 3\n"
              "gen a0 : U : (0 2)(1)(3)\ngen a1 : U : (0)(1 2)(3)\n"
              "gen a2 : U : (0 3 2)(1)\n"
              "rel 0 : a0^2, a0^4\nrel 1 : a0^3, a1^-1 a2 a0 a1, a0^2\n"
              "rel 2 : a0^4, a0^2, a0^6\nrel 3 : a0 a1, a0^2\n")
    assert [ball_sp(p, r).n for r in range(4)] == [1, 5, 16, 45]


def test_ball_of_integer_line():
    g = ball_sp(one_class(["a"], []), radius=3)
    assert g.n == 7
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1, 1, 2, 2, 2, 2, 2]


def test_ball_stabilises_on_finite_graph(petersen_sp):
    # A window keeps one sphere offset per distance that occurs, so a huge
    # radius costs no more than the graph's own diameter.
    for radius in (12, 10**9):
        g = ball_sp(petersen(), radius=radius)
        assert g.n == 10
        assert g.meta["spheres"] == [1, 4, 10]
        assert g.meta["frontier"] == []
        assert isomorphic(g, petersen_sp, respect_colours=True) is not None


def test_ball_of_infinite_caterpillar():
    verbatim, _ = counterexample_presentations()
    g = ball_sp(from_two_partite(verbatim), radius=3)
    assert g.meta["frontier"]
    assert all(g.degree(v) == 4
               for v in range(g.n) if v not in g.meta["frontier"])


# -- vertex groups and invariants ----------------------------------------------------

def test_vertex_group_orders():
    # |V_x|, the order of the vertex group over class x, is the size of x's
    # fibre in Sp(P).
    assert build_sp(petersen()).class_sizes() == {"0": 5, "1": 5}
    assert build_sp(one_class(["a"], ["a^7"])).class_sizes() == {"0": 7}
    lp = line_petersen_presentation()
    assert build_sp(lp).class_sizes() == {x: 5 for x in lp.classes}


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
    assert autos == [a for a in sorted(graph_maps(sp, sp, respect_colours=True))
                     if all(sp.classes[a[v]] == sp.classes[v]
                            for v in range(sp.n))]


def _planted(sp, tau=None, colour=None):
    """A fresh copy of the build ``sp`` with the given ``tau`` or dart
    colours in place of its own."""
    return ColouredGraph(sp.n, list(sp.tau) if tau is None else tau,
                         list(sp.colour) if colour is None else colour,
                         list(sp.names), list(sp.classes), dict(sp.colour_inv))


@pytest.mark.parametrize("dart, colour", [(0, "b"), (1, "a")],
                         ids=["no-dart-of-the-quotient", "out-colours-differ"])
def test_check_cover_fails_on_one_recoloured_dart(petersen_sp, dart, colour):
    # Dart 0 is an a-dart inside class 0 and dart 1 its a^-1 reverse.  No
    # b-dart joins class 0 to itself; an a^-1 dart recoloured a leaves its
    # vertex with two a-darts and no a^-1.
    assert petersen_sp.colour[0:2] == ["a", "a^-1"]
    colours = list(petersen_sp.colour)
    colours[dart] = colour
    assert not check_cover(_planted(petersen_sp, colour=colours), petersen())


def test_check_relator_closure_fails_when_two_heads_are_swapped(petersen_sp):
    # Swapping the heads of two a-darts inside class 0 keeps one out-dart
    # per colour at each vertex and every class label, so the graph still
    # covers the presentation graph, but the a-cycle through them splits
    # and a^5 no longer closes.
    p, tau = petersen(), list(petersen_sp.tau)
    assert petersen_sp.colour[0] == petersen_sp.colour[4] == "a"
    tau[0], tau[4] = tau[4], tau[0]
    g = _planted(petersen_sp, tau=tau)
    assert check_cover(g, p)
    assert not check_relator_closure(g, p)
    assert not check_deck_regular(g)        # only the identity is left


def test_check_deck_regular_fails_on_two_out_darts_of_one_colour(petersen_sp):
    colours = list(petersen_sp.colour)
    colours[1] = "a"
    g = _planted(petersen_sp, colour=colours)
    assert deck_group(g) is None
    assert not check_deck_regular(g)


@pytest.mark.parametrize("classes, autos", [
    (["0", "1", "1"], [(0, 1, 2)]),
    (["0", "0", "1", "1"], [(0, 1, 2, 3), (1, 0, 2, 3)]),
], ids=["fibres-of-unequal-size", "fibre-the-deck-group-misses"])
def test_check_deck_regular_fails_when_the_group_misses_a_fibre(classes,
                                                                 autos):
    # An a-edge joins the two vertices of the last class, and no deck map
    # swaps its ends.  The group is as large as vertex 0's fibre, but the
    # fibres differ in size, or the last one splits into two orbits.
    n = len(classes)
    g = ColouredGraph(n, [n - 1, n - 2], ["a", "a^-1"], None, classes,
                      {"a": "a^-1", "a^-1": "a"})
    assert deck_group(g) == autos
    assert len(autos) == g.class_sizes()["0"]
    assert not check_deck_regular(g)


def test_check_two_partite_discipline_fails_on_a_stay_colour_across(
        petersen_sp):
    # The stay-inside generator a colours a b-edge, which joins class 0 to
    # class 1.
    assert check_two_partite_discipline(petersen_sp, ["a"])
    d = petersen_sp.colour.index("b") & ~1
    colours = list(petersen_sp.colour)
    colours[d:d + 2] = ["a", "a^-1"]
    assert not check_two_partite_discipline(
        _planted(petersen_sp, colour=colours), ["a"])


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
