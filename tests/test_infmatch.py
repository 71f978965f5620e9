import itertools

import pytest

from conftest import all_matchings, cycle_graph, random_graph

from parcay.constructions import cubic_no_perfect_matching
from parcay.decompose import Matching, maximum_matching
from parcay.errors import NoTransitiveSupply
from parcay.graph import ColouredGraph
from parcay.infmatch import (Exhaustion, WindowFamily, compare, is_coverable,
                             is_critical, maximal_matching_wrt_miss,
                             miss_sequence, symmetric_difference_report,
                             window_exhaustion, windowed_perfect_matching)


def path_graph(n):
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def ladder_exhaustion(width):
    g = ColouredGraph()
    for i in range(-width, width + 1):
        g.add_vertex(name=(i, 0))
        g.add_vertex(name=(i, 1))
    rungs = []
    for i in range(-width, width + 1):
        rungs.append(g.add_edge(g.vertex((i, 0)), g.vertex((i, 1))))
        if i < width:
            g.add_edge(g.vertex((i, 0)), g.vertex((i + 1, 0)))
            g.add_edge(g.vertex((i, 1)), g.vertex((i + 1, 1)))
    levels = [frozenset(v for v in range(g.n) if abs(g.names[v][0]) <= k)
              for k in range(width + 1)]
    return g, levels, rungs


def test_rung_matching_has_zero_misses():
    g, levels, rungs = ladder_exhaustion(3)
    ex = Exhaustion(g, levels)
    m = Matching(g, rungs)
    assert miss_sequence(m, ex) == (0,) * len(levels)


def test_empty_matching_misses_everything():
    g = cycle_graph(6)
    ex = Exhaustion(g, [{0, 1}, set(range(6))])
    assert miss_sequence(Matching(g, []), ex) == (2, 6)


def test_p3_end_edge():
    g = path_graph(3)
    ex = Exhaustion(g, [{1}])
    m = Matching(g, [g.edges()[0]])  # covers 0 and 1
    assert miss_sequence(m, ex) == (0,)


def test_exhaustion_requires_nesting():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        Exhaustion(g, [{0, 1}, {2, 3}])


def test_disconnected_nested_levels_are_accepted():
    g = path_graph(5)
    ex = Exhaustion(g, [{0, 4}, set(range(5))])
    assert not ex.connected
    assert Exhaustion(g, [{2}, {1, 2, 3}, set(range(5))]).connected


def test_compare_perfect_beats_empty():
    g = cycle_graph(6)
    ex = Exhaustion(g, [set(range(6))])
    perfect = maximum_matching(g)
    assert compare(perfect, Matching(g, []), ex) == "greater"
    assert compare(perfect, perfect, ex) == "equal-sequence"


def test_compare_orders_by_first_difference():
    g = path_graph(5)
    ex = Exhaustion(g, [{2}, {1, 2, 3}, set(range(5))])
    ds = g.edges()
    m_mid = Matching(g, [ds[1]])     # covers 1, 2
    m_ends = Matching(g, [ds[0], ds[3]])  # covers 0,1,3,4: misses level 0
    assert compare(m_mid, m_ends, ex) == "greater"
    assert compare(m_ends, m_mid, ex) == "less"


def test_compare_is_a_total_preorder_on_small_fixtures():
    g = random_graph(6, 0.5, 3)
    ex = Exhaustion(g, [{0, 1}, {0, 1, 2, 3}, set(range(6))])
    ms = [Matching(g, list(darts)) for darts in all_matchings(g)]
    for a, b in itertools.combinations(ms, 2):
        r1, r2 = compare(a, b, ex), compare(b, a, ex)
        assert {r1, r2} in ({"less", "greater"}, {"equal-sequence"})
    for a, b, c in itertools.islice(itertools.combinations(ms, 3), 400):
        if compare(a, b, ex) != "less" and compare(b, c, ex) != "less":
            assert compare(a, c, ex) != "less"


# -- staged lexicographic optimisation ----------------------------------------------

def test_p3_middle_vertex_is_covered():
    g = path_graph(3)
    ex = Exhaustion(g, [{1}, {0, 1, 2}])
    m = maximal_matching_wrt_miss(ex)
    assert m.covers(1)
    assert miss_sequence(m, ex) == (0, 1)


def test_even_cycle_reaches_zero_misses():
    g = cycle_graph(8)
    ex = Exhaustion(g, [{0, 1, 2}, set(range(8))])
    m = maximal_matching_wrt_miss(ex)
    assert miss_sequence(m, ex) == (0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_staged_optimum_matches_brute_force(seed):
    g = random_graph(8, 0.4, seed)
    ex = Exhaustion(g, [{0, 1}, {0, 1, 2, 3, 4}, set(range(8))])
    staged = maximal_matching_wrt_miss(ex)
    best = min(miss_sequence(Matching(g, list(ds)), ex)
               for ds in all_matchings(g))
    assert miss_sequence(staged, ex) == best


def test_staged_optimum_is_maximum_cardinality():
    for seed in range(4):
        g = random_graph(9, 0.4, seed)
        ex = Exhaustion(g, [{0}, set(range(9))])
        assert len(maximal_matching_wrt_miss(ex)) == len(maximum_matching(g))


def test_cut_vertex_graph_misses_two():
    # the odd-component bound forbids fewer (22 vertices, three odd lobes)
    g = cubic_no_perfect_matching()
    ex = Exhaustion(g, [{0}, set(range(g.n))])
    m = maximal_matching_wrt_miss(ex)
    assert len(m.missed()) == 2
    assert m.covers(0)


def test_is_coverable():
    g = path_graph(3)
    assert is_coverable(g, {0, 1})
    assert not is_coverable(g, {0, 2})


def test_is_critical_matches_brute_force():
    for seed in range(4):
        g = random_graph(7, 0.4, seed)
        full = max(len(ds) for ds in all_matchings(g))
        for v in range(g.n):
            covered_best = max(
                (len(ds) for ds in all_matchings(g)
                 if any(v in g.edge_ends(d) for d in ds)), default=0)
            misses_best = max((len(ds) for ds in all_matchings(g)
                               if all(v not in g.edge_ends(d) for d in ds)),
                              default=0)
            expected = misses_best < full
            assert is_critical(g, v) == expected


# -- symmetric differences -------------------------------------------------------------

def test_two_perfect_matchings_of_c6():
    g = cycle_graph(6)
    ds = g.edges()
    ex = Exhaustion(g, [set(range(6))])
    m1 = Matching(g, [ds[0], ds[2], ds[4]])
    m2 = Matching(g, [ds[1], ds[3], ds[5]])
    report = symmetric_difference_report(m1, m2, ex)
    assert len(report) == 1
    entry = report[0]
    assert entry["kind"] == "cycle" and entry["n_edges"] == 6
    assert entry["alternating"] and entry["even"]


def test_equal_matchings_have_empty_difference():
    g = cycle_graph(6)
    m = maximum_matching(g)
    ex = Exhaustion(g, [set(range(6))])
    assert symmetric_difference_report(m, m, ex) == []


def test_interior_paths_have_same_shell_endpoints():
    for seed in range(6):
        g = random_graph(10, 0.35, seed)
        ex = Exhaustion(g, [{0, 1, 2}, set(range(6)), set(range(10))])
        optima = []
        best = None
        for ds in all_matchings(g):
            m = Matching(g, list(ds))
            seq = miss_sequence(m, ex)
            if best is None or seq < best:
                best, optima = seq, [m]
            elif seq == best:
                optima.append(m)
        for m1, m2 in itertools.islice(itertools.combinations(optima, 2), 200):
            for entry in symmetric_difference_report(m1, m2, ex):
                assert entry["even"], "odd component between staged optima"
                assert entry["alternating"]
                if entry["kind"] == "path":
                    assert entry["same_shell"]


# -- windowed perfect matchings ----------------------------------------------------------

def test_ladder_windows_cover():
    ex, m = windowed_perfect_matching("ladder", 4)
    assert all(m.covers(v) for v in ex.levels[-1])


@pytest.mark.parametrize("n", range(1, 6))
def test_two_ended_windows_cover(n):
    ex, m = windowed_perfect_matching("two-ended", n)
    ball = ex.levels[-1]
    assert len(ball) == 10 * (2 * n + 1)
    assert all(m.covers(v) for v in ball)


def test_family_without_translations_raises():
    def build(n, margin, shift):
        g = path_graph(3)
        return g, [frozenset({0, 1, 2})], frozenset()

    family = WindowFamily("stuck", build, shifts=(0,))
    with pytest.raises(NoTransitiveSupply):
        windowed_perfect_matching(family, 1)


def test_window_exhaustion_shapes():
    ex = window_exhaustion("two-ended", 2)
    assert len(ex.levels) == 3
    assert ex.frontier
    assert ex.connected


def test_window_family_levels_must_be_connected():
    def build(n, margin, shift):
        return path_graph(3), [frozenset({0, 2})], frozenset()

    with pytest.raises(ValueError):
        window_exhaustion(WindowFamily("split", build), 1)
