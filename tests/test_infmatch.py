import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_matchings, bfs_levels, cycle_graph,
                      dfs_symmetric_difference_report,
                      doubled_graph_coverable, multigraph_colourings,
                      multigraphs, odd_cycle_multigraphs,
                      per_call_cover_greedy, per_level_connected,
                      per_level_miss_sequence, per_level_shell, random_graph)

from parcay import infmatch
from parcay.constructions import cubic_no_perfect_matching
from parcay.decompose import Matching, maximum_matching
from parcay.errors import BadParameters, NoTransitiveSupply
from parcay.graph import ColouredGraph
from parcay.infmatch import (Exhaustion, _cover_greedy, is_coverable,
                             is_critical, maximal_matching_wrt_miss,
                             miss_sequence, symmetric_difference_report,
                             window_exhaustion, windowed_perfect_matching)


def path_graph(n, names=None):
    """A path through vertices 0 to n - 1 in order, named ``names``."""
    tau = []
    for i in range(n - 1):
        tau += (i + 1, i)
    return ColouredGraph(n, tau, names=names)


def ladder_exhaustion(width):
    ex = window_exhaustion("ladder", width, margin=0)
    g = ex.graph
    rungs = [d for d in g.edges() if g.colour[d] == "rung"]
    return g, ex.levels, rungs


def covered(g, darts):
    return {v for d in darts for v in g.edge_ends(d)}


def mates(m):
    """The mate list of a matching (-1 marks a missed vertex)."""
    match = [-1] * m.graph.n
    for d in m.darts:
        u, v = m.graph.edge_ends(d)
        match[u], match[v] = v, u
    return match


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


def test_miss_sequence_perfect_beats_empty():
    g = cycle_graph(6)
    ex = Exhaustion(g, [set(range(6))])
    perfect = maximum_matching(g)
    assert miss_sequence(perfect, ex) == (0,)
    assert miss_sequence(perfect, ex) < miss_sequence(Matching(g, []), ex)


def test_miss_sequence_orders_by_first_difference():
    g = path_graph(5)
    ex = Exhaustion(g, [{2}, {1, 2, 3}, set(range(5))])
    ds = g.edges()
    m_mid = Matching(g, [ds[1]])     # covers 1, 2
    m_ends = Matching(g, [ds[0], ds[3]])  # covers 0,1,3,4: misses level 0
    assert miss_sequence(m_mid, ex) == (0, 1, 3)
    assert miss_sequence(m_ends, ex) == (1, 1, 1)
    assert miss_sequence(m_mid, ex) < miss_sequence(m_ends, ex)


@settings(max_examples=200, deadline=None)
@given(odd_cycle_multigraphs(), st.data())
def test_exhaustion_agrees_with_the_per_level_scans(g, data):
    # BFS prefixes induce connected subgraphs; prefixes of a random order
    # need not.
    cuts = sorted(data.draw(st.lists(st.integers(0, g.n), max_size=4)))
    bfs = data.draw(st.booleans())
    if bfs:
        levels = bfs_levels(g, cuts, data.draw(st.integers(0, g.n - 1)))
    else:
        order = data.draw(st.permutations(range(g.n)))
        levels = [order[:k] for k in cuts]
    # The same exhaustion built from its levels and from its shells.
    shells = [set(B).difference(*levels[:i]) for i, B in enumerate(levels)]
    exhaustions = [Exhaustion(g, levels),
                   Exhaustion.from_shells(g, shells, frozenset())]
    matching = Matching(g, [])
    for d in data.draw(st.permutations([d for d in g.edges()
                                        if not g.is_loop(d)])):
        if not (matching.covers(g.src(d)) or matching.covers(g.tau[d])):
            matching = Matching(g, matching.darts | {d})
    staged_order = dict.fromkeys(v for B in levels for v in sorted(B))
    staged = per_call_cover_greedy(g, staged_order)[0]
    for ex in exhaustions:
        assert ex.levels == [set(B) for B in levels]
        assert ex.shells == shells
        assert ex.connected == per_level_connected(ex)
        if bfs:
            assert ex.connected
        assert [ex.shell(v) for v in range(g.n + 1)] == \
            [per_level_shell(ex, v) for v in range(g.n + 1)]
        assert miss_sequence(matching, ex) == \
            per_level_miss_sequence(matching, ex)
        assert mates(maximal_matching_wrt_miss(ex)) == staged


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


@settings(max_examples=300, deadline=None)
@given(odd_cycle_multigraphs(), st.data())
def test_cover_greedy_equals_the_per_call_search(g, data):
    # Forcing searches with release that fail leave their tree's scratch
    # behind for the next search; the mate lists show any entry left set.
    order = data.draw(st.permutations(range(g.n)))
    order = order[:data.draw(st.integers(0, g.n))]
    m, forced = _cover_greedy(g, order)
    want, want_forced = per_call_cover_greedy(g, order)
    assert forced == want_forced
    assert mates(m) == want


def test_is_coverable():
    g = path_graph(3)
    assert is_coverable(g, {0, 1})
    assert not is_coverable(g, {0, 2})


@settings(deadline=None)
@given(multigraphs(10, 15), st.data())
def test_is_coverable_agrees_with_the_doubled_graph_and_brute_force(g, data):
    vertices = data.draw(st.sets(st.integers(0, g.n - 1)))
    expected = any(vertices <= covered(g, ds) for ds in all_matchings(g))
    assert doubled_graph_coverable(g, vertices) == expected
    assert is_coverable(g, vertices) == expected


@settings(deadline=None)
@given(multigraphs(10, 15), st.data())
def test_staged_optimum_on_random_nested_levels(g, data):
    # the levels are prefixes of a random order, so they need not induce
    # connected subgraphs
    order = data.draw(st.permutations(range(g.n)))
    cuts = data.draw(st.lists(st.integers(1, g.n), min_size=1, max_size=4))
    ex = Exhaustion(g, [order[:k] for k in sorted(cuts)])
    staged = maximal_matching_wrt_miss(ex)
    matchings = [Matching(g, ds) for ds in all_matchings(g)]
    assert miss_sequence(staged, ex) == min(miss_sequence(m, ex)
                                            for m in matchings)
    assert len(staged) == max(len(m) for m in matchings)


@settings(deadline=None)
@given(multigraphs(10, 15))
def test_is_critical_agrees_with_brute_force_on_multigraphs(g):
    matchings = all_matchings(g)
    full = max(len(ds) for ds in matchings)
    for v in range(g.n):
        misses_best = max(len(ds) for ds in matchings
                          if v not in covered(g, ds))
        assert is_critical(g, v) == (misses_best < full)


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


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_symmetric_difference_report_matches_the_dfs_oracle(data):
    g, _ = data.draw(multigraph_colourings())
    edges = [d for d in g.edges() if not g.is_loop(d)]

    def random_matching():
        darts, covered = [], set()
        order = data.draw(st.permutations(edges))
        keep = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                  max_size=len(edges)))
        for d, k in zip(order, keep):
            u, v = g.edge_ends(d)
            if k and u not in covered and v not in covered:
                darts.append(d)
                covered |= {u, v}
        return Matching(g, darts)

    m1, m2 = random_matching(), random_matching()
    order = data.draw(st.permutations(range(g.n)))
    cuts = data.draw(st.lists(st.integers(0, g.n), max_size=3))
    frontier = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    ex = Exhaustion(g, [order[:k] for k in sorted(cuts)], frontier)
    assert (symmetric_difference_report(m1, m2, ex)
            == dfs_symmetric_difference_report(m1, m2, ex))


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


@pytest.mark.parametrize("family", ["two-ended", "ladder"])
@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("margin", range(3))
def test_windows_are_unshifted_and_agree_with_the_oracle(family, n, margin):
    ex, m = windowed_perfect_matching(family, n, margin)
    g, ball = ex.graph, ex.levels[-1]
    layers = [name[0] for name in g.names]
    assert (min(layers), max(layers)) == (-n - margin, n + margin)
    assert ex.levels == [{v for v in range(g.n) if abs(layers[v]) <= k}
                         for k in range(n + 1)]
    assert ex.frontier == {v for v in range(g.n) if abs(layers[v]) == n + margin}
    assert ex.connected and per_level_connected(ex)
    assert all(ex.shell(v) == per_level_shell(ex, v) for v in range(g.n))
    assert doubled_graph_coverable(g, ball)
    assert all(m.covers(v) for v in ball)


def test_window_whose_ball_no_matching_covers_raises(monkeypatch):
    g = path_graph(3, [(0, 0), (0, 1), (0, 2)])
    monkeypatch.setitem(infmatch.FAMILIES, "stuck", lambda lo, hi: g)
    assert not doubled_graph_coverable(g, range(3))
    with pytest.raises(NoTransitiveSupply):
        windowed_perfect_matching("stuck", 1)


def test_window_exhaustion_shapes():
    ex = window_exhaustion("two-ended", 2)
    assert len(ex.levels) == 3
    assert ex.frontier
    assert ex.connected


@pytest.mark.parametrize("n,margin", [(-1, 2), (2, -1)])
def test_window_exhaustion_rejects_negative_sizes(n, margin):
    with pytest.raises(BadParameters):
        window_exhaustion("two-ended", n, margin=margin)
    with pytest.raises(BadParameters):
        windowed_perfect_matching("ladder", n, margin=margin)


def test_unknown_family_is_a_bad_parameter():
    for build in (window_exhaustion, windowed_perfect_matching):
        with pytest.raises(BadParameters, match="ladder, two-ended"):
            build("foo", 2)


def test_a_window_takes_memory_linear_in_its_size():
    # The ladder window at n = 1000 has 4010 vertices and 1001 levels.  Each
    # vertex is stored once, in its shell; storing every level B_k as its
    # own set peaked at 85 MiB.
    tracemalloc.start()
    try:
        window_exhaustion("ladder", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_window_family_levels_must_be_connected(monkeypatch):
    # B_0 is the path's two ends, which only the middle vertex joins.
    g = path_graph(3, [(0, 0), (1, 0), (0, 1)])
    monkeypatch.setitem(infmatch.FAMILIES, "split", lambda lo, hi: g)
    with pytest.raises(ValueError):
        window_exhaustion("split", 1)
