from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

try:
    import networkx
except ImportError:
    networkx = None

from conftest import (bfs_is_multicycle, bfs_is_partition_friendly,
                      bfs_is_weak_multicycle, brute_force_max_matching_size,
                      class_degree, colour_classes, complete_graph, cycle_graph,
                      least_neighbour_successors, multigraph_colourings,
                      odd_cycle_multigraphs, per_call_maximum_mates,
                      per_factor_two_factorization, random_graph,
                      regular_graphs)

from parcay.constructions import (cubic_no_perfect_matching,
                                  generalized_petersen, k_n_factorization,
                                  line_graph)
from parcay.decompose import (Matching, _maximum_mates, component_walks,
                              euler_orientation, is_multicycle,
                              is_partition_friendly, is_weak_multicycle,
                              maximum_matching, two_factorization,
                              weak_multicycle_colouring)
from parcay.errors import NoPerfectMatching, NotEvenRegular, NotRegular, OddDegree
from parcay.graph import ColouredGraph


def in_out_degrees(g, orientation):
    out = Counter()
    inc = Counter()
    for d in orientation:
        out[g.src(d)] += 1
        inc[g.tau[d]] += 1
    return out, inc


# -- Euler orientations -----------------------------------------------------------

def test_euler_c4():
    g = cycle_graph(4)
    o = euler_orientation(g)
    out, inc = in_out_degrees(g, o)
    assert all(out[v] == inc[v] == 1 for v in range(4))


def test_euler_k5_balances():
    g = complete_graph(5)
    out, inc = in_out_degrees(g, euler_orientation(g))
    assert all(out[v] == inc[v] == 2 for v in range(5))


def test_euler_rejects_odd_degree():
    with pytest.raises(OddDegree):
        euler_orientation(generalized_petersen(4, 1))


def test_euler_handles_loops_and_components():
    g = ColouredGraph()
    for _ in range(4):
        g.add_vertex()
    g.add_edge(0, 0)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    o = euler_orientation(g)
    out, inc = in_out_degrees(g, o)
    assert all(out[v] == inc[v] for v in range(4))


# -- matchings ----------------------------------------------------------------------

def test_petersen_has_perfect_matching():
    m = maximum_matching(generalized_petersen(5, 2))
    assert m.is_perfect() and len(m) == 5


def test_k4_perfect_matching():
    m = maximum_matching(complete_graph(4))
    assert m.is_perfect() and len(m) == 2


def test_cut_vertex_graph_has_no_perfect_matching():
    g = cubic_no_perfect_matching()
    m = maximum_matching(g)
    assert not m.is_perfect()
    # odd-component bound: removing the hub leaves three odd components, so
    # at least two vertices stay uncovered; the matching achieves that
    assert len(m.missed()) == 2


def test_blossom_against_brute_force():
    fixtures = [cycle_graph(n) for n in range(3, 9)]
    fixtures += [complete_graph(n) for n in range(2, 6)]
    fixtures += [generalized_petersen(5, 2), generalized_petersen(4, 2),
                 cubic_no_perfect_matching().subgraph_edges(
                     [d for d in cubic_no_perfect_matching().edges()][:15])]
    fixtures += [random_graph(9, 0.35, seed) for seed in range(6)]
    for g in fixtures:
        if g.n > 12:
            continue
        assert len(maximum_matching(g)) == brute_force_max_matching_size(g)


@settings(max_examples=300, deadline=None)
@given(odd_cycle_multigraphs())
def test_maximum_mates_equal_the_per_call_search(g):
    # The same mate list, not only the same size: the shared scratch and the
    # blossom contraction over the blossom's own vertices change no step.
    _, match = _maximum_mates(g)
    assert match == per_call_maximum_mates(g)[1]
    size = sum(w > v for v, w in enumerate(match))
    assert len(maximum_matching(g)) == size
    if networkx is not None:
        h = networkx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(e for e in map(g.edge_ends, g.edges()) if e[0] != e[1])
        assert len(networkx.max_weight_matching(h, maxcardinality=True)) == size


def test_matching_rejects_conflicts():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        Matching(g, list(g.edges())[:2])


# -- 2-factors --------------------------------------------------------------------

def test_two_factor_of_cycle_is_itself():
    g = cycle_graph(6)
    assert two_factorization(g)[0] == g.edges()


def check_two_factor(g, darts):
    deg = Counter()
    for d in darts:
        u, v = g.edge_ends(d)
        deg[u] += 1
        deg[v] += 1
    assert all(deg[v] == 2 for v in range(g.n))
    assert set(darts) <= set(g.edges())


def test_two_factor_k5():
    g = complete_graph(5)
    check_two_factor(g, two_factorization(g)[0])


def test_two_factor_line_petersen():
    g = line_graph(generalized_petersen(5, 2))
    check_two_factor(g, two_factorization(g)[0])


def test_two_factor_rejects_odd_regular():
    with pytest.raises(NotEvenRegular):
        two_factorization(generalized_petersen(5, 2))


def test_two_factorization_partitions():
    for g in (complete_graph(5), line_graph(generalized_petersen(5, 2))):
        factors = two_factorization(g)
        assert len(factors) == g.degree(0) // 2
        assert sorted(d for f in factors for d in f) == g.edges()
        for f in factors:
            check_two_factor(g, f)


def _even_pool(g):
    """The edges of a regular graph g, less a perfect matching if its degree
    is odd: a 2k-regular pool."""
    if g.degree(0) % 2 == 0:
        return g.edges()
    m = maximum_matching(g)
    assert m.is_perfect()
    return [d for d in g.edges() if d not in m.darts]


@settings(max_examples=150, deadline=None)
@given(regular_graphs())
def test_two_factorization_partitions_the_pool_into_two_factors(case):
    _, g = case
    pool = _even_pool(g)
    factors = two_factorization(g, pool)
    assert len(factors) == g.degree(0) // 2
    assert sorted(d for f in factors for d in f) == pool
    for f in factors:
        # spanning and 2-regular; a loop meets its vertex twice
        assert Counter(v for d in f for v in g.edge_ends(d)) == dict.fromkeys(
            range(g.n), 2)
    if not factors:
        return
    # The first factor, and with k <= 2 every factor, is the one that an
    # orientation of what is left before each factor gives.
    oracle = per_factor_two_factorization(g, pool)
    assert factors[0] == oracle[0]
    assert len(factors) > 2 or factors == oracle


@settings(max_examples=150, deadline=None)
@given(regular_graphs(), st.data())
def test_euler_orientation_of_a_pool_is_the_walk_of_its_subgraph(case, data):
    _, g = case
    factors = two_factorization(g, _even_pool(g))
    keep = data.draw(st.lists(st.booleans(), min_size=len(factors),
                              max_size=len(factors)))
    pool = sorted(d for f, k in zip(factors, keep) if k for d in f)
    orientation = euler_orientation(g, pool)
    assert sorted(d & ~1 for d in orientation) == pool
    out, inc = in_out_degrees(g, orientation)
    assert out == inc
    sub = g.subgraph_edges(pool)
    assert orientation == [pool[e >> 1] | (e & 1)
                           for e in euler_orientation(sub)]
    # Shuffled, with some darts odd and some repeated, it is the same pool.
    odd = data.draw(st.lists(st.booleans(), min_size=len(pool),
                             max_size=len(pool)))
    repeated = data.draw(st.lists(st.sampled_from(pool), max_size=3)
                         if pool else st.just([]))
    darts = data.draw(st.permutations(
        [d | k for d, k in zip(pool, odd)] + repeated))
    assert euler_orientation(g, darts) == orientation


def test_euler_orientation_of_a_pool_rejects_odd_degree():
    g = complete_graph(5)
    with pytest.raises(OddDegree):
        euler_orientation(g, g.edges()[1:])


# K5's edges {0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4} and {3, 4} are its darts
# 0, 2, 8, 14, 16 and 18.  Vertices 0 and 1 meet no edge of the triangle
# 2, 3, 4, so its walk starts at vertex 2; the bowtie's two triangles meet
# at vertex 2.  Each pool is also given reversed, odd and with a repeat.
def _pool_variants(pool):
    return [pool, pool[::-1], [d | 1 for d in pool], pool + pool[:1]]


@pytest.mark.parametrize("pool,orientation", [
    ([14, 16, 18], [17, 18, 14]),
    ([0, 2, 8, 14, 16, 18], [3, 17, 18, 14, 8, 0]),
    ([], []),
], ids=["triangle", "bowtie", "empty"])
def test_euler_orientation_of_a_pool_with_bare_vertices(pool, orientation):
    g = complete_graph(5)
    for darts in _pool_variants(pool):
        assert euler_orientation(g, darts) == orientation


@pytest.mark.parametrize("pool", [[0, 8], [2, 14]], ids=["0-1-2", "0-2-3"])
def test_euler_orientation_of_a_path_names_its_least_end(pool):
    g = complete_graph(5)
    for darts in _pool_variants(pool):
        with pytest.raises(OddDegree) as raised:
            euler_orientation(g, darts)
        assert raised.value.vertex == 0


# -- weak multicycle colourings -----------------------------------------------------

def test_wmc_cycle():
    g = cycle_graph(6)
    c = weak_multicycle_colouring(g)
    assert len(colour_classes(c)) == 1
    assert is_partition_friendly(g, c)


def test_wmc_petersen():
    g = generalized_petersen(5, 2)
    c = weak_multicycle_colouring(g)
    assert len(colour_classes(c)) == 2
    assert is_partition_friendly(g, c)


def test_wmc_counterexample():
    with pytest.raises(NoPerfectMatching):
        weak_multicycle_colouring(cubic_no_perfect_matching())


def test_wmc_rejects_irregular():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 1)
    with pytest.raises(NotRegular):
        weak_multicycle_colouring(g)


def test_wmc_colour_count():
    for g, expected in ((complete_graph(5), 2), (complete_graph(4), 2),
                        (generalized_petersen(5, 2), 2), (cycle_graph(9), 1)):
        c = weak_multicycle_colouring(g)
        assert len(colour_classes(c)) == expected
        assert is_partition_friendly(g, c)


# -- predicates --------------------------------------------------------------------

def test_partite_cayley_colouring_is_multicycle(petersen_sp):
    g = petersen_sp
    mapping = {}
    for d in g.edges():
        mapping[d] = "a" if g.colour[d] in ("a", "a^-1") else "b"
    assert is_multicycle(g, mapping)


def test_pentagon_pair_plus_spokes_is_multicycle():
    g = generalized_petersen(5, 2)
    mapping = {d: ("spoke" if g.colour[d] == "spoke" else "cycles")
               for d in g.edges()}
    assert is_multicycle(g, mapping)


def test_path_colour_is_not_weak_multicycle():
    g = cycle_graph(4)
    ds = g.edges()
    mapping = {ds[0]: "x", ds[1]: "x", ds[2]: "y", ds[3]: "y"}
    # each colour induces a two-edge path
    assert not is_weak_multicycle(g, mapping)


def test_unequal_cycle_lengths_are_not_multicycle():
    g = ColouredGraph()
    for _ in range(7):
        g.add_vertex()
    for i in range(3):
        g.add_edge(i, (i + 1) % 3)
    for i in range(4):
        g.add_edge(3 + i, 3 + (i + 1) % 4)
    c = {d: "x" for d in g.edges()}
    assert is_weak_multicycle(g, c)
    assert is_partition_friendly(g, c)
    assert not is_multicycle(g, c)


def test_loops_and_doubled_edges_are_cycles():
    g = ColouredGraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 0)
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    c = {d: "x" for d in g.edges()}
    assert is_weak_multicycle(g, c)
    assert is_partition_friendly(g, c)
    assert not is_multicycle(g, c)  # lengths 1 and 2 differ


def test_partial_colouring_is_rejected():
    g = cycle_graph(3)
    c = {g.edges()[0]: "x"}
    assert not is_weak_multicycle(g, c)


@settings(max_examples=400, deadline=None)
@given(multigraph_colourings())
def test_multicycle_predicates_match_the_component_oracles(gc):
    g, c = gc
    assert is_weak_multicycle(g, c) == bfs_is_weak_multicycle(g, c)
    assert is_partition_friendly(g, c) == bfs_is_partition_friendly(g, c)
    assert is_multicycle(g, c) == bfs_is_multicycle(g, c)


@settings(max_examples=400, deadline=None)
@given(multigraph_colourings())
def test_component_walks_follow_the_least_neighbour_orientation(gc):
    g, c = gc
    for darts in colour_classes(c).values():
        deg = Counter(v for d in darts for v in g.edge_ends(d))
        walks = component_walks(g, darts)
        assert (walks is None) == (max(deg.values()) > 2)
        if walks is None:
            continue
        paths, cycles = walks
        assert sorted(d & ~1 for w in paths + cycles for d in w) == darts
        for w in paths + cycles:
            assert all(g.tau[a] == g.src(b) for a, b in zip(w, w[1:]))
            first, last = g.src(w[0]), g.tau[w[-1]]
            if w in paths:
                assert deg[first] == deg[last] == 1 and first < last
            else:
                assert first == last
        if set(deg.values()) == {2}:
            assert not paths
            assert ([(g.src(d), d) for w in cycles for d in w]
                    == list(least_neighbour_successors(g, darts).items()))


# -- complete graph factorizations ----------------------------------------------------

def test_k5_factorization():
    f = k_n_factorization(5)
    classes = colour_classes(f.colouring)
    assert len(classes) == 2
    for colour, darts in classes.items():
        assert len(darts) == 5  # Hamiltonian cycles
    assert is_multicycle(f.graph, f.colouring)


def test_k4_factorization():
    f = k_n_factorization(4)
    classes = colour_classes(f.colouring)
    assert len(classes) == 3
    assert all(len(darts) == 2 for darts in classes.values())


def test_k2_factorization():
    f = k_n_factorization(2)
    assert len(colour_classes(f.colouring)) == 1
    assert f.graph.n_edges == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_kn_permutations(n):
    f = k_n_factorization(n)
    assert sorted(d for ds in colour_classes(f.colouring).values()
                  for d in ds) == f.graph.edges()
    for colour, perm in f.perms.items():
        assert sorted(perm) == list(range(n))
        assert all(perm[i] != i for i in range(n))
        degs = class_degree(f.graph, f.colouring, colour)
        if degs[0] == 1:
            assert all(perm[perm[i]] == i for i in range(n))


def test_matchings_reject_loops():
    g = ColouredGraph()
    g.add_vertex()
    g.add_edge(0, 0)
    with pytest.raises(ValueError):
        Matching(g, list(g.edges()))
