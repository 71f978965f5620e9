from collections import Counter

import pytest

from conftest import (brute_force_max_matching_size, complete_graph,
                      cycle_graph, random_graph)

from parcay.constructions import (cubic_no_perfect_matching,
                                  generalized_petersen, line_graph)
from parcay.decompose import (EdgeColouring, Matching,
                              euler_orientation, is_multicycle,
                              is_partition_friendly, is_weak_multicycle,
                              k_n_factorization, maximum_matching,
                              two_factor, two_factorization,
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


def test_matching_rejects_conflicts():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        Matching(g, list(g.edges())[:2])


# -- 2-factors --------------------------------------------------------------------

def test_two_factor_of_cycle_is_itself():
    g = cycle_graph(6)
    assert two_factor(g) == g.edges()


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
    check_two_factor(g, two_factor(g))


def test_two_factor_line_petersen():
    g = line_graph(generalized_petersen(5, 2))
    check_two_factor(g, two_factor(g))


def test_two_factor_rejects_odd_regular():
    with pytest.raises(NotEvenRegular):
        two_factor(generalized_petersen(5, 2))


def test_two_factorization_partitions():
    for g in (complete_graph(5), line_graph(generalized_petersen(5, 2))):
        factors = two_factorization(g)
        assert len(factors) == g.degree(0) // 2
        assert sorted(d for f in factors for d in f) == g.edges()
        for f in factors:
            check_two_factor(g, f)


# -- weak multicycle colourings -----------------------------------------------------

def test_wmc_cycle():
    g = cycle_graph(6)
    c = weak_multicycle_colouring(g)
    assert len(c.colour_classes()) == 1
    assert is_partition_friendly(g, c)


def test_wmc_petersen():
    g = generalized_petersen(5, 2)
    c = weak_multicycle_colouring(g)
    assert len(c.colour_classes()) == 2
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
        assert len(c.colour_classes()) == expected
        assert is_partition_friendly(g, c)


# -- predicates --------------------------------------------------------------------

def test_partite_cayley_colouring_is_multicycle(petersen_sp):
    g = petersen_sp
    mapping = {}
    for d in g.edges():
        mapping[d] = "a" if g.colour[d] in ("a", "a^-1") else "b"
    c = EdgeColouring(g, mapping)
    assert is_multicycle(g, c)


def test_pentagon_pair_plus_spokes_is_multicycle():
    g = generalized_petersen(5, 2)
    mapping = {d: ("spoke" if g.colour[d] == "spoke" else "cycles")
               for d in g.edges()}
    assert is_multicycle(g, EdgeColouring(g, mapping))


def test_path_colour_is_not_weak_multicycle():
    g = cycle_graph(4)
    ds = g.edges()
    mapping = {ds[0]: "x", ds[1]: "x", ds[2]: "y", ds[3]: "y"}
    # each colour induces a two-edge path
    assert not is_weak_multicycle(g, EdgeColouring(g, mapping))


def test_unequal_cycle_lengths_are_not_multicycle():
    g = ColouredGraph()
    for _ in range(7):
        g.add_vertex()
    for i in range(3):
        g.add_edge(i, (i + 1) % 3)
    for i in range(4):
        g.add_edge(3 + i, 3 + (i + 1) % 4)
    c = EdgeColouring(g, {d: "x" for d in g.edges()})
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
    c = EdgeColouring(g, {d: "x" for d in g.edges()})
    assert is_weak_multicycle(g, c)
    assert is_partition_friendly(g, c)
    assert not is_multicycle(g, c)  # lengths 1 and 2 differ


def test_partial_colouring_is_rejected():
    g = cycle_graph(3)
    c = EdgeColouring(g, {g.edges()[0]: "x"})
    assert not is_weak_multicycle(g, c)


# -- complete graph factorizations ----------------------------------------------------

def test_k5_factorization():
    f = k_n_factorization(5)
    classes = f.colouring.colour_classes()
    assert len(classes) == 2
    for colour, darts in classes.items():
        assert len(darts) == 5  # Hamiltonian cycles
    assert is_multicycle(f.graph, f.colouring)


def test_k4_factorization():
    f = k_n_factorization(4)
    classes = f.colouring.colour_classes()
    assert len(classes) == 3
    assert all(len(darts) == 2 for darts in classes.values())


def test_k2_factorization():
    f = k_n_factorization(2)
    assert len(f.colouring.colour_classes()) == 1
    assert f.graph.n_edges == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_kn_permutations(n):
    f = k_n_factorization(n)
    assert sorted(d for ds in f.colouring.colour_classes().values()
                  for d in ds) == f.graph.edges()
    for colour, perm in f.perms.items():
        assert sorted(perm) == list(range(n))
        assert all(perm[i] != i for i in range(n))
        degs = f.colouring.class_degree(colour)
        if degs[0] == 1:
            assert all(perm[perm[i]] == i for i in range(n))


def test_matchings_reject_loops():
    g = ColouredGraph()
    g.add_vertex()
    g.add_edge(0, 0)
    with pytest.raises(ValueError):
        Matching(g, list(g.edges()))
