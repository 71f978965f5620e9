from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (bfs_is_partition_friendly, class_degree, colour_classes,
                      complete_graph, cycle_graph, least_neighbour_successors,
                      multigraph_colourings, regular_graphs)

from parcay.builder import build_sp, presentation_graph
from parcay.constructions import (bi_cayley, cubic_no_perfect_matching,
                                  cyclic_group, dihedral_group,
                                  generalized_petersen, line_graph)
from parcay.decompose import is_partition_friendly, weak_multicycle_colouring
from parcay.errors import (BadParameters, Disconnected, InvolutionInR,
                           NoPerfectMatching, NotPartitionFriendly,
                           SizeMismatch)
from parcay.extract import (_colouring_presentation, bicayley_to_presentation,
                            pipeline_presentation, presentation_from_colouring)
from parcay.graph import (LOCAL_CYCLE_LEVELS, ColouredGraph, _RootedTree,
                          _short_cycle_relators, cayley_like_witness,
                          isomorphic, spanning_tree)
from parcay.presentation import from_two_partite, validate
from parcay.words import reduce as word_reduce


def roundtrip(g, colouring=None):
    colouring = colouring or weak_multicycle_colouring(g)
    p = presentation_from_colouring(g, colouring)
    assert validate(p) == []
    sp = build_sp(p)
    coloured = presentation_graph(p)
    return p, isomorphic(sp, coloured, respect_colours=True) is not None


def test_single_cycle():
    g = cycle_graph(7)
    p, ok = roundtrip(g)
    assert ok
    assert len(p.classes) == 7
    assert sum(len(p.relators[x]) for x in p.classes) == 1


def test_petersen_roundtrip():
    g = generalized_petersen(5, 2)
    p, ok = roundtrip(g)
    assert ok and len(p.classes) == 10


def test_k4_with_one_factorization_colouring():
    g = complete_graph(4)
    # three perfect matchings, coloured explicitly
    mapping = {}
    for d in g.edges():
        u, v = g.edge_ends(d)
        mapping[d] = {frozenset((0, 1)): "x", frozenset((2, 3)): "x",
                      frozenset((0, 2)): "y", frozenset((1, 3)): "y",
                      frozenset((0, 3)): "z", frozenset((1, 2)): "z"}[
                          frozenset((u, v))]
    p, ok = roundtrip(g, mapping)
    assert ok
    assert set(p.alphabet.i_gens) == {"x", "y", "z"}
    assert p.alphabet.u_gens == ()


def test_relator_counts_match_cycle_rank():
    for g in (cycle_graph(5), complete_graph(5), generalized_petersen(6, 2)):
        p, ok = roundtrip(g)
        assert ok
        assert (sum(len(p.relators[x]) for x in p.classes)
                == g.n_edges - g.n + 1)


def test_pipeline_petersen():
    g = generalized_petersen(5, 2)
    p = pipeline_presentation(g)
    assert validate(p) == []
    assert isomorphic(build_sp(p), g) is not None


def test_pipeline_counterexample_propagates():
    with pytest.raises(NoPerfectMatching):
        pipeline_presentation(cubic_no_perfect_matching())


def test_extraction_requires_connected():
    g = cycle_graph(3)
    h = cycle_graph(3)
    merged = g.copy()
    base = merged.n
    for _ in range(3):
        merged.add_vertex()
    for d in h.edges():
        u, v = h.edge_ends(d)
        merged.add_edge(base + u, base + v)
    with pytest.raises(Disconnected, match="^graph is not connected$"):
        pipeline_presentation(merged)


def test_extraction_requires_partition_friendly():
    g = cycle_graph(4)
    ds = g.edges()
    bad = {ds[0]: "x", ds[1]: "x", ds[2]: "y", ds[3]: "y"}
    with pytest.raises(NotPartitionFriendly):
        presentation_from_colouring(g, bad)


def test_extraction_rejects_a_colour_that_is_not_a_generator_name():
    # 'x-1' would become 'gen x-1', a line that parse rejects.
    g = cycle_graph(4)
    with pytest.raises(BadParameters, match="^colour 'x-1' cannot name"):
        presentation_from_colouring(g, dict.fromkeys(g.edges(), "x-1"))
    p = presentation_from_colouring(g, dict.fromkeys(g.edges(), "x_1"))
    assert p.alphabet.u_gens == ("x_1",)


@pytest.mark.parametrize("n", range(7, 13))
def test_complete_graphs_of_degree_six_and_up_round_trip(n):
    # Degree 6 and up: three or more 2-factors, the later ones taken from
    # the first factor's orientation.
    g = complete_graph(n)
    colouring = weak_multicycle_colouring(g)
    assert len(colour_classes(colouring)) == n // 2
    assert is_partition_friendly(g, colouring)
    assert roundtrip(g, colouring)[1]


@settings(max_examples=60, deadline=None)
@given(regular_graphs(), st.data())
def test_moving_one_edge_between_two_factors_fails_extraction(case, data):
    _, g = case
    colouring = weak_multicycle_colouring(g)
    classes = colour_classes(colouring)
    assume(len([c for c in classes if c != "m"]) >= 2)
    source, target = data.draw(st.permutations(
        sorted(c for c in classes if c != "m")))[:2]
    mutated = dict(colouring)
    mutated[data.draw(st.sampled_from(classes[source]))] = target
    assert not is_partition_friendly(g, mutated)
    with pytest.raises(NotPartitionFriendly):
        presentation_from_colouring(g, mutated)


# -- bi-Cayley conversion --------------------------------------------------------

def test_bicayley_petersen_roundtrip():
    group = cyclic_group(5)
    tp = bicayley_to_presentation(group, [1, 4], [2, 3], [0])
    assert tp.s1 == ("g1",)
    assert tp.i2 == ("g0",)
    assert tp.r1 == ()
    sp = build_sp(from_two_partite(tp))
    target = bi_cayley(group, [1, 4], [2, 3], [0])
    assert isomorphic(sp, target) is not None
    # colour-compatible comparison through the pairing chosen by the proof
    assert tp.pairing == {"g2": "g1", "g3": "g4"}
    cmap = {"g1": {"R:g1", "L:g2"}, "g1^-1": {"R:g4", "L:g3"},
            "g0": {"S:g0"}}
    assert isomorphic(sp, target, colour_map=cmap) is not None


def test_bicayley_haar_roundtrip():
    group = cyclic_group(3)
    tp = bicayley_to_presentation(group, [], [], [0, 1, 2])
    assert tp.s1 == ()
    sp = build_sp(from_two_partite(tp))
    assert sp.n == 6
    assert isomorphic(sp, bi_cayley(group, [], [], [0, 1, 2])) is not None


@st.composite
def bicayley_inputs(draw):
    """A cyclic or dihedral group with inverse-closed, involution-free R and
    L of one size, and a non-empty spoke set S."""
    if draw(st.booleans()):
        group = cyclic_group(draw(st.integers(3, 8)))
    else:
        group = dihedral_group(draw(st.integers(3, 4)))
    pairs = sorted({tuple(sorted((x, group.inv(x)))) for x in range(len(group))
                    if group.inv(x) != x})
    k = draw(st.integers(0, min(2, len(pairs))))

    def connection_set():
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=k, max_size=k,
                               unique=True))
        return [x for pair in chosen for x in pair]

    R, L = connection_set(), connection_set()
    S = draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=3,
                      unique=True))
    return group, R, L, S


@settings(max_examples=60, deadline=None)
@given(bicayley_inputs())
def test_bicayley_rebuild_matches_through_the_pairing(case):
    group, R, L, S = case
    target = bi_cayley(group, R, L, S)
    assume(target.is_connected())
    tp = bicayley_to_presentation(group, R, L, S)
    sp = build_sp(from_two_partite(tp))
    # A stay generator's colour covers its R-edges and the L-edges paired
    # with them; a spoke generator is named after its spoke, plus suffixes.
    cmap = {}
    for l, r in tp.pairing.items():
        colour = r if r in tp.s1 else (
            group.names[group.inv(group.index(r))] + "^-1")
        cmap.setdefault(colour, set()).update({f"R:{r}", f"L:{l}"})
    for name in tp.i2:
        cmap[name] = {"S:" + name.split("_")[0]}
    assert isomorphic(sp, target, colour_map=cmap) is not None


def test_bicayley_rejects_involutions():
    group = cyclic_group(2)
    with pytest.raises(InvolutionInR):
        bicayley_to_presentation(group, [1], [1], [])


def test_bicayley_rejects_size_mismatch():
    group = cyclic_group(5)
    with pytest.raises(SizeMismatch):
        bicayley_to_presentation(group, [1, 4], [], [0])


def test_bicayley_rejects_disconnected():
    group = cyclic_group(4)
    with pytest.raises(Disconnected):
        bicayley_to_presentation(group, [], [], [0])


def test_bicayley_dihedral_example():
    group = dihedral_group(4)
    r = [group.index("r1"), group.index("r3")]
    s = [group.index("r0s"), group.index("r1")]
    tp = bicayley_to_presentation(group, r, r, s)
    sp = build_sp(from_two_partite(tp))
    target = bi_cayley(group, r, r, s)
    assert sp.n == 16
    assert isomorphic(sp, target) is not None


def test_bicayley_heawood_roundtrip():
    # the Haar graph of Z/7 with connection set {0, 1, 3}
    group = cyclic_group(7)
    target = bi_cayley(group, [], [], [0, 1, 3])
    tp = bicayley_to_presentation(group, [], [], [0, 1, 3])
    sp = build_sp(from_two_partite(tp))
    assert sp.n == 14
    assert isomorphic(sp, target) is not None


def test_bicayley_haar_z600_presentation_is_pinned():
    # Relators from the short cycles at each side's vertices: a few short
    # words and one 400-letter cycle through the tree, none repeated.
    group = cyclic_group(600)
    tp = bicayley_to_presentation(group, [], [], [0, 1, 3])
    relators = tp.r0 + tp.r1
    assert (len(tp.r0), len(tp.r1)) == (8, 3)
    assert sum(len(r) for r in relators) == 460
    assert sorted(len(r) for r in relators) == [6] * 10 + [400]
    assert len(set(tp.r0)) == len(tp.r0) and len(set(tp.r1)) == len(tp.r1)
    for r in relators:
        _assert_cyclically_reduced(r, r.alphabet)
    sp = build_sp(from_two_partite(tp))
    assert sp.n == 1200
    assert isomorphic(sp, bi_cayley(group, [], [], [0, 1, 3])) is not None


def test_circulant_pipeline_roundtrips():
    def circulant(n, steps):
        g = ColouredGraph()
        for _ in range(n):
            g.add_vertex()
        for s in steps:
            for i in range(n):
                if 2 * s % n == 0 and i >= n // 2:
                    continue
                g.add_edge(i, (i + s) % n)
        return g

    for n, steps in ((8, (1, 2)), (9, (1, 3)), (10, (2, 5))):
        g = circulant(n, steps)
        p = pipeline_presentation(g)
        assert isomorphic(build_sp(p), g) is not None


def test_extract_long_cycle_needs_no_recursion():
    # The breadth-first tree of C3000 is 1500 deep, past the default
    # recursion limit.
    p, ok = roundtrip(cycle_graph(3000))
    assert ok
    assert [len(r) for r in p.relators["0"]] == [3000]


def _class_edges(sp):
    """The rebuilt graph's edges as (class pair, base colour) counts."""
    return Counter((frozenset((sp.classes[sp.src(d)], sp.classes[sp.tau[d]])),
                    sp.colour[d].removesuffix("^-1")) for d in sp.edges())


@settings(max_examples=60, deadline=None)
@given(regular_graphs())
def test_generated_graphs_round_trip(case):
    _, g = case
    # A connected vertex-transitive graph of even order has a perfect
    # matching, and the 2-factor unions have one or even degree, so the
    # colouring never raises here.
    colouring = weak_multicycle_colouring(g)
    assert bfs_is_partition_friendly(g, colouring)
    p = presentation_from_colouring(g, colouring)
    assert sum(len(p.relators[x]) for x in p.classes) == g.n_edges - g.n + 1
    # These builds take at most 2n rows.  A presentation whose complex is
    # not simply connected has a larger or infinite cover, and fails fast.
    sp = build_sp(p, max_rows=10 * g.n + 100)
    # Class str(v) is input vertex v, so the rebuild carries the input's
    # coloured edges by its class labels alone.
    assert sp.n == g.n
    assert _class_edges(sp) == Counter(
        (frozenset((str(u), str(w))), colouring[d])
        for d in g.edges() for u, w in [g.edge_ends(d)])
    assert isomorphic(sp, presentation_graph(p),
                      respect_colours=True) is not None


@settings(max_examples=300, deadline=None)
@given(multigraph_colourings())
def test_each_relator_closes_its_edge_with_earlier_edges(gc):
    g, c = gc
    if not (g.n_edges and g.is_connected()
            and bfs_is_partition_friendly(g, c)):
        return
    free, _ = _colouring_presentation(g, c)
    alphabet = free.alphabet
    sp = presentation_graph(free)
    parent, order = spanning_tree(sp, 0)
    tree = {d & ~1 for d in parent if d is not None}
    non_tree = [d for d in sp.edges() if d not in tree]
    rank = {v: i for i, v in enumerate(order)}
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[sp.src(parent[v])] + 1
    out = cayley_like_witness(sp)
    relators = _short_cycle_relators(sp, alphabet)
    assert sorted(d for d, _, _ in relators) == non_tree
    closed = set(tree)
    for d, v, word in relators:
        # No longer than the walk from vertex 0 down the tree, across the
        # edge and back up.
        assert len(word) <= depth[sp.src(d)] + depth[sp.tau[d]] + 1
        _assert_cyclically_reduced(word, alphabet)
        darts, here = [], v
        for code in word.letters:
            darts.append(out[here][alphabet.colour_of(code)])
            here = sp.tau[darts[-1]]
        assert here == v
        crossed = Counter(e & ~1 for e in darts)
        # The edge itself once; otherwise only the tree and earlier edges.
        assert crossed[d] == 1
        assert set(crossed) <= closed | {d}
        assert rank[v] == min(rank[sp.src(e)] for e in darts)
        closed.add(d)


@settings(max_examples=300, deadline=None)
@given(multigraph_colourings())
def test_extraction_reads_relators_from_the_presentation_graph(gc):
    # The graph built from the colour walks is the presentation graph that
    # the presentation's class action gives.
    g, c = gc
    try:
        p, graph = _colouring_presentation(g, c)
    except NotPartitionFriendly:
        return
    reference = presentation_graph(p)
    for field in ("n", "tau", "colour", "names", "classes", "colour_inv"):
        assert getattr(graph, field) == getattr(reference, field), field


def _assert_cyclically_reduced(word, alphabet):
    assert word == word_reduce(word.letters, alphabet)
    assert len(word) < 2 or word.letters[0] != alphabet.inverse_letter(
        word.letters[-1])


# The graphs of the benchmark's pipeline: total relator letters, the
# lengths of the relators too long for the search to have found, and the
# rebuild's counters.
@pytest.mark.parametrize("make,letters,long,stats", [
    (lambda: generalized_petersen(600, 3), 4194, [200, 200, 204],
     {"rows": 1783, "coincidences": 583, "scans": 601}),
    (lambda: line_graph(generalized_petersen(400, 3)), 5533, [136, 137, 137],
     {"rows": 2781, "coincidences": 1581, "scans": 1327}),
    (lambda: bi_cayley(cyclic_group(600), [], [], [0, 1, 3]), 4000, [400],
     {"rows": 1399, "coincidences": 199, "scans": 601}),
    (lambda: complete_graph(48), 3243, [],
     {"rows": 48, "coincidences": 0, "scans": 1081}),
    (lambda: cycle_graph(1000), 1000, [1000],
     {"rows": 1000, "coincidences": 0, "scans": 1}),
], ids=["P(600,3)", "L(P(400,3))", "Haar(Z600,{0,1,3})", "K48", "C1000"])
def test_extraction_counters_are_pinned(make, letters, long, stats):
    g = make()
    colouring = weak_multicycle_colouring(g)
    p = presentation_from_colouring(g, colouring)
    sp = presentation_graph(p)
    tree = _RootedTree(sp, p.alphabet)
    assert sum(len(r) for _, r in p.all_relators()) == letters
    fallbacks = [(d, v, w) for d, v, w in _short_cycle_relators(sp, p.alphabet)
                 if len(w) > 2 * LOCAL_CYCLE_LEVELS + 1]
    assert sorted(len(w) for _, _, w in fallbacks) == long
    # Each is its edge's cycle through the tree, at the ends' lowest common
    # ancestor, not the longer base word at vertex 0.
    for d, v, w in fallbacks:
        assert (v, w) == tree.tree_cycle(d)
    for _, r in p.all_relators():
        _assert_cyclically_reduced(r, p.alphabet)
    rebuilt = build_sp(p)
    assert rebuilt.n == g.n
    assert rebuilt.meta["stats"] == stats
    assert stats["rows"] <= 3 * g.n


@settings(max_examples=400, deadline=None)
@given(multigraph_colourings())
def test_extracted_generators_follow_the_least_neighbour_orientation(gc):
    g, c = gc
    if not bfs_is_partition_friendly(g, c):
        with pytest.raises(NotPartitionFriendly):
            _colouring_presentation(g, c)
        return
    p, _ = _colouring_presentation(g, c)
    classes = colour_classes(c)
    assert p.alphabet.u_gens == tuple(
        sorted(x for x in classes if class_degree(g, c, x)[0] == 2))
    assert p.alphabet.i_gens == tuple(
        sorted(x for x in classes if class_degree(g, c, x)[0] == 1))
    for colour, darts in classes.items():
        table = p.action.table(colour)
        if colour in p.alphabet.u_gens:
            succ = least_neighbour_successors(g, darts)
            assert list(table.items()) == [(str(v), str(g.tau[d]))
                                           for v, d in succ.items()]
        else:
            pairs = [g.edge_ends(d) for d in darts]
            assert table == {str(u): str(w) for u, w in pairs + [
                (w, u) for u, w in pairs]}
