import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (bfs_is_partition_friendly, class_degree, complete_graph,
                      cycle_graph, least_neighbour_successors,
                      multigraph_colourings)

from parcay.acceptance import roundtrip_corpus
from parcay.builder import build_sp, presentation_graph
from parcay.constructions import (bi_cayley, cubic_no_perfect_matching,
                                  cyclic_group, dihedral_group,
                                  generalized_petersen)
from parcay.decompose import EdgeColouring, weak_multicycle_colouring
from parcay.errors import (Disconnected, InvolutionInR, NoPerfectMatching,
                           NotPartitionFriendly, SizeMismatch)
from parcay.extract import (_colouring_presentation, bicayley_to_presentation,
                            pipeline_presentation, presentation_from_colouring,
                            refine_colouring)
from parcay.graph import isomorphic, write_graph
from parcay.presentation import from_two_partite, validate


def roundtrip(g, colouring=None):
    colouring = colouring or weak_multicycle_colouring(g)
    p = presentation_from_colouring(g, colouring)
    assert validate(p) == []
    sp = build_sp(p)
    coloured = refine_colouring(g, colouring)
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
    p, ok = roundtrip(g, EdgeColouring(g, mapping))
    assert ok
    assert set(p.alphabet.i_gens) == {"x", "y", "z"}
    assert p.alphabet.u_gens == ()


def test_relator_counts_match_cycle_rank():
    for g in (cycle_graph(5), complete_graph(5), generalized_petersen(6, 2)):
        p, ok = roundtrip(g)
        assert ok
        assert (sum(len(p.relators[x]) for x in p.classes)
                == g.n_edges - g.n + 1)


def test_refined_colouring_is_the_presentation_graph():
    for name, g in roundtrip_corpus().items():
        colouring = weak_multicycle_colouring(g)
        refined = refine_colouring(g, colouring)
        rebuilt = presentation_graph(presentation_from_colouring(g, colouring))
        assert write_graph(refined) == write_graph(rebuilt), name
        assert refined.names == rebuilt.names == [str(v) for v in range(g.n)]
        assert refined.classes == rebuilt.classes
        assert refined.colour_inv == rebuilt.colour_inv


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
    with pytest.raises(Disconnected):
        pipeline_presentation(merged)


def test_extraction_requires_partition_friendly():
    g = cycle_graph(4)
    ds = g.edges()
    bad = EdgeColouring(g, {ds[0]: "x", ds[1]: "x", ds[2]: "y", ds[3]: "y"})
    with pytest.raises(NotPartitionFriendly):
        presentation_from_colouring(g, bad)


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


def test_circulant_pipeline_roundtrips():
    from parcay.graph import ColouredGraph

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


@settings(max_examples=400, deadline=None)
@given(multigraph_colourings())
def test_extracted_generators_follow_the_least_neighbour_orientation(gc):
    g, c = gc
    if not bfs_is_partition_friendly(g, c):
        with pytest.raises(NotPartitionFriendly):
            _colouring_presentation(g, c)
        return
    p = _colouring_presentation(g, c)
    classes = c.colour_classes()
    assert p.alphabet.u_gens == tuple(
        sorted(x for x in classes if class_degree(c, x)[0] == 2))
    assert p.alphabet.i_gens == tuple(
        sorted(x for x in classes if class_degree(c, x)[0] == 1))
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
