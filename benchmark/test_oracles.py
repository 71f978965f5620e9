"""Small tests of the benchmark's oracles and of its own bookkeeping.

    python3 -m pytest -q benchmark/test_oracles.py
"""

import itertools
import json
import os
import random

import graphs as G
import oracles as O


def _adj(n, edges):
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _automorphisms(n, edges):
    """All automorphisms of a small simple graph, by backtracking."""
    nbrs = [set(a) for a in _adj(n, edges)]
    out = []

    def extend(img):
        v = len(img)
        if v == n:
            out.append(tuple(img))
            return
        for w in range(n):
            if w in img or len(nbrs[w]) != len(nbrs[v]):
                continue
            if all((img[u] in nbrs[w]) == (u in nbrs[v]) for u in range(v)):
                extend(img + [w])

    extend([])
    return out


def _isomorphic(n, e1, e2):
    a, b = [set(x) for x in _adj(n, e1)], [set(x) for x in _adj(n, e2)]

    def extend(img):
        v = len(img)
        if v == n:
            return True
        return any(extend(img + [w]) for w in range(n)
                   if w not in img and len(b[w]) == len(a[v])
                   and all((img[u] in b[w]) == (u in a[v]) for u in range(v)))

    return extend([])


# ---------------------------------------------------------------------------


def _free_product_balls_by_bfs(factors, radius):
    """Ball sizes from normal forms: an element is a tuple of syllables
    (factor, exponent), adjacent syllables from different factors."""
    def step(word, f, e):
        if word and word[-1][0] == f:
            x = word[-1][1] + e
            if factors[f]:
                x %= factors[f]
            return word[:-1] + (((f, x),) if x else ())
        return word + ((f, e % factors[f] if factors[f] else e),)

    seen, frontier, balls = {()}, [()], [1]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for f in range(len(factors)):
                for e in (1, -1):
                    u = step(w, f, e)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
        balls.append(len(seen))
    return balls


def test_free_product_balls():
    assert O.free_product_balls((3, 0), 6) == [1, 5, 15, 41, 107, 277, 711]
    assert O.free_product_balls((0, 0), 5) == [1 + 2 * (3 ** r - 1) for r in range(6)]
    for factors in ((2, 0), (2, 2, 0), (3, 0), (4, 5), (2, 2, 2)):
        assert O.free_product_balls(factors, 5) == _free_product_balls_by_bfs(factors, 5)


def test_sphere_sizes():
    n, edges = G.cycle(6)
    assert O.sphere_sizes(_adj(n, edges), 0, 3) == [1, 2, 2, 1]
    assert O.sphere_sizes(_adj(n, edges), 0, 2) is None


PETERSEN_SMALL = [(n, k) for n in range(3, 9) for k in range(1, (n + 1) // 2)]


def test_petersen_automorphism_counts_and_transitivity():
    for n, k in PETERSEN_SMALL:
        nv, edges = G.petersen(n, k)
        auts = _automorphisms(nv, edges)
        assert O.petersen_aut_order(n, k) == len(auts), (n, k)
        transitive = {a[0] for a in auts} == set(range(nv))
        assert O.petersen_is_vertex_transitive(n, k) == transitive, (n, k)


def test_petersen_cayley_known_cases():
    assert O.petersen_is_cayley(4, 1) and O.petersen_is_cayley(8, 3)
    assert O.petersen_is_cayley(12, 5)
    assert not O.petersen_is_cayley(5, 2) and not O.petersen_is_cayley(10, 2)
    assert not O.petersen_is_cayley(10, 3) and not O.petersen_is_cayley(7, 2)


def test_petersen_isomorphism_classes():
    for n in range(5, 9):
        ks = range(1, (n + 1) // 2)
        for k, l in itertools.product(ks, ks):
            want = _isomorphic(2 * n, G.petersen(n, k)[1], G.petersen(n, l)[1])
            assert O.petersen_isomorphic(n, k, l) == want, (n, k, l)


def _petersen_build(n, k, rng):
    """The graph the builder should return for <a, b | a^n, a b a^k b; a^n>,
    written out by hand: inner a-steps go by -k^-1.  Vertex 0 stays the
    base; the others are shuffled."""
    s = -pow(k, -1, n) % n
    perm = [0] + rng.sample(range(1, 2 * n), 2 * n - 1)
    edges = [(perm[i], perm[(i + 1) % n], "a") for i in range(n)]
    edges += [(perm[n + j], perm[n + (j + s) % n], "a") for j in range(n)]
    edges += [(perm[i], perm[n + i], "b") for i in range(n)]
    classes = [None] * (2 * n)
    for i in range(n):
        classes[perm[i]], classes[perm[n + i]] = "0", "1"
    return G.ParsedGraph(2 * n, edges, classes, {"a": "a^-1", "a^-1": "a"}, None)


def test_petersen_build_isomorphism():
    rng = random.Random(0)
    for n, k in ((5, 2), (7, 3), (11, 4), (20, 3)):
        g = _petersen_build(n, k, rng)
        assert O.petersen_build_isomorphism(g, n, k, "a", "b", "0")
        broken = G.ParsedGraph(g.n, list(g.edges), g.classes, g.colour_inv, None)
        u, v, c = broken.edges[-1]
        w = next(x for x in range(g.n) if x not in (u, v))
        broken.edges[-1] = (u, w, c)
        assert not O.petersen_build_isomorphism(broken, n, k, "a", "b", "0")


def test_regular_group_generators():
    n, edges = G.cycle(6)
    rotation = tuple((i + 1) % 6 for i in range(6))
    reflection = tuple((-i) % 6 for i in range(6))
    assert O.generates_regular_group([rotation], n, edges)
    assert not O.generates_regular_group([reflection], n, edges)
    assert not O.generates_regular_group([rotation, reflection], n, edges)
    assert not O.generates_regular_group([(1, 0, 2, 3, 4, 5)], n, edges)


def test_partition_friendly():
    n, edges = G.complete(4)
    colours = ["m0", "m1", "m2", "m2", "m1", "m0"]
    assert O.is_partition_friendly(n, edges, colours)
    assert not O.is_partition_friendly(n, edges, ["m0"] * 6)
    n, edges = G.cycle(5)
    assert O.is_partition_friendly(n, edges, ["c"] * 5)
    assert not O.is_partition_friendly(n, edges, ["c", "d", "c", "d", "c"])


def test_extraction_and_rebuild_of_a_square():
    n, edges = G.cycle(4)
    colours = ["m", "c", "m", "c"]
    # A 4-cycle coloured by two perfect matchings: involutions m and c,
    # one relator (m c)^2 at vertex 0.
    pres = (["0", "1", "2", "3"],
            {"m": ("I", {"0": "1", "1": "0", "2": "3", "3": "2"}),
             "c": ("I", {"1": "2", "2": "1", "3": "0", "0": "3"})},
            {"0": [[("m", 1), ("c", 1), ("m", 1), ("c", 1)]], "1": [], "2": [], "3": []})
    assert O.extraction_matches(pres, n, edges, colours)
    bad = (pres[0], {"m": pres[1]["m"], "c": ("I", {"0": "1", "1": "0", "2": "3", "3": "2"})},
           pres[2])
    assert not O.extraction_matches(bad, n, edges, colours)
    rebuilt = G.ParsedGraph(4, [(0, 1, "c"), (1, 2, "m"), (2, 3, "c"), (3, 0, "m")],
                            ["1", "2", "3", "0"], {}, None)
    assert O.rebuild_matches_input(rebuilt, n, edges, colours)
    assert O.relators_close(G.ParsedGraph(4, rebuilt.edges, ["0"] * 4, {}, None),
                            (["0"], pres[1], {"0": pres[2]["0"]}))
    swapped = G.ParsedGraph(4, rebuilt.edges, ["2", "1", "3", "0"], {}, None)
    assert not O.rebuild_matches_input(swapped, n, edges, colours)


def test_relators_close_on_a_triangle():
    g = G.ParsedGraph(3, [(0, 1, "a"), (1, 2, "a"), (2, 0, "a")], ["x"] * 3,
                      {"a": "a^-1", "a^-1": "a"}, None)
    gens = {"a": ("U", {"x": "x"})}
    assert O.relators_close(g, (["x"], gens, {"x": [[("a", 3)], [("a", -3)]]}))
    assert not O.relators_close(g, (["x"], gens, {"x": [[("a", 2)]]}))


def test_abelian_cayley_line_graph_degree():
    n, edges = O.abelian_cayley((3, 4))
    assert n == 12 and len(edges) == 24
    ln, ledges = G.line_graph(n, edges)
    deg = [len(a) for a in _adj(ln, ledges)]
    assert set(deg) == {6}


def test_explicit_perfect_matchings():
    nv, edges, _ = G.two_ended_window(-2, 3)
    pm = O.explicit_perfect_matching("two-ended", nv)
    assert O.is_matching(pm, edges) and 2 * len(pm) == nv
    nv, edges, _ = G.ladder_window(-4, 4)
    pm = O.explicit_perfect_matching("ladder", nv)
    assert O.is_matching(pm, edges) and 2 * len(pm) == nv


def test_best_miss_sequence_on_a_path():
    # Path 0-1-2 with levels {1}, {0, 1, 2}: the best matching covers the
    # middle vertex and misses one end.
    n, edges = 3, [(0, 1, None), (1, 2, None)]
    assert O.best_miss_sequence(n, edges, [{1}, {0, 1, 2}]) == (0, 1)
    assert O.best_miss_sequence(n, edges, [{0, 2}, {0, 1, 2}]) == (1, 1)


def test_relabel_keeps_the_graph():
    n, edges = G.petersen(7, 2)
    out, perm = G.relabel(n, edges, random.Random(3))
    back = [(perm[u], perm[v], None) for u, v, _ in edges]
    assert O.same_edges(n, out, n, back)


def test_parse_formats_round_trip():
    text = ("# header\nvertices 3\ncolour a a^-1\nclass 0 x\nclass 1 x\nclass 2 x\n"
            "edge 0 1 a c1\nedge 1 2 a c1\nedge 2 0 a c1\n")
    g = G.parse_graph(text)
    assert g.n == 3 and g.decomp == ["c1"] * 3 and g.classes == ["x"] * 3
    assert g.out_table()[0] == {"a": 1, "a^-1": 2}
    classes, gens, rels = G.parse_presentation(
        "classes: 0 1\ngen a : U : (0)(1)\ngen b : I : (0 1)\nrel 0 : a^5, a b a^2 b\n")
    assert classes == ["0", "1"] and gens["b"] == ("I", {"0": "1", "1": "0"})
    assert rels["0"][1] == [("a", 1), ("b", 1), ("a", 2), ("b", 1)]


def test_tracing_spans_self_time_and_uninstall():
    import sys
    import types
    import tracing

    pkg = types.ModuleType("fakeparcay")
    mod = types.ModuleType("fakeparcay.builder")
    source = (
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "def outer():\n"
        "    inner()\n"
        "    time.sleep(0.01)\n"
        "def _private():\n"
        "    pass\n"
        "class CosetTable:\n"
        "    def run(self):\n"
        "        return outer()\n"
        "REGISTRY = [('outer', outer)]\n")
    exec(compile(source, "fakeparcay/builder.py", "exec"), mod.__dict__)
    pkg.builder, pkg.outer = mod, mod.outer
    sys.modules.update({"fakeparcay": pkg, "fakeparcay.builder": mod})
    original = mod.outer
    try:
        tracer = tracing.Tracer()
        inst = tracing.install(tracer, ["builder.outer", "builder.gone"], "fakeparcay")
        try:
            assert pkg.outer is not original and mod.REGISTRY[0][1] is not original
            assert mod._private.__name__ == "_private"
            mod.CosetTable().run()
        finally:
            inst.uninstall()
        assert pkg.outer is original and mod.REGISTRY[0][1] is original
        assert mod.CosetTable.run.__qualname__ == "CosetTable.run"
    finally:
        del sys.modules["fakeparcay"], sys.modules["fakeparcay.builder"]
    assert tracer.absent == ["builder.gone"]
    s = tracer.summary()
    run_, outer, inner = (s[f"builder.{x}"] for x in ("CosetTable.run", "outer", "inner"))
    assert run_["calls"] == outer["calls"] == inner["calls"] == 1
    assert inner["s"] >= 0.02 and outer["s"] >= inner["s"] + 0.01
    assert abs(outer["self_s"] - (outer["s"] - inner["s"])) < 1e-9
    assert run_["self_s"] < 0.005


def test_benchmark_json_lists_the_reported_metrics():
    import run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in run.per_layer_metrics()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
