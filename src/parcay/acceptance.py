"""The acceptance battery: one callable per criterion, returning a verdict
and a human-readable detail line.  Used by the command line ``suite``
subcommand and mirrored one-to-one by the acceptance test module."""

from __future__ import annotations

from .builder import (build_sp, invariant_report, presentation_graph,
                      vertex_group_order)
from .constructions import (complete_graph, cubic_no_perfect_matching,
                            cycle_graph, cyclic_group, generalized_petersen,
                            line_graph, line_graph_presentation,
                            petersen_presentation, two_ended_adjacent,
                            two_ended_auto, two_ended_window, two_ended_word,
                            parse_auto_word)
from .decompose import (Matching, is_multicycle, k_n_factorization,
                        maximum_matching, two_factorization,
                        weak_multicycle_colouring)
from .errors import NoPerfectMatching, Overflow
from .extract import pipeline_presentation
from .graph import (ColouredGraph, automorphism_group, is_cayley,
                    is_vertex_transitive, isomorphic)
from .infmatch import (Exhaustion, maximal_matching_wrt_miss,
                       miss_sequence, symmetric_difference_report,
                       windowed_perfect_matching)
from .presentation import from_two_partite, two_partite, validate
from .words import parse_word


# ---------------------------------------------------------------------------
# Shared fixtures.


def line_petersen_presentation():
    """The three-class presentation of the line graph of the Petersen graph:
    a acts as (12)(3), b as (1)(23)."""
    from .presentation import PartitePresentation
    from .words import Alphabet, ClassAction

    alphabet = Alphabet(("a", "b"), ())
    action = ClassAction(alphabet, ("1", "2", "3"), {
        "a": {"1": "2", "2": "1", "3": "3"},
        "b": {"1": "1", "2": "3", "3": "2"},
    })
    rel = lambda s: parse_word(s, alphabet)
    return PartitePresentation(("1", "2", "3"), alphabet, action, {
        "1": [rel("b^5"), rel("a^10"), rel("a^2 b")],
        "2": [rel("a^-2 b^4")],
        "3": [rel("a^5"), rel("b^10"), rel("b^2 a")],
    })


def counterexample_presentations():
    """The uniform two-partite presentation whose graph has no multicycle
    colouring, in two variants: without the closing relator b^2 the graph is
    infinite (nothing kills powers of the swap generator); with it the graph
    is the four-vertex multigraph with loop ends and a doubled middle."""
    verbatim = two_partite(["a"], ["b"], [], ["a"], ["a^2"])
    closing = two_partite(["a"], ["b"], [], ["a", "b^2"], ["a^2"])
    return verbatim, closing


def counterexample_expected_graph():
    """Two loop-ended classes joined through a doubled middle."""
    g = ColouredGraph()
    a0 = g.add_vertex(cls="0")
    b0 = g.add_vertex(cls="1")
    b1 = g.add_vertex(cls="1")
    a1 = g.add_vertex(cls="0")
    g.declare_colour("a", "a^-1")
    g.declare_colour("b", "b^-1")
    g.add_edge(a0, a0, "a")
    g.add_edge(a1, a1, "a")
    g.add_edge(b0, b1, "a")
    g.add_edge(b1, b0, "a")
    g.add_edge(a0, b0, "b")
    g.add_edge(b0, a0, "b")
    g.add_edge(b1, a1, "b")
    g.add_edge(a1, b1, "b")
    return g


PETERSEN_COLOUR_MAP = {"a": {"outer", "inner"}, "a^-1": {"outer", "inner"},
                       "b": {"spoke"}}


def roundtrip_corpus():
    corpus = {f"C{n}": cycle_graph(n) for n in range(3, 13)}
    corpus["K4"] = complete_graph(4)
    corpus["K5"] = complete_graph(5)
    corpus["cube"] = generalized_petersen(4, 1)
    corpus["prism"] = generalized_petersen(3, 1)
    for n in range(3, 9):
        for k in range(1, n):
            if k <= n - k:
                corpus[f"P({n},{k})"] = generalized_petersen(n, k)
    corpus["L(P(5,2))"] = line_graph(generalized_petersen(5, 2))
    return corpus


# ---------------------------------------------------------------------------
# Criteria.


def c01_petersen_build():
    sp = build_sp(from_two_partite(petersen_presentation(5, 2)))
    ok = (sp.n == 10 and sp.n_edges == 15
          and isomorphic(sp, generalized_petersen(5, 2),
                         colour_map=PETERSEN_COLOUR_MAP) is not None)
    return ok, f"{sp.n} vertices / {sp.n_edges} edges, colour-compatible isomorphism"


def c02_petersen_sweep():
    checked = 0
    for n in range(3, 9):
        for k in range(1, n):
            if (2 * k) % n == 0:
                continue
            sp = build_sp(from_two_partite(petersen_presentation(n, k)))
            if isomorphic(sp, generalized_petersen(n, k)) is None:
                return False, f"P({n},{k}) build does not match"
            checked += 1
    return True, f"{checked} parameter pairs verified"


def c03_vertex_groups():
    p = from_two_partite(petersen_presentation(5, 2))
    orders = [vertex_group_order(p, x) for x in ("0", "1")]
    sp = build_sp(p)
    auts = automorphism_group(sp, "colour_preserving")
    fibres = {x: [v for v in range(sp.n) if sp.classes[v] == x] for x in ("0", "1")}
    regular = all(
        len({a[fibre[0]] for a in auts}) == len(fibre)
        and all(sum(1 for a in auts if a[fibre[0]] == w) == 1 for w in fibre)
        for fibre in fibres.values())
    ok = orders == [5, 5] and len(auts) == 5 and regular
    return ok, f"orders {orders}, colour group {len(auts)}, regular {regular}"


def c04_non_cayley():
    p52 = generalized_petersen(5, 2)
    vt = is_vertex_transitive(p52)
    witness = is_cayley(p52)
    vt42 = is_vertex_transitive(generalized_petersen(4, 2))
    ok = vt and witness is None and not vt42
    return ok, f"P(5,2): transitive={vt}, regular subgroup={witness}; P(4,2): {vt42}"


def c05_counterexample_figure():
    verbatim, closing = counterexample_presentations()
    try:
        build_sp(from_two_partite(verbatim), max_rows=2000)
        return False, "the relator pair unexpectedly yields a finite graph"
    except Overflow:
        pass
    sp = build_sp(from_two_partite(closing))
    expected = counterexample_expected_graph()
    match = isomorphic(sp, expected, respect_colours=True, respect_classes=True)
    ok = sp.n == 4 and sp.n_edges == 8 and match is not None
    return ok, (f"without the closing relator the build overflows (graph infinite); "
                f"with it: {sp.n} vertices matching the expected multigraph")


def c06_line_petersen():
    p = line_petersen_presentation()
    sp = build_sp(p)
    lp = line_graph(generalized_petersen(5, 2))
    ok = (sp.n == 15 and sp.is_regular() and sp.degree(0) == 4
          and isomorphic(sp, lp) is not None)
    return ok, f"{sp.n} vertices, degree {sp.degree(0)}, isomorphic to L(P(5,2))"


def c07_dihedral_line_graph():
    res = line_graph_presentation(["a", "b"], ["a^5", "b^2", "a b a^-1 b^-1"])
    p = res.presentation
    alph = p.alphabet
    w = lambda text: parse_word(text, alph)
    expected_a = [w("e^5"),
                  w("m0_pp m0_pm m0_pp^-1 m0_mp"),
                  w("e m0_mp m0_pp^-1"),
                  w("e m0_pp^-1 m0_pm"),
                  w("m0_pp e^-1 m0_pm"),
                  w("m0_mp e^-1 m0_pp")]
    expected_b = [w("e^2")]
    have_a = set(p.relators["a"])
    have_b = set(p.relators["b"])
    words_ok = (all(x in have_a for x in expected_a)
                and all(x in have_b for x in expected_b))
    sp = build_sp(p)
    ok = words_ok and sp.n == 20 and isomorphic(sp, res.line) is not None
    return ok, (f"translated relators present={words_ok}, rebuild "
                f"{sp.n} vertices isomorphic to the line graph")


def c08_decompositions():
    even_fixtures = [complete_graph(5), cycle_graph(8),
                     line_graph(generalized_petersen(5, 2))]
    for g in even_fixtures:
        factors = two_factorization(g)
        if sorted(d for f in factors for d in f) != g.edges():
            return False, "a 2-factorization does not partition the edges"
        for f in factors:
            deg = [0] * g.n
            for d in f:
                u, v = g.edge_ends(d)
                deg[u] += 1
                deg[v] += 1
            if set(deg) != {2}:
                return False, "a 2-factor is not 2-regular"
    vt_fixtures = [generalized_petersen(5, 2), cycle_graph(7), complete_graph(6),
                   generalized_petersen(4, 1)]
    for g in vt_fixtures:
        if len(maximum_matching(g).missed()) > 1:
            return False, "a vertex-transitive fixture misses more than one vertex"
    try:
        weak_multicycle_colouring(cubic_no_perfect_matching())
        return False, "the cut-vertex cubic graph decomposed unexpectedly"
    except NoPerfectMatching:
        pass
    return True, "2-factorizations, matchings and the cubic counterexample behave"


def c09_roundtrip():
    for name, g in roundtrip_corpus().items():
        p = pipeline_presentation(g)
        if validate(p):
            return False, f"{name}: extracted presentation invalid"
        if isomorphic(build_sp(p), presentation_graph(p),
                      respect_colours=True) is None:
            return False, f"{name}: rebuild is not colour-isomorphic"
    return True, f"{len(roundtrip_corpus())} fixtures rebuilt"


def c10_two_ended():
    window = two_ended_window(-6, 6)
    interior = [window.names[v] for v in range(window.n)
                if -6 < window.names[v][0] < 6]
    interior_set = set(interior)
    for d in window.edges():
        u, v = window.names[window.src(d)], window.names[window.tau[d]]
        if u not in interior_set or v not in interior_set:
            continue
        for name in ("sigma", "tau"):
            if not two_ended_adjacent(two_ended_auto(name, u),
                                      two_ended_auto(name, v)):
                return False, f"{name} breaks the edge {u} {v}"
    for (n, k) in interior:
        word = ([("sigma", 1)] * n if n >= 0 else [("sigma", -1)] * (-n)) \
            + ([("tau", 1)] * k)
        if two_ended_word(word, (0, 0)) != (n, k):
            return False, f"transitivity witness misses ({n},{k})"
    stab = parse_auto_word("t^-3 s t s")
    if two_ended_word(stab, (0, 0)) != (0, 0):
        return False, "the stabilising word moves the base vertex"
    if two_ended_word(stab, (0, 1)) != (0, 9):
        return False, "the stabilising word acts incorrectly on (0,1)"
    composites = [
        (("tau", "sigma_tilde", "tau", "sigma_tilde"), (0, 3)),
        (("tau_tilde", "sigma", "tau_tilde", "sigma"), (0, 2)),
        (("tau_tilde", "sigma_tilde", "tau_tilde", "sigma_tilde"), (0, 9)),
    ]
    sample = [(n, k) for n in range(-2, 3) for k in range(10)]
    for names, fixed in composites:
        word = [(name, 1) for name in names]
        if two_ended_word(word, fixed) != fixed:
            return False, f"{names} does not fix {fixed}"
        if all(two_ended_word(word, v) == v for v in sample):
            return False, f"{names} is the identity"
    return True, "edges preserved, transitivity and the fixed-point certificates hold"


def c11_complete_graph_factorizations():
    for n in range(2, 13):
        fact = k_n_factorization(n)
        classes = fact.colouring.colour_classes()
        expected = (n - 1) // 2 if n % 2 else n - 1
        if len(classes) != expected:
            return False, f"K_{n}: {len(classes)} colours, expected {expected}"
        if sorted(d for ds in classes.values() for d in ds) != fact.graph.edges():
            return False, f"K_{n}: colours do not partition the edges"
        if not is_multicycle(fact.graph, fact.colouring):
            return False, f"K_{n}: not a multicycle colouring"
        for colour, perm in fact.perms.items():
            if any(perm[i] == i for i in range(n)):
                return False, f"K_{n}: colour {colour} has a fixed point"
    return True, "n = 2..12 factorized and validated"


def all_matchings(g):
    """Every matching of a small graph, by brute force (the oracle side), as
    tuples of canonical darts."""
    edges = [d for d in g.edges() if not g.is_loop(d)]
    out = []

    def recurse(i, used, chosen):
        if i == len(edges):
            out.append(chosen)
            return
        recurse(i + 1, used, chosen)
        u, v = g.edge_ends(edges[i])
        if u not in used and v not in used:
            recurse(i + 1, used | {u, v}, chosen + (edges[i],))

    recurse(0, frozenset(), ())
    return out


def _appendix_fixtures():
    path5 = ColouredGraph()
    for _ in range(5):
        path5.add_vertex()
    for i in range(4):
        path5.add_edge(i, i + 1)
    star = ColouredGraph()
    for _ in range(6):
        star.add_vertex()
    for i in range(1, 6):
        star.add_edge(0, i)
    glued = ColouredGraph()
    for _ in range(7):
        glued.add_vertex()
    for a, b in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)):
        glued.add_edge(a, b)
    return [
        ("P5", Exhaustion(path5, [{2}, {1, 2, 3}, set(range(5))])),
        ("star", Exhaustion(star, [{0}, set(range(3)), set(range(6))])),
        ("C6", Exhaustion(cycle_graph(6), [{0, 1}, set(range(4)), set(range(6))])),
        ("glued", Exhaustion(glued, [{2, 3}, set(range(5)), set(range(7))])),
        ("K4", Exhaustion(complete_graph(4), [{0}, set(range(4))])),
    ]


def c12_appendix_finitization():
    for name, ex in _appendix_fixtures():
        if not ex.connected:
            return False, f"{name}: a level does not induce a connected subgraph"
        staged = maximal_matching_wrt_miss(ex)
        matchings = [Matching(ex.graph, ds) for ds in all_matchings(ex.graph)]
        best = min(miss_sequence(m, ex) for m in matchings)
        if miss_sequence(staged, ex) != best:
            return False, f"{name}: staged optimum {miss_sequence(staged, ex)} != {best}"
        optima = [m for m in matchings if miss_sequence(m, ex) == best]
        for m1 in optima:
            for m2 in optima:
                for entry in symmetric_difference_report(m1, m2, ex):
                    if entry["boundary"]:
                        continue
                    if not entry["even"] or not entry["alternating"]:
                        return False, f"{name}: odd or non-alternating component"
                    if entry["kind"] == "path" and not entry["same_shell"]:
                        return False, f"{name}: path endpoints in different shells"
    for n in range(1, 6):
        ex, matching = windowed_perfect_matching("two-ended", n)
        if any(not matching.covers(v) for v in ex.levels[-1]):
            return False, f"two-ended ball {n} left uncovered"
    return True, "staged optima match brute force; window balls covered"


def presentation_fixtures():
    _, closing = counterexample_presentations()
    d10 = line_graph_presentation(["a", "b"], ["a^5", "b^2", "a b a^-1 b^-1"])
    fixtures = {
        "petersen(5,2)": (from_two_partite(petersen_presentation(5, 2)), ["a"]),
        "petersen(7,3)": (from_two_partite(petersen_presentation(7, 3)), ["a"]),
        "petersen(4,1)": (from_two_partite(petersen_presentation(4, 1)), ["a"]),
        "counterexample": (from_two_partite(closing), ["a"]),
        "line-petersen": (line_petersen_presentation(), None),
        "dihedral-line": (d10.presentation, None),
        "pipeline-C6": (pipeline_presentation(cycle_graph(6)), None),
        "pipeline-K4": (pipeline_presentation(complete_graph(4)), None),
    }
    from .extract import bicayley_to_presentation
    tp = bicayley_to_presentation(cyclic_group(5), [1, 4], [2, 3], [0])
    fixtures["bicayley-Z5"] = (from_two_partite(tp), list(tp.s1))
    haar = bicayley_to_presentation(cyclic_group(3), [], [], [0, 1, 2])
    fixtures["haar-Z3"] = (from_two_partite(haar), list(haar.s1))
    return fixtures


def c13_builder_invariants():
    for name, (p, s1) in presentation_fixtures().items():
        if validate(p):
            return False, f"{name}: presentation invalid"
        report = invariant_report(p, tp_s1=s1)
        if not all(report.values()):
            return False, f"{name}: {report}"
    return True, f"{len(presentation_fixtures())} presentation fixtures verified"


CRITERIA = [
    ("1 petersen build", c01_petersen_build),
    ("2 petersen sweep", c02_petersen_sweep),
    ("3 vertex groups", c03_vertex_groups),
    ("4 non-cayley petersen", c04_non_cayley),
    ("5 uniform counterexample", c05_counterexample_figure),
    ("6 line petersen presentation", c06_line_petersen),
    ("7 dihedral line graph", c07_dihedral_line_graph),
    ("8 decompositions", c08_decompositions),
    ("9 roundtrip", c09_roundtrip),
    ("10 two-ended certificate", c10_two_ended),
    ("11 complete graph factorizations", c11_complete_graph_factorizations),
    ("12 appendix finitization", c12_appendix_finitization),
    ("13 builder invariant suite", c13_builder_invariants),
]


def run_suite():
    """Run every criterion in order; one result per criterion with its name,
    verdict and detail line.  A criterion that raises fails with the
    exception as its detail."""
    results = []
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, do not hide
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"criterion": name, "pass": ok, "detail": detail})
    return results
