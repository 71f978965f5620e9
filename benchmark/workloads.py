"""The four workloads.  Each builder takes the seeded random generator and a
scratch directory, writes the inputs there and returns the operations of
one pass.  The seed picks parameters within each size class and relabels
vertex numbers, class names and generator names; the program only ever
sees the generated files and graphs.

An operation's ``call`` is what the benchmark times: one ``parcay`` command
run in-process through ``parcay.cli.main``, or one library call where no
command exists.  ``observe`` turns its return value into plain data
(reading any output file) and ``check`` tests that data against an oracle
of ``oracles.py`` or a property the method must have.  Operations that
fail because of a known fault in the program carry that fault's name.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import graphs as G
import oracles as O


class Op:

    def __init__(self, name, kind, call, check, observe=None, vertices=0,
                 edges=0, fault=None):
        self.name = name
        self.kind = kind
        self.call = call
        self.check = check
        self.observe = observe or (lambda ret: ret)
        self.vertices = vertices
        self.edges = edges
        self.fault = fault


FAULT_BALL = "ball_sp keeps definition depth, not graph distance"
FAULT_KUHN = "RecursionError in two_factor (recursive Kuhn try_augment)"
FAULT_CYCLE_WORDS = "RecursionError in fundamental_cycle_words (recursive letters_to)"


def _parcay():
    import parcay
    import parcay.cli
    return parcay


def cli(*argv):
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _parcay().cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _read(path):
    with open(path) as fh:
        return fh.read()


def _reads(path):
    """observe() for commands writing ``path``: exit code and file text."""
    return lambda ret: (ret[0], _read(path) if ret[0] == 0 else "")


def _names(rng, prefix, count):
    picked = rng.sample(range(100, 1000), count)
    return [f"{prefix}{x}" for x in picked]


def _coprime_offset(rng, base, k, spread):
    while True:
        n = base + rng.randrange(-spread, spread + 1)
        if math.gcd(n, k) == 1:
            return n


def _petersen_pp(n, k, outer, inner, a, b):
    return (f"classes: {outer} {inner}\n"
            f"gen {a} : U : ({outer})({inner})\n"
            f"gen {b} : I : ({outer} {inner})\n"
            f"rel {outer} : {a}^{n}, {a} {b} {a}^{k} {b}\n"
            f"rel {inner} : {a}^{n}\n")


# ---------------------------------------------------------------------------
# enumerate: coset enumeration, as `parcay build` and `parcay ball`.


def _build_petersen_op(tmp, tag, n, k, names):
    outer, inner, a, b = names
    pp = _write(os.path.join(tmp, f"{tag}.pp"), _petersen_pp(n, k, outer, inner, a, b))
    out = os.path.join(tmp, f"{tag}.graph")

    def check(obs):
        code, text = obs
        return code == 0 and O.petersen_build_isomorphism(
            G.parse_graph(text), n, k, a, b, outer)

    return Op(f"build P({n},{k})", "build", lambda: cli("build", pp, "-o", out),
              check, _reads(out), vertices=2 * n, edges=3 * n)


def _build_line_op(tmp, tag, orders, gens):
    p = _parcay()
    rels = [f"{g}^{o}" for g, o in zip(gens, orders)]
    rels += [f"{x} {y} {x}^-1 {y}^-1" for i, x in enumerate(gens) for y in gens[i + 1:]]
    text = p.serialize(p.line_graph_presentation(gens, rels).presentation)
    pp = _write(os.path.join(tmp, f"{tag}.pp"), text)
    out = os.path.join(tmp, f"{tag}.graph")
    order = math.prod(orders)
    size = order * len(gens)

    def check(obs):
        code, gtext = obs
        if code != 0:
            return False
        g = G.parse_graph(gtext)
        if g.n != size or any(g.classes.count(x) != order for x in gens):
            return False
        if not O.relators_close(g, G.parse_presentation(text)):
            return False
        n_cay, cay = O.abelian_cayley(orders)
        n_line, line = G.line_graph(n_cay, cay)
        ref_adj, adj = [[] for _ in range(n_line)], g.adjacency()
        for u, v, _ in line:
            ref_adj[u].append(v)
            ref_adj[v].append(u)
        for i, x in enumerate(gens):
            ref = G.distance_profile(ref_adj, i * order)
            if ref is None or G.distance_profile(adj, g.classes.index(x)) != ref:
                return False
        return True

    return Op(f"build L(Cay(Z{'xZ'.join(map(str, orders))}))", "build",
              lambda: cli("build", pp, "-o", out), check, _reads(out),
              vertices=size, edges=size * (2 * len(gens) - 1))


def _ball_op(tmp, tag, text, radius, spheres, fault=None):
    pp = _write(os.path.join(tmp, f"{tag}.pp"), text)
    out = os.path.join(tmp, f"{tag}.graph")

    def check(obs):
        code, gtext = obs
        if code != 0:
            return False
        g = G.parse_graph(gtext)
        return O.sphere_sizes(g.adjacency(), 0, radius) == spheres

    return Op(f"ball {tag} r{radius}", "ball",
              lambda: cli("ball", pp, "--radius", radius, "-o", out),
              check, _reads(out), vertices=sum(spheres), fault=fault)


def _free_product_pp(rng, kinds):
    """Presentation of a free product: 'U' for Z, 'U2' for Z_2 as a free
    generator with relator g^2, 'I' for Z_2 as an involutive generator.
    Involutive generators must move every class, so with any 'I' there are
    two classes, which the involutions swap."""
    order = list(range(len(kinds)))
    rng.shuffle(order)
    names = _names(rng, "g", len(kinds))
    classes = _names(rng, "c", 2 if "I" in kinds else 1)
    fixed = "".join(f"({x})" for x in classes)
    lines = ["classes: " + " ".join(classes)]
    rels = []
    for i in order:
        kind = kinds[i]
        swap = "(" + " ".join(classes) + ")"
        lines.append(f"gen {names[i]} : {kind[0]} : {swap if kind == 'I' else fixed}")
        if kind == "U2":
            rels.append(f"{names[i]}^2")
    if rels:
        lines += [f"rel {x} : " + ", ".join(rels) for x in classes]
    return "\n".join(lines) + "\n"


def _spheres_from_balls(balls):
    return [balls[0]] + [b - a for a, b in zip(balls, balls[1:])]


def _petersen_ball_spheres(n, k, radius):
    pn, edges = G.petersen(n, k)
    adj = [[] for _ in range(pn)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = G.bfs(adj, 0)
    out = [0] * (radius + 1)
    for d in dist:
        if d <= radius:
            out[d] += 1
    return out


def enumerate_workload(rng, tmp):
    ops = []
    for base, k in ((200, 3), (400, 5), (800, 3)):
        n = _coprime_offset(rng, base, k, 4)
        names = _names(rng, "o", 1) + _names(rng, "i", 1) + _names(rng, "a", 1) \
            + _names(rng, "b", 1)
        ops.append(_build_petersen_op(tmp, f"pk{base}", n, k, names))
    for tag, orders in (("l2", (20, 20)), ("l3", (5, 6, 7)), ("l4", (3, 3, 3, 3))):
        orders = list(orders)
        rng.shuffle(orders)
        ops.append(_build_line_op(tmp, tag, orders, _names(rng, "s", len(orders))))
    for tag, kinds, factors, radius in (("F2", "UU", (0, 0), 8),
                                        ("Z2xZ2xZ", ("I", "I", "U"), (2, 2, 0), 8),
                                        ("Z2xZ", ("U2", "U"), (2, 0), 12)):
        text = _free_product_pp(rng, list(kinds))
        spheres = _spheres_from_balls(O.free_product_balls(factors, radius))
        ops.append(_ball_op(tmp, tag, text, radius, spheres))
    # Known fault: these three balls come out too small.  Their inputs are
    # fixed, so they fail on every seed.
    z3z = "classes: 0 1\ngen a : U : (0)(1)\ngen b : U : (0 1)\nrel 0 : a^3\nrel 1 : a^3\n"
    ops.append(_ball_op(tmp, "Z3xZ", z3z, 6,
                        _spheres_from_balls(O.free_product_balls((3, 0), 6)),
                        fault=FAULT_BALL))
    for n, k, radius in ((5, 2, 1), (100, 3, 60)):
        ops.append(_ball_op(tmp, f"P{n}_{k}", _petersen_pp(n, k, "0", "1", "a", "b"),
                            radius, _petersen_ball_spheres(n, k, radius),
                            fault=FAULT_BALL))
    return ops


# ---------------------------------------------------------------------------
# pipeline: decompose -> extract -> build on large regular graphs.


def _pipeline_ops(tmp, tag, n, edges, fault_step=None, fault=None):
    """The three commands of the pipeline on one graph.  When ``fault``
    makes ``fault_step`` fail, the steps after it fail too, for want of
    its output file, and carry the same fault."""
    m = len(edges)
    gpath = _write(os.path.join(tmp, f"{tag}.graph"), G.graph_text(n, edges))
    col = os.path.join(tmp, f"{tag}.col")
    pp = os.path.join(tmp, f"{tag}.pp")
    built = os.path.join(tmp, f"{tag}.built")

    def coloured():
        c = G.parse_graph(_read(col))
        return c.edges, c.decomp

    def check_decompose(obs):
        code, text = obs
        if code != 0:
            return False
        c = G.parse_graph(text)
        return (c.decomp is not None and O.same_edges(n, edges, c.n, c.edges)
                and O.is_partition_friendly(n, c.edges, c.decomp))

    def check_extract(obs):
        code, text = obs
        return code == 0 and O.extraction_matches(
            G.parse_presentation(text), n, *coloured())

    def check_build(obs):
        code, text = obs
        return code == 0 and O.rebuild_matches_input(
            G.parse_graph(text), n, *coloured())

    steps = [("decompose", lambda: cli("decompose", gpath, "-o", col), check_decompose, col),
             ("extract", lambda: cli("extract", col, "-o", pp), check_extract, pp),
             ("build", lambda: cli("build", pp, "-o", built), check_build, built)]
    ops = []
    for step, call, check, out in steps:
        if step == fault_step:
            fault_step = None
        ops.append(Op(f"{step} {tag}", "pipeline", call, check, _reads(out),
                      vertices=n, edges=m,
                      fault=fault if fault_step is None else None))
    return ops


def pipeline_workload(rng, tmp):
    graphs = []
    n = 600 + rng.randrange(-5, 6)
    graphs.append((f"P{n}_3", *G.petersen(n, 3)))
    n = 400 + rng.randrange(-5, 6)
    graphs.append((f"LP{n}_3", *G.line_graph(*G.petersen(n, 3))))
    n = 600 + rng.randrange(-5, 6)
    graphs.append((f"Haar{n}", *G.haar(n, (0, 1, 3))))
    graphs.append(("K48", *G.complete(48)))
    n = 1000 + rng.randrange(-10, 11)
    graphs.append((f"C{n}", *G.cycle(n)))
    ops = []
    for tag, nv, edges in graphs:
        edges, _ = G.relabel(nv, edges, rng)
        ops += _pipeline_ops(tmp, tag, nv, edges)
    # Known faults, on fixed inputs: both recursions exceed the default
    # interpreter recursion limit.
    ops += _pipeline_ops(tmp, "LP1000_3", *G.line_graph(*G.petersen(1000, 3)),
                         "decompose", FAULT_KUHN)
    ops += _pipeline_ops(tmp, "C3000", *G.cycle(3000),
                         "extract", FAULT_CYCLE_WORDS)
    return ops


# ---------------------------------------------------------------------------
# symmetry: isomorphism, automorphism and Cayley searches, and the suite.


def _petersen_variant(rng, n, k):
    """A parameter l with P(n, l) = P(n, k): k, -k, k^-1 or -k^-1."""
    if math.gcd(n, k) != 1:
        return rng.choice((k, n - k))
    inv = pow(k, -1, n)
    return rng.choice((k, n - k, inv, n - inv))


def _graph_object(rng, n, k):
    """P(n, +-k), relabelled with vertex 0 kept on the outer rim.  The
    searches start from vertex 0, and when the rims are different orbits
    the starting rim sets the size of the search."""
    nv, edges = G.petersen(n, rng.choice((k, n - k)))
    edges, _ = G.relabel(nv, edges, rng, keep_zero=True)
    return nv, edges, _parcay().read_graph(G.graph_text(nv, edges))


def _iso_op(rng, tmp, n, k, l):
    tag = f"iso{n}_{k}_{l}"
    outer, inner, a, b = (_names(rng, p, 1)[0] for p in "oiab")
    pp = _write(os.path.join(tmp, f"{tag}.pp"), _petersen_pp(n, k, outer, inner, a, b))
    left = os.path.join(tmp, f"{tag}.build")
    code, _, err = cli("build", pp, "-o", left)
    if code != 0:
        raise RuntimeError(f"set-up build of P({n},{k}) failed: {err.strip()}")
    nv, edges = G.petersen(n, _petersen_variant(rng, n, l))
    edges, _ = G.relabel(nv, edges, rng)
    right = _write(os.path.join(tmp, f"{tag}.graph"), G.graph_text(nv, edges))
    want = O.petersen_isomorphic(n, k, l)

    def check(obs):
        code, out, _ = obs
        verdict = out.strip()
        return (code, verdict) == ((0, "isomorphic") if want else (1, "not isomorphic"))

    return Op(f"iso P({n},{k}) P({n},{l})", "iso", lambda: cli("iso", left, right),
              check, vertices=2 * n, edges=3 * n)


def _roundtrip_op(rng, tmp, n, k):
    nv, edges = G.petersen(n, _petersen_variant(rng, n, k))
    edges, _ = G.relabel(nv, edges, rng)
    path = _write(os.path.join(tmp, f"rt{n}_{k}.graph"), G.graph_text(nv, edges))
    out = os.path.join(tmp, f"rt{n}_{k}.pp")

    def check(obs):
        code, _, err = obs
        return code == 0 and err.strip() == "roundtrip: isomorphic"

    return Op(f"extract --roundtrip P({n},{k})", "roundtrip",
              lambda: cli("extract", path, "--roundtrip", "-o", out), check,
              vertices=nv, edges=len(edges))


def _aut_op(rng, n, k):
    nv, edges, g = _graph_object(rng, n, k)
    want = O.petersen_aut_order(n, k)

    def check(auts):
        return (len(auts) == want and len(set(auts)) == want
                and tuple(range(nv)) in auts
                and all(O.is_automorphism(a, edges) for a in auts))

    return Op(f"automorphism_group P({n},{k})", "aut",
              lambda: _parcay().automorphism_group(g), check,
              observe=lambda auts: [tuple(a) for a in auts], vertices=nv,
              edges=len(edges))


def _vt_op(rng, n, k):
    nv, edges, g = _graph_object(rng, n, k)
    want = O.petersen_is_vertex_transitive(n, k)
    return Op(f"is_vertex_transitive P({n},{k})", "aut",
              lambda: _parcay().is_vertex_transitive(g), lambda got: got is want,
              vertices=nv, edges=len(edges))


def _cayley_op(rng, n, k):
    nv, edges, g = _graph_object(rng, n, k)
    want = O.petersen_is_cayley(n, k)

    def check(gens):
        if not want:
            return gens is None
        return gens is not None and O.generates_regular_group(gens, nv, edges)

    return Op(f"is_cayley P({n},{k})", "aut", lambda: _parcay().is_cayley(g), check,
              observe=lambda gens: None if gens is None else [tuple(x) for x in gens],
              vertices=nv, edges=len(edges))


def _suite_op():
    def check(obs):
        code, out, _ = obs
        lines = out.splitlines()
        return (code == 0 and len(lines) == 13
                and all(line.startswith("[PASS] criterion ") for line in lines))

    return Op("suite", "suite", lambda: cli("suite"), check)


def symmetry_workload(rng, tmp):
    ops = [_iso_op(rng, tmp, n, k, l)
           for n, k, l in ((10, 3, 3), (11, 2, 2), (12, 5, 5),
                           (13, 2, 4), (16, 2, 3), (13, 3, 2))]
    ops += [_roundtrip_op(rng, tmp, n, k) for n, k in ((48, 7),)]
    ops += [_aut_op(rng, n, k) for n, k in ((7, 2), (10, 2))]
    ops += [_vt_op(rng, n, k) for n, k in ((9, 2), (8, 3))]
    ops += [_cayley_op(rng, n, k) for n, k in ((8, 1), (5, 2), (12, 2))]
    ops.append(_suite_op())
    return ops


# ---------------------------------------------------------------------------
# matching: finite-window matchings.


def _matchings_cli_op(family, n, margin):
    step = 10 if family == "two-ended" else 2
    size = step * (2 * (n + margin) + 1)

    def check(obs):
        code, out, _ = obs
        lines = out.splitlines()
        if code != 0 or len(lines) < 3:
            return False
        zeros = "(" + ", ".join(["0"] * (n + 1)) + ")"
        staged = lines[1].split()
        # The window has a perfect matching (oracles.explicit_perfect_matching),
        # so the staged optimum misses nothing and a maximum matching is perfect.
        if (lines[0] != f"window: {size} vertices, {n + 1} levels"
                or staged[:2] != ["staged", "optimum:"] or int(staged[2]) > size // 2
                or lines[1].split("miss sequence ")[-1] != zeros
                or lines[2] != f"maximum matching: {size // 2} edges, miss sequence {zeros}"):
            return False
        # Components of the symmetric difference of two matchings alternate,
        # and its cycles are even.
        for line in lines[3:]:
            words = line.replace(",", "").replace("(", "").replace(")", "").split()
            if (words[0] != "component:" or words[1] not in ("cycle", "path")
                    or (words[1] == "cycle" and int(words[3]) % 2)
                    or words[-1] != "alternating=True"):
                return False
        return True

    return Op(f"matchings {family} n={n} margin={margin}", "matchings",
              lambda: cli("matchings", "--family", family, "--n", n, "--margin",
                          margin, "--report"), check, vertices=size)


def _window(kind, lo, hi):
    if kind == "two-ended":
        return G.two_ended_window(lo, hi)
    return G.ladder_window(lo, hi)


def _staged_op(rng, kind, layers, levels_n, drop=False):
    """maximal_matching_wrt_miss on a relabelled window of ``layers`` layers
    (rungs for the ladder) whose exhaustion levels are the layers within
    0..levels_n of the middle one.  With ``drop`` one vertex of the last
    layer is removed, which makes the order odd, and the staged optimum is
    compared with brute force; otherwise the window has a perfect matching,
    so the staged optimum must miss no vertex of any level."""
    lo = rng.randrange(-3, 4)
    hi = lo + layers - 1
    mid = lo + (layers - 1) // 2
    nv, edges, layer = _window(kind, lo, hi)
    keep = list(range(nv))
    if drop:
        keep.remove(rng.choice([v for v in range(nv) if layer[v] == hi]))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v], c) for u, v, c in edges if u in index and v in index]
    layer = [layer[v] for v in keep]
    nv = len(keep)
    edges, perm = G.relabel(nv, edges, rng)
    at = [None] * nv
    for v in range(nv):
        at[perm[v]] = layer[v]
    levels = [frozenset(v for v in range(nv) if abs(at[v] - mid) <= k)
              for k in range(levels_n + 1)]
    frontier = frozenset(v for v in range(nv) if at[v] in (lo, hi))
    p = _parcay()
    g = p.read_graph(G.graph_text(nv, edges))
    ex = p.Exhaustion(g, levels, frontier)

    def observe(m):
        return sorted(tuple(sorted(m.graph.edge_ends(d))) for d in m)

    def check(pairs):
        if not O.is_matching(pairs, edges):
            return False
        covered = {v for e in pairs for v in e}
        if drop:
            return O.miss_sequence(covered, levels) == \
                O.best_miss_sequence(nv, edges, levels)
        explicit = O.explicit_perfect_matching(kind, nv)
        return O.is_matching([(perm[u], perm[v]) for u, v in explicit], edges) \
            and levels[-1] <= covered

    tag = "odd " if drop else ""
    return Op(f"maximal_matching_wrt_miss {tag}{kind} {nv}", "matchings",
              lambda: p.maximal_matching_wrt_miss(ex), check, observe, vertices=nv)


def _windowed_op(kind, n, margin):
    size_step = 10 if kind == "two-ended" else 2
    lo, hi = -n - margin, n + margin
    nv, edges, _ = _window(kind, lo, hi)

    def observe(ret):
        ex, m = ret
        g = ex.graph
        names = [g.names[v] for v in range(g.n)]
        gedges = [tuple(g.edge_ends(d)) for d in g.edges()]
        pairs = [tuple(g.edge_ends(d)) for d in m]
        return names, gedges, pairs

    def check(obs):
        names, gedges, pairs = obs
        # The window is re-centred by a translation when the first matching
        # misses the ball, so compare it with the window at that shift.
        shift = min(x[0] for x in names) - lo
        nv2, ref, _ = _window(kind, lo + shift, hi + shift)
        mapped = [(size_step * (names[u][0] - lo - shift) + names[u][1],
                   size_step * (names[v][0] - lo - shift) + names[v][1])
                  for u, v in gedges]
        if len(names) != nv2 or not O.same_edges(nv2, ref, nv2, [(a, b, None) for a, b in mapped]):
            return False
        if not O.is_matching(pairs, [(u, v, None) for u, v in gedges]):
            return False
        covered = {v for e in pairs for v in e}
        ball = [v for v in range(len(names)) if abs(names[v][0]) <= n]
        return all(v in covered for v in ball) and len(pairs) == nv // 2

    return Op(f"windowed_perfect_matching {kind} n={n}", "matchings",
              lambda: _parcay().windowed_perfect_matching(kind, n, margin), check,
              observe, vertices=nv)


def matching_workload(rng, tmp):
    ops = [_matchings_cli_op("two-ended", 5, 2), _matchings_cli_op("two-ended", 6, 2),
           _matchings_cli_op("ladder", 40, 2)]
    ops += [_staged_op(rng, "two-ended", 15, 5), _staged_op(rng, "ladder", 81, 38)]
    ops += [_staged_op(rng, "two-ended", 2, 1, drop=True),
            _staged_op(rng, "ladder", 9, 4, drop=True)]
    ops += [_windowed_op("two-ended", 10, 2), _windowed_op("ladder", 40, 2)]
    return ops


WORKLOADS = {
    "enumerate": enumerate_workload,
    "pipeline": pipeline_workload,
    "symmetry": symmetry_workload,
    "matching": matching_workload,
}
