import itertools
import random
import re
from collections import Counter, deque

import pytest
from hypothesis import strategies as st

from parcay.acceptance import all_matchings  # noqa: F401
from parcay.constructions import complete_graph, cycle_graph  # noqa: F401
from parcay.decompose import EdgeColouring, maximum_matching
from parcay.errors import NotCayleyLike, WordSyntaxError
from parcay.graph import (ColouredGraph, _letter_for_colour, cayley_like_witness,
                          graph_alphabet, spanning_tree)
from parcay.presentation import PartitePresentation
from parcay.words import MAX_WORD_LETTERS, Alphabet, ClassAction, Word
from parcay.words import reduce as word_reduce


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_connected_graph(n, p, seed):
    """Random spanning tree plus density-p extra edges."""
    rng = random.Random(seed)
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    order = list(range(n))
    rng.shuffle(order)
    present = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        g.add_edge(u, v)
        present.add(frozenset((u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((i, j)) not in present and rng.random() < p:
                g.add_edge(i, j)
    return g


def scan_out_darts(g, v):
    """Independent oracle: the darts leaving v, by a scan of every dart."""
    return {d for d in range(g.n_darts) if g.tau[d ^ 1] == v}


def scan_connected(g, vertices):
    """Independent oracle: connectivity of the subgraph induced on
    ``vertices``, by a union-find over every dart."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for d in range(g.n_darts):
        u, w = g.tau[d ^ 1], g.tau[d]
        if u in parent and w in parent:
            parent[find(u)] = find(w)
    return len({find(v) for v in parent}) <= 1


def brute_force_automorphisms(g, colour_preserving=False):
    """Independent oracle: every vertex permutation that maps the multiset
    of darts (source, head and, if asked, colour) onto itself, in
    lexicographic order."""
    def darts(p):
        return Counter((p[g.tau[d ^ 1]], p[g.tau[d]],
                        g.colour[d] if colour_preserving else None)
                       for d in range(g.n_darts))

    identity = darts(range(g.n))
    return [p for p in itertools.permutations(range(g.n)) if darts(p) == identity]


def root_path_cycle_words(g, base, alphabet=None):
    """Independent oracle for ``fundamental_cycle_words``: the word of each
    non-tree edge u -> w is the root path to u, the edge, and the inverse of
    the root path to w, reduced; root paths are built recursively and kept
    for every vertex."""
    witness = cayley_like_witness(g)
    if witness is None:
        raise NotCayleyLike("graph colouring is not Cayley-like")
    alphabet = alphabet or graph_alphabet(g)
    parent, _ = spanning_tree(g, base)

    path_letters = {base: []}

    def letters_to(v):
        if v not in path_letters:
            d = parent[v]
            path_letters[v] = letters_to(g.src(d)) + [
                _letter_for_colour(alphabet, g, g.colour[d])]
        return path_letters[v]

    tree_darts = {d for d in parent if d is not None}
    tree_darts |= {d ^ 1 for d in tree_darts}
    out = []
    for d in g.edges():
        if d in tree_darts:
            continue
        u, w = g.src(d), g.tau[d]
        letters = (letters_to(u) + [_letter_for_colour(alphabet, g, g.colour[d])]
                   + [alphabet.inverse_letter(c) for c in reversed(letters_to(w))])
        out.append(word_reduce(letters, alphabet))
    return out


def two_sided_closure(perms, cap=None):
    """Independent oracle for ``mulclose``: close a permutation set by
    multiplying every new element by every element found so far, on both
    sides; None once the closure has more than ``cap`` elements."""
    def mul(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    n = len(next(iter(perms)))
    ident = tuple(range(n))
    group = {ident}
    frontier = set(perms) - group
    group |= frontier
    while frontier:
        new = set()
        for p in frontier:
            for q in list(group):
                for r in (mul(p, q), mul(q, p)):
                    if r not in group:
                        new.add(r)
            if cap is not None and len(group) + len(new) > cap:
                return None
        group |= new
        frontier = new
    return group


def table_cayley_graph(group, gens):
    """Independent oracle for ``build_sp`` of one-class presentations: the
    Cayley graph of a ``FiniteGroupTable``, read straight off its
    multiplication table.  ``gens`` maps each free generator's name to its
    element; every element x gets an edge x -> x s coloured by that name,
    and every vertex is in class "0"."""
    g = ColouredGraph()
    for _ in range(len(group)):
        g.add_vertex(cls="0")
    for name in gens:
        g.declare_colour(name, name + "^-1")
    for x in range(len(group)):
        for name, s in gens.items():
            g.add_edge(x, group.mul(x, s), name)
    return g


def action_darts(p):
    """Independent oracle for ``presentation_graph``: the multiset of its
    darts as (source class, head class, colour), read off the class action.
    A free generator a gives, at every class x, the dart x -> a(x) coloured
    a and its reverse coloured a^-1; an involutive generator b, a
    fixed-point-free involution, gives the dart x -> b(x) coloured b at
    every class x, so each of its edges is counted from both ends."""
    darts = Counter()
    for name in p.alphabet.u_gens:
        for x, y in p.action.table(name).items():
            darts[(x, y, name)] += 1
            darts[(y, x, name + "^-1")] += 1
    for name in p.alphabet.i_gens:
        for x, y in p.action.table(name).items():
            darts[(x, y, name)] += 1
    return darts


def bfs_levels(g, cuts, start=0):
    """Nested vertex sets from BFS prefixes; each induces a connected
    subgraph."""
    from collections import deque
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbours(v):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return [frozenset(order[:k]) for k in cuts]


def brute_force_max_matching_size(g):
    """Independent oracle: exhaustive search over all matchings."""
    edges = [d for d in g.edges() if not g.is_loop(d)]

    def best(i, used):
        if i == len(edges):
            return 0
        score = best(i + 1, used)
        u, v = g.edge_ends(edges[i])
        if u not in used and v not in used:
            score = max(score, 1 + best(i + 1, used | {u, v}))
        return score

    return best(0, frozenset())


def doubled_graph_coverable(g, vertices):
    """Independent oracle for ``is_coverable``: take two copies of the graph
    without its loops and join each vertex outside ``vertices`` to its copy;
    the set is coverable exactly when that graph has a perfect matching."""
    forced = set(vertices)
    gg = ColouredGraph()
    for _ in range(2 * g.n):
        gg.add_vertex()
    for d in g.edges():
        u, v = g.edge_ends(d)
        if u != v:
            gg.add_edge(u, v)
            gg.add_edge(g.n + u, g.n + v)
    for v in range(g.n):
        if v not in forced:
            gg.add_edge(v, g.n + v)
    return maximum_matching(gg).is_perfect()


# Independent oracles for the colour-class walks: the multicycle predicates
# by a BFS over each class with its own degree count, the cycle orientation
# by a least-neighbour walk, and the symmetric-difference report by a DFS
# over the difference with its own degree count.

def class_degree(colouring, colour):
    """Per-vertex degrees of one colour class."""
    deg = [0] * colouring.graph.n
    for d, c in colouring.mapping.items():
        if c != colour:
            continue
        u, v = colouring.graph.edge_ends(d)
        deg[u] += 1
        deg[v] += 1
    return deg


def bfs_class_components(g, darts):
    """Components of one colour class: list of (vertex set, edge set)."""
    adj = {}
    for d in darts:
        u, v = g.edge_ends(d)
        adj.setdefault(u, []).append((v, d))
        adj.setdefault(v, []).append((u, d))
    seen = set()
    out = []
    for start in adj:
        if start in seen:
            continue
        comp_v = set()
        comp_e = set()
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp_v.add(v)
            for w, d in adj[v]:
                comp_e.add(d)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append((comp_v, comp_e))
    return out


def bfs_is_weak_multicycle(g, colouring):
    if not colouring.is_total():
        return False
    for colour, darts in colouring.colour_classes().items():
        deg = Counter()
        for d in darts:
            u, v = g.edge_ends(d)
            deg[u] += 1
            deg[v] += 1
        if any(k > 2 for k in deg.values()):
            return False
        for comp_v, comp_e in bfs_class_components(g, darts):
            ones = [v for v in comp_v if deg[v] == 1]
            if ones and len(comp_e) != 1:
                return False
            if not ones and len(comp_e) != len(comp_v):
                return False
    return True


def bfs_is_partition_friendly(g, colouring):
    if not bfs_is_weak_multicycle(g, colouring):
        return False
    for colour in colouring.colour_classes():
        deg = class_degree(colouring, colour)
        if len(set(deg)) != 1 or deg[0] == 0:
            return False
    return True


def bfs_is_multicycle(g, colouring):
    if not bfs_is_partition_friendly(g, colouring):
        return False
    for colour, darts in colouring.colour_classes().items():
        deg = class_degree(colouring, colour)
        if deg[0] == 1:
            continue
        lengths = {len(comp_e) for _, comp_e in bfs_class_components(g, darts)}
        if len(lengths) != 1:
            return False
    return True


def least_neighbour_successors(g, darts):
    """Orientation of a class of cycles: the successor dart per vertex, each
    cycle traversed from its least vertex toward its least (head, dart)."""
    free = set(darts) | {d ^ 1 for d in darts}
    succ = {}
    for start in sorted({g.src(d) for d in free}):
        here = start
        while here not in succ:
            e = min((x for x in g.out_darts(here) if x in free),
                    key=lambda x: (g.tau[x], x))
            succ[here] = e
            free -= {e, e ^ 1}
            here = g.tau[e]
    return succ


def dfs_symmetric_difference_report(m1, m2, exhaustion):
    g = exhaustion.graph
    sym = m1.darts ^ m2.darts
    adj = {}
    for d in sym:
        u, v = g.edge_ends(d)
        adj.setdefault(u, []).append((v, d))
        adj.setdefault(v, []).append((u, d))
    seen_v = set()
    reports = []
    for start in sorted(adj):
        if start in seen_v:
            continue
        comp_v, comp_e = set(), set()
        stack = [start]
        seen_v.add(start)
        while stack:
            v = stack.pop()
            comp_v.add(v)
            for w, d in adj[v]:
                comp_e.add(d)
                if w not in seen_v:
                    seen_v.add(w)
                    stack.append(w)
        degrees = {v: sum(1 for _, d in adj[v] if d in comp_e) for v in comp_v}
        ends = sorted(v for v, k in degrees.items() if k == 1)
        kind = "cycle" if not ends else "path"
        boundary = bool(comp_v & exhaustion.frontier)
        alternating = all(
            len({d in m1.darts for _, d in adj[v] if d in comp_e}) == 2
            for v in comp_v if degrees[v] == 2)
        entry = {
            "kind": kind,
            "vertices": sorted(comp_v),
            "n_edges": len(comp_e),
            "boundary": boundary,
            "alternating": alternating,
            "even": len(comp_e) % 2 == 0,
        }
        if kind == "path" and not boundary:
            shells = [exhaustion.shell(v) for v in ends]
            entry["endpoint_shells"] = shells
            entry["same_shell"] = len(set(shells)) == 1
        reports.append(entry)
    return reports


@st.composite
def multigraph_colourings(draw):
    """A multigraph of at most 10 vertices, loops and parallel edges
    allowed, with an edge colouring.  Either the edges and colours are
    random and an edge may stay uncoloured, or each colour class is a
    spanning union of cycles of mixed lengths (a loop, two parallel edges,
    or a longer cycle) or a perfect matching, added in random order and
    direction, and then up to two edges are recoloured or uncoloured."""
    n = draw(st.integers(1, 10))
    g = ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    colours = st.sampled_from(["x", "y", "z"])
    cycles = draw(st.booleans())
    if not cycles:
        ends = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(ends, ends, st.none() | colours),
                              max_size=2 * n))
    else:
        edges = []
        for colour in draw(st.lists(colours, min_size=1, max_size=3, unique=True)):
            order = draw(st.permutations(range(n)))
            if n % 2 == 0 and draw(st.booleans()):
                edges += [(order[i], order[i + 1], colour) for i in range(0, n, 2)]
                continue
            i = 0
            while i < n:
                cycle = order[i:i + draw(st.integers(1, n - i))]
                edges += [(v, cycle[(j + 1) % len(cycle)], colour)
                          for j, v in enumerate(cycle)]
                i += len(cycle)
        edges = [(v, u, c) if draw(st.booleans()) else (u, v, c)
                 for u, v, c in draw(st.permutations(edges))]
    mapping = {}
    for u, v, colour in edges:
        d = g.add_edge(u, v)
        if colour is not None:
            mapping[d] = colour
    recoloured = st.lists(st.sampled_from(sorted(mapping)), max_size=2,
                          unique=True) if cycles else st.just([])
    for d in draw(recoloured):
        colour = draw(st.none() | colours)
        if colour is None:
            del mapping[d]
        else:
            mapping[d] = colour
    return g, EdgeColouring(g, mapping)


@pytest.fixture
def petersen_sp():
    from parcay.builder import build_sp
    from parcay.constructions import petersen_presentation
    from parcay.presentation import from_two_partite

    return build_sp(from_two_partite(petersen_presentation(5, 2)))


# Independent oracle: the positional word scanner alone, with no token
# table in front of it.  It reads one factor at a time with the regular
# expression below, splits name runs longest match first and spells the
# letters out group by group.
_ORACLE_FACTOR = re.compile(r"\s*(?:(\()|(?:(\))|(\w+))(\s*\^\s*([+-]?[0-9]+)?)?)")
_ORACLE_SPACE = re.compile(r"\s*")


def _oracle_lex_names(run, alphabet, pos):
    if run in alphabet.names:
        return [run]
    out = []
    i = 0
    names = sorted(alphabet.names, key=len, reverse=True)
    while i < len(run):
        for name in names:
            if run.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise WordSyntaxError(f"unknown generator in {run!r}", pos + i)
    return out


def positional_parse_word(text, alphabet):
    groups = [[]]
    pos = 0
    while True:
        m = _ORACLE_FACTOR.match(text, pos)
        if m is None:
            break
        pos = m.end()
        opening, closing, run, caret, exponent = m.groups()
        if opening:
            groups.append([])
            continue
        if closing:
            if len(groups) == 1:
                raise WordSyntaxError("unexpected character ')'", m.start(2))
            sub = groups.pop()
        else:
            sub = [alphabet.code(name)
                   for name in _oracle_lex_names(run, alphabet, m.start(3))]
        k = 1
        if caret:
            if exponent is None:
                sign = text[pos:pos + 1] in ("+", "-")
                raise WordSyntaxError("expected an integer exponent", pos + sign)
            k = int(exponent)
        if len(groups[-1]) + len(sub) * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word longer than {MAX_WORD_LETTERS} letters",
                m.start(5 if caret else 2 if closing else 3))
        if k < 0:
            sub = [alphabet.inverse_letter(c) for c in reversed(sub)]
        if sub and abs(k) != 1:
            sub = sub * abs(k)
        groups[-1].extend(sub)
    pos = _ORACLE_SPACE.match(text, pos).end()
    if pos < len(text):
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    if len(groups) > 1:
        raise WordSyntaxError("unbalanced parenthesis", pos)
    return word_reduce(groups[0], alphabet)


# Oracle for the coset enumeration: the relator loops of ``CosetTable.run``
# and ``CosetTable.is_closed`` as they stood before a closed walk of a power
# of one letter came to certify that power at every row it passes.  They
# scan every relator at every row of its class.

def scan_everything_run(table, base_class=None):
    p = table.p
    base_class = base_class or p.classes[0]
    base = table.new_row(base_class, 0)
    parent, slots, width, dist = table.parent, table.table, table.width, table.dist
    max_dist = table.max_dist
    idx = 0
    while idx < len(parent):
        v = idx
        idx += 1
        if parent[v] != v:
            continue
        for rel in table.relators[table.cls[v]]:
            if max_dist is not None and dist[v] + len(rel) > max_dist:
                continue
            table.scan(v, rel)
            if parent[v] != v:
                break
        if parent[v] != v:
            continue
        if max_dist is not None and dist[v] >= max_dist:
            continue
        row = v * width
        for s in range(width):
            if slots[row + s] is None:
                table.define(v, s)
    return table.find(base)


def scan_everything_is_closed(table):
    slots, width = table.table, table.width
    for v in table.live_rows():
        if None in slots[v * width:(v + 1) * width]:
            return False
        for rel in table.relators[table.cls[v]]:
            if not table.scan_closes(v, rel):
                return False
    return True


def _return_path(action, codes, start, goal):
    """Letters of a shortest walk of the class action from start to goal."""
    path = {start: []}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for c in codes:
            y = action.image(c, x)
            if y not in path:
                path[y] = path[x] + [c]
                queue.append(y)
    return path[goal]


@st.composite
def power_presentations(draw):
    """Small partite presentations whose classes carry powers of one letter,
    class-fixing or class-moving, beside closed words that may use involutive
    letters.  The class action need not be transitive."""
    n = draw(st.integers(1, 4), label="classes")
    classes = tuple(str(i) for i in range(n))
    u_gens = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    i_gens = tuple(f"t{i}" for i in range(
        draw(st.integers(0, 2)) if n % 2 == 0 else 0))
    images = {}
    for name in u_gens:
        images[name] = dict(zip(classes, draw(st.permutations(classes))))
    for name in i_gens:
        perm = draw(st.permutations(classes))
        images[name] = {**dict(zip(perm[::2], perm[1::2])),
                        **dict(zip(perm[1::2], perm[::2]))}
    alphabet = Alphabet(u_gens, i_gens)
    action = ClassAction(alphabet, classes, images)
    codes = alphabet.letters()
    free = codes[:2 * len(u_gens)]
    relators = {}
    for x in classes:
        rels = relators[x] = []
        for s in draw(st.lists(st.sampled_from(free), min_size=1, max_size=3)):
            cycle, y = 1, action.image(s, x)
            while y != x:
                cycle, y = cycle + 1, action.image(s, y)
            e = cycle * draw(st.integers(1 if cycle > 1 else 2, 3))
            rels.append(Word(alphabet, [s] * e))
        for walk in draw(st.lists(st.lists(st.sampled_from(codes), min_size=1,
                                           max_size=4), min_size=1, max_size=2)):
            y = x
            for c in walk:
                y = action.image(c, y)
            word = Word(alphabet, walk + _return_path(action, codes, y, x))
            if word:
                rels.insert(draw(st.integers(0, len(rels))), word)
    return PartitePresentation(classes, alphabet, action, relators)
