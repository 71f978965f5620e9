"""Concrete graph and presentation families: generalized Petersen graphs,
bi-Cayley and Haar graphs, line graphs, line-graph presentations of Cayley
graphs, and the two-ended cubic example with its automorphisms."""

from __future__ import annotations

from .builder import build_sp
from .errors import (BadParameters, InfiniteCayleyGraph, LoopsUnsupported,
                     NotSymmetric, Overflow)
from .graph import ColouredGraph
from .presentation import PartitePresentation, two_partite
from .words import Alphabet, ClassAction, Word, _scan, parse_word


# ---------------------------------------------------------------------------
# Cycles, complete graphs and generalized Petersen graphs.


def cycle_graph(n):
    """The n-cycle on vertices named 0..n-1 (n = 2 gives a doubled edge,
    n = 1 a loop)."""
    tau = []
    for i in range(n):
        tau += ((i + 1) % n, i)
    return ColouredGraph(n, tau, names=list(range(n)))


def complete_graph(n):
    """K_n on vertices named 0..n-1."""
    tau = []
    for i in range(n):
        for j in range(i + 1, n):
            tau += (j, i)
    return ColouredGraph(n, tau, names=list(range(n)))


def generalized_petersen(n, k):
    """Outer n-cycle x_i, spokes x_i y_i, inner k-step edges y_i y_{i+k}.
    When 2k = 0 mod n the inner edges come in parallel pairs."""
    if n < 3 or not 1 <= k < n:
        raise BadParameters(f"generalized Petersen graph needs n >= 3 and "
                            f"1 <= k < n, got ({n}, {k})")
    g = ColouredGraph()
    xs = [g.add_vertex(name=("x", i)) for i in range(n)]
    ys = [g.add_vertex(name=("y", i)) for i in range(n)]
    for c in ("outer", "spoke", "inner"):
        g.declare_colour(c)
    for i in range(n):
        g.add_edge(xs[i], xs[(i + 1) % n], "outer")
    for i in range(n):
        g.add_edge(xs[i], ys[i], "spoke")
    seen = set()
    for i in range(n):
        j = (i + k) % n
        key = frozenset((i, j))
        if 2 * k % n != 0:
            if key in seen:
                continue
            seen.add(key)
        g.add_edge(ys[i], ys[j], "inner")
    return g


def petersen_presentation(n, k):
    """Two-partite presentation whose partite Cayley graph is P(n, k)."""
    if n < 3 or not 1 <= k < n:
        raise BadParameters(f"bad generalized Petersen parameters ({n}, {k})")
    return two_partite(["a"], [], ["b"], [f"a^{n}", f"a b a^{k} b"], [f"a^{n}"])


# ---------------------------------------------------------------------------
# Finite groups given by multiplication tables.


class FiniteGroupTable:
    """A finite group as element names plus a multiplication table; the
    group laws are checked on construction."""

    def __init__(self, names, table):
        self.names = tuple(names)
        self.table = [tuple(row) for row in table]
        n = len(self.names)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        idx = {name: i for i, name in enumerate(self.names)}
        if len(idx) != n:
            raise ValueError("element names must be distinct")
        self._index = idx
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        table = self.table
        self.inverse = [next((y for y, xy in enumerate(table[x])
                              if xy == identity and table[y][x] == identity),
                             None) for x in range(n)]
        if None in self.inverse:
            raise ValueError("an element has no inverse")
        # Light's test: the a with (x a) y = x (a y) for all x and y are
        # closed under products, so a generating set suffices.  Each
        # generator is the least element not yet generated; in a group it at
        # least doubles what is generated, so there are at most log2 n.
        generated, gens = {identity}, []
        while len(generated) < n:
            a = min(x for x in range(n) if x not in generated)
            gens.append(a)
            size, generated, stack = len(generated), {identity}, [identity]
            while stack:
                h = stack.pop()
                for s in gens:
                    if table[h][s] not in generated:
                        generated.add(table[h][s])
                        stack.append(table[h][s])
            if len(generated) < 2 * size or any(
                    table[row[a]] != tuple(row[z] for z in table[a])
                    for row in table):
                raise ValueError("multiplication is not associative")

    def __len__(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self.inverse[x]


def cyclic_group(n):
    if n < 1:
        raise BadParameters(f"a cyclic group needs order n >= 1, got {n}")
    names = [f"g{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupTable(names, table)


def dihedral_group(n):
    """Order 2n: elements r^i and r^i s with s r s = r^-1."""
    names = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]

    def mul(x, y):
        i, fx = x % n, x >= n
        j, fy = y % n, y >= n
        if not fx:
            k, f = (i + j) % n, fy
        else:
            k, f = (i - j) % n, not fy
        return k + (n if f else 0)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FiniteGroupTable(names, table)


# ---------------------------------------------------------------------------
# Bi-Cayley graphs.


def _check_symmetric(group, elems, label):
    s = set(elems)
    if {group.inv(x) for x in s} != s:
        raise NotSymmetric(f"{label} is not closed under inverses")
    return sorted(s)


def bi_cayley(group, R, L, S):
    """Bi(G, R, L, S): two copies of G, R-edges inside copy 0, L-edges inside
    copy 1, S-spokes across, each given by element indices 0..|G|-1.  R
    and L must be inverse-closed."""
    for label, elems in (("R", R), ("L", L), ("S", S)):
        if any(not 0 <= x < len(group) for x in elems):
            raise BadParameters(f"{label} must hold element indices "
                                f"0..{len(group) - 1}, got {list(elems)}")
    R = _check_symmetric(group, R, "R")
    L = _check_symmetric(group, L, "L")
    S = sorted(set(S))
    g = ColouredGraph()
    side0 = [g.add_vertex(name=(group.names[x], 0), cls="0") for x in range(len(group))]
    side1 = [g.add_vertex(name=(group.names[x], 1), cls="1") for x in range(len(group))]

    def colour_pair(prefix, x):
        name = f"{prefix}:{group.names[x]}"
        inv = f"{prefix}:{group.names[group.inv(x)]}"
        g.declare_colour(name, inv)
        return name

    seen = set()
    for side, conn in ((side0, R), (side1, L)):
        prefix = "R" if side is side0 else "L"
        for x in range(len(group)):
            for r in conn:
                y = group.mul(x, r)
                key = (prefix, frozenset((x, y)), frozenset((r, group.inv(r))))
                if key in seen and r != group.inv(r):
                    continue
                seen.add(key)
                g.add_edge(side[x], side[y], colour_pair(prefix, r))
    for x in range(len(group)):
        for s in S:
            name = f"S:{group.names[s]}"
            g.declare_colour(name)
            g.add_edge(side0[x], side1[group.mul(x, s)], name)
    return g


# ---------------------------------------------------------------------------
# Cayley graphs and line graphs.


def cayley_graph(gen_names, relator_texts, max_rows=20_000):
    """Cayley graph of ``<gens | relators>`` with every generator giving one
    outgoing edge per sign, so involutions produce parallel edge pairs."""
    alphabet = Alphabet(tuple(gen_names), ())
    action = ClassAction(alphabet, ("*",), {n: {"*": "*"} for n in gen_names})
    relators = [parse_word(t, alphabet) if isinstance(t, str) else t
                for t in relator_texts]
    p = PartitePresentation(("*",), alphabet, action, {"*": relators})
    try:
        g = build_sp(p, max_rows=max_rows)
    except Overflow as exc:
        raise InfiniteCayleyGraph(
            f"coset enumeration exceeded {max_rows} rows") from exc
    for v in range(g.n):
        g.classes[v] = None
    return g


def line_graph(g):
    """Vertices are the undirected edges of g; adjacency is sharing an
    endpoint, counted once per shared endpoint (parallel edges of g are
    joined by a parallel pair)."""
    if any(g.is_loop(d) for d in g.edges()):
        raise LoopsUnsupported("line graphs of graphs with loops are not supported")
    tau = []                    # edge d of g is vertex d >> 1
    for v in range(g.n):
        incident = sorted({d >> 1 for d in g.out_darts(v)})
        for i, a in enumerate(incident):
            for b in incident[i + 1:]:
                tau += (b, a)
    return ColouredGraph(g.n_edges, tau, names=[
        tuple(sorted(g.edge_ends(d))) for d in g.edges()])


# ---------------------------------------------------------------------------
# Line-graph presentations of Cayley graphs.


def _knsym(names):
    """Complete-graph factorization on a symbol set, as permutations."""
    from .decompose import k_n_factorization

    if len(names) <= 1:
        return []
    fact = k_n_factorization(len(names))
    perms = []
    for colour in sorted(fact.perms):
        pi = fact.perms[colour]
        perms.append({names[i]: names[pi[i]] for i in range(len(names))})
    return perms


class LineGraphPresentation:
    """Result bundle: the presentation and a chi translation function on
    signed base letters."""

    def __init__(self, presentation, chi):
        self.presentation = presentation
        self.chi = chi


def line_graph_presentation(gen_names, relator_texts):
    """Presentation of the line graph of ``Cay<gens | relators>`` with one
    vertex class per generator.

    Generators of the output: ``e`` (same-class steps along equally labelled
    base edges) and, per complete-graph factorization colour ``m`` and signs
    i, j, the symbols ``m<idx>_<ij>`` with the identification
    (m_{i,j})^-1 = (m^-1)_{-j,-i}; for matching colours this makes m_pm and
    m_mp involutive while m_pp and m_mm form an inverse pair.  Nothing is
    enumerated, so the group may be infinite.
    """
    gen_names = tuple(gen_names)
    base_alphabet = Alphabet(gen_names, ())

    perms = _knsym(gen_names)
    sign_tag = {1: "p", -1: "m"}

    u_gens, i_gens = ["e"], []
    symbol = {}            # (colour idx, i, j) -> (name, sign) of the letter
    for idx, pi in enumerate(perms):
        involutive = all(pi[pi[x]] == x for x in gen_names)
        for i in (1, -1):
            for j in (1, -1):
                name = f"m{idx}_{sign_tag[i]}{sign_tag[j]}"
                if involutive:
                    # (m_{i,j})^-1 = m_{-j,-i}: pp/mm collapse to one u-gen.
                    if (i, j) == (1, 1):
                        u_gens.append(name)
                        symbol[(idx, 1, 1)] = (name, 1)
                        symbol[(idx, -1, -1)] = (name, -1)
                    elif (i, j) != (-1, -1):
                        i_gens.append(name)
                        symbol[(idx, i, j)] = (name, 1)
                else:
                    u_gens.append(name)
                    symbol[(idx, i, j)] = (name, 1)

    alphabet = Alphabet(tuple(u_gens), tuple(i_gens))
    images = {"e": {x: x for x in gen_names}}
    for idx, pi in enumerate(perms):
        for (cidx, i, j), (name, sign) in symbol.items():
            if cidx == idx and sign == 1:
                images.setdefault(name, dict(pi))
    action = ClassAction(alphabet, gen_names, images)

    colour_of_pair = {}
    for idx, pi in enumerate(perms):
        for x in gen_names:
            colour_of_pair[(x, pi[x])] = (idx, 1)
            colour_of_pair[(pi[x], x)] = (idx, -1)

    def chi(a, b):
        """Letter for a consecutive pair of signed base letters, or None for
        the cancelling pair (s, s^-1)."""
        (na, sa), (nb, sb) = a, b
        if na == nb:
            if sa != sb:
                return None
            return alphabet.code("e", sa)
        idx, direction = colour_of_pair[(na, nb)]
        if direction == 1:
            name, sign = symbol[(idx, sa, sb)]
            return alphabet.code(name, sign)
        name, sign = symbol[(idx, -sb, -sa)]
        return alphabet.code(name, -sign)

    def chi_word(pairs):
        letters = []
        n = len(pairs)
        for t in range(n):
            code = chi(pairs[t], pairs[(t + 1) % n])
            if code is not None:
                letters.append(code)
        return Word(alphabet, letters)

    relators = {x: [] for x in gen_names}
    for text in relator_texts:
        w = text if isinstance(text, Word) else parse_word(text, base_alphabet)
        pairs = w.pairs()
        relators[pairs[0][0]].append(chi_word(pairs))

    signed = [(n, 1) for n in gen_names] + [(n, -1) for n in gen_names]

    def inv_pair(a):
        return (a[0], -a[1])

    seen = set()
    for x in signed:
        for alpha in signed:
            if alpha == inv_pair(x):
                continue
            for beta in signed:
                if beta in (alpha, inv_pair(x)):
                    continue
                letters = [chi(x, alpha), chi(inv_pair(alpha), beta),
                           chi(inv_pair(beta), inv_pair(x))]
                word = Word(alphabet, [c for c in letters if c is not None])
                if not word:
                    continue
                key = (x[0], word.letters)
                if key in seen:
                    continue
                seen.add(key)
                relators[x[0]].append(word)

    presentation = PartitePresentation(gen_names, alphabet, action, relators)
    return LineGraphPresentation(presentation, chi)


# ---------------------------------------------------------------------------
# The cubic two-ended vertex-transitive example.


def two_ended_window(n_min, n_max):
    """Layers n_min..n_max of ten vertices each; each layer spans a 10-cycle
    and consecutive layers are joined by five cross edges.  A single layer
    is a 10-cycle."""
    if n_min > n_max:
        raise BadParameters("need n_min <= n_max")
    layers = range(n_min, n_max + 1)
    tau = []                            # vertex (n, k) is 10 (n - n_min) + k
    for base in range(0, 10 * len(layers), 10):
        for k in range(10):
            tau += (base + (k + 1) % 10, base + k)
    colour = ["ring"] * len(tau)
    for base in range(0, 10 * len(layers) - 10, 10):
        for k in range(1, 10, 2):       # (n, k) -> (n + 1, 2k) for odd k
            tau += (base + 10 + 2 * k % 10, base + k)
    colour += ["cross"] * (len(tau) - len(colour))
    return ColouredGraph(10 * len(layers), tau, colour,
                         [(n, k) for n in layers for k in range(10)],
                         colour_inv={"ring": "ring", "cross": "cross"})


def two_ended_adjacent(u, v):
    """Adjacency in the infinite graph, directly from the edge rules."""
    (n, k), (m, j) = u, v
    if n == m and (k - j) % 10 in (1, 9):
        return True
    for (a, b), (c, d) in (((n, k), (m, j)), ((m, j), (n, k))):
        if c == a + 1 and b % 2 == 1 and d % 10 == (2 * b) % 10:
            return True
    return False


# name -> (a, b, (s, o) for n = 0, 1, 2, 3 mod 4): the automorphism
# (n, k) -> (a n + b, (s k + o) mod 10), with a and s each +1 or -1.
_AFFINE = {
    "sigma": (1, 1, ((1, 0),) * 4),
    "tau": (-1, 0, ((1, 1), (-1, 3), (1, 9), (-1, 7))),
    "sigma_tilde": (1, 1, ((-1, 2), (-1, 4), (-1, 8), (-1, 6))),
    "tau_tilde": (-1, 0, ((-1, 3), (1, 9), (-1, 7), (1, 1))),
}


def two_ended_auto(name, v):
    """Evaluate a named automorphism, or its inverse ``name^-1``, at a
    vertex (n, k)."""
    inverse = name.endswith("^-1")
    try:
        a, b, rows = _AFFINE[name[:-3] if inverse else name]
    except KeyError:
        raise BadParameters(f"unknown automorphism {name!r}") from None
    n, k = v
    if not inverse:
        s, o = rows[n % 4]
        return a * n + b, (s * k + o) % 10
    n = a * (n - b)                     # the preimage, as a and s are +-1
    s, o = rows[n % 4]
    return n, s * (k - o) % 10


def two_ended_word(letters, v):
    """Apply a composition word right to left: the last letter acts first.

    Letters are (name, exponent sign) pairs over the named automorphisms.
    """
    for name, sign in reversed(list(letters)):
        v = two_ended_auto(name if sign > 0 else name + "^-1", v)
    return v


_AUTO_LETTERS = Alphabet(("s", "t"))
# letter code of _AUTO_LETTERS -> (name, sign) for two_ended_word
_AUTO_PAIRS = {1: ("sigma", 1), -1: ("sigma", -1), 2: ("tau", 1), -2: ("tau", -1)}


def parse_auto_word(text):
    """Parse words like ``t^-3 s t s`` over s=sigma, t=tau with the grammar
    of ``parse_word``.  The letters come back as written, unreduced, as
    (name, sign) pairs: ``t t^-1`` applies both maps."""
    return [_AUTO_PAIRS[c] for c in _scan(text, _AUTO_LETTERS)]


# ---------------------------------------------------------------------------
# The cubic regular graph without a perfect matching (three odd gadgets on a
# cut vertex).


def cubic_no_perfect_matching():
    g = ColouredGraph()
    hub = g.add_vertex(name="v")
    gadget_edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
                    (4, 5), (4, 7), (5, 6), (6, 7)]
    for copy in range(3):
        ids = {i: g.add_vertex(name=(copy, i)) for i in range(1, 8)}
        g.add_edge(hub, ids[1])
        for a, b in gadget_edges:
            g.add_edge(ids[a], ids[b])
    return g
