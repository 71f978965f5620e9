"""Graph families, relabelling and the text formats, written apart from the
library so that the benchmark's inputs and its oracles share no code with
the program they measure.

A graph here is a vertex count plus a list of edges ``(u, v, colour)``;
``colour`` is ``None`` for uncoloured edges.  Parallel edges are repeated
entries.
"""

from __future__ import annotations

from collections import deque


# ---------------------------------------------------------------------------
# Families.


def petersen(n, k):
    """P(n, k): outer cycle x_i = i, spokes x_i y_i, inner edges y_i y_{i+k},
    with y_i = n + i.  Needs 2k != n, so that the graph is simple."""
    edges = [(i, (i + 1) % n, None) for i in range(n)]
    edges += [(i, n + i, None) for i in range(n)]
    edges += [(n + i, n + (i + k) % n, None) for i in range(n)]
    return 2 * n, edges


def line_graph(n, edges):
    """Vertices are the edges of the input; two are adjacent once for each
    endpoint they share."""
    at = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(edges):
        at[u].append(i)
        at[v].append(i)
    out = []
    for inc in at:
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                out.append((inc[a], inc[b], None))
    return len(edges), out


def haar(n, shifts):
    """Haar graph of Z_n: (i, 0) is i, (i, 1) is n + i, edges (i, 0)(i + s, 1)."""
    return 2 * n, [(i, n + (i + s) % n, None) for i in range(n) for s in shifts]


def complete(n):
    return n, [(i, j, None) for i in range(n) for j in range(i + 1, n)]


def cycle(n):
    return n, [(i, (i + 1) % n, None) for i in range(n)]


def two_ended_window(lo, hi):
    """Layers lo..hi of the cubic two-ended graph, from its edge rules: each
    layer is a 10-cycle, and (m, 2j + 1) is joined to (m + 1, 4j + 2 mod 10).
    Vertex (m, j) is numbered 10 (m - lo) + j."""
    def vid(m, j):
        return 10 * (m - lo) + j
    edges = []
    for m in range(lo, hi + 1):
        edges += [(vid(m, j), vid(m, (j + 1) % 10), None) for j in range(10)]
    for m in range(lo, hi):
        edges += [(vid(m, 2 * j + 1), vid(m + 1, (4 * j + 2) % 10), None)
                  for j in range(5)]
    layer = [m for m in range(lo, hi + 1) for _ in range(10)]
    return 10 * (hi - lo + 1), edges, layer


def ladder_window(lo, hi):
    """Rungs (i, 0)(i, 1) and rails along each side, for i in lo..hi.
    Vertex (i, s) is numbered 2 (i - lo) + s."""
    edges = []
    for i in range(lo, hi + 1):
        a = 2 * (i - lo)
        edges.append((a, a + 1, None))
        if i < hi:
            edges += [(a, a + 2, None), (a + 1, a + 3, None)]
    layer = [i for i in range(lo, hi + 1) for _ in range(2)]
    return 2 * (hi - lo + 1), edges, layer


# ---------------------------------------------------------------------------
# Relabelling.


def relabel(n, edges, rng, keep_zero=False):
    """Random vertex numbering and edge order.  Returns the new edge list and
    the permutation ``perm`` (old vertex -> new vertex).  With ``keep_zero``
    vertex 0 keeps its number."""
    perm = list(range(n))
    rng.shuffle(perm)
    if keep_zero:
        i = perm.index(0)
        perm[0], perm[i] = 0, perm[0]
    out = [(perm[u], perm[v], c) if rng.random() < 0.5 else (perm[v], perm[u], c)
           for u, v, c in edges]
    rng.shuffle(out)
    return out, perm


# ---------------------------------------------------------------------------
# Text formats.


def graph_text(n, edges):
    lines = [f"vertices {n}"]
    lines += [f"edge {u} {v}" for u, v, _ in edges]
    return "\n".join(lines) + "\n"


class ParsedGraph:
    """A graph file read back: coloured darts, class labels and an optional
    decomposition colour per edge line."""

    def __init__(self, n, edges, classes, colour_inv, decomp):
        self.n = n
        self.edges = edges            # (u, v, colour) per edge line
        self.classes = classes        # vertex -> class label or None
        self.colour_inv = colour_inv  # declared colour -> inverse colour
        self.decomp = decomp          # per edge line, or None

    def inverse(self, colour):
        return self.colour_inv.get(colour, colour)

    def out_table(self):
        """vertex -> {colour: head}; None if some colour leaves a vertex
        twice (the colouring is then not Cayley-like)."""
        out = [dict() for _ in range(self.n)]
        for u, v, c in self.edges:
            for a, b, col in ((u, v, c), (v, u, self.inverse(c))):
                if col in out[a]:
                    return None
                out[a][col] = b
        return out

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def parse_graph(text):
    n = None
    edges, colour_inv, class_lines, decomp = [], {}, [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        head = line[0]
        if head == "vertices":
            n = int(line[1])
        elif head == "colour":
            colour_inv[line[1]] = line[2]
            colour_inv[line[2]] = line[1]
        elif head == "class":
            class_lines.append((int(line[1]), line[2]))
        elif head == "edge":
            u, v = int(line[1]), int(line[2])
            colour = line[3] if len(line) > 3 and line[3] != "-" else None
            edges.append((u, v, colour))
            decomp.append(line[4] if len(line) > 4 else None)
        else:
            raise ValueError(f"unknown graph line {raw!r}")
    if n is None:
        raise ValueError("graph text has no vertices line")
    classes = [None] * n
    for v, x in class_lines:
        classes[v] = x
    return ParsedGraph(n, edges, classes, colour_inv,
                       decomp if any(d is not None for d in decomp) else None)


def parse_presentation(text):
    """Classes, generators (name -> (kind, class image table)) and relators
    (class -> list of [(generator, exponent), ...]) of a ``.pp`` text."""
    classes, gens, rels = None, {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("classes:"):
            classes = line[len("classes:"):].split()
            rels = {x: [] for x in classes}
        elif line.startswith("gen "):
            name, kind, cycles = (p.strip() for p in line[4:].split(":", 2))
            table = {x: x for x in classes}
            for cyc in cycles.replace("(", " ").split(")"):
                items = cyc.split()
                for i, x in enumerate(items):
                    table[x] = items[(i + 1) % len(items)]
            gens[name] = (kind, table)
        elif line.startswith("rel "):
            cls, words = line[4:].split(":", 1)
            for w in words.split(","):
                if w.strip():
                    rels[cls.strip()].append(_word(w))
    return classes, gens, rels


def _word(text):
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


# ---------------------------------------------------------------------------
# Breadth-first search.


def bfs(adj, source):
    dist = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distance_profile(adj, source):
    """Number of vertices at each distance from ``source``; None if some
    vertex is unreachable."""
    dist = bfs(adj, source)
    if None in dist:
        return None
    prof = [0] * (max(dist) + 1)
    for d in dist:
        prof[d] += 1
    return prof
