"""Command line entry point.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(for example two graphs that are not isomorphic), 2 for errors.  All output
is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .builder import DEFAULT_MAX_ROWS, ball_sp, build_sp
from .constructions import (bi_cayley, cyclic_group, generalized_petersen,
                            line_graph, two_ended_window)
from .decompose import (EdgeColouring, is_multicycle, is_partition_friendly,
                        is_weak_multicycle, weak_multicycle_colouring)
from .errors import ParcayError, SemanticError
from .extract import presentation_from_colouring, refine_colouring
from .graph import isomorphic, read_graph, to_dot, write_graph
from .infmatch import (FAMILIES, maximal_matching_wrt_miss, maximum_matching,
                       miss_sequence, symmetric_difference_report,
                       window_exhaustion)
from .presentation import parse, serialize, validate


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _graph_text(g, fmt):
    return to_dot(g) if fmt == "dot" else write_graph(g)


def cmd_validate(args):
    try:
        p = parse(_read(args.file))
    except SemanticError as exc:
        print(f"invalid: {exc}")
        return 2
    violations = validate(p)
    if violations:
        for v in violations:
            print(f"invalid: {v}")
        return 2
    print(f"valid: {len(p.classes)} classes, "
          f"{len(p.alphabet.names)} generators, "
          f"{sum(len(p.relators[x]) for x in p.classes)} relators")
    return 0


def cmd_build(args):
    p = parse(_read(args.file))
    g = build_sp(p, max_rows=args.max_rows)
    sizes = g.class_sizes()
    stats = g.meta.get("stats", {})
    lines = [
        "# closed: true",
        "# class sizes: " + " ".join(f"{k}={v}" for k, v in sorted(sizes.items())),
        f"# vertex-group order: {sizes[p.classes[0]]}",
        f"# rows defined: {stats.get('rows')}, coincidences: "
        f"{stats.get('coincidences')}, relator scans: {stats.get('scans')}",
    ]
    body = _graph_text(g, args.format)
    _emit("\n".join(lines) + "\n" + body, args.out)
    print(f"{g.n} vertices, {g.n_edges} edges, closed", file=sys.stderr)
    return 0


def cmd_ball(args):
    p = parse(_read(args.file))
    g = ball_sp(p, args.radius, scan_margin=args.scan_margin,
                max_rows=args.max_rows)
    frontier = sorted(g.meta["frontier"])
    lines = [
        f"# radius: {args.radius}",
        f"# frontier: {' '.join(map(str, frontier)) if frontier else '(none)'}",
        f"# soundness: {g.meta['soundness']}",
    ]
    _emit("\n".join(lines) + "\n" + _graph_text(g, args.format), args.out)
    return 0


def _read_coloured_graph(path):
    """Graph file whose edge lines may carry a decomposition colour as a
    final extra column ('-' stands for an absent base colour)."""
    g_lines = []
    decomp = []
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line.startswith("edge "):
            g_lines.append(raw)
            continue
        parts = line.split()
        if len(parts) == 5:
            base = "" if parts[3] == "-" else f" {parts[3]}"
            g_lines.append(f"edge {parts[1]} {parts[2]}{base}")
            decomp.append(parts[4])
        else:
            g_lines.append(raw)
            decomp.append(None)
    g = read_graph("\n".join(g_lines))
    if any(c is not None for c in decomp):
        mapping = dict(zip(sorted(g.edges()), decomp))
        if None in mapping.values():
            raise ParcayError("some edge lines are missing the colour column")
        return g, EdgeColouring(g, mapping)
    return g, None


def _write_coloured(g, colouring):
    lines = []
    for raw in write_graph(g).splitlines():
        if raw.startswith("edge "):
            break
        lines.append(raw)
    for d in sorted(g.edges()):
        base = g.colour[d] if g.colour[d] is not None else "-"
        lines.append(f"edge {g.src(d)} {g.tau[d]} {base} {colouring[d]}")
    return "\n".join(lines) + "\n"


def cmd_decompose(args):
    g, colouring = _read_coloured_graph(args.file)
    if args.check:
        if colouring is None:
            print("no colouring column to check", file=sys.stderr)
            return 2
        pred = {"multicycle": is_multicycle, "weak": is_weak_multicycle,
                "pf": is_partition_friendly}[args.check]
        verdict = pred(g, colouring)
        print(f"{args.check}: {verdict}")
        return 0 if verdict else 1
    colouring = weak_multicycle_colouring(g)
    _emit(_write_coloured(g, colouring), args.out)
    return 0


def cmd_extract(args):
    g, colouring = _read_coloured_graph(args.file)
    if args.pipeline or colouring is None:
        colouring = weak_multicycle_colouring(g)
    p = presentation_from_colouring(g, colouring)
    _emit(serialize(p), args.out)
    if args.roundtrip:
        sp = build_sp(p)
        ok = isomorphic(sp, refine_colouring(g, colouring),
                        respect_colours=True) is not None
        print(f"roundtrip: {'isomorphic' if ok else 'NOT isomorphic'}",
              file=sys.stderr)
        return 0 if ok else 1
    return 0


def cmd_make(args):
    if args.family == "petersen":
        g = generalized_petersen(args.n, args.k)
    elif args.family == "two-ended":
        g = two_ended_window(args.n, args.k)
    elif args.family == "linegraph":
        g = line_graph(read_graph(_read(args.graph)))
    elif args.family == "bicayley":
        g = bi_cayley(cyclic_group(args.n), args.r, args.l, args.s)
    elif args.family == "haar":
        g = bi_cayley(cyclic_group(args.n), [], [], args.s)
    else:
        raise ParcayError(f"unknown family {args.family}")
    _emit(_graph_text(g, args.format), args.out)
    return 0


def cmd_iso(args):
    g = read_graph(_read(args.a))
    h = read_graph(_read(args.b))
    found = isomorphic(g, h, respect_colours=args.colours,
                       respect_classes=args.classes)
    print("isomorphic" if found else "not isomorphic")
    return 0 if found else 1


def cmd_verify(args):
    if args.what != "two-ended":
        raise ParcayError(f"nothing to verify for {args.what!r}")
    ok, detail = acceptance.c10_two_ended()
    print(f"two-ended certificate: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if ok else 1


def cmd_matchings(args):
    ex = window_exhaustion(args.family, args.n, margin=args.margin)
    staged = maximal_matching_wrt_miss(ex)
    plain = maximum_matching(ex.graph)
    print(f"window: {ex.graph.n} vertices, {len(ex.levels)} levels")
    print(f"staged optimum: {len(staged)} edges, miss sequence "
          f"{miss_sequence(staged, ex)}")
    print(f"maximum matching: {len(plain)} edges, miss sequence "
          f"{miss_sequence(plain, ex)}")
    if args.report:
        for entry in symmetric_difference_report(staged, plain, ex):
            tag = "boundary" if entry["boundary"] else "interior"
            print(f"  component: {entry['kind']} ({tag}), "
                  f"{entry['n_edges']} edges, alternating={entry['alternating']}")
    return 0


def cmd_suite(args):
    results = acceptance.run_suite()
    if args.report == "json":
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] criterion "
                  f"{r['criterion']}: {r['detail']}")
    return 0 if all(r["pass"] for r in results) else 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="parcay",
        description="partite presentations of graphs: build, decompose, "
                    "extract and verify")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate a presentation file")
    s.add_argument("file")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("build", help="build the partite Cayley graph")
    s.add_argument("file")
    s.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    s.add_argument("--format", choices=("graph", "dot"), default="graph")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_build)

    s = sub.add_parser("ball", help="bounded window of a possibly infinite graph")
    s.add_argument("file")
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("--scan-margin", type=int, default=None)
    s.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    s.add_argument("--format", choices=("graph", "dot"), default="graph")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_ball)

    s = sub.add_parser("decompose", help="partition-friendly weak multicycle "
                                         "colouring of a regular graph")
    s.add_argument("file")
    s.add_argument("--check", choices=("multicycle", "weak", "pf"))
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_decompose)

    s = sub.add_parser("extract", help="presentation from a coloured graph")
    s.add_argument("file")
    s.add_argument("--pipeline", action="store_true",
                   help="decompose first, ignoring any colour column")
    s.add_argument("--roundtrip", action="store_true",
                   help="rebuild and verify the extraction")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_extract)

    s = sub.add_parser("make", help="emit a named graph family member")
    s.add_argument("family", choices=("petersen", "two-ended", "linegraph",
                                      "bicayley", "haar"))
    s.add_argument("n", type=int, nargs="?")
    s.add_argument("k", type=int, nargs="?")
    s.add_argument("--graph", help="input graph for linegraph")
    s.add_argument("--r", type=int, nargs="*", default=[])
    s.add_argument("--l", type=int, nargs="*", default=[])
    s.add_argument("--s", type=int, nargs="*", default=[])
    s.add_argument("--format", choices=("graph", "dot"), default="graph")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_make)

    s = sub.add_parser("iso", help="isomorphism test for two graph files")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--colours", action="store_true")
    s.add_argument("--classes", action="store_true")
    s.set_defaults(fn=cmd_iso)

    s = sub.add_parser("verify", help="run a named certificate suite")
    s.add_argument("what", choices=("two-ended",))
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("matchings", help="window matchings and miss sequences")
    s.add_argument("--family", choices=sorted(FAMILIES), default="two-ended")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--margin", type=int, default=2)
    s.add_argument("--report", action="store_true")
    s.set_defaults(fn=cmd_matchings)

    s = sub.add_parser("suite", help="run the full acceptance battery")
    s.add_argument("--report", choices=("text", "json"), default="text")
    s.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParcayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
