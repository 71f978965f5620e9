"""Command line entry point.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(for example two graphs that are not isomorphic), 2 for errors, among them
unreadable files and malformed arguments, with one ``error:`` line on
stderr.  Input files are read as UTF-8.  All output is deterministic for
fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import acceptance
from .builder import DEFAULT_MAX_ROWS, ball_sp, build_sp, presentation_graph
from .constructions import (bi_cayley, cyclic_group, generalized_petersen,
                            line_graph, two_ended_window)
from .decompose import (is_multicycle, is_partition_friendly,
                        is_weak_multicycle, maximum_matching,
                        weak_multicycle_colouring)
from .errors import BadParameters, ParcayError, SemanticError
from .extract import presentation_from_colouring
from .graph import isomorphic, read_graph, to_dot, write_graph
from .infmatch import (FAMILIES, maximal_matching_wrt_miss, miss_sequence,
                       symmetric_difference_report, window_exhaustion)
from .presentation import parse, serialize


@contextlib.contextmanager
def _output(out):
    """The file ``out``, opened for writing, or stdout."""
    if out:
        with open(out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text, out):
    with _output(out) as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit_graph(g, out, fmt="graph", header=(), colouring=None):
    """The header lines, then g in the format ``fmt``, written in chunks
    so that the whole text is never held as one string."""
    with _output(out) as fh:
        fh.writelines(f"{line}\n" for line in header)
        if fmt == "dot":
            to_dot(g, file=fh)
        else:
            write_graph(g, colouring, file=fh)


def cmd_validate(args):
    try:
        p = parse(_read(args.file))
    except SemanticError as exc:
        print(f"invalid: {exc}")
        return 2
    print(f"valid: {len(p.classes)} classes, "
          f"{len(p.alphabet.names)} generators, "
          f"{sum(len(p.relators[x]) for x in p.classes)} relators")
    return 0


def _stats_line(g):
    """The enumeration's counters, which ``to_graph`` leaves in the graph."""
    stats = g.meta["stats"]
    return (f"# rows defined: {stats['rows']}, coincidences: "
            f"{stats['coincidences']}, relator scans: {stats['scans']}")


def cmd_build(args):
    p = parse(_read(args.file))
    g = build_sp(p, max_rows=args.max_rows)
    sizes = g.class_sizes()
    header = [
        "# closed: true",
        "# class sizes: " + " ".join(f"{k}={v}" for k, v in sorted(sizes.items())),
        f"# vertex-group order: {sizes[p.classes[0]]}",
        _stats_line(g),
    ]
    _emit_graph(g, args.out, args.format, header)
    print(f"{g.n} vertices, {g.n_edges} edges, closed", file=sys.stderr)
    return 0


def cmd_ball(args):
    p = parse(_read(args.file))
    g = ball_sp(p, args.radius, max_rows=args.max_rows)
    frontier = g.meta["frontier"]
    header = [
        f"# radius: {args.radius}",
        f"# frontier: {' '.join(map(str, frontier)) if frontier else '(none)'}",
        f"# soundness: {g.meta['soundness']}",
        _stats_line(g),
    ]
    _emit_graph(g, args.out, args.format, header)
    return 0


def cmd_decompose(args):
    g, colouring = read_graph(_read(args.file), coloured=True)
    if args.check:
        if colouring is None:
            raise BadParameters("no colouring column to check")
        pred = {"multicycle": is_multicycle, "weak": is_weak_multicycle,
                "pf": is_partition_friendly}[args.check]
        verdict = pred(g, colouring)
        print(f"{args.check}: {verdict}")
        return 0 if verdict else 1
    colouring = weak_multicycle_colouring(g)
    _emit_graph(g, args.out, colouring=colouring)
    return 0


def cmd_extract(args):
    g, colouring = read_graph(_read(args.file), coloured=True)
    if colouring is None:
        colouring = weak_multicycle_colouring(g)
    p = presentation_from_colouring(g, colouring)
    _emit(serialize(p), args.out)
    if args.roundtrip:
        sp = build_sp(p)
        ok = isomorphic(sp, presentation_graph(p),
                        respect_colours=True) is not None
        print(f"roundtrip: {'isomorphic' if ok else 'NOT isomorphic'}",
              file=sys.stderr)
        return 0 if ok else 1
    return 0


# The arguments each family of ``make`` needs.
_MAKE_NEEDS = {"petersen": ("n", "k"), "two-ended": ("n", "k"),
               "linegraph": ("--graph",), "bicayley": ("n",), "haar": ("n",)}


def cmd_make(args):
    missing = [a for a in _MAKE_NEEDS[args.family]
               if getattr(args, a.lstrip("-")) is None]
    if missing:
        raise BadParameters(f"make {args.family} needs {' and '.join(missing)}")
    if args.family == "petersen":
        g = generalized_petersen(args.n, args.k)
    elif args.family == "two-ended":
        if args.n > args.k:     # the layers run from n to k
            raise BadParameters(f"make two-ended needs n <= k, got {args.n} "
                                f"and {args.k}")
        g = two_ended_window(args.n, args.k)
    elif args.family == "linegraph":
        g = line_graph(read_graph(_read(args.graph)))
    elif args.family == "bicayley":
        g = bi_cayley(cyclic_group(args.n), args.r, args.l, args.s)
    else:
        g = bi_cayley(cyclic_group(args.n), [], [], args.s)
    _emit_graph(g, args.out, args.format)
    return 0


def cmd_iso(args):
    g = read_graph(_read(args.a))
    h = read_graph(_read(args.b))
    found = isomorphic(g, h, respect_colours=args.colours,
                       respect_classes=args.classes)
    print("isomorphic" if found else "not isomorphic")
    return 0 if found else 1


def cmd_matchings(args):
    ex = window_exhaustion(args.family, args.n, margin=args.margin)
    staged = maximal_matching_wrt_miss(ex)
    plain = maximum_matching(ex.graph)
    print(f"window: {ex.graph.n} vertices, {len(ex.shells)} levels")
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


@functools.cache
def make_parser():
    """The argparse tree, built on the first call and kept for the rest
    of the process: parsing reads it and never changes it, so in-process
    callers do not rebuild it per command, and importing the module does
    not build it at all.  Subcommand ``name`` runs ``cmd_name``."""
    parser = argparse.ArgumentParser(
        prog="parcay",
        description="partite presentations of graphs: build, decompose "
                    "and extract")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate a presentation file")
    s.add_argument("file")

    s = sub.add_parser("build", help="build the partite Cayley graph")
    s.add_argument("file")
    s.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    s.add_argument("--format", choices=("graph", "dot"), default="graph")
    s.add_argument("-o", "--out")

    s = sub.add_parser("ball", help="bounded window of a possibly infinite graph")
    s.add_argument("file")
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    s.add_argument("--format", choices=("graph", "dot"), default="graph")
    s.add_argument("-o", "--out")

    s = sub.add_parser("decompose", help="partition-friendly weak multicycle "
                                         "colouring of a regular graph")
    s.add_argument("file")
    s.add_argument("--check", choices=("multicycle", "weak", "pf"))
    s.add_argument("-o", "--out")

    s = sub.add_parser("extract", help="presentation from a coloured graph")
    s.add_argument("file")
    s.add_argument("--roundtrip", action="store_true",
                   help="rebuild and verify the extraction")
    s.add_argument("-o", "--out")

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

    s = sub.add_parser("iso", help="isomorphism test for two graph files")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--colours", action="store_true")
    s.add_argument("--classes", action="store_true")

    s = sub.add_parser("matchings", help="window matchings and miss sequences")
    s.add_argument("--family", choices=sorted(FAMILIES), default="two-ended")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--margin", type=int, default=2)
    s.add_argument("--report", action="store_true")

    s = sub.add_parser("suite", help="run the full acceptance battery")
    s.add_argument("--report", choices=("text", "json"), default="text")

    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    # The command is looked up when it runs, not when the parser is built,
    # so a wrapper patched over ``cmd_<name>`` (a tracer's) is what runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ParcayError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
