"""Run one benchmark workload of parcay and print its metrics.

    python3 benchmark/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The run sets up its inputs several times (set-up time is the
median), then repeats whole passes over the workload's operations until
``--seconds`` have gone by.  Every output is checked.  Pass times are
reported in units of a reference computation timed next to each operation
(see ``reference_work``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead among them, and writes every span
to ``.bench_work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUPS = 7

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ref": "ref",
    "verified_per_ref": "vertices/ref",
}

CRITERIA = ("c01_petersen_build", "c02_petersen_sweep", "c03_vertex_groups",
            "c04_non_cayley", "c05_counterexample_figure", "c06_line_petersen",
            "c07_dihedral_line_graph", "c08_decompositions", "c09_roundtrip",
            "c10_two_ended", "c11_complete_graph_factorizations",
            "c12_appendix_finitization", "c13_builder_invariants")

# (span name, field): inclusive seconds "s", self seconds "self_s", "calls".
SPANS = [
    ("cli.cmd_build", "s"), ("cli.cmd_ball", "s"), ("cli.cmd_decompose", "s"),
    ("cli.cmd_extract", "s"), ("cli.cmd_iso", "s"), ("cli.cmd_matchings", "s"),
    ("cli.cmd_suite", "s"),
    ("builder.build_sp", "s"), ("builder.ball_sp", "s"),
    ("builder.CosetTable.run", "self_s"), ("builder.CosetTable.is_closed", "s"),
    ("builder.CosetTable.to_graph", "s"),
    ("graph.isomorphic", "s"), ("graph.isomorphic", "calls"),
    ("graph.automorphism_group", "s"), ("graph.is_vertex_transitive", "s"),
    ("graph.is_cayley", "s"), ("graph.mulclose", "s"), ("graph.mulclose", "calls"),
    ("graph.ColouredGraph.degree", "s"), ("graph.ColouredGraph.degree", "calls"),
    ("graph.ColouredGraph.out_darts", "s"), ("graph.ColouredGraph.out_darts", "calls"),
    ("graph.fundamental_cycle_words", "s"), ("graph.read_graph", "s"),
    ("graph.write_graph", "s"),
    ("decompose.maximum_matching", "s"), ("decompose.maximum_matching", "calls"),
    ("decompose.two_factor", "s"), ("decompose.euler_orientation", "s"),
    ("decompose.weak_multicycle_colouring", "s"),
    ("decompose.is_partition_friendly", "s"),
    ("extract.refine_colouring", "s"), ("extract.presentation_from_colouring", "s"),
    ("infmatch.maximal_matching_wrt_miss", "s"),
    ("infmatch.maximal_matching_wrt_miss", "self_s"), ("infmatch.Exhaustion", "s"),
    ("infmatch.symmetric_difference_report", "s"),
    ("infmatch.windowed_perfect_matching", "s"),
    ("presentation.parse", "s"), ("presentation.serialize", "s"),
    ("presentation.validate", "s"),
] + [(f"acceptance.{c}", "s") for c in CRITERIA]

# Operation kinds: (metric, unit, work counted: vertices, edges or None).
KINDS = {
    "build": ("cmd.build_vps", "vertices/s", "vertices"),
    "ball": ("cmd.ball_vps", "vertices/s", "vertices"),
    "pipeline": ("cmd.pipeline_eps", "edges/s", "edges"),
    "iso": ("cmd.iso_s", "s", None),
    "roundtrip": ("cmd.roundtrip_s", "s", None),
    "aut": ("cmd.aut_s", "s", None),
    "suite": ("cmd.suite_s", "s", None),
    "matchings": ("cmd.matchings_vps", "vertices/s", "vertices"),
}

COUNTERS = [("builder.rows", "count"), ("builder.scans", "count"),
            ("builder.coincidences", "count"), ("builder.vertices_per_row", "ratio"),
            ("infmatch.blossoms_per_vertex", "ratio"), ("trace.overhead", "ratio")]


def per_layer_metrics():
    """Every per-layer metric as (name, unit)."""
    out = [(f"{name}.{field}", "count" if field == "calls" else "s")
           for name, field in SPANS]
    out += COUNTERS
    out += [(metric, unit) for metric, unit, _ in KINDS.values()]
    return out


# ---------------------------------------------------------------------------
# Passes.


class PassResult:

    def __init__(self):
        self.seconds = 0.0
        self.reference = 0.0
        self.vertices = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = []     # names of failed operations with no known fault
        self.kind_time = {}
        self.kind_work = {}


def reference_work():
    """A fixed pure-Python computation, timed before every operation.  The
    speed of this shared machine drifts by ten per cent and more over tens
    of seconds, much alike for this computation and for the program, so
    pass times are reported in units of the reference's time ("ref").  It
    mixes integer arithmetic, dictionary updates, tuple and list
    allocation and a sort, as the program does."""
    table, total = {}, 0
    for i in range(30_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
        total += i * i
    rows = []
    for i in range(6_000):
        key = (i % 997, i % 13)
        rows.append((i, key, [i, i + 1]))
        table[key] = table.get(key, 0) + len(rows[-1][2])
    rows.sort(key=lambda r: r[1])
    return total + len(table)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_pass(ops, verified, log):
    """Time each operation's call, then check its output.  An output equal
    to one already checked in this run is not checked again."""
    res = PassResult()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        reference_work()
        res.reference += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            ret, error = op.call(), None
        except Exception as exc:   # a failing operation is counted, not fatal
            ret, error = None, exc
        dt = time.perf_counter() - t0
        ok = False
        if error is None:
            try:
                obs = op.observe(ret)
                key = _digest(obs)
                ok = verified.get(i) == key or bool(op.check(obs))
            except Exception as exc:
                error = exc
            if ok:
                verified[i] = key
        res.attempted += 1
        res.seconds += dt
        res.kind_time[op.kind] = res.kind_time.get(op.kind, 0.0) + dt
        if ok:
            res.vertices += op.vertices
            unit = KINDS[op.kind][2]
            if unit:
                res.kind_work[op.kind] = res.kind_work.get(op.kind, 0) + getattr(op, unit)
        else:
            res.failed += 1
            if op.fault is None:
                res.unexpected.append(op.name)
            why = (f"{type(error).__name__}: {str(error)[:80]}" if error is not None
                   else "wrong output")
            log.setdefault(op.name, f"{op.name}: {why}"
                           + (f" (known fault: {op.fault})" if op.fault else ""))
    return res


def _import_seconds():
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import parcay, parcay.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip())


def set_up(workload, seed, tmp):
    """Import the program and generate the inputs, SETUPS times over."""
    import workloads
    t0 = time.perf_counter()
    import parcay           # noqa: F401  (first import, timed)
    import parcay.cli       # noqa: F401
    imports = [time.perf_counter() - t0]
    imports += [_import_seconds() for _ in range(SETUPS - 1)]
    gens = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[workload](random.Random(seed), tmp)
        gens.append(time.perf_counter() - t0)
    return ops, statistics.median(imports) + statistics.median(gens)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _kind_metrics(passes):
    out = {}
    for kind, (metric, unit, work) in KINDS.items():
        t = sum(p.kind_time.get(kind, 0.0) for p in passes)
        if work:
            w = sum(p.kind_work.get(kind, 0) for p in passes)
            out[metric] = _metric(w / t if t else 0.0, unit)
        else:
            out[metric] = _metric(t / len(passes), unit)
    return out


def _layer_metrics(tracer):
    summary = tracer.summary()
    out = {}
    for name, field in SPANS:
        value = summary.get(name, {}).get(field, 0)
        out[f"{name}.{field}"] = _metric(value, "count" if field == "calls" else "s")
    graphs = tracer.extras("builder.CosetTable.to_graph")
    rows = sum(g[1] for g in graphs)
    out["builder.rows"] = _metric(rows, "count")
    out["builder.scans"] = _metric(sum(g[2] for g in graphs), "count")
    out["builder.coincidences"] = _metric(sum(g[3] for g in graphs), "count")
    out["builder.vertices_per_row"] = _metric(
        sum(g[0] for g in graphs) / rows if rows else 0.0, "ratio")
    window = sum(tracer.extras("infmatch.maximal_matching_wrt_miss"))
    blossoms = tracer.count_within("decompose.maximum_matching",
                                   "infmatch.maximal_matching_wrt_miss")
    out["infmatch.blossoms_per_vertex"] = _metric(
        blossoms / window if window else 0.0, "ratio")
    return out


def measure(ops, seconds, trace, workload, seed):
    import tracing
    verified, log = {}, {}
    plain, traced, first = [], [], None
    expected = sorted({name for name, _ in SPANS})
    start = time.perf_counter()
    if trace:
        # A first, untraced pass lets lazy imports and caches settle, so
        # that the traced and untraced passes compared below are all warm.
        warm = run_pass(ops, verified, log)
    while True:
        if trace:
            tracer = tracing.Tracer()
            inst = tracing.install(tracer, expected)
            try:
                traced.append(run_pass(ops, verified, log))
            finally:
                inst.uninstall()
            if first is None:
                first = tracer
        plain.append(run_pass(ops, verified, log))
        if time.perf_counter() - start >= seconds:
            break
    for line in log.values():
        print(line, file=sys.stderr)
    passes = plain + traced + ([warm] if trace else [])
    result = {
        "correct": not any(p.unexpected for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    pass_s = statistics.median(p.seconds for p in plain)
    if trace:
        metrics = _layer_metrics(first)
        metrics["trace.overhead"] = _metric(
            statistics.median(p.seconds / p.reference for p in traced)
            / statistics.median(p.seconds / p.reference for p in plain) - 1.0, "ratio")
        metrics.update(_kind_metrics(plain))
        path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump(dict(first.to_json(), summary=first.summary()), fh)
        if first.absent:
            print("absent from the program: " + ", ".join(first.absent), file=sys.stderr)
    else:
        metrics = {
            "pass_ref": _metric(statistics.median(
                p.seconds / p.reference for p in plain), "ref"),
            "verified_per_ref": _metric(statistics.median(
                p.vertices * p.reference / p.seconds for p in plain), "vertices/ref"),
        }
    print(f"{len(plain)} untraced and {len(traced)} traced passes; median pass "
          f"{pass_s:.4f} s, reference {statistics.median(p.reference for p in plain):.4f} s",
          file=sys.stderr)
    return result, metrics


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parcay", "__init__.py")):
        print(f"error: no parcay sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops, setup_s = set_up(args.workload, args.seed, tmp)
        result, metrics = measure(ops, args.seconds, args.trace, args.workload, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = _metric(setup_s, "s")
        metrics["peak_rss_mib"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
