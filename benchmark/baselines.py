"""Re-measure the one-off library timings that predate the benchmark, with
the inputs they were first taken on (natural vertex numbering, no seed).

    python3 benchmark/baselines.py

Prints one line per figure: seconds (the median of three calls, one call
for the slowest) and the size or counters of the result.  These figures
are for reference only; the benchmark's own metrics come from run.py.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import parcay  # noqa: E402
from parcay import infmatch  # noqa: E402


def timed(fn, repeat):
    times, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def petersen_build(n, k):
    return parcay.build_sp(parcay.from_two_partite(parcay.petersen_presentation(n, k)))


def main():
    rows = []
    t, g = timed(lambda: petersen_build(800, 3), 3)
    rows.append(("build_sp P(800,3)", t, f"{g.n} vertices, stats {g.meta['stats']}"))
    for n, repeat in ((20, 3), (30, 1)):
        sp = petersen_build(n, 3)
        h = parcay.generalized_petersen(n, 3)
        t, found = timed(lambda: parcay.isomorphic(sp, h), repeat)
        rows.append((f"isomorphic(build, construction) P({n},3)", t,
                     "isomorphic" if found else "not isomorphic"))
    g = parcay.generalized_petersen(10, 3)
    t, gens = timed(lambda: parcay.is_cayley(g), 1)
    rows.append(("is_cayley P(10,3)", t, "Cayley" if gens else "not Cayley"))
    ex = infmatch.window_exhaustion("two-ended", 10, margin=2)
    t, m = timed(lambda: parcay.maximal_matching_wrt_miss(ex), 3)
    rows.append((f"maximal_matching_wrt_miss two-ended window ({ex.graph.n} vertices)",
                 t, f"{len(m)} edges"))
    p = parcay.from_two_partite(parcay.two_partite(["a"], ["b"], [], ["a^3"], ["a^3"]))
    t, g = timed(lambda: parcay.ball_sp(p, 10), 3)
    rows.append(("ball_sp Z3*Z radius 10", t, f"{g.n} vertices, stats {g.meta['stats']}"))
    for label, fn in (
            ("two_factorization L(P(1000,3))",
             lambda: parcay.two_factorization(parcay.line_graph(
                 parcay.generalized_petersen(1000, 3)))),
            ("pipeline_presentation C3000",
             lambda: parcay.pipeline_presentation(_cycle(3000)))):
        t0 = time.perf_counter()
        try:
            fn()
            outcome = "completed"
        except RecursionError:
            outcome = "RecursionError"
        rows.append((label, time.perf_counter() - t0, outcome))
    for label, t, detail in rows:
        print(f"{label:58s} {t:8.3f} s  {detail}")


def _cycle(n):
    g = parcay.ColouredGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


if __name__ == "__main__":
    main()
