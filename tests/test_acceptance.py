"""One test per acceptance criterion; each prints its own pass/fail line.

Criteria with stated wall-clock budgets are also timed against them.
"""

import time

import pytest

from parcay.acceptance import CRITERIA, all_matchings
from parcay.graph import ColouredGraph

BUDGET_SECONDS = {
    "1 petersen build": 1.0,
    "2 petersen sweep": 10.0,
    "4 non-cayley petersen": 30.0,
    "9 roundtrip": 60.0,
}


@pytest.mark.parametrize("name,check", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, check):
    start = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - start
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail} "
          f"({elapsed:.2f}s)")
    assert ok, f"criterion {name}: {detail}"
    budget = BUDGET_SECONDS.get(name)
    if budget is not None:
        assert elapsed < budget, f"criterion {name} took {elapsed:.2f}s"


def test_all_matchings_needs_no_recursion_per_edge():
    # The star K(1,2000): the empty matching and one per edge, listed at
    # the default recursion limit of 1000 frames.
    star = ColouredGraph()
    for _ in range(2001):
        star.add_vertex()
    for i in range(1, 2001):
        star.add_edge(0, i)
    matchings = all_matchings(star)
    assert len(matchings) == 2001
    assert matchings[0] == () and sorted(map(len, matchings)) == [0] + [1] * 2000
