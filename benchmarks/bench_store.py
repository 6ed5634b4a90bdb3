"""Run-store index scaling: per-call cost must not grow with the index.

Each size gets a fresh store directory whose ``index.jsonl`` holds N row
entries (all pointing at one shared object, so building it writes N
lines, not N objects).  A fresh ``RunStore`` loads the index once, then
``put_row`` (a new cell each call, so every call appends) and
``get_row`` are timed per call.  The floors are ratios between sizes,
never absolute times, so they hold on slow and fast hosts alike; an
index that is re-parsed per call measures about 9x between 500 and
5,000 entries.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_store.py
"""

import json
import os
import time

import pytest

from repro.store import INDEX_NAME, RunStore

pytestmark = pytest.mark.perf

SMALL, LARGE = 500, 5000
CALLS = 100
REPEATS = 5
CODE_HASH = "bench"


def _seeded_store(root, entries):
    store = RunStore(root)
    address = store.put_object({"row": "shared"})
    with open(os.path.join(root, INDEX_NAME), "w",
              encoding="utf-8") as handle:
        for seed in range(entries):
            handle.write(json.dumps(
                {"kind": "row", "seed": seed, "model": "full",
                 "code_hash": CODE_HASH, "address": address},
                sort_keys=True) + "\n")
    return RunStore(root)


def _per_call_seconds(tmp_path, entries, repeat):
    """(put_row, get_row) seconds per call on an index of ``entries``."""
    store = _seeded_store(str(tmp_path / f"{entries}-{repeat}"), entries)
    assert store.get_row(0, "full", CODE_HASH) == {"row": "shared"}
    start = time.perf_counter()
    for seed in range(entries, entries + CALLS):
        store.put_row(seed, "full", CODE_HASH, {"seed": seed})
    put = (time.perf_counter() - start) / CALLS
    start = time.perf_counter()
    for seed in range(CALLS):
        assert store.get_row(seed * (entries // CALLS), "full",
                             CODE_HASH) is not None
    get = (time.perf_counter() - start) / CALLS
    return put, get


@pytest.fixture(scope="module")
def costs(tmp_path_factory):
    """Best-of-REPEATS per-call cost at each size, sizes interleaved so
    host drift hits both alike."""
    tmp_path = tmp_path_factory.mktemp("bench_store")
    best = {SMALL: [float("inf")] * 2, LARGE: [float("inf")] * 2}
    for repeat in range(REPEATS):
        for entries in (SMALL, LARGE):
            timings = _per_call_seconds(tmp_path, entries, repeat)
            best[entries] = [min(pair) for pair in
                             zip(best[entries], timings)]
    return best


@pytest.mark.parametrize("op", ["put_row", "get_row"])
def test_per_call_cost_is_flat_in_index_size(costs, op):
    column = 0 if op == "put_row" else 1
    small, large = costs[SMALL][column], costs[LARGE][column]
    ratio = large / small
    print(f"{op}: {small * 1e3:.3f} ms at {SMALL} entries, "
          f"{large * 1e3:.3f} ms at {LARGE} ({ratio:.2f}x)")
    assert ratio <= 2.0, (
        f"{op} per-call cost grows with the index: {ratio:.2f}x between "
        f"{SMALL} and {LARGE} entries (need <= 2x)")
