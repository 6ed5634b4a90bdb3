"""Self-tests for the benchmark, at a tiny size (about 15 seconds).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run
does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import ledger  # noqa: E402
import rounds  # noqa: E402
from workloads import CorpusSweep, FleetStore, PaperApps  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _body(plan, tmp_path):
    plan.setup(str(tmp_path))
    return plan.body()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = "\n".join(lines[:-1])
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f" {metric['name']} " in table and metric["unit"] in table


def test_layer_names_match_the_ledger():
    assert ([m["name"] for m in SPEC["per_layer"]]
            == [name for name, __, __ in ledger.LAYER_METRICS])


def test_same_seed_same_rows_other_seed_other_cases(tmp_path):
    first = _body(CorpusSweep(0, "tiny"), tmp_path)
    again = _body(CorpusSweep(0, "tiny"), tmp_path)
    other = _body(CorpusSweep(1, "tiny"), tmp_path)
    for section in gate.SECTIONS:
        assert first[section] == again[section]
    assert ({c["seed"] for c in first["cases"]}
            .isdisjoint(c["seed"] for c in other["cases"]))
    assert first["cases"] != other["cases"]


def test_fleet_rows_equal_corpus_rows_on_shared_seeds(tmp_path):
    sweep = _body(CorpusSweep(2, "tiny"), tmp_path / "sweep")
    fleet = _body(FleetStore(2, "tiny"), tmp_path / "fleet")
    fleet_rows = {(r["seed"], r["model"]): r for r in fleet["matrix"]}
    shared = [r for r in sweep["matrix"]
              if (r["seed"], r["model"]) in fleet_rows]
    assert shared and all(fleet_rows[(r["seed"], r["model"])] == r
                          for r in shared)
    assert fleet["timing"]["store_hits"] == len(fleet["matrix"]) // 2


def test_paper_apps_seed_permutes_order_only(tmp_path):
    one, two = PaperApps(0, "tiny"), PaperApps(5, "tiny")
    out_one, out_two = _body(one, tmp_path), _body(two, tmp_path)
    assert one.cells != two.cells
    assert out_one == out_two


def test_tampered_reference_fails_the_gate(tmp_path):
    ref = gate.Reference.load(ROOT)
    committed = _body(CorpusSweep(0, "tiny"), tmp_path)   # seeds 0-3
    pinned = _body(CorpusSweep(2, "tiny"), tmp_path)      # seeds 40-43
    apps = _body(PaperApps(0, "tiny"), tmp_path)
    assert gate.check_matrix(committed, "corpus_sweep", ref).correct
    assert gate.check_matrix(pinned, "corpus_sweep", ref).correct
    assert gate.check_apps(apps, ref).correct

    bad = copy.deepcopy(ref)
    bad.committed["matrix"][1]["DU"] += 0.5               # seed 0, value
    verdict = gate.check_matrix(committed, "corpus_sweep", bad)
    assert verdict.failed == ["0:value"]
    assert "0:value" in verdict.problems[0] and "DU" in verdict.problems[0]

    bad = copy.deepcopy(ref)
    bad.pinned["corpus"]["41"]["rcse"] = "0" * 16
    verdict = gate.check_matrix(pinned, "corpus_sweep", bad)
    assert verdict.failed == ["41:rcse"]

    bad = copy.deepcopy(ref)
    bad.pinned["paper_apps"]["adder:full"]["n_causes"] = 7
    verdict = gate.check_apps(apps, bad)
    assert verdict.failed == ["adder:full"]
    assert "n_causes" in verdict.problems[0]


def test_failed_cells_count_against_the_gate(tmp_path):
    out = _body(CorpusSweep(0, "tiny"), tmp_path)
    out["fleet"]["quarantined"].append(
        {"cell": "1:rcse", "status": "quarantined", "error": "x"})
    verdict = gate.check_matrix(out, "corpus_sweep", gate.Reference.load(ROOT))
    assert verdict.failed == ["1:rcse"]


def test_self_time_excludes_children():
    spans = [["score", 0.0, 10.0, None, "c", {}],
             ["replay", 1.0, 4.0, 0, "c", {}],
             ["causes", 5.0, 9.0, 0, "c", {}],
             ["store.read", 6.0, 7.0, 2, "c", {}]]
    assert ledger.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_restores_patched_functions(tmp_path):
    from repro.corpus import matrix
    from repro.models import DebugSession, session
    from repro.store import RunStore
    before = (DebugSession.__dict__["receive"], DebugSession.record,
              session.count_root_causes, matrix.generate_case,
              RunStore.put_row)
    tracer = ledger.Tracer().install()
    try:
        assert DebugSession.record is not before[1]
    finally:
        tracer.close()
    after = (DebugSession.__dict__["receive"], DebugSession.record,
             session.count_root_causes, matrix.generate_case,
             RunStore.put_row)
    assert after == before


def test_traced_round_covers_the_body():
    result = rounds.run_round("corpus_sweep", 4, "tiny", True, time.time())
    layers = result["layers"]
    assert not result["failed"]
    assert layers["trace.coverage"] >= 0.9
    assert layers["generate.cases"] == 4 and layers["causes.calls"] == 20
    assert layers["store.put.s"] == 0 and layers["vm.steps"] > 0
