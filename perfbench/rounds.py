"""One benchmark round in a fresh process: set-up, timed body, gate.

``run.py`` starts this script once per round with ``--spawned`` set to
the wall-clock time just before the process was started, so ``setup_s``
covers interpreter start, imports and the workload's own set-up (for
``fleet_store``, the sweep that fills the store).  The round writes one
JSON result to ``--out``.

With ``--traced`` the layer entry points are wrapped by
:class:`ledger.Tracer` for the body only; afterwards, outside the timed
interval, a VM probe runs ``AppCase.run`` on every case's failing seed,
and the spans are written to ``.perfbench_out/spans_<workload>_seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import ledger  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped worker children."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is KiB on Linux


def vm_probe(cases) -> Dict[str, float]:
    """Interpreter throughput over each case's failing run."""
    steps = 0
    busy = 0.0
    for case, seed in cases:
        started = time.perf_counter()
        machine = case.run(seed)
        busy += time.perf_counter() - started
        steps += machine.steps
    return {"vm.steps": steps,
            "vm.steps_per_s": steps / busy if busy else 0.0}


def run_round(workload: str, seed: int, size: str, traced: bool,
              spawned: float) -> Dict[str, Any]:
    os.makedirs(os.path.join(OUT_DIR, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(OUT_DIR, "work"))
    try:
        plan = WORKLOADS[workload](seed, size)
        plan.setup(workdir)
        tracer = ledger.Tracer(spill_dir=workdir).install() if traced else None
        setup_s = time.time() - spawned
        started = time.perf_counter()
        try:
            out = plan.body()
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.close()
        rss = peak_rss_mb()
        verdict = plan.check(out, gate.Reference.load(ROOT))
        result: Dict[str, Any] = {
            "traced": traced, "setup_s": setup_s, "body_s": wall,
            "peak_rss_mb": rss, "attempted": verdict.attempted,
            "failed": verdict.failed, "problems": verdict.problems,
            "digest": verdict.digest,
        }
        if tracer is not None:
            workers = tracer.merge_spills()
            layers = ledger.layer_metrics(tracer.spans, workers, wall)
            layers.update(plan.layer_extras(out, ledger.busy_seconds(workers),
                                            wall))
            layers.update(vm_probe(plan.probe_cases(out)))
            result["layers"] = layers
            result["recorded"] = ledger.record_by_cell(tracer.spans + workers)
            result["overheads"] = plan.overheads(out)
            ledger.write_spans(
                os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.json"),
                tracer.spans, workers)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.size, args.traced,
                       args.spawned)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
