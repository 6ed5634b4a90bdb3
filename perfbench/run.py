"""Benchmark entry point: repeated fresh-process rounds of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus_sweep --seed 0 \\
        --seconds 40 --trace 0

Each round runs in a fresh process (``rounds.py``): set-up, then the
timed body, then the correctness gate (``gate.py``).  A run makes at
least two rounds and starts another only while it is expected to end
within ``--seconds``.  ``cells_per_s`` and ``cells_ok_share`` are the
run's totals (all ok cells over all body seconds, or over all cells);
every other metric is the median over rounds.  The per-round median,
quartiles and spread of every metric are printed beside it.
Round ``k`` of each kind (untraced, traced) runs with
``PYTHONHASHSEED=k``, so every run samples the same hash seeds and the
dict layouts they imply, whichever commit it measures.

``--trace 0`` reports the end-to-end metrics: ``cells_per_s``,
``setup_s``, ``peak_rss_mb`` and ``cells_ok_share``.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics of ``ledger.LAYER_METRICS`` from the traced ones, with
``trace.overhead`` taken as traced over untraced body wall time, and
prints the paper check: each model's host recording time next to the
simulated recording overhead of the same cells.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the host stamp and every round, is written to
``.perfbench_out/result_<workload>_seed<n>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import ledger
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Every run must end within this many seconds, rounds included.
RUN_LIMIT_S = 170.0

def summarize(unit: str, values: List[float],
              value: Optional[float] = None) -> Dict[str, Any]:
    """A metric's reported value (default: the median over rounds) with
    the per-round median, quartiles and relative spread beside it."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"unit": unit, "value": median if value is None else value,
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def host_stamp(rounds: int) -> Dict[str, Any]:
    """What a perf number needs to be read: the host and the code."""
    cpu_max = "unavailable"
    if os.path.exists("/sys/fs/cgroup/cpu.max"):
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as handle:
            cpu_max = handle.read().strip()
    revision = "unavailable"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cgroup_cpu_max": cpu_max,
            "git_revision": revision,
            "source_sha256": source.hexdigest()[:16],
            "rounds": rounds}


def spawn_round(workload: str, seed: int, size: str, traced: bool,
                index: int, hash_seed: int,
                timeout: float) -> Dict[str, Any]:
    """Run one round in a fresh process group; raise if it fails."""
    out = os.path.join(OUT_DIR, f"round_{os.getpid()}_{index}.json")
    argv = [sys.executable, os.path.join(HERE, "rounds.py"),
            "--workload", workload, "--seed", str(seed), "--size", size,
            "--out", out]
    if traced:
        argv.append("--traced")
    spawned = time.time()
    proc = subprocess.Popen(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                            env=dict(os.environ,
                                     PYTHONHASHSEED=str(hash_seed)),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"round {index} exceeded {timeout:.0f}s")
    finally:
        try:  # reap any worker the round left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"round {index} exited with code {code}")
    try:
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        os.unlink(out)


def paper_check(traced: List[Dict[str, Any]]) -> List[str]:
    """Host recording time vs simulated overhead, ranked per model."""
    last = traced[-1]
    models = sorted({m for m in last["recorded"].values()})
    if not models:
        return []
    host = {m: statistics.median(r["layers"][f"record.{m}.s"]
                                 for r in traced) for m in models}
    sim = {}
    for model in models:
        cells = [c for c, m in last["recorded"].items() if m == model
                 and c in last["overheads"]]
        sim[model] = (sum(last["overheads"][c] for c in cells) / len(cells)
                      if cells else 0.0)
    host_rank = {m: i + 1 for i, m in enumerate(sorted(models,
                                                       key=host.get))}
    sim_rank = {m: i + 1 for i, m in enumerate(sorted(models, key=sim.get))}
    lines = ["paper check: host recording time vs simulated overhead_x "
             "(rank 1 = cheapest)",
             f"  {'model':<8} {'record.s':>10} {'host rank':>9} "
             f"{'overhead_x':>10} {'sim rank':>8}"]
    for model in models:
        lines.append(f"  {model:<8} {host[model]:>10.4f} "
                     f"{host_rank[model]:>9} {sim[model]:>10.3f} "
                     f"{sim_rank[model]:>8}")
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            if (host[a] - host[b]) * (sim[a] - sim[b]) < 0:
                fast, slow = (a, b) if host[a] < host[b] else (b, a)
                lines.append(
                    f"  finding: {fast} records faster than {slow} on the "
                    f"host, but its simulated overhead_x is higher "
                    f"({sim[fast]:.3f} vs {sim[slow]:.3f})")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-tests only")
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "repro", "__init__.py"),
                   "CORPUS_results.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from the root of "
                  f"a full checkout", file=sys.stderr)
            return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    started = time.perf_counter()
    rounds: List[Dict[str, Any]] = []
    durations: List[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            hash_seed = sum(1 for r in rounds if r["traced"] == traced)
            round_started = time.perf_counter()
            left = RUN_LIMIT_S - (round_started - started)
            rounds.append(spawn_round(args.workload, args.seed, args.size,
                                      traced, len(rounds), hash_seed, left))
            durations.append(time.perf_counter() - round_started)
            elapsed = time.perf_counter() - started
            if (len(rounds) >= 2 and elapsed + statistics.mean(durations)
                    > args.seconds):
                break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        problems.append(f"rounds of the same seed disagree: {len(digests)} "
                        f"different deterministic outputs")
    correct = not problems

    table: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        for name, unit, __ in ledger.LAYER_METRICS:
            if name == "trace.overhead":
                continue
            table[name] = summarize(unit, [r["layers"][name]
                                           for r in traced])
        overhead = (statistics.median(r["body_s"] for r in traced)
                    / statistics.median(r["body_s"] for r in plain) - 1.0)
        table["trace.overhead"] = summarize("share", [overhead])
    else:
        ok = [r["attempted"] - len(r["failed"]) for r in plain]
        body = [r["body_s"] for r in plain]
        cells = [r["attempted"] for r in plain]
        table = {
            "cells_per_s": summarize(
                "cells/s", [n / t for n, t in zip(ok, body)],
                sum(ok) / sum(body)),
            "setup_s": summarize("s", [r["setup_s"] for r in plain]),
            "peak_rss_mb": summarize("MB",
                                     [r["peak_rss_mb"] for r in plain]),
            "cells_ok_share": summarize(
                "share", [n / c for n, c in zip(ok, cells)],
                sum(ok) / sum(cells)),
        }

    stamp = host_stamp(len(rounds))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} rounds={len(rounds)} "
          f"({len(plain)} untraced, {len(traced)} traced)")
    print("host: " + " | ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"  {'metric':<24} {'unit':<8} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'n':>3}")
    for name, row in table.items():
        print(f"  {name:<24} {row['unit']:<8} {row['value']:>12.6g} "
              f"{row['median']:>12.6g} {row['q1']:>12.6g} "
              f"{row['q3']:>12.6g} {row['spread']:>7.3f} {row['n']:>3}")
    if args.trace and traced:
        for line in paper_check(traced):
            print(line)
    print(f"gate: {'PASS' if correct else 'FAIL'} - {attempted} cells "
          f"attempted over {len(rounds)} rounds, {failed} failed "
          f"(cells_failed_share {failed / attempted:.4g})")
    if problems:
        print(f"  first difference: {problems[0]}")

    result_path = os.path.join(
        OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
                 f".json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "size": args.size, "host": stamp,
                   "correct": correct, "problems": problems[:50],
                   "metrics": table, "rounds": [
                       {k: v for k, v in r.items()
                        if k not in ("recorded", "overheads")}
                       for r in rounds]}, handle, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in table.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
