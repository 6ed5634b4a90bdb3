"""Regenerate ``perfbench/reference.json`` from the current code.

Run from the repository root only when the deterministic outputs are
meant to change (and say so in the change that does it)::

    python3 perfbench/make_reference.py

It sweeps every corpus seed a full-size workload can reach, inline,
and pins a digest per case and per row; then pins the deterministic
sections of every range ``corpus_sweep`` and ``fleet_store`` sweep at
full size; then runs every paper-app cell once and pins its outputs.
Rows for the seeds ``CORPUS_results.json`` covers must equal it, or the
script refuses to write.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from repro.corpus.matrix import run_matrix

    with open(os.path.join(ROOT, gate.COMMITTED_NAME),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    committed_rows = {(r["seed"], r["model"]): r for r in committed["matrix"]}

    sweep = run_matrix(workloads.reachable_seeds(), jobs=1)
    corpus = {str(case["seed"]): {"case": gate.digest(case)}
              for case in sweep["cases"]}
    for row in sweep["matrix"]:
        key = (row["seed"], row["model"])
        if key in committed_rows and row != committed_rows[key]:
            print(f"refusing: row {key} differs from {gate.COMMITTED_NAME}",
                  file=sys.stderr)
            return 1
        corpus[str(row["seed"])][row["model"]] = gate.digest(row)

    sections = {}
    full = workloads.SIZES["full"]
    for name, count in (("corpus_sweep", full["corpus_seeds"]),
                        ("fleet_store", 2 * full["fleet_half"])):
        pinned = sections.setdefault(name, {})
        for slot in range(workloads.SLOTS):
            start = workloads.range_start(slot)
            seeds = range(start, start + count)
            out = run_matrix(seeds, jobs=1)
            pinned[f"{seeds[0]}-{seeds[-1]}"] = gate.digest(
                {k: out[k] for k in gate.SECTIONS})

    apps = workloads.PaperApps(0, "full")
    apps.setup(ROOT)
    paper = dict(sorted(apps.body().items()))

    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"corpus": corpus, "sections": sections,
                   "paper_apps": paper}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}: {len(corpus)} seeds, "
          f"{sum(len(v) for v in sections.values())} ranges, "
          f"{len(paper)} paper-app cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
