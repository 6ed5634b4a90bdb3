"""Correctness gate: every deterministic output against a reference.

Two references are consulted:

* the committed ``CORPUS_results.json`` - rows and case provenance for
  the seeds it covers (0-19) must equal it exactly, and so must the
  ``summary``/``sweet_spot`` sections when a run sweeps exactly its
  seeds and models;
* ``perfbench/reference.json``, pinned from the parent commit by
  ``make_reference.py`` - a digest per corpus row and per case over
  every seed a workload can reach, a digest of the deterministic
  sections (``cases``, ``matrix``, ``summary``, ``sweet_spot``,
  ``fleet``) for every range a full-size workload sweeps, and every
  paper-app cell's outputs.

``fleet_store`` rows are checked against the same per-row digests as
``corpus_sweep`` rows, so the two workloads must agree on every seed
they share.  A cell that ended failed, timed out or was quarantined, or
whose row differs from the reference, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
COMMITTED_NAME = "CORPUS_results.json"
SECTIONS = ("cases", "matrix", "summary", "sweet_spot", "fleet")


def digest(obj: Any) -> str:
    """Short SHA-256 of an object's canonical JSON form."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


@dataclass
class Reference:
    pinned: Dict[str, Any]
    committed: Dict[str, Any]

    @classmethod
    def load(cls, root: str) -> "Reference":
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)
        with open(os.path.join(root, COMMITTED_NAME),
                  encoding="utf-8") as handle:
            committed = json.load(handle)
        return cls(pinned, committed)


@dataclass
class Verdict:
    attempted: int = 0
    failed: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    def fail(self, cell: str, why: str) -> None:
        self.failed.append(cell)
        self.problems.append(f"cell {cell}: {why}")


def _field_diff(found: Dict[str, Any], want: Dict[str, Any]) -> str:
    keys = sorted(set(found) | set(want))
    return ", ".join(f"{k}={found.get(k)!r} (reference {want.get(k)!r})"
                     for k in keys if found.get(k) != want.get(k))


def check_matrix(artifact: Dict[str, Any], workload: str,
                 ref: Reference) -> Verdict:
    """Gate one ``run_matrix`` artifact cell by cell, then by section."""
    seeds = artifact["config"]["seeds"]
    models = artifact["config"]["models"]
    verdict = Verdict(attempted=len(seeds) * len(models),
                      digest=digest({k: artifact[k] for k in SECTIONS}))
    committed_rows = {(r["seed"], r["model"]): r
                      for r in ref.committed["matrix"]}
    committed_cases = {c["seed"]: c for c in ref.committed["cases"]}
    pinned_rows = ref.pinned["corpus"]
    rows = {(r["seed"], r["model"]): r for r in artifact["matrix"]}
    cases = {c["seed"]: c for c in artifact["cases"]}
    fleet = artifact["fleet"]
    injured = {cell: status for status in ("failed", "timeout")
               for cell in fleet[status]}
    injured.update({q["cell"]: q["status"] for q in fleet["quarantined"]})

    for seed in seeds:
        pinned = pinned_rows.get(str(seed), {})
        case = cases.get(seed)
        case_problem = None
        if case is None:
            case_problem = "no case provenance"
        elif seed in committed_cases and case != committed_cases[seed]:
            case_problem = ("case differs from the committed artifact: "
                            + _field_diff(case, committed_cases[seed]))
        elif seed not in committed_cases and digest(case) != pinned.get(
                "case"):
            case_problem = "case digest differs from reference.json"
        for model in models:
            cell = f"{seed}:{model}"
            row = rows.get((seed, model))
            if cell in injured:
                verdict.fail(cell, f"ended {injured[cell]}")
            elif case_problem:
                verdict.fail(cell, case_problem)
            elif row is None:
                verdict.fail(cell, "no row")
            elif (seed, model) in committed_rows:
                if row != committed_rows[(seed, model)]:
                    verdict.fail(cell, "row differs from the committed "
                                 "artifact: " + _field_diff(
                                     row, committed_rows[(seed, model)]))
            elif digest(row) != pinned.get(model):
                verdict.fail(cell, f"row digest differs from "
                             f"reference.json: {row}")

    if (seeds == ref.committed["config"]["seeds"]
            and models == ref.committed["config"]["models"]):
        for section in ("summary", "sweet_spot"):
            if artifact[section] != ref.committed[section]:
                verdict.problems.append(
                    f"{section} differs from the committed artifact")
    span = f"{seeds[0]}-{seeds[-1]}" if seeds else "-"
    pinned_digest = ref.pinned["sections"].get(workload, {}).get(span)
    if pinned_digest is not None and pinned_digest != verdict.digest:
        verdict.problems.append(
            f"deterministic sections of seeds {span} digest to "
            f"{verdict.digest}, reference.json pins {pinned_digest}")
    return verdict


def check_apps(cells: Dict[str, Dict[str, Any]], ref: Reference) -> Verdict:
    """Gate paper-app session outputs against their pinned values."""
    pinned = ref.pinned["paper_apps"]
    verdict = Verdict(attempted=len(cells),
                      digest=digest(dict(sorted(cells.items()))))
    for cell, found in cells.items():
        want: Optional[Dict[str, Any]] = pinned.get(cell)
        if want is None:
            verdict.fail(cell, "no pinned reference")
        elif found != want:
            verdict.fail(cell, _field_diff(found, want))
    return verdict
