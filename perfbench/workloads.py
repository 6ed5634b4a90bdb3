"""The three benchmark workloads, each driven through a user entry point.

``corpus_sweep``  ``run_matrix`` over a contiguous range of corpus seeds x
                  the five core models, inline (``jobs=1``), no store -
                  the ``repro corpus run`` traffic behind the sweet-spot
                  table; every compute layer, no workers, no store.
``paper_apps``    the hand-written apps x the five core models, one
                  ``DebugSession`` per cell on a fresh case: record ->
                  ship -> receive -> replay -> diff -> score, with
                  re-diagnosis and the default cause budget, as
                  ``repro demo`` runs it.  Root-cause enumeration is
                  about 60% of the time: every fresh program misses the
                  identity-keyed count cache.  ``msg_server`` is left
                  out (see ``PAPER_APPS``).
``fleet_store``   an incremental store-backed rerun: set-up sweeps
                  ``[s, s+S)`` at ``jobs=2`` into a fresh ``RunStore``;
                  the body sweeps ``[s, s+2S)`` at ``jobs=2`` against it,
                  so half the cells are store reads and half are computed
                  by supervised workers.

The workload seed only chooses inputs: the corpus range starts at
``20 * (seed % 8)``, and for ``paper_apps`` it permutes cell order.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Tuple

import gate

STRIDE, SLOTS = 20, 8
FLEET_JOBS = 2
# msg_server's five sessions take ~80% of a pass over all seven apps and
# swing by up to 1.5x with the load other tenants put on the host's
# memory system, so a 40 s run could not hold it within a 0.25 spread;
# the other six apps keep enumeration dominant at a steady ~3 s a pass.
PAPER_APPS = ("adder", "overflow", "racy_counter", "bank", "deadlock",
              "large_request")
SIZES = {
    "full": {"corpus_seeds": 120, "fleet_half": 100, "apps": PAPER_APPS},
    # Self-test size: seconds, not minutes.
    "tiny": {"corpus_seeds": 4, "fleet_half": 2,
             "apps": ("adder", "deadlock")},
}


def range_start(seed: int) -> int:
    return STRIDE * (seed % SLOTS)


def reachable_seeds() -> range:
    """Every corpus seed a full-size workload can sweep."""
    full = SIZES["full"]
    span = max(full["corpus_seeds"], 2 * full["fleet_half"])
    return range(0, STRIDE * (SLOTS - 1) + span)


class CorpusSweep:
    name = "corpus_sweep"

    def __init__(self, seed: int, size: str):
        start = range_start(seed)
        self.seeds = range(start, start + SIZES[size]["corpus_seeds"])

    def setup(self, workdir: str) -> None:
        from repro.corpus.matrix import run_matrix
        self._run_matrix = run_matrix

    def body(self) -> Dict[str, Any]:
        return self._run_matrix(self.seeds, jobs=1)

    def check(self, out: Dict[str, Any], ref: "gate.Reference"
              ) -> "gate.Verdict":
        return gate.check_matrix(out, self.name, ref)

    def overheads(self, out: Dict[str, Any]) -> Dict[str, float]:
        return {f"{r['seed']}:{r['model']}": r["overhead_x"]
                for r in out["matrix"]}

    def probe_cases(self, out: Dict[str, Any]) -> List[Tuple[Any, int]]:
        from repro.corpus.generator import generate_case
        return [(case, case.failing_seed)
                for case in map(generate_case, self.seeds)]

    def layer_extras(self, out: Dict[str, Any], busy_s: float,
                     wall: float) -> Dict[str, float]:
        return {}


class FleetStore(CorpusSweep):
    name = "fleet_store"

    def __init__(self, seed: int, size: str):
        start = range_start(seed)
        half = SIZES[size]["fleet_half"]
        self.warm = range(start, start + half)
        self.seeds = range(start, start + 2 * half)

    def setup(self, workdir: str) -> None:
        from repro.corpus.matrix import run_matrix
        from repro.store import RunStore
        self._run_matrix = run_matrix
        self._store_cls = RunStore
        self.store_dir = os.path.join(workdir, "store")
        run_matrix(self.warm, jobs=FLEET_JOBS, store=RunStore(self.store_dir))

    def body(self) -> Dict[str, Any]:
        return self._run_matrix(self.seeds, jobs=FLEET_JOBS,
                                store=self._store_cls(self.store_dir))

    def layer_extras(self, out: Dict[str, Any], busy_s: float,
                     wall: float) -> Dict[str, float]:
        timing = out["timing"]
        return {
            "fleet.record_phase_s": timing["record_seconds"],
            "fleet.replay_phase_s": timing["replay_seconds"],
            "fleet.busy_share": busy_s / (FLEET_JOBS * wall),
            "store.hits": timing["store_hits"],
            "store.index_entries": len(
                self._store_cls(self.store_dir).entries()),
        }


class PaperApps:
    name = "paper_apps"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.apps = SIZES[size]["apps"]

    def setup(self, workdir: str) -> None:
        from repro.apps import ALL_APPS
        from repro.models import DebugSession, model_order
        self._apps = ALL_APPS
        self._session = DebugSession
        self.cells = [(app, model) for app in self.apps
                      for model in model_order()]
        random.Random(self.seed).shuffle(self.cells)

    def _cell(self, app: str, model: str) -> Dict[str, Any]:
        """One developer session on a fresh case."""
        recorder = self._session(self._apps[app](), model)
        recorder.record()
        payload = recorder.ship()
        session = self._session.receive(payload)  # resolves the app anew
        session.replay()
        report = session.diff()
        metrics = session.score()
        return {
            "seed": recorder.seed,
            "overhead_x": round(metrics.overhead, 3),
            "DF": round(metrics.fidelity, 3),
            "DE": round(metrics.efficiency, 4),
            "DU": round(metrics.utility, 4),
            "n_causes": metrics.n_causes,
            "failure_reproduced": metrics.failure_reproduced,
            "replay_cause": str(metrics.replay_cause or "-"),
            "diff": report.status,
            "diff_fingerprint": report.fingerprint(),
        }

    def body(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for app, model in self.cells:
            try:
                out[f"{app}:{model}"] = self._cell(app, model)
            except Exception as exc:  # the gate counts it as failed
                out[f"{app}:{model}"] = {"error": f"{type(exc).__name__}: "
                                                  f"{exc}"}
        return out

    def check(self, out, ref) -> "gate.Verdict":
        return gate.check_apps(out, ref)

    def overheads(self, out) -> Dict[str, float]:
        return {cell: r["overhead_x"] for cell, r in out.items()
                if "overhead_x" in r}

    def probe_cases(self, out) -> List[Tuple[Any, int]]:
        seeds = sorted({(cell.split(":")[0], r["seed"])
                        for cell, r in out.items() if "seed" in r})
        return [(self._apps[app](), seed) for app, seed in seeds]

    def layer_extras(self, out, busy_s: float,
                     wall: float) -> Dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (CorpusSweep, PaperApps, FleetStore)}
