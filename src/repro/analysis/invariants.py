"""Dynamic invariant inference (Daikon-lite) and runtime monitoring.

Data-based selection (§3.1.2): infer likely invariants on shared program
state from passing training runs, then monitor them in production; the
moment an invariant is violated the execution "is likely on an error
path" and recording fidelity is dialed up.

Invariant templates, per shared location:

* :class:`ConstInvariant` - the location always holds one value;
* :class:`RangeInvariant` - value stays within the observed [lo, hi];
* :class:`NonNegativeInvariant` - value never goes negative;
* :class:`PairInvariant` - a binary relation (<=, >=) between two
  locations, checked at every write to either.

Inference follows Daikon's scheme: instantiate all templates, falsify
against observations, keep survivors with enough supporting samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.vm.memory import Location
from repro.vm.trace import StepRecord, Trace


class Invariant:
    """Base class: a checkable predicate over shared state values."""

    def check(self, values: Dict[Location, int]) -> bool:
        raise NotImplementedError

    def involves(self) -> Tuple[Location, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstInvariant(Invariant):
    location: Location
    value: int

    def check(self, values: Dict[Location, int]) -> bool:
        return values.get(self.location, self.value) == self.value

    def involves(self) -> Tuple[Location, ...]:
        return (self.location,)

    def __str__(self) -> str:
        return f"{self.location} == {self.value}"


@dataclass(frozen=True)
class RangeInvariant(Invariant):
    location: Location
    lo: int
    hi: int

    def check(self, values: Dict[Location, int]) -> bool:
        value = values.get(self.location)
        return value is None or self.lo <= value <= self.hi

    def involves(self) -> Tuple[Location, ...]:
        return (self.location,)

    def __str__(self) -> str:
        return f"{self.lo} <= {self.location} <= {self.hi}"


@dataclass(frozen=True)
class NonNegativeInvariant(Invariant):
    location: Location

    def check(self, values: Dict[Location, int]) -> bool:
        value = values.get(self.location)
        return value is None or value >= 0

    def involves(self) -> Tuple[Location, ...]:
        return (self.location,)

    def __str__(self) -> str:
        return f"{self.location} >= 0"


@dataclass(frozen=True)
class PairInvariant(Invariant):
    """``left REL right`` for REL in {<=, >=}."""

    left: Location
    right: Location
    relop: str

    def check(self, values: Dict[Location, int]) -> bool:
        a, b = values.get(self.left), values.get(self.right)
        if a is None or b is None:
            return True
        return a <= b if self.relop == "<=" else a >= b

    def involves(self) -> Tuple[Location, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.relop} {self.right}"


@dataclass
class InvariantSet:
    """A set of inferred invariants plus a violation checker."""

    invariants: List[Invariant] = field(default_factory=list)

    def violated_by(self, values: Dict[Location, int]) -> List[Invariant]:
        return [inv for inv in self.invariants if not inv.check(values)]

    def involving(self, location: Location) -> List[Invariant]:
        return [inv for inv in self.invariants
                if location in inv.involves()]

    def __len__(self) -> int:
        return len(self.invariants)

    def __iter__(self):
        return iter(self.invariants)

    def describe(self) -> List[str]:
        return sorted(str(inv) for inv in self.invariants)


class InvariantInferencer:
    """Infers invariants over shared-state values from training traces.

    Observes every write in every training trace; a template survives if
    it was never falsified and was supported by at least
    ``min_samples`` observations.
    """

    def __init__(self, min_samples: int = 3):
        self.min_samples = min_samples
        self._samples: Dict[Location, List[int]] = {}
        # Running values of shared state, used for pair templates.
        self._current: Dict[Location, int] = {}
        self._pair_candidates: Dict[Tuple[Location, Location], List[str]] = {}
        self._pairs_seen: Dict[Tuple[Location, Location], int] = {}

    def observe_trace(self, trace: Trace) -> None:
        # Only write-bearing steps can change inferred invariants; the
        # trace's cached write index skips the pure-register majority.
        for step in trace.write_events():
            self.observe_step(step)

    def observe_step(self, step: StepRecord) -> None:
        for loc, value in step.writes:
            if not isinstance(value, int):
                continue
            self._samples.setdefault(loc, []).append(value)
            self._current[loc] = value
            self._update_pairs(loc)

    def _update_pairs(self, changed: Location) -> None:
        value = self._current[changed]
        for other, other_value in self._current.items():
            if other == changed:
                continue
            pair = (changed, other) if str(changed) < str(other) else (
                other, changed)
            a, b = self._current[pair[0]], self._current[pair[1]]
            surviving = self._pair_candidates.get(pair)
            if surviving is None:
                surviving = ["<=", ">="]
                self._pair_candidates[pair] = surviving
            if a > b and "<=" in surviving:
                surviving.remove("<=")
            if a < b and ">=" in surviving:
                surviving.remove(">=")
            self._pairs_seen[pair] = self._pairs_seen.get(pair, 0) + 1

    def infer(self) -> InvariantSet:
        """Produce the surviving invariants."""
        result = InvariantSet()
        for loc, samples in self._samples.items():
            if len(samples) < self.min_samples:
                continue
            distinct = set(samples)
            if len(distinct) == 1:
                result.invariants.append(ConstInvariant(loc, samples[0]))
                continue
            lo, hi = min(samples), max(samples)
            result.invariants.append(RangeInvariant(loc, lo, hi))
            if lo >= 0:
                result.invariants.append(NonNegativeInvariant(loc))
        for pair, relops in self._pair_candidates.items():
            if self._pairs_seen.get(pair, 0) < self.min_samples:
                continue
            for relop in relops:
                result.invariants.append(
                    PairInvariant(pair[0], pair[1], relop))
        return result


class InvariantMonitor:
    """Online monitor: tracks shared state and reports violations.

    Install :meth:`observe` as a machine observer; :attr:`violations`
    accumulates (step index, invariant) pairs.  Used by
    :class:`repro.analysis.triggers.InvariantTrigger`.
    """

    def __init__(self, invariants: InvariantSet):
        self.invariants = invariants
        self._current: Dict[Location, int] = {}
        self.violations: List[Tuple[int, Invariant]] = []

    def observe(self, machine, step: StepRecord) -> List[Invariant]:
        changed = False
        for loc, value in step.writes:
            if isinstance(value, int):
                self._current[loc] = value
                changed = True
        if not changed:
            return []
        violated = self.invariants.violated_by(self._current)
        for invariant in violated:
            self.violations.append((step.index, invariant))
        return violated
