"""Per-phase wall-clock records.

:class:`TimingRecord` holds the seconds one step or chunk spent in each
named phase — the raw data of the Tables VI and VII breakdowns ("Cheb
vectors", "Calc guesses", "Cheb single", "1st solve", "2nd solve").
The drivers build it with :meth:`TimingRecord.from_spans` from the
tracer spans that timed each phase; the tracer is the only phase clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True)
class TimingRecord:
    """Immutable snapshot of accumulated phase timings (seconds)."""

    phases: Mapping[str, float]
    counts: Mapping[str, int]

    @classmethod
    def from_spans(cls, *spans: Any) -> "TimingRecord":
        """Sum closed spans' ``duration`` by ``name`` (one count each)."""
        phases: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for s in spans:
            phases[s.name] = phases.get(s.name, 0.0) + s.duration
            counts[s.name] = counts.get(s.name, 0) + 1
        return cls(phases=phases, counts=counts)

    def total(self) -> float:
        # fsum over sorted keys: exact and independent of dict order.
        return math.fsum(self.phases[k] for k in sorted(self.phases))
