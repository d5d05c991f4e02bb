"""Aggregating step/chunk records into the paper's table rows.

Tables VI and VII print, for each configuration, the average seconds
per time step spent in each phase: "Cheb vectors", "Calc guesses",
"Cheb single", "1st solve", "2nd solve", and the overall "Average".
These helpers compute those rows from the drivers' records.  "Average"
sums every named phase, so it also counts the phases the paper does
not print (assembly, neighbor search, displacement).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.mrhs import ChunkRecord
from repro.stokesian.dynamics import StepRecord

__all__ = ["average_breakdown", "iterations_table", "guess_error_series"]

#: Phase rows in the order the paper prints them (Tables VI/VII).
PAPER_PHASES = ("Cheb vectors", "Calc guesses", "Cheb single", "1st solve", "2nd solve")


def average_breakdown(
    chunks: Optional[Sequence[ChunkRecord]] = None,
    steps: Optional[Sequence[StepRecord]] = None,
) -> Dict[str, float]:
    """Average per-step seconds by phase.

    Pass ``chunks`` for an MRHS run (chunk phases are amortized over
    the chunk's ``m`` steps) or ``steps`` for an original-algorithm run
    (whose records have no chunk phases — those rows come back 0.0,
    printed as "-" by the benches, as in the paper).
    """
    if (chunks is None) == (steps is None):
        raise ValueError("pass exactly one of chunks or steps")
    totals = {p: 0.0 for p in PAPER_PHASES}
    totals["Average"] = 0.0
    if chunks is not None:
        n_steps = sum(c.m for c in chunks)
        if n_steps == 0:
            return totals
        for c in chunks:
            for p in ("Cheb vectors", "Calc guesses"):
                totals[p] += c.chunk_timings.phases.get(p, 0.0)
            for s in c.steps:
                for p in ("Cheb single", "1st solve", "2nd solve"):
                    totals[p] += s.timings.phases.get(p, 0.0)
            totals["Average"] += c.total_time()
    else:
        n_steps = len(steps)
        if n_steps == 0:
            return totals
        for s in steps:
            for p in ("Cheb single", "1st solve", "2nd solve"):
                totals[p] += s.timings.phases.get(p, 0.0)
            totals["Average"] += s.timings.total()
    return {k: v / n_steps for k, v in totals.items()}


def iterations_table(
    with_guesses: Sequence[StepRecord],
    without_guesses: Sequence[StepRecord],
    step_indices: Iterable[int],
) -> List[tuple[int, int, int]]:
    """Rows of Table V: (step, iterations with, iterations without).

    ``step_indices`` selects which steps to print (the paper samples
    every second step from 2 to 24).
    """
    rows = []
    for idx in step_indices:
        w = with_guesses[idx].iterations_first if idx < len(with_guesses) else -1
        wo = without_guesses[idx].iterations_first if idx < len(without_guesses) else -1
        rows.append((idx, w, wo))
    return rows


def guess_error_series(chunks: Sequence[ChunkRecord]) -> List[float]:
    """Concatenated per-step guess errors (Figure 5's y values).

    Steps whose guess error is unavailable (e.g. degenerate norm) are
    reported as ``nan`` so positions stay aligned with step indices.
    """
    out: List[float] = []
    for c in chunks:
        for s in c.steps:
            out.append(float("nan") if s.guess_error is None else s.guess_error)
    return out
