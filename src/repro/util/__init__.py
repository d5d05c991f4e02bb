"""Shared utilities: deterministic RNG plumbing, per-phase timing
records (built from tracer spans), table rendering.

These helpers are deliberately tiny and dependency-free so that every
other subpackage (sparse kernels, performance model, Stokesian dynamics)
can import them without cycles.
"""

from repro.util.rng import as_rng, rng_from_json, rng_state_to_json, spawn_rngs
from repro.util.timer import TimingRecord
from repro.util.tables import format_table, format_row
from repro.util.validation import (
    check_finite,
    check_positive,
    check_shape,
    check_square_blocks,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "rng_state_to_json",
    "rng_from_json",
    "TimingRecord",
    "format_table",
    "format_row",
    "check_finite",
    "check_positive",
    "check_shape",
    "check_square_blocks",
]
