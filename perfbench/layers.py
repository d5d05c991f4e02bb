"""The layer boundaries a traced run wraps, and the per-layer metrics.

:meth:`Probe.install` wraps one public call of ``repro`` per span
name; :data:`LAYER_OF` maps span names to the layer whose self time
they count towards.  ``sd.step``,
``mrhs.begin_chunk`` and ``service.worker`` are group markers only:
their self time is driver glue and is not attributed to any layer.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

from spans import Tracer, self_times

#: span name -> layer whose self time it counts towards
LAYER_OF = {
    "neighbors": "neighbors",
    "resistance": "resistance",
    "bcrs": "bcrs",
    "brownian": "brownian",
    "lanczos": "lanczos",
    "cg": "cg",
    "block_cg": "block_cg",
    "gspmv.m1": "gspmv",
    "gspmv.block": "gspmv",
    "integrators": "integrators",
    "service.manager": "service",
    "journal.append": "journal",
    "journal.compact": "journal",
    "journal.recover": "journal",
    "checkpoint.save": "checkpoint",
    "checkpoint.save_async": "checkpoint",
    "checkpoint.flush": "checkpoint.wait",
    "checkpoint.load": "checkpoint.load",
    "runner": "runner",
    "health": "health",
    "telemetry.emit": "telemetry",
    "telemetry.gspmv": "telemetry",
    "telemetry.flush": "telemetry",
    "telemetry.write": "telemetry",
    "governor": "governor",
}

#: (name, unit) of every per-layer metric, in output order
METRICS: List[Tuple[str, str]] = [
    ("neighbors.calls_per_step", "calls/step"),
    ("neighbors.distinct_frac", "frac"),
    ("neighbors.self_s_per_step", "s/step"),
    ("neighbors.pairs_mean", "pairs"),
    ("resistance.calls_per_step", "calls/step"),
    ("resistance.self_s_per_step", "s/step"),
    ("resistance.blocks_per_row", "blocks/row"),
    ("bcrs.self_s_per_step", "s/step"),
    ("brownian.self_s_per_step", "s/step"),
    ("brownian.cols_per_step", "cols/step"),
    ("lanczos.calls", "count"),
    ("lanczos.self_s", "s"),
    ("cg.iters_first_guess", "iters"),
    ("cg.iters_first_cold", "iters"),
    ("cg.iters_second", "iters"),
    ("cg.self_s_per_step", "s/step"),
    ("cg.unconverged", "count"),
    ("block_cg.iters_per_chunk", "iters/chunk"),
    ("block_cg.self_s_per_chunk", "s/chunk"),
    ("block_cg.fallback_cols", "count"),
    ("mrhs.iters_saved_frac", "frac"),
    ("mrhs.guess_error_mean", "ratio"),
    ("gspmv.calls_m1_per_step", "calls/step"),
    ("gspmv.calls_block_per_step", "calls/step"),
    ("gspmv.self_s_m1", "s"),
    ("gspmv.self_s_block", "s"),
    ("gspmv.r_m", "ratio"),
    ("gspmv.us_per_call_m1", "us"),
    ("gspmv.computed_bytes_per_step", "B/step"),
    ("gspmv.computed_gbs", "GB/s"),
    ("gspmv.flops_per_byte", "flop/B"),
    ("integrators.self_s_per_step", "s/step"),
    ("integrators.scaled_frac", "frac"),
    ("service.sched_self_s", "s/job"),
    ("service.dispatches", "count/job"),
    ("service.preemptions", "count/job"),
    ("service.recover_s", "s/job"),
    ("journal.appends", "count/job"),
    ("journal.bytes", "B/job"),
    ("journal.self_s", "s/job"),
    ("checkpoint.saves", "count/job"),
    ("checkpoint.bytes", "B/job"),
    ("checkpoint.self_s", "s/job"),
    ("checkpoint.wait_s", "s/job"),
    ("checkpoint.loads", "count/job"),
    ("checkpoint.load_s", "s/job"),
    ("runner.self_s", "s/job"),
    ("health.self_s", "s/job"),
    ("health.rejections", "count/job"),
    ("telemetry.self_s", "s/job"),
    ("telemetry.bytes", "B/job"),
    ("telemetry.rotations", "count/job"),
    ("governor.self_s", "s/job"),
    ("governor.releases", "count/job"),
    ("trace.attributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]


def _arg(args: tuple, kwargs: dict, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _file_size(path: Any) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


class Probe:
    """Wraps every boundary in :data:`LAYER_OF` and counts what crosses it."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.configs: set = set()
        self.blocks_per_row: List[float] = []
        self.steps: List[Tuple[Any, bool]] = []
        """(StepRecord, first solve seeded by a block-solve column)"""
        self.chunk_starts: set = set()
        self.block_iters: List[int] = []
        self.traffic: Dict[tuple, Tuple[float, float]] = {}
        self.engines: Dict[tuple, str] = {}
        self.writers: Dict[int, Tuple[Any, int]] = {}
        self.shares: Dict[str, float] = {}
        """Main-thread self time of each layer as a share of the traced
        wall (set by :meth:`metrics`)."""
        self.journal_size: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # observers (run after the span has ended)
    # ------------------------------------------------------------------
    def _neighbors(self, args, kwargs, nl) -> None:
        system = _arg(args, kwargs, 0, "system")
        self.configs.add(hash(system.positions.tobytes()))
        self.counts["neighbors.pairs"] += nl.n_pairs

    def _resistance(self, args, kwargs, R) -> None:
        self.blocks_per_row.append(R.nnzb / R.nb_rows)

    def _brownian(self, args, kwargs, _result) -> None:
        z = _arg(args, kwargs, 1, "z")
        if z is None:
            self.counts["brownian.cols"] += int(kwargs.get("m", 1))
        else:
            self.counts["brownian.cols"] += 1 if z.ndim == 1 else z.shape[1]

    def _gspmv(self, args, kwargs, _result) -> None:
        reg, A, X = args[0], args[1], args[2]
        m = 1 if X.ndim == 1 else X.shape[1]
        key = (id(A), A.nb_rows, A.nnzb, m)
        if key not in self.traffic:
            from repro.sparse.traffic import memory_traffic_bytes

            t = memory_traffic_bytes(A, m, k=0.0)
            self.traffic[key] = (t.total_bytes, t.flops)
            engine = _arg(args, kwargs, 4, "engine")
            self.engines[key] = reg.resolve_engine(A, m, engine)
        label = "m1" if m == 1 else "block"
        nbytes, flops = self.traffic[key]
        self.counts[f"gspmv.bytes_{label}"] += nbytes
        self.counts[f"gspmv.flops_{label}"] += flops
        self.counts[f"gspmv.engine.{self.engines[key]}.m={m}"] += 1

    def _step(self, args, kwargs, record) -> None:
        seeded = kwargs.get("u_guess") is not None
        start = (id(args[0]), record.step_index) in self.chunk_starts
        self.steps.append((record, seeded and not start))

    def _begin_chunk(self, args, kwargs, pending) -> None:
        sd = args[0].sd
        self.chunk_starts.add((id(sd), sd.step_index))
        self.block_iters.append(pending.block_iterations)
        self.counts["block_cg.fallback_cols"] += len(pending.fallback_columns)

    def _manager(self, args, kwargs, report) -> None:
        self.counts["service.preemptions"] += report.preemptions

    def _journal_resync(self, args, kwargs, _result) -> None:
        journal = args[0]
        self.journal_size[str(journal.path)] = _file_size(journal.path)

    def _journal_append(self, args, kwargs, _seq) -> None:
        journal = args[0]
        path = str(journal.path)
        size = _file_size(path)
        self.counts["journal.bytes"] += max(0, size - self.journal_size.get(path, 0))
        self.journal_size[path] = size

    def _checkpoint_save(self, args, kwargs, path) -> None:
        self.counts["checkpoint.bytes"] += _file_size(path)

    def _writer(self, args, kwargs, _result) -> None:
        writer = args[0]
        if id(writer) not in self.writers:
            self.writers[id(writer)] = (writer, writer.rotations)

    def _write_line(self, args, kwargs, result) -> None:
        self._writer(args, kwargs, result)
        text = _arg(args, kwargs, 1, "text")
        self.counts["telemetry.bytes"] += len(text) + (not text.endswith("\n"))

    def _health(self, args, kwargs, outcome) -> None:
        self.counts["health.rejections"] += outcome.retries

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.mrhs import MrhsStokesianDynamics
        from repro.health.acceptance import StepAcceptanceController
        from repro.resilience.checkpoint import CheckpointManager
        from repro.resilience.runner import ResilientRunner
        from repro.resources.governor import ResourceGovernor
        from repro.resources.rotate import RotatingJsonlWriter
        from repro.service.journal import JobJournal
        from repro.service.manager import JobManager
        from repro.service.worker import JobWorker
        from repro.solvers import block_cg, cg
        from repro.sparse.bcrs import BCRSMatrix
        from repro.sparse.kernels import KernelRegistry
        from repro.stokesian import chebyshev, integrators, neighbors, resistance
        from repro.stokesian.brownian import BrownianForceGenerator
        from repro.stokesian.dynamics import StokesianDynamics
        from repro.telemetry.hub import TelemetryHub

        t = self.tracer
        t.patch_function(neighbors, "neighbor_pairs", "neighbors", self._neighbors)
        t.patch_function(resistance, "build_resistance_matrix", "resistance",
                         self._resistance)
        t.patch_method(BCRSMatrix, "from_block_coo", "bcrs")
        t.patch_method(BrownianForceGenerator, "generate", "brownian", self._brownian)
        t.patch_function(chebyshev, "lanczos_spectrum_bounds", "lanczos")
        t.patch_function(cg, "conjugate_gradient", "cg")
        t.patch_function(block_cg, "block_conjugate_gradient", "block_cg")
        t.patch_method(
            KernelRegistry, "multiply",
            lambda a, k: "gspmv.m1" if a[2].ndim == 1 or a[2].shape[1] == 1
            else "gspmv.block",
            self._gspmv,
        )
        t.patch_function(integrators, "apply_displacement", "integrators")
        t.patch_method(StokesianDynamics, "step", "sd.step", self._step)
        t.patch_method(MrhsStokesianDynamics, "begin_chunk", "mrhs.begin_chunk",
                       self._begin_chunk)
        t.patch_method(JobManager, "run", "service.manager", self._manager)
        t.patch_method(JobWorker, "run", "service.worker",
                       group_of=lambda a, k: a[0].spec.name)
        t.patch_method(JobJournal, "append", "journal.append", self._journal_append)
        t.patch_method(JobJournal, "compact", "journal.compact",
                       self._journal_resync)
        t.patch_method(JobJournal, "recover", "journal.recover",
                       self._journal_resync)
        t.patch_method(CheckpointManager, "save", "checkpoint.save",
                       self._checkpoint_save)
        t.patch_method(CheckpointManager, "save_async", "checkpoint.save_async")
        t.patch_method(CheckpointManager, "flush", "checkpoint.flush")
        t.patch_method(CheckpointManager, "load_latest", "checkpoint.load")
        t.patch_method(ResilientRunner, "run_steps", "runner")
        t.patch_method(StepAcceptanceController, "attempt_step", "health",
                       self._health)
        t.patch_method(TelemetryHub, "emit_event", "telemetry.emit")
        t.patch_method(TelemetryHub, "record_gspmv", "telemetry.gspmv")
        t.patch_method(TelemetryHub, "flush", "telemetry.flush")
        t.patch_method(RotatingJsonlWriter, "write_line", "telemetry.write",
                       self._write_line)
        t.patch_method(RotatingJsonlWriter, "write_lines", "telemetry.write",
                       self._writer)
        t.patch_method(ResourceGovernor, "emergency_release", "governor")

    def uninstall(self) -> bool:
        return self.tracer.uninstall()

    # ------------------------------------------------------------------
    def engine_summary(self) -> str:
        """``ENGINE.m=M xCALLS`` for every (engine, m) that ran."""
        prefix = "gspmv.engine."
        return ", ".join(
            f"{key[len(prefix):]} x{n}"
            for key, n in sorted(self.counts.items()) if key.startswith(prefix)
        ) or "none"

    def metrics(self, *, wall: float, untraced_wall: float,
                jobs: int) -> Dict[str, float]:
        """Every metric of :data:`METRICS` for one traced pass.

        ``wall`` is the traced pass's wall time, ``untraced_wall`` the
        same work's wall time without wrappers, ``jobs`` the service jobs
        completed in the traced pass (0 outside the service workload).
        """
        spans = self.tracer.spans
        own = self_times(spans)
        layer_s: Counter = Counter()
        main_s: Counter = Counter()
        calls: Counter = Counter()
        for s in spans:
            calls[s.name] += 1
            layer = LAYER_OF.get(s.name)
            if layer is None:
                continue
            layer_s[layer] += own[s.sid]
            if s.name.startswith("gspmv."):
                layer_s[s.name] += own[s.sid]
            if s.name == "journal.recover":
                layer_s["service.recover"] += s.end - s.start
            if s.main:
                main_s[layer] += own[s.sid]
        self.shares = {k: v / wall for k, v in main_s.most_common()} if wall else {}
        attributed = sum(main_s.values())
        steps = len(self.steps)
        chunks = len(self.block_iters)
        c = self.counts

        def per(value: float, n: int) -> float:
            return value / n if n else 0.0

        def mean(values: List[float]) -> float:
            return statistics.fmean(values) if values else 0.0

        guess = [r.iterations_first for r, g in self.steps if g]
        cold = [r.iterations_first for r, g in self.steps
                if r.guess_error is None]
        seeded_all = [r.iterations_first for r, g in self.steps
                      if r.guess_error is not None]
        m1_calls, block_calls = calls["gspmv.m1"], calls["gspmv.block"]
        us_m1 = per(layer_s["gspmv.m1"], m1_calls) * 1e6
        us_block = per(layer_s["gspmv.block"], block_calls) * 1e6
        gspmv_bytes = c["gspmv.bytes_m1"] + c["gspmv.bytes_block"]
        gspmv_flops = c["gspmv.flops_m1"] + c["gspmv.flops_block"]
        rotations = sum(w.rotations - r0 for w, r0 in self.writers.values())
        out = {
            "neighbors.calls_per_step": per(calls["neighbors"], steps),
            "neighbors.distinct_frac": per(len(self.configs), calls["neighbors"]),
            "neighbors.self_s_per_step": per(layer_s["neighbors"], steps),
            "neighbors.pairs_mean": per(c["neighbors.pairs"], calls["neighbors"]),
            "resistance.calls_per_step": per(calls["resistance"], steps),
            "resistance.self_s_per_step": per(layer_s["resistance"], steps),
            "resistance.blocks_per_row": mean(self.blocks_per_row),
            "bcrs.self_s_per_step": per(layer_s["bcrs"], steps),
            "brownian.self_s_per_step": per(layer_s["brownian"], steps),
            "brownian.cols_per_step": per(c["brownian.cols"], steps),
            "lanczos.calls": calls["lanczos"],
            "lanczos.self_s": layer_s["lanczos"],
            "cg.iters_first_guess": mean(guess),
            "cg.iters_first_cold": mean(cold),
            "cg.iters_second": mean([r.iterations_second for r, _ in self.steps]),
            "cg.self_s_per_step": per(layer_s["cg"], steps),
            "cg.unconverged": sum(not r.converged for r, _ in self.steps),
            "block_cg.iters_per_chunk": mean(self.block_iters),
            "block_cg.self_s_per_chunk": per(layer_s["block_cg"], chunks),
            "block_cg.fallback_cols": c["block_cg.fallback_cols"],
            "mrhs.iters_saved_frac": (
                1.0 - mean(seeded_all) / mean(cold) if cold and seeded_all
                else 0.0
            ),
            "mrhs.guess_error_mean": mean(
                [r.guess_error for r, g in self.steps if g]
            ),
            "gspmv.calls_m1_per_step": per(m1_calls, steps),
            "gspmv.calls_block_per_step": per(block_calls, steps),
            "gspmv.self_s_m1": layer_s["gspmv.m1"],
            "gspmv.self_s_block": layer_s["gspmv.block"],
            "gspmv.r_m": us_block / us_m1 if us_m1 and block_calls else 0.0,
            "gspmv.us_per_call_m1": us_m1,
            "gspmv.computed_bytes_per_step": per(gspmv_bytes, steps),
            "gspmv.computed_gbs": gspmv_bytes / layer_s["gspmv"] / 1e9
            if layer_s["gspmv"] else 0.0,
            "gspmv.flops_per_byte": gspmv_flops / gspmv_bytes if gspmv_bytes else 0.0,
            "integrators.self_s_per_step": per(layer_s["integrators"], steps),
            "integrators.scaled_frac": per(
                sum(r.final_scale < 1.0 or r.midpoint_scale < 1.0
                    for r, _ in self.steps), steps),
            "service.sched_self_s": per(layer_s["service"], jobs),
            "service.dispatches": per(calls["service.worker"], jobs),
            "service.preemptions": per(c["service.preemptions"], jobs),
            "service.recover_s": per(layer_s["service.recover"], jobs),
            "journal.appends": per(calls["journal.append"], jobs),
            "journal.bytes": per(c["journal.bytes"], jobs),
            "journal.self_s": per(layer_s["journal"], jobs),
            "checkpoint.saves": per(calls["checkpoint.save"], jobs),
            "checkpoint.bytes": per(c["checkpoint.bytes"], jobs),
            "checkpoint.self_s": per(layer_s["checkpoint"], jobs),
            "checkpoint.wait_s": per(layer_s["checkpoint.wait"], jobs),
            "checkpoint.loads": per(calls["checkpoint.load"], jobs),
            "checkpoint.load_s": per(layer_s["checkpoint.load"], jobs),
            "runner.self_s": per(layer_s["runner"], jobs),
            "health.self_s": per(layer_s["health"], jobs),
            "health.rejections": per(c["health.rejections"], jobs),
            "telemetry.self_s": per(layer_s["telemetry"], jobs),
            "telemetry.bytes": per(c["telemetry.bytes"], jobs),
            "telemetry.rotations": per(rotations, jobs),
            "governor.self_s": per(layer_s["governor"], jobs),
            "governor.releases": per(calls["governor"], jobs),
            "trace.attributed_frac": attributed / wall if wall else 0.0,
            "trace.overhead_frac": wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        }
        return {name: float(out[name]) for name, _ in METRICS}

