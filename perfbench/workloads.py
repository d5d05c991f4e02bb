"""The benchmark's workloads: two Stokesian-dynamics loops and a service batch.

Each ``run_*`` function generates its inputs from the seed, sets up,
measures a fixed amount of work, checks the program's outputs and
returns a :class:`Result`.  The amount of work is fixed by the workload
and scaled by the requested seconds (see :func:`units`), so both sides
of a comparison do identical work.  With ``trace`` set it measures half
that work twice -- first plain, then with every layer boundary wrapped
-- and returns the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from layers import Probe

AGREEMENT_TOLS = 1.0
"""MRHS and original positions must agree within this many solver ``tol``
of the RMS displacement, compared after the last chunk pair at which both
drivers still share their cached Chebyshev spectrum bounds (measured:
0.05-0.21 tol).  The MRHS driver asks for bounds m + 1 times per chunk,
the original once per step, so they refresh at different steps and
their Brownian forces then differ by the Chebyshev error, not by tol."""

REFERENCE_SECONDS = 15.0
"""``--seconds`` at which a workload times its stated number of units."""

TAIL_BEYOND = 10
"""The tail percentile is the highest one with this many samples beyond it."""


@dataclass(frozen=True)
class SDWorkload:
    """One Stokesian-dynamics system driven by both algorithms."""

    name: str
    n: int
    phi: float
    m: int
    gap_radii: Optional[float] = None
    """Lubrication cutoff gap in mean radii; None keeps the program default."""
    pairs: int = 1
    """Timed chunk pairs at :data:`REFERENCE_SECONDS`."""


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed batch of small jobs through ``repro serve``, twice started."""

    name: str
    jobs: int = 30
    steps: int = 16
    tenants: int = 3
    quantum: int = 4
    checkpoint_every: int = 4
    first_ticks_per_job: int = 10
    """The first ``repro serve`` stops after this many ticks per job."""
    batches: int = 2
    """Timed batches at :data:`REFERENCE_SECONDS` (at least two)."""


WORKLOADS = {
    # Four timed pairs end before either driver's first spectrum-bound
    # refresh (50 requests: m + 1 per MRHS chunk, one per original step);
    # a fifth would charge a Lanczos run to the MRHS side only.
    "sd-bulk": SDWorkload("sd-bulk", n=2000, phi=0.4, m=8, pairs=4),
    "svc-small-jobs": ServiceWorkload("svc-small-jobs", batches=5),
    # Not in BENCHMARK.json: too noisy on a shared 2-core host for a 25%
    # bound within the run budget (see README.md).  Kept for traced runs,
    # where GSPMV and the block solve take their largest share.
    "sd-dense": SDWorkload("sd-dense", n=1000, phi=0.5, m=16, gap_radii=3.6,
                           pairs=1),
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    trace_path: Optional[Path] = None

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; note it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def seeds(seed: int, count: int) -> List[int]:
    """``count`` independent input seeds derived from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it (the smallest sample when there
    are no more than that)."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def turnaround_metrics(result: Result, samples: List[float], what: str) -> None:
    pct, value = tail(samples)
    result.metrics["job_turnaround_p50_s"] = statistics.median(samples)
    result.metrics["job_turnaround_tail_s"] = value
    result.notes.append(
        f"turnaround: {len(samples)} {what}; tail is p{pct:.0f}"
    )


def engine_note(matrix: Any, widths: List[int]) -> str:
    """The engine the kernel registry resolves for this matrix, per m."""
    from repro.sparse.kernels import get_default_registry

    reg = get_default_registry()
    picked = ", ".join(
        f"m={m} -> {reg.resolve_engine(matrix, m)}" for m in widths
    )
    return f"engine (registry resolution): {picked}; default {reg.default_engine!r}"


def llc_bytes() -> Optional[int]:
    """Largest CPU cache size the kernel reports, or None."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = size if best is None else max(best, size)
    return best


def traffic_note(matrix: Any, widths: List[int]) -> str:
    """Computed (k=0) bytes and flops of one product, beside the LLC."""
    from repro.sparse.traffic import memory_traffic_bytes

    llc = llc_bytes()
    parts = []
    for m in widths:
        t = memory_traffic_bytes(matrix, m, k=0.0)
        parts.append(
            f"m={m}: {t.total_bytes / 2**20:.2f} MiB, "
            f"{t.arithmetic_intensity:.3f} flop/B"
        )
    where = "LLC unknown" if llc is None else (
        f"LLC {llc / 2**20:.0f} MiB, "
        + ("fits" if all(
            memory_traffic_bytes(matrix, m, k=0.0).total_bytes <= llc
            for m in widths) else "exceeds")
    )
    return (
        "computed GSPMV traffic per call (matrix + multivectors, k=0): "
        + "; ".join(parts) + f" ({where}; no bandwidth claim)"
    )


# ----------------------------------------------------------------------
# Stokesian dynamics: Algorithm 2 against Algorithm 1 on identical noise
# ----------------------------------------------------------------------
@dataclass
class PairTiming:
    """One chunk of m steps of each algorithm, in that order."""

    mrhs_s: float
    orig_s: float
    latencies: List[float]
    chunk: Any
    orig_steps: List[Any]

    def signature(self) -> tuple:
        """Iteration counts of the pair (must repeat exactly)."""
        return (
            self.chunk.block_iterations,
            tuple((s.iterations_first, s.iterations_second)
                  for s in self.chunk.steps),
            tuple((s.iterations_first, s.iterations_second)
                  for s in self.orig_steps),
        )


def run_pair(mrhs, orig, probe: Optional[Probe] = None) -> PairTiming:
    """Advance both drivers by one chunk, timing every step."""
    tracer = probe.tracer if probe is not None else None
    latencies = []
    t = time.perf_counter()
    if tracer:
        tracer.group = f"mrhs:{mrhs.sd.step_index}"
    mrhs.begin_chunk()
    while mrhs.pending is not None:
        if tracer:
            tracer.group = f"mrhs:{mrhs.sd.step_index}"
        mrhs.step_in_chunk()
        now = time.perf_counter()
        latencies.append(now - t)
        t = now
    mrhs_s = sum(latencies)
    chunk = mrhs.chunks[-1]
    for _ in range(chunk.m):
        if tracer:
            tracer.group = f"orig:{orig.step_index}"
        orig.step()
        now = time.perf_counter()
        latencies.append(now - t)
        t = now
    return PairTiming(
        mrhs_s=mrhs_s,
        orig_s=sum(latencies) - mrhs_s,
        latencies=latencies,
        chunk=chunk,
        orig_steps=orig.history[-chunk.m:],
    )


def units(seconds: float, at_reference: int, minimum: int) -> int:
    """Timed work units for ``seconds``, scaled from the reference."""
    return max(minimum, round(at_reference * seconds / REFERENCE_SECONDS))


def _min_image(d: np.ndarray, box: np.ndarray) -> np.ndarray:
    return d - box * np.round(d / box)


def _bounds(state: Dict[str, Any]) -> tuple:
    return state["bounds_lo"], state["bounds_hi"]


def run_pairs(mrhs, orig, count: int, start: np.ndarray,
              probe: Optional[Probe] = None):
    """``count`` chunk pairs, and ``(deviation, steps)`` of the two
    trajectories after the last pair at which both drivers shared their
    spectrum bounds (``None`` when no pair did)."""
    pairs, compared = [], None
    for _ in range(count):
        pairs.append(run_pair(mrhs, orig, probe))
        if _bounds(mrhs.get_state()["sd"]) == _bounds(orig.get_state()):
            box = orig.system.box
            dev = _min_image(mrhs.system.positions - orig.system.positions, box)
            disp = _min_image(orig.system.positions - start, box)
            compared = (
                float(np.sqrt(np.mean(dev**2)) / np.sqrt(np.mean(disp**2))),
                orig.step_index,
            )
    return pairs, compared


def check_pairs(result: Result, pairs: List[PairTiming]) -> None:
    """One operation per step: it fails if either in-step solve missed tol."""
    for p in pairs:
        for s in list(p.chunk.steps) + list(p.orig_steps):
            result.check(s.converged, f"step {s.step_index} did not converge")


def check_agreement(result: Result, compared, tol: float) -> None:
    """The two algorithms' positions agree within the stated tol."""
    if compared is None:
        result.notes.append("positions not compared: the drivers never "
                            "shared spectrum bounds after a timed pair")
        return
    ratio, steps = compared
    limit = AGREEMENT_TOLS * tol
    result.check(
        ratio <= limit,
        f"MRHS/original positions differ by {ratio:.3e} of the RMS "
        f"displacement after {steps} steps (limit {limit:.1e})",
    )
    result.notes.append(
        f"positions agree to {ratio:.2e} of the RMS displacement "
        f"after {steps} steps"
    )


def run_sd(wl: SDWorkload, seed: int, seconds: float, trace: bool,
           work_dir: Path) -> Result:
    from repro import (
        MrhsParameters,
        MrhsStokesianDynamics,
        SDParameters,
        StokesianDynamics,
    )
    from repro.stokesian.packing import random_configuration

    pack_seed, noise_seed = seeds(seed, 2)
    result = Result()
    t0 = time.perf_counter()
    system = random_configuration(wl.n, wl.phi, rng=pack_seed)
    params = SDParameters() if wl.gap_radii is None else SDParameters(
        cutoff_gap=wl.gap_radii * float(np.mean(system.radii))
    )
    mrhs = MrhsStokesianDynamics(
        system, params, MrhsParameters(m=wl.m), rng=noise_seed
    )
    orig = StokesianDynamics(system, params, rng=noise_seed)
    warm = run_pair(mrhs, orig)
    setup_s = time.perf_counter() - t0
    check_pairs(result, [warm])

    if not trace:
        pairs, compared = run_pairs(
            mrhs, orig, units(seconds, wl.pairs, 1), system.positions)
        check_pairs(result, pairs)
        check_agreement(result, compared, params.tol)
        steps = sum(p.chunk.m for p in pairs)
        latencies = [x for p in pairs for x in p.latencies]
        result.metrics.update(
            mrhs_step_s=statistics.median(p.mrhs_s / p.chunk.m for p in pairs),
            orig_step_s=statistics.median(p.orig_s / p.chunk.m for p in pairs),
            jobs_per_s=statistics.median(
                2 * p.chunk.m / (p.mrhs_s + p.orig_s) for p in pairs),
            setup_s=setup_s,
        )
        turnaround_metrics(result, latencies, "steps of either algorithm")
        result.notes.append(
            f"timed: {len(pairs)} chunk pairs, {steps} steps per algorithm"
        )
    else:
        snapshot = (mrhs.get_state(), orig.get_state())
        t = time.perf_counter()
        half = max(1, units(seconds, wl.pairs, 1) // 2)
        plain, _ = run_pairs(mrhs, orig, half, system.positions)
        plain_wall = time.perf_counter() - t
        mrhs.set_state(snapshot[0])
        orig.set_state(snapshot[1])
        probe = Probe()
        probe.install()
        try:
            t = time.perf_counter()
            traced, compared = run_pairs(
                mrhs, orig, half, system.positions, probe)
            traced_wall = time.perf_counter() - t
        finally:
            restored = probe.uninstall()
        result.check(restored, "wrappers left installed after the traced pass")
        result.check(
            [p.signature() for p in plain] == [p.signature() for p in traced],
            "iteration counts differ between the plain and traced pass",
        )
        check_pairs(result, plain + traced)
        check_agreement(result, compared, params.tol)
        result.metrics.update(probe.metrics(
            wall=traced_wall, untraced_wall=plain_wall, jobs=0
        ))
        finish_trace(result, probe, traced_wall, work_dir, wl.name, seed)

    R = mrhs.sd.build_matrix()
    result.notes.append(engine_note(R, [1, wl.m]))
    result.notes.append(traffic_note(R, [1, wl.m]))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    return result


def finish_trace(result: Result, probe: Probe, wall: float, work_dir: Path,
                 workload: str, seed: int) -> None:
    result.notes.append("self-time share of traced wall: " + ", ".join(
        f"{k} {v:.1%}" for k, v in probe.shares.items() if v >= 0.001
    ))
    result.notes.append(f"kernel calls by engine: {probe.engine_summary()}")
    path = work_dir / f"trace-{workload}-{seed}.jsonl"
    probe.tracer.write(path, workload=workload, seed=seed, wall=wall)
    result.trace_path = path


# ----------------------------------------------------------------------
# Service: small jobs through two incarnations of `repro serve`
# ----------------------------------------------------------------------
def _digest(positions: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).hexdigest()


def _bare(spec, mrhs: bool):
    """A driver for ``spec`` outside the service (packing seed ``seed``,
    noise seed ``seed + 1``, as the service's workers use them)."""
    from repro import (
        MrhsParameters,
        MrhsStokesianDynamics,
        SDParameters,
        StokesianDynamics,
    )
    from repro.stokesian.packing import random_configuration

    system = random_configuration(spec.n, spec.phi, rng=spec.seed)
    params = SDParameters(dt=spec.dt)
    if mrhs:
        return MrhsStokesianDynamics(
            system, params, MrhsParameters(m=spec.m), rng=spec.seed + 1
        )
    return StokesianDynamics(system, params, rng=spec.seed + 1)


def reference_digests(specs) -> Dict[str, str]:
    out = {}
    for spec in specs:
        driver = _bare(spec, mrhs=True)
        driver.run(spec.steps // spec.m)
        out[spec.name] = _digest(driver.system.positions)
    return out


def original_pass(result: Result, specs) -> Tuple[float, int]:
    """Algorithm 1 on every job's system: (seconds, steps)."""
    total, steps = 0.0, 0
    for spec in specs:
        driver = _bare(spec, mrhs=False)
        t = time.perf_counter()
        records = driver.run(spec.steps)
        total += time.perf_counter() - t
        steps += len(records)
        result.check(
            all(r.converged for r in records),
            f"{spec.name}: an Algorithm 1 step did not converge",
        )
    return total, steps


@dataclass
class Batch:
    wall: float
    setup: float
    turnarounds: List[float]
    done: int
    steps: int
    orig_s: float = 0.0
    """Algorithm 1 seconds on this batch's share of the job systems."""
    orig_steps: int = 0


def _serve(args: List[str]) -> int:
    from repro.cli import main as repro_main

    with contextlib.redirect_stdout(io.StringIO()):
        return repro_main(args)


def run_batch(wl: ServiceWorkload, specs, reference: Dict[str, str],
              directory: Path, result: Result) -> Batch:
    from repro.service import JobJournal, JobState, replay_records

    directory.mkdir(parents=True)
    jobs_file = directory / "jobs.json"
    jobs_file.write_text(json.dumps([s.to_json() for s in specs]))
    service, tel = directory / "service", directory / "telemetry"
    knobs = ["--quantum", str(wl.quantum),
             "--checkpoint-every", str(wl.checkpoint_every),
             "--telemetry-dir", str(tel)]
    wall0 = time.time()
    t0 = time.perf_counter()
    _serve(["serve", str(service), "--jobs", str(jobs_file), *knobs,
            "--max-ticks", str(wl.first_ticks_per_job * len(specs))])
    _serve(["serve", str(service), *knobs])
    wall = time.perf_counter() - t0

    dispatched, done_at = [], {}
    for line in (tel / "events.jsonl").read_text().splitlines():
        ev = json.loads(line)
        if ev.get("kind") == "dispatch":
            dispatched.append(ev["ts"])
        elif ev.get("kind") == "done":
            done_at[ev["attrs"]["name"]] = ev["ts"] - wall0
    records, _ = JobJournal.scan(service / "journal.jsonl")
    jobs = {j.spec.name: j for j in replay_records(records)[0].values()}
    done = 0
    for spec in specs:
        job = jobs.get(spec.name)
        ok = (job is not None and job.state is JobState.DONE
              and job.digest == reference[spec.name])
        done += ok
        result.check(ok, f"{spec.name}: " + (
            "missing" if job is None else
            f"state {job.state.value}" if job.state is not JobState.DONE
            else "digest differs from the bare-driver run"))
    shutil.rmtree(directory)
    return Batch(
        wall=wall,
        setup=min(dispatched) - wall0 if dispatched else wall,
        turnarounds=list(done_at.values()),
        done=done,
        steps=done * wl.steps,
    )


def run_batches(wl, specs, reference, work_dir, result, count: int,
                first: int = 0) -> List[Batch]:
    """``count`` batches, each followed by Algorithm 1 on its share of the
    job systems, so both measurements span the same stretch of time."""
    batches = []
    for i in range(count):
        batch = run_batch(wl, specs, reference,
                          work_dir / f"batch{first + i}", result)
        batch.orig_s, batch.orig_steps = original_pass(result, specs[i::count])
        batches.append(batch)
    return batches


def run_service(wl: ServiceWorkload, seed: int, seconds: float, trace: bool,
                work_dir: Path) -> Result:
    import repro.cli  # noqa: F401  (loaded before the first timed batch)
    from repro.service import JobSpec

    specs = [
        JobSpec(name=f"job{i:03d}", steps=wl.steps, seed=s,
                tenant=f"tenant{i % wl.tenants}")
        for i, s in enumerate(seeds(seed, wl.jobs))
    ]
    if any(spec.steps % spec.m for spec in specs):
        raise ValueError("job steps must be a whole number of chunks")
    result = Result()
    reference = reference_digests(specs)
    # A small untimed batch first: the service's lazily imported code
    # paths would otherwise make the first timed batch an outlier.
    run_batch(wl, specs[:wl.tenants], reference, work_dir / "warm-up", result)
    count = units(seconds, wl.batches, 2)

    if not trace:
        batches = run_batches(wl, specs, reference, work_dir, result, count)
        result.metrics.update(
            mrhs_step_s=statistics.median(
                b.wall / max(1, b.steps) for b in batches),
            orig_step_s=sum(b.orig_s for b in batches)
            / sum(b.orig_steps for b in batches),
            jobs_per_s=statistics.median(b.done / b.wall for b in batches),
            setup_s=statistics.median(b.setup for b in batches),
        )
        turnaround_metrics(
            result, [x for b in batches for x in b.turnarounds],
            f"jobs in {len(batches)} batches of {len(specs)}",
        )
    else:
        t = time.perf_counter()
        run_batches(wl, specs, reference, work_dir, result, count // 2)
        plain_wall = time.perf_counter() - t
        probe = Probe()
        probe.install()
        try:
            t = time.perf_counter()
            traced = run_batches(wl, specs, reference, work_dir, result,
                                 count // 2, first=count)
            traced_wall = time.perf_counter() - t
        finally:
            restored = probe.uninstall()
        result.check(restored, "wrappers left installed after the traced pass")
        result.metrics.update(probe.metrics(
            wall=traced_wall, untraced_wall=plain_wall,
            jobs=sum(b.done for b in traced),
        ))
        finish_trace(result, probe, traced_wall, work_dir, wl.name, seed)

    sample = _bare(specs[0], mrhs=True).sd.build_matrix()
    result.notes.append(engine_note(sample, [1, specs[0].m]))
    result.notes.append(traffic_note(sample, [1, specs[0].m]))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    return result


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> Result:
    wl = WORKLOADS[workload]
    if isinstance(wl, SDWorkload):
        return run_sd(wl, seed, seconds, trace, work_dir)
    return run_service(wl, seed, seconds, trace, work_dir)
