"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from layers import METRICS, Probe  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY_SD = workloads.SDWorkload("tiny-sd", n=60, phi=0.35, m=4)
TINY_SVC = workloads.ServiceWorkload("tiny-svc", jobs=3, steps=4, tenants=2)


def test_self_times_on_a_nested_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, None, True),
        Span(1, "a", 1.0, 4.0, 0, None, True),
        Span(2, "a.child", 2.0, 3.0, 1, None, True),
        Span(3, "b", 3.0, 6.0, 0, None, True),    # overlaps a
        Span(4, "c", 8.0, 12.0, 0, None, True),   # runs past its parent
        Span(5, "other", 20.0, 21.0, -1, None, False),
    ]
    own = self_times(spans)
    # root: 10 minus the union [1, 6] + [8, 10]
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0})


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert [s.parent for s in tracer.spans if s.name == "inner"] == [
        by_name["outer"].sid] * 2
    own = self_times(tracer.spans)
    assert own[by_name["outer"].sid] == 3  # 5 ticks minus two 1-tick children
    assert sum(own.values()) == by_name["outer"].end - by_name["outer"].start


def _public_objects():
    """Every attribute of every loaded repro module and class."""
    seen = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not isinstance(mod, types.ModuleType) or not (
            name == "repro" or name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(mod).items()):
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in list(vars(value).items()):
                    seen[(name, key, attr)] = raw
    return seen


def test_wrappers_are_gone_after_uninstall():
    probe = Probe()
    probe.install()  # imports every wrapped module first
    assert probe.uninstall()
    before = _public_objects()
    from repro.stokesian import neighbors, resistance

    original = neighbors.neighbor_pairs
    probe = Probe()
    probe.install()
    assert resistance.neighbor_pairs is not original
    assert resistance.neighbor_pairs.__wrapped__ is original
    # a module first imported while the wrappers are installed
    late = types.ModuleType("repro._imported_mid_trace")
    late.neighbor_pairs = neighbors.neighbor_pairs
    sys.modules[late.__name__] = late
    try:
        assert probe.uninstall()
        assert late.neighbor_pairs is original
    finally:
        del sys.modules[late.__name__]
    after = _public_objects()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_same_seed_repeats_iteration_counts_and_other_seed_changes_inputs(
    tmp_path,
):
    first = workloads.run_sd(TINY_SD, 5, 1.0, True, tmp_path)
    again = workloads.run_sd(TINY_SD, 5, 1.0, True, tmp_path)
    other = workloads.run_sd(TINY_SD, 6, 1.0, True, tmp_path)
    assert first.failed == again.failed == other.failed == 0
    keys = [k for k in first.metrics
            if k.startswith(("cg.iters_", "block_cg.iters_per_chunk"))]
    assert len(keys) == 4
    assert {k: first.metrics[k] for k in keys} == {
        k: again.metrics[k] for k in keys}
    assert workloads.seeds(5, 2) != workloads.seeds(6, 2)
    from repro.stokesian.packing import random_configuration

    a, b = (random_configuration(TINY_SD.n, TINY_SD.phi, rng=workloads.seeds(s, 1)[0])
            for s in (5, 6))
    assert not np.array_equal(a.positions, b.positions)


def test_plain_sd_run_reports_every_end_to_end_metric(tmp_path):
    result = workloads.run_sd(TINY_SD, 3, 1.0, False, tmp_path)
    assert result.failed == 0 and result.attempted > 0
    for name, _unit in run.END_TO_END:
        assert result.metrics[name] > 0, name


@pytest.mark.parametrize("trace", [False, True])
def test_service_batch_matches_bare_digests(tmp_path, trace):
    result = workloads.run_service(TINY_SVC, 2, 1.0, trace, tmp_path)
    assert result.failed == 0, result.notes
    names = [n for n, _ in (METRICS if trace else run.END_TO_END)]
    assert set(names) <= set(result.metrics)
    if trace:
        assert result.metrics["service.dispatches"] >= 1
        assert result.metrics["journal.appends"] > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    pct, value = workloads.tail([float(i) for i in range(32)])
    assert value == 21.0 and pct == pytest.approx(68.75)
    assert workloads.tail([1.0, 2.0]) == (50.0, 1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == METRICS
