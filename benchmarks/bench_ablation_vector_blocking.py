"""Ablation — vector blocking, which the paper evaluated and rejected.

Section IV.A1: "It is also possible to use vector blocking for multiple
vectors, as this was shown to result in improved register allocation
and cache performance.  However, for our datasets, increasing m
resulted in at most a commensurate run-time increase.  As a result,
vector blocking would not be effective for realistic values of m."

Vector blocking = processing the m vectors in column chunks of width w,
re-streaming the matrix once per chunk.  On bandwidth-bound hardware it
multiplies the matrix traffic by m/w, so the *model* verdict is
unambiguous: blocked time >= full time, with the gap growing as the
matrix stream dominates — this is the paper's reasoning and is asserted
against the traffic model below.

With the generated C kernel (``cgen``, one fused pass over the matrix
per call) the wall-clock comparison agrees with the model: chunked
evaluation loses, with the penalty growing as the width shrinks — the
paper's verdict reproduced in both columns.  Skipped without a C
toolchain.
"""

import time

import numpy as np
import pytest

from benchmarks._cases import emit, synthetic_matrix
from repro.perfmodel.machine import WESTMERE
from repro.sparse import kernels_cgen
from repro.sparse.gspmv import gspmv
from repro.sparse.traffic import memory_traffic_bytes
from repro.perfmodel.cost import simulated_seconds
from repro.util.tables import format_table

M = 16
WIDTHS = [2, 4, 8]


def timed(fn, repeats=3):
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def vector_blocked_gspmv(A, X, width):
    """GSPMV processed in column chunks of the given width."""
    outs = [
        gspmv(A, X[:, j : j + width], engine="cgen")
        for j in range(0, X.shape[1], width)
    ]
    return np.hstack(outs)


def modelled_time(A, m_total, width):
    """WSM roofline time of the chunked evaluation."""
    chunks = m_total // width
    return chunks * simulated_seconds(
        memory_traffic_bytes(A, width, k=0.0), WESTMERE
    )


def evaluate():
    A = synthetic_matrix(10_000, 25.0)
    X = np.random.default_rng(0).standard_normal((A.n_cols, M))
    full_wall = timed(lambda: gspmv(A, X, engine="cgen"))
    full_model = modelled_time(A, M, M)
    rows = [["full (w=%d)" % M, round(1e3 * full_wall, 2), 1.0, 1.0]]
    for w in WIDTHS:
        wall = timed(lambda: vector_blocked_gspmv(A, X, w))
        model_ratio = modelled_time(A, M, w) / full_model
        rows.append(
            [
                f"blocked w={w}",
                round(1e3 * wall, 2),
                round(wall / full_wall, 2),
                round(model_ratio, 2),
            ]
        )
    # Correctness of the chunked evaluation.
    np.testing.assert_allclose(
        vector_blocked_gspmv(A, X, 4), gspmv(A, X, engine="cgen"), rtol=1e-12
    )
    return A, rows


@pytest.mark.skipif(not kernels_cgen.available(), reason="no C toolchain")
def test_ablation_vector_blocking(benchmark):
    A, rows = evaluate()
    report = format_table(
        ["layout", "host wall [ms]", "wall vs full", "WSM model vs full"],
        rows,
        title=f"Ablation: vector blocking at m={M} "
        "(paper: 'would not be effective for realistic values of m'; "
        "model column = re-streamed matrix traffic on WSM)",
    )
    # The paper's verdict holds in the hardware model: blocking never
    # wins there (extra matrix stream per chunk), and the penalty grows
    # as the width shrinks.
    model_ratios = [r[3] for r in rows[1:]]
    assert all(mr >= 1.0 for mr in model_ratios)
    assert model_ratios[0] > model_ratios[-1]  # w=2 pays most
    # Wall-clock agrees: blocking never wins meaningfully (>= 0.9 with
    # noise allowance), and narrower chunks pay more.
    wall_ratios = [r[2] for r in rows[1:]]
    assert all(wr > 0.9 for wr in wall_ratios)
    assert wall_ratios[0] > wall_ratios[-1]

    X = np.random.default_rng(1).standard_normal((A.n_cols, M))
    benchmark(lambda: vector_blocked_gspmv(A, X, 4))
    emit("ablation_vector_blocking", report)
