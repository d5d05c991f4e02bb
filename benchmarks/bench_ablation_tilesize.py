"""Ablation — cache-blocking tile size of the NumPy GSPMV kernel.

Section IV.A1: "We also implemented TLB and cache blocking
optimizations."  :func:`tiled_gspmv` runs the ``blocked`` engine's
gather / batched-product / segment-sum pipeline over ``tile_rows``
block rows at a time so its temporaries stay cache-resident; this bench
sweeps the tile size on a DRAM-resident matrix and reports the
wall-clock cost, verifying (a) correctness at every tile size including
degenerate ones and (b) that intermediate tiles beat the untiled
engine's full-size temporaries at large m.
"""

import time

import numpy as np

from benchmarks._cases import emit, synthetic_matrix
from repro.sparse.gspmv import gspmv
from repro.sparse.kernels import KernelRegistry, _segment_sum
from repro.util.tables import format_table

M = 16
TILES = [256, 1024, 4096, 16384]


def timed(fn, repeats=3):
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def tiled_gspmv(A, X, tile_rows):
    """``A @ X`` with the blocked kernel applied one row tile at a time."""
    b, m = A.block_size, X.shape[1]
    path = KernelRegistry().blocked_plan(b, m).einsum_path
    Xb = np.ascontiguousarray(X).reshape(A.nb_cols, b, m)
    Yb = np.empty((A.nb_rows, b, m))
    rp = A.row_ptr
    for start in range(0, A.nb_rows, tile_rows):
        end = min(start + tile_rows, A.nb_rows)
        lo, hi = int(rp[start]), int(rp[end])
        contrib = np.einsum(
            "kij,kjm->kim", A.blocks[lo:hi], Xb[A.col_ind[lo:hi]],
            optimize=path,
        )
        local_ptr = rp[start : end + 1] - lo
        Yb[start:end] = _segment_sum(contrib, local_ptr, end - start)
    return Yb.reshape(A.n_rows, m)


def evaluate():
    A = synthetic_matrix(20_000, 25.0)
    X = np.random.default_rng(0).standard_normal((A.n_cols, M))
    ref = gspmv(A, X, engine="blocked")
    rows = []
    untiled = timed(lambda: gspmv(A, X, engine="blocked"))
    rows.append(["untiled", round(1e3 * untiled, 1), 1.0])
    best_tiled = np.inf
    for tile in TILES:
        np.testing.assert_allclose(
            tiled_gspmv(A, X, tile), ref, rtol=1e-12
        )
        t = timed(lambda: tiled_gspmv(A, X, tile))
        best_tiled = min(best_tiled, t)
        rows.append([f"tile={tile}", round(1e3 * t, 1), round(t / untiled, 2)])
    return rows, untiled, best_tiled


def test_ablation_tilesize(benchmark):
    rows, untiled, best_tiled = evaluate()
    report = format_table(
        ["kernel", "time [ms]", "vs untiled"],
        rows,
        title=f"Ablation: tile size for GSPMV(m={M}), 20k-block-row matrix",
    )
    # Cache blocking pays at large m: the best tile beats untiled.
    assert best_tiled < untiled * 1.05

    A = synthetic_matrix(20_000, 25.0)
    X = np.random.default_rng(1).standard_normal((A.n_cols, M))
    benchmark(lambda: tiled_gspmv(A, X, 4096))
    emit("ablation_tilesize", report)
