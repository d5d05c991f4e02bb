"""Periodic neighbor search with a k-d tree.

The lubrication matrix couples only particle pairs whose surface gap is
below a cutoff, so assembly needs all pairs with center distance under
``radius_i + radius_j + max_gap``.  :func:`neighbor_pairs` finds them
with one periodic ``scipy.spatial.cKDTree.query_pairs`` call (the paper
builds the same neighbor lists with cell binning, which it also reuses
for its coordinate-based matrix partitioning).  Pairs come back as
``i < j`` in lexicographic ``(i, j)`` order, so everything assembled
from the list is independent of how the search visits the box.

For boxes too small to hold 3 cutoffs per side the search is an
all-pairs minimum-image scan, which is exact at any size and yields the
same canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.stokesian.particles import ParticleSystem

__all__ = ["neighbor_pairs", "NeighborList"]


@dataclass(frozen=True)
class NeighborList:
    """Pairs ``(i, j)`` with ``i < j``, their minimum-image vectors and
    center distances."""

    i: np.ndarray
    j: np.ndarray
    r_vec: np.ndarray
    """``(npairs, 3)`` minimum-image vector from i to j."""
    dist: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(len(self.i))


def _keep_within(
    system: ParticleSystem, i: np.ndarray, j: np.ndarray, cutoff: float
) -> NeighborList:
    """Keep the candidate pairs whose minimum-image distance is at most
    ``cutoff`` (a non-finite distance is never kept)."""
    r = system.minimum_image(system.positions[j] - system.positions[i])
    dist = np.linalg.norm(r, axis=1)
    keep = dist <= cutoff
    return NeighborList(i=i[keep], j=j[keep], r_vec=r[keep], dist=dist[keep])


def _all_pairs(system: ParticleSystem, cutoff: float) -> NeighborList:
    """Minimum-image scan of every pair: the small-box path, and the
    oracle the tree path is tested against."""
    i, j = np.triu_indices(system.n, k=1)
    return _keep_within(system, i, j, cutoff)


def _tree_pairs(system: ParticleSystem, cutoff: float) -> NeighborList:
    from scipy.spatial import cKDTree

    # cKDTree rejects non-finite data; such rows have no neighbors.
    finite = np.flatnonzero(np.isfinite(system.positions).all(axis=1))
    tree = cKDTree(system.positions[finite], boxsize=system.box)
    # Query a hair beyond the cutoff so the tree's own rounding never
    # drops a pair that the exact filter in _keep_within keeps.
    radius = cutoff * (1.0 + 1e-9) + 1e-9 * float(system.box.max())
    pairs = finite[tree.query_pairs(radius, output_type="ndarray")]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return _keep_within(system, pairs[order, 0], pairs[order, 1], cutoff)


def _pairs_within(system: ParticleSystem, cutoff: float) -> NeighborList:
    """All pairs with center distance at most ``cutoff``."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    # A periodic tree query needs the cutoff well under half the box;
    # smaller boxes hold few particles, and scanning them is cheap.
    if np.all(np.floor(system.box / cutoff) >= 3):
        return _tree_pairs(system, cutoff)
    return _all_pairs(system, cutoff)


def neighbor_pairs(
    system: ParticleSystem, *, max_gap: float | None = None, cutoff: float | None = None
) -> NeighborList:
    """Find interacting pairs of a particle system.

    Exactly one of ``max_gap`` (surface-to-surface) or ``cutoff``
    (center-to-center) must be given.  With ``max_gap``, the search uses
    a conservative center cutoff of ``2*max_radius + max_gap`` and then
    filters pairs by their individual surface gaps — so unequal radii
    are handled exactly.
    """
    if (max_gap is None) == (cutoff is None):
        raise ValueError("specify exactly one of max_gap or cutoff")
    if cutoff is not None:
        return _pairs_within(system, cutoff)
    if max_gap < 0:
        raise ValueError("max_gap must be non-negative")
    center_cutoff = 2.0 * float(system.radii.max()) + float(max_gap)
    nl = _pairs_within(system, center_cutoff)
    gaps = nl.dist - (system.radii[nl.i] + system.radii[nl.j])
    keep = gaps <= max_gap
    return NeighborList(
        i=nl.i[keep], j=nl.j[keep], r_vec=nl.r_vec[keep], dist=nl.dist[keep]
    )
