"""Tests for the auto-m driver and the distributed operator (solvers on
the simulated cluster)."""

import numpy as np
import pytest

from repro.core.auto import AutoMrhsStokesianDynamics
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.core.schedule import FixedM, ModelDrivenM
from repro.distributed.netmodel import INFINIBAND
from repro.distributed.operator import DistributedOperator
from repro.distributed.partition import contiguous_partition, coordinate_partition
from repro.perfmodel.machine import CLUSTER_NODE, WESTMERE
from repro.solvers.block_cg import block_conjugate_gradient
from repro.solvers.cg import conjugate_gradient
from repro.sparse.gspmv import gspmv
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration
from repro.stokesian.resistance import build_resistance_matrix


@pytest.fixture(scope="module")
def sd_case():
    system = random_configuration(40, 0.4, rng=0)
    R = build_resistance_matrix(system)
    return system, R


class TestDistributedOperator:
    def test_matvec_routes_through_cluster(self, sd_case):
        system, R = sd_case
        op = DistributedOperator(R, coordinate_partition(system, R, 4))
        x = np.random.default_rng(1).standard_normal(R.n_cols)
        np.testing.assert_allclose(op @ x, gspmv(R, x), rtol=1e-13)
        assert op.products == 1
        assert op.vector_products == 1
        assert op.bytes_exchanged > 0

    def test_cg_on_cluster_matches_single_node(self, sd_case):
        """The paper's missing distributed SD component: iterative
        solvers run unchanged on the distributed operator and produce
        the single-node iterates."""
        system, R = sd_case
        op = DistributedOperator(R, coordinate_partition(system, R, 3))
        b = np.random.default_rng(2).standard_normal(R.n_rows)
        dist = conjugate_gradient(op, b, tol=1e-8)
        single = conjugate_gradient(R, b, tol=1e-8)
        # Identical up to the last-iteration rounding at the tolerance
        # edge (distributed summation order differs at the 1e-14 level).
        assert abs(dist.iterations - single.iterations) <= 1
        scale = np.abs(single.x).max()
        np.testing.assert_allclose(dist.x, single.x, atol=1e-8 * scale)
        # One product per iteration plus the initial residual plus any
        # true-residual verifications; diagnostics.matvecs is the exact
        # accounting of all operator applications.
        assert op.products == dist.diagnostics.matvecs
        assert op.products >= dist.iterations + 1

    def test_block_cg_on_cluster(self, sd_case):
        system, R = sd_case
        op = DistributedOperator(R, contiguous_partition(R, 5))
        B = np.random.default_rng(3).standard_normal((R.n_rows, 4))
        dist = block_conjugate_gradient(op, B, tol=1e-8)
        single = block_conjugate_gradient(R, B, tol=1e-8)
        assert dist.converged
        # Column deflation makes the iteration count sensitive to
        # last-digit rounding (different deflation instants between the
        # distributed and single-node summation orders), so compare
        # solutions, not counts.
        scale = np.abs(single.X).max()
        np.testing.assert_allclose(dist.X, single.X, atol=1e-7 * scale)
        # Every operator application (Krylov iterations, the initial
        # residual, and true-residual replacements — all counted in
        # diagnostics.matvecs) pushed at most the full block and at
        # least one column through the cluster.
        assert dist.iterations + 1 <= op.vector_products <= 4 * dist.diagnostics.matvecs

    def test_modelled_solve_time_scales_with_iterations(self, sd_case):
        system, R = sd_case
        op = DistributedOperator(R, coordinate_partition(system, R, 4))
        t10 = op.modelled_solve_time(
            CLUSTER_NODE, INFINIBAND, iterations=10, m=8
        )
        t20 = op.modelled_solve_time(
            CLUSTER_NODE, INFINIBAND, iterations=20, m=8
        )
        assert t20 == pytest.approx(2 * t10)

    def test_reset_counters(self, sd_case):
        system, R = sd_case
        op = DistributedOperator(R, contiguous_partition(R, 2))
        op @ np.ones(R.n_cols)
        op.reset_counters()
        assert op.products == op.vector_products == op.bytes_exchanged == 0


class TestRunChunkOverride:
    def test_explicit_m(self, sd_case):
        system, _ = sd_case
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=4), rng=1
        )
        chunk = driver.run_chunk(m=2)
        assert chunk.m == 2
        assert len(chunk.steps) == 2

    def test_invalid_m(self, sd_case):
        system, _ = sd_case
        driver = MrhsStokesianDynamics(system, rng=2)
        with pytest.raises(ValueError):
            driver.run_chunk(m=0)


class TestAutoDriver:
    def test_fixed_policy(self, sd_case):
        system, _ = sd_case
        auto = AutoMrhsStokesianDynamics(
            system, SDParameters(), policy=FixedM(3), rng=3
        )
        auto.run(2)
        assert auto.chosen_ms == [3, 3]
        assert auto.total_steps() == 6

    def test_model_driven_policy(self, sd_case):
        system, _ = sd_case
        auto = AutoMrhsStokesianDynamics(
            system,
            SDParameters(),
            policy=ModelDrivenM(machine=WESTMERE, m_max=8),
            m_cap=8,
            rng=4,
        )
        chunk = auto.run_chunk()
        assert 1 <= chunk.m <= 8

    def test_adaptive_default_policy_observes(self, sd_case):
        system, _ = sd_case
        auto = AutoMrhsStokesianDynamics(system, SDParameters(), rng=5, m_cap=8)
        auto.run(3)
        # AdaptiveM starts at 4 and moves after feedback.
        assert auto.chosen_ms[0] == 4
        assert len(set(auto.chosen_ms)) >= 1
        assert auto.total_steps() == sum(auto.chosen_ms)

    def test_m_cap_enforced(self, sd_case):
        system, _ = sd_case
        auto = AutoMrhsStokesianDynamics(
            system, SDParameters(), policy=FixedM(50), m_cap=5, rng=6
        )
        auto.run_chunk()
        assert auto.chosen_ms == [5]

    def test_validation(self, sd_case):
        system, _ = sd_case
        with pytest.raises(ValueError):
            AutoMrhsStokesianDynamics(system, m_cap=0)
        auto = AutoMrhsStokesianDynamics(system, rng=7)
        with pytest.raises(ValueError):
            auto.run(-1)
