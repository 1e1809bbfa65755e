"""Tests for the certification machinery and the reference scenario."""

import tracemalloc

import numpy as np
import pytest

from specbox.blackbox import DEGENERATE_WHOLE_LINE, DELTA_L
from specbox.boundary import EpsilonLadder, point_mass
from specbox.certify import (
    CERTIFIED,
    NUMERICALLY_UNRESOLVED,
    OUT_OF_SCOPE,
    certify_no_sc,
    eigen_residual,
    remark2_model,
)
from specbox.errors import UnsupportedScenarioError
from specbox.measures import SpectralMeasure


class TestRemark2Model:
    def test_validates_with_degenerate_flag(self, remark2):
        rep = remark2.validate()
        assert rep.ok and rep.degenerate_n

    def test_exceptional_sets(self, remark2):
        exc = remark2.exceptional_sets
        assert exc.sigma_hs == (0.0,)
        assert exc.s_zeros == ()
        assert exc.to_dict()["N"] == DEGENERATE_WHOLE_LINE

    def test_scalar_green(self, remark2):
        assert remark2.g0(DELTA_L, DELTA_L, 2j) == pytest.approx(0.5j, rel=1e-15)


class TestCertify:
    def test_remark2_band_point_certified(self, remark2):
        cert = certify_no_sc(remark2, (1.0, 1.0), [1.5])
        (pt,) = cert.points
        assert pt.verdict == CERTIFIED
        # opposite strict signs of the first identity's sides
        assert pt.aux1_lhs == pytest.approx(-np.pi / 1.5**2, abs=1e-6)
        assert pt.aux1_rhs == pytest.approx(np.pi / 1.5**2, abs=1e-6)
        assert pt.aux1_lhs < -1e-10 < 1e-10 < pt.aux1_rhs

    def test_uncoupled_trivially_certified(self, remark2):
        cert = certify_no_sc(remark2, (0.0, 0.0), [1.5, -1.2, 1.8])
        for pt in cert.points:
            assert pt.verdict == CERTIFIED
            assert pt.abs_D == pytest.approx(1.0, abs=1e-10)

    def test_gap_center_out_of_scope(self, remark2):
        cert = certify_no_sc(remark2, (1.0, 1.0), [0.0])
        (pt,) = cert.points
        assert pt.verdict == OUT_OF_SCOPE
        assert not pt.in_scope

    def test_band_edge_unresolved(self, remark2):
        # the log singularity at the edge defeats the ladder; the verdict
        # must be withheld, not guessed
        cert = certify_no_sc(remark2, (1.0, 1.0), [1.0])
        (pt,) = cert.points
        assert pt.verdict == NUMERICALLY_UNRESOLVED

    def test_min_abs_d_and_counts(self, remark2):
        grid = np.concatenate([np.linspace(1.05, 1.95, 10), [0.0]])
        cert = certify_no_sc(remark2, (1.0, 1.0), grid)
        counts = cert.counts()
        assert counts[CERTIFIED] == 10 and counts[OUT_OF_SCOPE] == 1
        assert cert.min_abs_D > 1.0  # |D| = |1 + 2 l / E| >= 2 pi / E
        scoped = [p for p in cert.points if p.in_scope]
        assert scoped and all(p.verdict == CERTIFIED for p in scoped)

    def test_ladder_refinement_never_flips_certified(self, remark2):
        grid = np.linspace(1.05, 1.95, 8)
        base = certify_no_sc(remark2, (1.0, 1.0), grid)
        fine = certify_no_sc(
            remark2, (1.0, 1.0), grid, EpsilonLadder(eps_min=1e-11)
        )
        for p_base, p_fine in zip(base.points, fine.points):
            if p_base.verdict == CERTIFIED:
                assert p_fine.verdict == CERTIFIED

    def test_composite_model(self, t2_model):
        cert = certify_no_sc(t2_model, (0.7, 1.3), np.linspace(1.1, 1.9, 9))
        assert all(p.verdict == CERTIFIED for p in cert.points)
        report = cert.to_dict()
        assert report["counts"][CERTIFIED] == 9


class TestEigenResidual:
    def test_reference_couplings(self, remark2):
        residual, weight = eigen_residual(remark2, (1.0, 1.0), 200)
        assert residual <= 1e-10
        assert weight == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_uncoupled(self, remark2):
        residual, weight = eigen_residual(remark2, (0.0, 0.0), 50)
        assert residual == 0.0
        assert weight == pytest.approx(1.0, rel=1e-14)

    def test_single_bond(self, remark2):
        _, weight = eigen_residual(remark2, (2.0, 0.0), 200)
        assert weight == pytest.approx(1.0 / 5.0, abs=1e-10)

    def test_weight_formula(self, remark2):
        for lam, nu in [(1.0, 3.0), (0.5, -0.5), (-2.0, 1.0)]:
            _, weight = eigen_residual(remark2, (lam, nu), 120)
            assert weight == pytest.approx(1.0 / (1 + lam**2 + nu**2), abs=1e-8)

    def test_cross_check_against_point_mass(self, remark2):
        _, weight = eigen_residual(remark2, (1.0, 1.0), 200)
        atom = point_mass(remark2, (1.0, 1.0), DELTA_L, 0.0)
        assert atom == pytest.approx(weight, abs=1e-4)

    def test_no_dense_matrix(self, remark2):
        # H psi comes from the bond blocks: at 2,000 nodes per piece the dense
        # H (side 8,001) would take 1 GB.  The first call computes the cached
        # 2,000-point Gauss-Legendre rule (about 31 MB); the second peaks near
        # 2 MB
        first = eigen_residual(remark2, (1.0, 1.0), 2000)
        tracemalloc.start()
        try:
            again = eigen_residual(remark2, (1.0, 1.0), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert first[0] <= 1e-10
        assert peak <= 8 * 2**20

    def test_shape_mismatch_rejected(self, t2_model):
        with pytest.raises(UnsupportedScenarioError):
            eigen_residual(t2_model, (1.0, 1.0), 20)

    def test_asymmetric_gap_rejected(self, remark2):
        from specbox.blackbox import BlackBoxModel

        shifted = SpectralMeasure(pieces=[([1.0, 2.0], [1.0])])
        model = BlackBoxModel(remark2.system, shifted, shifted)
        with pytest.raises(UnsupportedScenarioError):
            eigen_residual(model, (1.0, 1.0), 20)
