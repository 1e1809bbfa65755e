"""Tests for the coupled Green's functions and the discretization oracle."""

import warnings

import numpy as np
import pytest

from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel
from specbox.errors import DomainError, OracleError
from specbox.measures import SpectralMeasure
from specbox.resolvent import (
    CouplingParams,
    G0Basics,
    _gauss_legendre,
    det_D,
    discretize,
    green,
    green_all,
    green_closed,
    green_from_basics,
    green_oracle,
    green_oracle_all,
)

from conftest import g0, random_model, ref_assemble


class TestCouplingParams:
    def test_array_bond_matches_scalar_bonds(self, t2_model):
        bonds = np.array([-2.0, 0.0, 0.5, 3.0])
        z = 0.3 + 0.05j
        basics = G0Basics.at(t2_model, np.full(bonds.shape, z))
        pairs = green_from_basics(basics, CouplingParams(bonds, 1.3), DELTA_L, DELTA_L)
        for bond, pair in zip(bonds, pairs):
            scalar = green(t2_model, CouplingParams(bond, 1.3), DELTA_L, DELTA_L, z)
            assert pair == pytest.approx(scalar, rel=1e-14)

    def test_array_validation_keeps_scalar_error(self):
        # an overflowing square is rejected with the scalar message, not a
        # numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CouplingParams(np.array([0.0, 1e150]), 1e150)
            for bad in (np.array([1.0, 1e200]), np.array([0.0, np.nan]), 1e200, -np.inf):
                with pytest.raises(DomainError) as info:
                    CouplingParams(0.5, bad)
                assert str(info.value) == (
                    "coupling parameters must be finite with finite squares")


class TestDetD:
    def test_uncoupled_is_one(self, t2_model):
        for z in (1j, 0.3 + 0.05j, -2 + 1j):
            assert det_D(t2_model, (0.0, 0.0), z) == pytest.approx(1.0, abs=1e-15)

    def test_remark2_single_coupling(self, remark2):
        # lam = 1, nu = 0: D = 1 - l(z) * a(z) with a(z) = -1/z
        z = 1j
        l = remark2.res_l.borel(z)
        want = 1 - l * (-1 / z)
        assert det_D(remark2, (1.0, 0.0), z) == pytest.approx(want, rel=1e-14)

    def test_back_substitution_consistency(self, t2_model):
        # The closed forms times D reproduce their numerators: equivalently,
        # D * green(delta_l, delta_l) equals the printed numerator.
        cp = CouplingParams(0.7, 1.3)
        z = 0.3 + 0.05j
        g = G0Basics.at(t2_model, z)
        D = det_D(t2_model, cp, z)
        got = D * green(t2_model, cp, DELTA_L, DELTA_L, z)
        want = (1 - cp.nu**2 * g.r * g.b) * g.a + cp.nu**2 * g.r * g.c * g.cb
        assert got == pytest.approx(want, rel=1e-12)
        got2 = D * green(t2_model, cp, CHI_L, CHI_L, z)
        want2 = g.l * (1 - cp.nu**2 * g.r * g.b)
        assert got2 == pytest.approx(want2, rel=1e-12)

    def test_matrix_determinant_equals_D(self, t2_model):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cp = CouplingParams(*rng.uniform(-3, 3, 2))
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
            g = G0Basics.at(t2_model, z)
            A = g.system_matrix(cp)
            assert np.linalg.det(A) == pytest.approx(g.det_D(cp), rel=1e-11)


class TestGreen:
    def test_uncoupled_equals_g0_all_pairs(self, t2_model):
        z = 0.4 + 0.2j
        vals = green_all(t2_model, (0.0, 0.0), z)
        for i, phi in enumerate(TAGS):
            for j, psi in enumerate(TAGS):
                assert vals[i, j] == pytest.approx(
                    g0(t2_model, phi, psi, z), rel=1e-14, abs=1e-15
                )

    def test_closed_forms_match_system_path(self, t2_model):
        rng = np.random.default_rng(17)
        for _ in range(30):
            cp = CouplingParams(*rng.uniform(-3, 3, 2))
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
            for phi in TAGS:
                sys_path = green(t2_model, cp, phi, phi, z)
                closed = green_closed(t2_model, cp, phi, z)
                assert sys_path == pytest.approx(closed, rel=1e-11)

    def test_conjugate_symmetry(self, t2_model):
        rng = np.random.default_rng(19)
        cp = CouplingParams(1.1, -0.6)
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.02, 2))
            i, j = rng.integers(0, 4, size=2)
            phi, psi = TAGS[i], TAGS[j]
            lhs = green(t2_model, cp, phi, psi, np.conj(z))
            rhs = np.conj(green(t2_model, cp, psi, phi, z))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_herglotz_diagonal(self, t2_model):
        rng = np.random.default_rng(23)
        for _ in range(200):
            cp = CouplingParams(*rng.uniform(-3, 3, 2))
            z = complex(rng.uniform(-4, 4), 10.0 ** rng.uniform(-4, 0.5, 1)[0])
            for phi in TAGS:
                assert green(t2_model, cp, phi, phi, z).imag >= 0

    def test_left_right_symmetry(self, t2_model):
        mirrored = BlackBoxModel(
            type(t2_model.system)(
                t2_model.system.h_s,
                t2_model.system.delta_r,
                t2_model.system.delta_l,
            ),
            t2_model.res_r,
            t2_model.res_l,
        )
        swap = {CHI_L: CHI_R, CHI_R: CHI_L, DELTA_L: DELTA_R, DELTA_R: DELTA_L}
        cp = CouplingParams(0.8, -1.7)
        rng = np.random.default_rng(29)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 1.5))
            i, j = rng.integers(0, 4, size=2)
            phi, psi = TAGS[i], TAGS[j]
            direct = green(t2_model, cp, phi, psi, z)
            mirror = green(mirrored, CouplingParams(cp.nu, cp.lam), swap[phi], swap[psi], z)
            assert mirror == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_vectorized_z(self, t2_model):
        cp = CouplingParams(0.5, 0.5)
        zs = np.array([1j, 0.2 + 0.3j, -1 + 0.05j])
        vec = green(t2_model, cp, DELTA_L, CHI_R, zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(green(t2_model, cp, DELTA_L, CHI_R, complex(z)), rel=1e-14)

    def test_near_singular_guard(self):
        # synthetic uncoupled values placing D exactly at zero
        from specbox.errors import NearSingularError
        from specbox.resolvent import G0Basics, green_from_basics

        one = np.array(1.0 + 0j)
        basics = G0Basics(l=one, r=one, a=one, b=one, c=one, cb=one)
        assert basics.det_D(CouplingParams(1.0, 0.0)) == 0
        with pytest.raises(NearSingularError):
            green_from_basics(basics, CouplingParams(1.0, 0.0), DELTA_L, DELTA_L)


class TestDiscretize:
    def test_remark2_structure(self, remark2):
        disc = discretize(remark2, 2)
        assert disc.dim == 1 + 4 + 4
        H0 = ref_assemble(disc, (0.0, 0.0))
        assert np.max(np.abs(H0 - H0.conj().T)) <= 1e-13
        # uncoupled: block diagonal, system block isolated
        sys_idx = disc.m_l
        off = H0[sys_idx, :].copy()
        off[sys_idx] = 0
        assert np.max(np.abs(off)) == 0

    def test_coupled_assembly_hermitian(self, remark2):
        disc = discretize(remark2, 5)
        H = ref_assemble(disc, (1.0, -0.7))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-13

    def test_elimination_matches_dense_solve(self, t2_model):
        # the oracle's reservoir elimination against B^H (H - z)^{-1} B from a
        # dense solve, down to Im z = 1e-8.  t2's delta_l and delta_r each have
        # a zero entry, lam = 0 switches the left bond off, and the random
        # model has reservoir atoms at 4.45 and 4.60, beside Re z = 4.5
        rng = np.random.default_rng(20261018)
        atomic = next(m for m in iter(lambda: random_model(rng, max_dim=4, max_pieces=2), None)
                      if m.res_l.atoms or m.res_r.atoms)
        cases = [(t2_model, (0.9, -1.2)), (t2_model, (0.0, -1.2)), (atomic, (1.1, -0.6))]
        for model, cp in cases:
            disc = discretize(model, 30)
            H = ref_assemble(disc, cp)
            B = np.stack([disc.vector(t) for t in TAGS], axis=1)
            for z in (0.4 + 1e-2j, -1.5 + 1e-4j, 4.5 + 1e-6j, 2.7 + 1e-8j):
                dense = B.conj().T @ np.linalg.solve(H - z * np.eye(disc.dim), B)
                vals = green_oracle_all(disc, cp, z)
                scale = np.max(np.abs(dense))
                for i, phi in enumerate(TAGS):
                    for j, psi in enumerate(TAGS):
                        assert abs(vals[(phi, psi)] - dense[i, j]) <= 1e-12 * scale

    def test_quadrature_convergence(self, remark2):
        # near the band the error is visible and must shrink with node count;
        # at z = 2i it must be below 1e-10 by 200 nodes per piece
        z_near = 1.05 + 0.02j
        exact_near = remark2.res_l.borel(z_near)
        errs = []
        for nodes in (3, 6, 12):
            disc = discretize(remark2, nodes)
            errs.append(abs(np.sum(disc.weights_l / (disc.nodes_l - z_near)) - exact_near))
        assert errs[2] < errs[1] < errs[0]
        disc = discretize(remark2, 200)
        assert abs(np.sum(disc.weights_l / (disc.nodes_l - 2j)) - remark2.res_l.borel(2j)) <= 1e-10

    def test_gauss_legendre_rule_computed_once(self, remark2):
        # the second discretization reads the cached rule: same nodes and
        # weights as a fresh leggauss, and the shared arrays reject writes
        t, v = np.polynomial.legendre.leggauss(37)
        piece = remark2.res_l.pieces[0]
        half, mid = 0.5 * (piece.b - piece.a), 0.5 * (piece.a + piece.b)
        nodes = mid + half * t
        weights = half * v * np.polynomial.polynomial.polyval(nodes, piece.coef)
        for _ in range(2):
            disc = discretize(remark2, 37)
            assert np.array_equal(disc.nodes_l[:37], nodes)
            assert np.array_equal(disc.weights_l[:37], weights)
        for cached in _gauss_legendre(37):
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_rejects_too_few_nodes(self, remark2):
        with pytest.raises(DomainError):
            discretize(remark2, 1)

    def test_remark2_zero_eigenvalue_persists(self, remark2):
        # the compound operator keeps an eigenvalue at 0 for every coupling
        for nodes in (2, 7, 40):
            disc = discretize(remark2, nodes)
            H = ref_assemble(disc, (1.0, 1.0))
            eigs = np.linalg.eigvalsh(H)
            assert np.min(np.abs(eigs)) <= 1e-12


class TestOracle:
    def test_uncoupled_matches_g0_to_quadrature_accuracy(self, t2_model):
        disc = discretize(t2_model, 120)
        z = 0.7 + 0.6j
        vals = green_oracle_all(disc, (0.0, 0.0), z)
        for phi in TAGS:
            for psi in TAGS:
                want = g0(t2_model, phi, psi, z)
                assert vals[(phi, psi)] == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_dense_and_elimination_agree(self, t2_model):
        disc = discretize(t2_model, 60)
        cp = (1.3, -0.4)
        z = -0.2 + 0.15j
        A = ref_assemble(disc, cp) - z * np.eye(disc.dim)
        for phi, psi in [(DELTA_L, DELTA_L), (CHI_L, DELTA_R), (CHI_R, CHI_L)]:
            d = complex(np.vdot(disc.vector(phi), np.linalg.solve(A, disc.vector(psi))))
            s = green_oracle(disc, cp, phi, psi, z)
            assert s == pytest.approx(d, rel=1e-12)

    def test_failed_solve_raises_oracle_error(self, t2_model, monkeypatch):
        disc = discretize(t2_model, 10)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(OracleError) as info:
            green_oracle_all(disc, (0.9, -1.2), 0.4 + 0.3j)
        assert np.isfinite(info.value.condition_estimate)

    def test_resolvent_identity_residual(self, t2_model):
        # G - G0 + lam [G(phi,delta_l) G0(chi_l,psi) + G(phi,chi_l) G0(delta_l,psi)]
        #          + nu [...] = 0 on all 16 pairs of the discretized model
        disc = discretize(t2_model, 150)
        cp = CouplingParams(0.9, 1.4)
        z = 0.3 + 0.4j
        g_c = green_oracle_all(disc, cp, z)
        g_0 = green_oracle_all(disc, (0.0, 0.0), z)
        for phi in TAGS:
            for psi in TAGS:
                residual = (
                    g_c[(phi, psi)]
                    - g_0[(phi, psi)]
                    + cp.lam
                    * (
                        g_c[(phi, DELTA_L)] * g_0[(CHI_L, psi)]
                        + g_c[(phi, CHI_L)] * g_0[(DELTA_L, psi)]
                    )
                    + cp.nu
                    * (
                        g_c[(phi, DELTA_R)] * g_0[(CHI_R, psi)]
                        + g_c[(phi, CHI_R)] * g_0[(DELTA_R, psi)]
                    )
                )
                assert abs(residual) <= 1e-11

    def test_remark2_all_pairs_vs_oracle(self, remark2):
        disc = discretize(remark2, 2000)
        cp = (1.0, 1.0)
        z = 1j
        oracle = green_oracle_all(disc, cp, z)
        closed = green_all(remark2, cp, z)
        for i, phi in enumerate(TAGS):
            for j, psi in enumerate(TAGS):
                want = oracle[(phi, psi)]
                got = closed[i, j]
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_oracle_requires_offaxis_z(self, remark2):
        disc = discretize(remark2, 5)
        with pytest.raises(DomainError):
            green_oracle(disc, (0.0, 0.0), DELTA_L, DELTA_L, 0.5)

    def test_random_ensemble_small(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_model(rng, max_dim=4, max_pieces=2)
            cp = CouplingParams(*rng.uniform(-3, 3, 2))
            disc = discretize(model, 400)
            for _ in range(2):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
                oracle = green_oracle_all(disc, cp, z)
                closed = green_all(model, cp, z)
                scale = max(np.max(np.abs(closed)), 1e-9)
                for i, phi in enumerate(TAGS):
                    for j, psi in enumerate(TAGS):
                        err = abs(closed[i, j] - oracle[(phi, psi)])
                        assert err <= 1e-7 * max(abs(oracle[(phi, psi)]), 1e-2 * scale)
