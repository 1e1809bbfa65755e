"""Tests for model assembly, uncoupled Green's functions, and exceptional sets.

Independent oracle for system pairs: direct inversion of (H_S - z) as a
dense matrix, never the eigendecomposition path.
"""

import numpy as np
import pytest

from specbox.blackbox import (
    CHI_L,
    CHI_R,
    DEGENERATE_WHOLE_LINE,
    DELTA_L,
    DELTA_R,
    TAGS,
    BlackBoxModel,
    SystemBlock,
    _complement,
)
from specbox.errors import InvalidModelError, PoleError
from specbox.measures import SpectralMeasure
from specbox.resolvent import G0Basics

from conftest import make_t2_system, random_model, two_band_measure


def inverse_oracle(system: SystemBlock, phi: str, psi: str, z: complex) -> complex:
    """(phi, (H_S - z)^{-1} psi) by direct dense inversion."""
    vecs = {DELTA_L: system.delta_l, DELTA_R: system.delta_r}
    n = system.dim
    u = np.linalg.solve(system.h_s - z * np.eye(n), vecs[psi])
    return complex(np.vdot(vecs[phi], u))


class TestSystemBlock:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidModelError):
            SystemBlock(np.array([[0.0, 1.0], [0.0, 0.0]]), [1, 0], [0, 1])

    def test_rejects_zero_coupling_vector(self):
        with pytest.raises(InvalidModelError):
            SystemBlock(np.eye(2), [0, 0], [0, 1])

    def test_scalar_resolvent(self):
        s = SystemBlock([[0.0]], [1.0], [1.0])
        assert s.green(DELTA_L, DELTA_L, 1j) == pytest.approx(1j, rel=1e-15)
        assert s.green(DELTA_L, DELTA_R, 2j) == pytest.approx(0.5j, rel=1e-15)

    def test_pole_error_carries_index(self):
        s = make_t2_system()
        ev = float(s.eigenvalues[1])
        with pytest.raises(PoleError) as exc:
            s.green(DELTA_L, DELTA_L, ev)
        assert exc.value.index == 1
        assert exc.value.energy == pytest.approx(ev)

    def test_green_matches_inverse_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s = SystemBlock(
                (raw + raw.conj().T) / 2,
                rng.normal(size=n) + 1j * rng.normal(size=n),
                rng.normal(size=n) + 1j * rng.normal(size=n),
            )
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            for phi in (DELTA_L, DELTA_R):
                for psi in (DELTA_L, DELTA_R):
                    got = s.green(phi, psi, z)
                    want = inverse_oracle(s, phi, psi, z)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_pair_weights_are_read_only(self):
        s = make_t2_system()
        for phi in (DELTA_L, DELTA_R):
            for psi in (DELTA_L, DELTA_R):
                w = s.pair_weights(phi, psi)
                with pytest.raises(ValueError):
                    w[0] = 1.0

    def test_t2_cross_pair_against_inversion(self):
        s = make_t2_system()
        got = s.green(DELTA_L, DELTA_R, 1j)
        want = inverse_oracle(s, DELTA_L, DELTA_R, 1j)
        assert got == pytest.approx(want, abs=1e-14)


    @pytest.mark.parametrize("h, dl, dr", [
        # a doubly degenerate level with independent overlaps: the level is
        # in every compression, and d = a b - |c|^2 has a double pole there
        (np.diag([0.0, 0.0, 1.5]), [1, 0, 1], [0, 1, 1j]),
        (np.array([[1.0, 0.5], [0.5, -1.0]]), [1, 0], [0.6, 0.8]),
    ])
    def test_compressions_hold_the_zeros_of_a_b_and_d(self, h, dl, dr):
        system = SystemBlock(h, dl, dr)
        model = BlackBoxModel(system, two_band_measure(), two_band_measure())
        n_points = model.exceptional_sets.n_points
        for vectors, value in (
            ((dl,), lambda g: g[DELTA_L, DELTA_L]),
            ((dr,), lambda g: g[DELTA_R, DELTA_R]),
            ((dl, dr), lambda g: g[DELTA_L, DELTA_L] * g[DELTA_R, DELTA_R]
             - g[DELTA_L, DELTA_R] * g[DELTA_R, DELTA_L]),
        ):
            q = _complement(*(np.asarray(v, dtype=complex) for v in vectors))
            assert q.shape == (system.dim, system.dim - len(vectors))
            assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-14)
            for E in np.linalg.eigvalsh(q.conj().T @ system.h_s @ q):
                assert min(abs(E - p) for p in n_points) <= 1e-12
                if min(abs(E - p) for p in system.poles) > 1e-9:
                    g = {(phi, psi): inverse_oracle(system, phi, psi, E)
                         for phi in (DELTA_L, DELTA_R) for psi in (DELTA_L, DELTA_R)}
                    assert abs(value(g)) <= 1e-12


class TestG0:
    """The uncoupled pairs the resolvent reads: ``G0Basics.at`` from the
    reservoir transforms and the system pairs."""

    def test_cross_block_pairs_vanish(self, t2_model):
        # the right-hand sides of the 4x4 solve, B[psi, phi] = G0(phi, psi),
        # hold no pair across the blocks
        blocks = {CHI_L: 0, DELTA_L: 1, DELTA_R: 1, CHI_R: 2}
        B = G0Basics.at(t2_model, np.array([1j, 0.5 + 0.1j, 5.0])).rhs_matrix()
        for i, psi in enumerate(TAGS):
            for j, phi in enumerate(TAGS):
                if blocks[phi] != blocks[psi]:
                    assert np.all(B[:, i, j] == 0)

    def test_chi_pairs_are_reservoir_transforms(self, t2_model):
        z = 0.3 + 0.4j
        basics = G0Basics.at(t2_model, z)
        assert basics.l == t2_model.res_l.borel(z)
        assert basics.r == t2_model.res_r.borel(z)

    def test_remark2_scalar_value(self, remark2):
        assert remark2.system.green(DELTA_L, DELTA_L, 2j) == pytest.approx(0.5j, rel=1e-15)

    def test_conjugate_symmetry_all_pairs(self, t2_model):
        rng = np.random.default_rng(2)
        z = rng.uniform(-4, 4, 1000) + 1j * rng.uniform(1e-3, 3, 1000)
        lower, upper = G0Basics.at(t2_model, np.conj(z)), G0Basics.at(t2_model, z)
        for lhs, rhs in ((lower.l, upper.l), (lower.r, upper.r), (lower.a, upper.a),
                         (lower.b, upper.b), (lower.c, upper.cb), (lower.cb, upper.c)):
            assert lhs == pytest.approx(np.conj(rhs), rel=1e-13, abs=1e-15)

    def test_herglotz_diagonal_pairs(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, max_dim=5)
        zs = rng.uniform(-4, 4, 500) + 1j * 10.0 ** rng.uniform(-5, 0.5, 500)
        basics = G0Basics.at(model, zs)
        for vals in (basics.l, basics.a, basics.r, basics.b):
            assert np.all(vals.imag >= 0)


class TestDFunction:
    def test_rank_one_family_gives_zero(self, remark2):
        for E in (0.5, 3.0, -7.0):
            assert remark2.system.d(E) == pytest.approx(0.0, abs=1e-15)

    def test_matches_determinant_oracle(self, t2_model):
        s = t2_model.system
        for E in (0.0, 0.7, -2.5, 4.0):
            g = np.array(
                [
                    [inverse_oracle(s, DELTA_L, DELTA_L, E), inverse_oracle(s, DELTA_L, DELTA_R, E)],
                    [inverse_oracle(s, DELTA_R, DELTA_L, E), inverse_oracle(s, DELTA_R, DELTA_R, E)],
                ]
            )
            want = np.linalg.det(g).real
            assert t2_model.system.d(E) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_resolvent_decay(self, t2_model):
        E = 1e6
        assert abs(t2_model.system.d(E)) <= 10.0 / E**2

    def test_pole_error(self, t2_model):
        ev = float(t2_model.system.eigenvalues[0])
        with pytest.raises(PoleError):
            t2_model.system.d(ev)

    def test_vanishing_d_with_complex_couplings(self):
        # One level with complex coupling vectors: d vanishes identically.
        # The Cauchy-Binet sum has no pair of levels, so d is exactly 0, also
        # next to the pole, where a*b and c*cb are about 2e4 each.
        system = SystemBlock(
            [[-0.05102686225800991]],
            [0.8918839501895515 + 0.9447132740916125j],
            [-0.5322495239537628 - 0.06831474306671874j],
        )
        model = BlackBoxModel(system, two_band_measure(), two_band_measure())
        for E in [-0.04615554630029628, *np.linspace(-1.0, 1.0, 2001)]:
            assert model.system.d(float(E)) == 0.0


class TestExceptionalSets:
    def test_remark2_sets(self, remark2):
        exc = remark2.exceptional_sets
        assert exc.sigma_hs == (0.0,)
        assert exc.s_zeros == ()
        assert exc.degenerate
        assert exc.to_dict()["N"] == DEGENERATE_WHOLE_LINE
        # oracle: d vanishes on a dense sample of [-10, 10]
        for E in np.linspace(-10, 10, 201):
            if abs(E) > 1e-9:
                assert abs(remark2.system.d(float(E))) < 1e-13

    def test_t2_sets(self, t2_model):
        exc = t2_model.exceptional_sets
        want_sigma = np.sort(np.linalg.eigvalsh(t2_model.system.h_s))
        assert np.allclose(exc.sigma_hs, want_sigma, atol=1e-12)
        # delta_l = e1 and delta_r = e2 are orthogonal, so the degree-<=1
        # numerator of the cross pair is a nonzero constant: S is empty.
        assert exc.s_zeros == ()
        assert not exc.degenerate
        assert set(exc.sigma_hs) <= set(exc.n_points)

    def test_t2_slanted_has_s_root(self, t2_slanted_model):
        exc = t2_slanted_model.exceptional_sets
        assert len(exc.s_zeros) == 1
        for root in exc.s_zeros:
            val = t2_slanted_model.system.green(DELTA_L, DELTA_R, float(root))
            assert abs(val) <= 1e-10

    def test_n_roots_reproduce_zero(self, t2_slanted_model):
        # d does not vanish at 0.4 (a = -11.1, b = c = -10, d = 11.1), so N
        # must not contain it
        diagonal = BlackBoxModel(
            SystemBlock(np.diag([0.3, -0.5]), [1, 1], [1, 0]),
            two_band_measure(),
            two_band_measure(),
        )
        assert diagonal.exceptional_sets.n_points == pytest.approx(
            (-0.5, -0.1, 0.3), abs=1e-12
        )
        # d(0) = 0.0172: not degenerate, however large the poles
        wide = BlackBoxModel(
            SystemBlock(np.diag(np.arange(10.0, 90.0, 10.0)), np.ones(8), np.r_[2.0, np.ones(7)]),
            two_band_measure(),
            two_band_measure(),
        )
        for model in (t2_slanted_model, diagonal, wide):
            exc = model.exceptional_sets
            assert not exc.degenerate
            assert set(exc.sigma_hs) <= set(exc.n_points)
            for E in exc.n_points:
                if min(abs(E - s) for s in exc.sigma_hs) < 1e-9:
                    continue
                product = (
                    model.system.green(DELTA_L, DELTA_L, E)
                    * model.system.green(DELTA_R, DELTA_R, E)
                    * model.system.green(DELTA_L, DELTA_R, E)
                    * model.system.d(E)
                )
                assert abs(product) <= 1e-10

    def test_n_points_listed_once(self):
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            n = random_model(rng).exceptional_sets.n_points
            if n is not None:
                assert np.all(np.diff(n) > 1e-9), n

    def test_grid_scan_finds_no_extra_roots(self, t2_slanted_model):
        # sign changes of the real cross pair on a doubling grid must all be
        # accounted for by the certified lists
        model = t2_slanted_model
        exc = model.exceptional_sets
        known = np.array(exc.s_zeros + exc.sigma_hs)
        for n_grid in (20001, 40001):
            grid = np.linspace(-10, 10, n_grid)
            keep = np.array(
                [min(abs(E - p) for p in exc.sigma_hs) > 1e-6 for E in grid]
            )
            grid = grid[keep]
            vals = np.array([model.system.green(DELTA_L, DELTA_R, float(E)).real for E in grid])
            signs = np.sign(vals)
            flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            for idx in flips:
                left, right = grid[idx], grid[idx + 1]
                # a sign change is either a certified zero of S or a pole
                near_known = np.any((known >= left - 1e-6) & (known <= right + 1e-6))
                assert near_known, f"unexplained sign change in ({left}, {right})"

    def test_decoupled_model_rejected(self):
        # delta_l and delta_r live in orthogonal invariant subspaces
        h = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(InvalidModelError):
            BlackBoxModel(
                SystemBlock(h, [1.0, 0.0], [0.0, 1.0]),
                two_band_measure(),
                two_band_measure(),
            )


class TestValidate:
    def test_remark2_report(self, remark2):
        rep = remark2.validate()
        assert rep.ok
        assert rep.degenerate_n
        assert rep.cyclic_system_heuristic
        assert rep.herm_residual <= 1e-14

    def test_t2_report(self, t2_model):
        rep = t2_model.validate()
        assert rep.ok
        assert not rep.degenerate_n
        assert rep.cyclicity_rank == 2
        d = rep.to_dict()
        assert d["ok"] and d["system_dim"] == 2

    def test_random_models_validate(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rep = random_model(rng, max_dim=6).validate()
            assert rep.ok

    def test_complements_built_once_and_n_outside_sigma(self, monkeypatch):
        # the exceptional sets build Q_l, Q_r and the complement of both once
        # per model, and N \ sigma(H_S) is the points of N that are not in
        # sigma(H_S): the same tuple as a 1e-9 distance test
        import specbox.blackbox

        calls = []
        complement = specbox.blackbox._complement
        monkeypatch.setattr(specbox.blackbox, "_complement",
                            lambda *v: calls.append(1) or complement(*v))
        rng = np.random.default_rng(20261020)
        for _ in range(30):
            model = random_model(rng, max_dim=6)
            calls.clear()
            rep = model.validate()
            assert len(calls) <= 3
            exc = model.exceptional_sets
            assert rep.n_outside_sigma_hs == tuple(
                E for E in (exc.n_points or ()) if min(abs(E - s) for s in exc.sigma_hs) > 1e-9)
            assert rep.degenerate_n or len(rep.n_outside_sigma_hs) > 0
