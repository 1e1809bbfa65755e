"""Tests for boundary-value extrapolation, classification, and atom extraction."""

from pathlib import Path

import numpy as np
import pytest

from specbox.blackbox import CHI_L, DELTA_L, DELTA_R, TAGS, BlackBoxModel, SystemBlock
from specbox.boundary import (
    ATOM_FLOOR,
    DIVERGENT,
    FINITE_NONZERO,
    UNDETERMINED,
    ZERO,
    _Feshbach,
    boundary_value,
    classify_energy,
    density_from_record,
    diagonal_records,
    point_mass,
    point_mass_scan,
)
from specbox.config import EpsilonLadder, build_run_config, load_config
from specbox.errors import DomainError, NearSingularError, PointMassPresentError
from specbox.measures import SpectralMeasure
from specbox.resolvent import discretize, green, green_oracle

from conftest import random_model, ref_assemble, two_band_measure

SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"


class TestLadder:
    def test_defaults(self):
        ladder = EpsilonLadder()
        eps = ladder.epsilons()
        assert eps[0] == 0.1
        assert eps[-1] >= ladder.eps_min
        assert eps[-1] * ladder.ratio < ladder.eps_min
        assert np.all(np.diff(eps) < 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            EpsilonLadder(eps_max=1e-9, eps_min=1e-1)
        with pytest.raises(DomainError):
            EpsilonLadder(ratio=1.5)


class TestBoundaryValue:
    def test_simple_pole_divergent(self):
        rec = boundary_value(lambda z: -1.0 / z, 0.0)
        assert rec.status == DIVERGENT
        assert rec.slope == pytest.approx(-1.0, abs=1e-6)
        assert rec.pole_weight == pytest.approx(1.0, rel=1e-10)

    def test_regular_point_finite(self):
        rec = boundary_value(lambda z: -1.0 / z, 1.0)
        assert rec.status == FINITE_NONZERO
        assert rec.value == pytest.approx(-1.0, abs=1e-12)
        assert rec.im_limit == pytest.approx(0.0, abs=1e-12)

    def test_gap_symmetry_zero(self, remark2):
        rec = boundary_value(remark2.res_l.borel, 0.0)
        assert rec.status == ZERO
        assert abs(rec.value) <= 1e-8

    def test_band_interior_finite(self, remark2):
        rec = boundary_value(remark2.res_l.borel, 1.5)
        assert rec.status == FINITE_NONZERO
        assert rec.im_limit == pytest.approx(np.pi, abs=1e-8)
        assert rec.value.real == pytest.approx(np.log(5.0 / 7.0), abs=1e-8)

    def test_band_edge_undetermined(self, remark2):
        # log singularity at the band edge: neither divergent nor Cauchy
        rec = boundary_value(remark2.res_l.borel, 1.0)
        assert rec.status == UNDETERMINED

    def test_evaluation_failure_gives_trace(self):
        # non-finite values on the small rungs: the rungs keep the finite prefix
        def bad(z):
            return np.where(z.imag < 1e-5, np.nan, 1.0 + 0j)

        rec = boundary_value(bad, 0.0)
        assert rec.status == UNDETERMINED
        assert len(rec.values) > 0
        eps = EpsilonLadder().epsilons()
        assert len(rec.values) == len(rec.eps) == int(np.sum(eps >= 1e-5))
        assert np.all(np.isfinite(rec.values))

    def test_numerical_failure_undetermined(self):
        def singular(z):
            raise NearSingularError("deliberate resonance")

        rec = boundary_value(singular, 0.0)
        assert rec.status == UNDETERMINED
        assert rec.eps is None and rec.values is None

    def test_programming_error_propagates(self):
        def broken(z):
            raise TypeError("deliberate bug")

        with pytest.raises(TypeError):
            boundary_value(broken, 0.0)

    def test_richardson_stability(self, remark2):
        base = boundary_value(remark2.res_l.borel, 1.5)
        fine = boundary_value(remark2.res_l.borel, 1.5, EpsilonLadder(eps_min=5e-10))
        assert abs(base.value - fine.value) < 1e-6

    def test_statuses_disjoint(self):
        # a converged huge value is neither finite-nonzero nor divergent
        rec = boundary_value(lambda z: 2e6 + 0j, 0.0)
        assert rec.status == UNDETERMINED


class TestClassify:
    def test_remark2_band_point(self, remark2):
        c = classify_energy(remark2, 1.5)
        assert c.in_m0 and c.in_ml and c.in_mr
        assert not (c.in_sigma_hs or c.in_s)
        assert c.in_n is None  # degenerate
        assert c.rec_chi_l.im_limit == pytest.approx(np.pi, abs=1e-6)

    def test_remark2_gap_center(self, remark2):
        c = classify_energy(remark2, 0.0)
        assert not c.in_m0
        assert c.in_sigma_hs
        assert c.rec_chi_l.status == ZERO

    def test_remark2_outside_support(self, remark2):
        c = classify_energy(remark2, 5.0)
        assert c.in_m0
        assert not c.in_ml and not c.in_mr
        assert c.rec_chi_l.status == FINITE_NONZERO
        assert abs(c.rec_chi_l.im_limit) <= 1e-10

    def test_membership_implications(self, remark2):
        for E in np.linspace(-3, 3, 41):
            c = classify_energy(remark2, float(E))
            if c.in_ml or c.in_mr:
                assert c.in_m0

    def test_c_set_diagnostics(self, t2_model):
        # gap center of the composite model: chi transform vanishes but the
        # right transform limit (0) misses the 1/(nu^2 b) target, so the
        # vanishing profile is not satisfied
        c = classify_energy(t2_model, 0.0, nu=1.0)
        assert c.rec_chi_l.status == ZERO
        assert c.c3 is not None and c.c3["applicable"]
        assert not c.c3["satisfied"]
        assert c.c2 is not None and c.c2["applicable"]
        assert not c.c2["satisfied"]

    def test_c2_needs_d_not_identically_zero(self):
        # d vanishes identically on both models: on one level (no pair of
        # levels) and on three with delta_r parallel to delta_l, where the
        # computed d is roundoff and a / (nu^2 d) would divide by it
        one_level = SystemBlock(
            [[-0.05102686225800991]],
            [0.8918839501895515 + 0.9447132740916125j],
            [-0.5322495239537628 - 0.06831474306671874j],
        )
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        dl = rng.normal(size=3) + 1j * rng.normal(size=3)
        parallel = SystemBlock((raw + raw.conj().T) / 2, dl, (0.83 - 0.41j) * dl)
        for system in (one_level, parallel):
            model = BlackBoxModel(system, two_band_measure(), two_band_measure())
            for E in np.linspace(-3.0, 3.0, 121):
                c2 = classify_energy(model, float(E), nu=1.0).c2
                assert not c2["applicable"] and c2["target"] is None, E

    def test_exact_sets_from_lists(self, t2_model):
        for E in t2_model.exceptional_sets.sigma_hs:
            c = classify_energy(t2_model, E)
            assert c.in_sigma_hs
            assert c.in_n  # N contains sigma(H_S) in the finite case


class TestGreenEvaluator:
    def test_ladder_and_reflection(self, remark2):
        from specbox.resolvent import green

        rec = boundary_value(lambda z: green(remark2, (1.0, 1.0), DELTA_L, DELTA_L, z), 1.5)
        assert rec.status == FINITE_NONZERO
        assert rec.value.imag > 0
        # conjugate symmetry of the diagonal pairs
        z = 0.4 + 0.7j
        for phi in TAGS:
            assert green(remark2, (1.0, 1.0), phi, phi, np.conj(z)) == pytest.approx(
                np.conj(green(remark2, (1.0, 1.0), phi, phi, z)), rel=1e-14
            )


class TestAcDensity:
    def test_uncoupled_reservoir_density(self, remark2):
        rec = next(diagonal_records(remark2, (0.0, 0.0), [1.5]))[TAGS.index(CHI_L)]
        val = density_from_record(rec)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_far_outside_spectrum_zero(self, remark2):
        rec = next(diagonal_records(remark2, (1.0, 1.0), [8.0]))[TAGS.index(DELTA_L)]
        val = density_from_record(rec)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_atom_raises_point_mass_signal(self, remark2):
        with pytest.raises(PointMassPresentError):
            density_from_record(
                next(diagonal_records(remark2, (1.0, 1.0), [0.0]))[TAGS.index(DELTA_L)])

    def test_coupled_band_density_vs_extrapolated_oracle(self, remark2):
        # The oracle cannot represent the band limit at eps far below its node
        # spacing, so it is evaluated at resolvable eps and Richardson
        # extrapolated in eps; agreement 1e-4.
        got = density_from_record(
            next(diagonal_records(remark2, (1.0, 1.0), [1.5]))[TAGS.index(DELTA_L)])
        disc = discretize(remark2, 800)
        eps_hi, eps_lo = 2e-2, 1e-2
        o_hi = green_oracle(disc, (1.0, 1.0), DELTA_L, DELTA_L, 1.5 + 1j * eps_hi).imag / np.pi
        o_lo = green_oracle(disc, (1.0, 1.0), DELTA_L, DELTA_L, 1.5 + 1j * eps_lo).imag / np.pi
        oracle = 2 * o_lo - o_hi
        assert got == pytest.approx(oracle, abs=1e-4)


class TestPointMass:
    def test_remark2_gap_atom(self, remark2):
        w = point_mass(remark2, (1.0, 1.0), DELTA_L, 0.0)
        assert w == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_uncoupled_regular_point(self, remark2):
        assert point_mass(remark2, (0.0, 0.0), DELTA_L, 0.7) == 0.0

    def test_uncoupled_eigenstate(self, remark2):
        assert point_mass(remark2, (0.0, 0.0), DELTA_L, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_scan_finds_gap_atom(self, remark2):
        found = [(E, w) for E, w, _ in point_mass_scan(remark2, (1.0, 1.0)) if w > 0]
        assert len(found) >= 1
        gap_atoms = [(E, w) for E, w in found if abs(E) < 0.5]
        assert len(gap_atoms) == 1
        E0, w0 = gap_atoms[0]
        assert E0 == pytest.approx(0.0, abs=1e-10)
        assert w0 == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_mass_budget(self, remark2):
        # detected atoms plus the trapezoid integral of the a.c. density
        # cannot exceed ||delta||^2 = 1 beyond the stated slack
        coupling = (1.0, 1.0)
        atoms = [(E, w) for E, w, _ in point_mass_scan(remark2, coupling) if w > 0]
        atom_sum = sum(w for _, w in atoms)
        grid = np.linspace(-4.0, 4.0, 641)
        dens = []
        for records in diagonal_records(remark2, coupling, grid):
            try:
                dens.append(density_from_record(records[TAGS.index(DELTA_L)]))
            except Exception:
                dens.append(0.0)
        integral = np.trapezoid(dens, grid)
        assert atom_sum + integral <= 1.0 + 2e-2
        # and the budget is nearly saturated for this model
        assert atom_sum + integral >= 0.9


class TestOneWeightRule:
    """Every DIVERGENT record's pole_weight comes from one rule, the one
    ``point_mass`` uses."""

    def test_diagonal_record_weight_is_point_mass(self, remark2):
        rec = next(diagonal_records(remark2, (1.0, 1.0), [0.0]))[TAGS.index(DELTA_L)]
        assert rec.status == DIVERGENT
        assert rec.pole_weight == point_mass(remark2, (1.0, 1.0), DELTA_L, 0.0)
        assert rec.pole_weight == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_reservoir_atom_weight(self, remark2):
        band = [([-2.0, -1.0], [1.0]), ([1.0, 2.0], [1.0])]
        res = SpectralMeasure(atoms=[(4.5, 0.7)], pieces=band)
        model = BlackBoxModel(remark2.system, res, res)
        rec = classify_energy(model, 4.5).rec_chi_l
        assert rec.status == DIVERGENT
        assert rec.pole_weight == pytest.approx(0.7, rel=1e-12)

    def test_slow_divergence_has_no_weight(self):
        # |f| ~ eps^-0.65 passes div_tol, but no simple pole diverges so slowly
        rec = boundary_value(lambda z: 10.0 * (-1j * z) ** -0.65, 0.0)
        assert rec.status == DIVERGENT
        assert -0.8 < rec.slope <= -0.5
        assert rec.pole_weight is None


def sample_model():
    cfg = build_run_config(load_config(str(SAMPLE_PATH)))
    return cfg.model, cfg.coupling


def _bands(model):
    """The density pieces of both reservoirs, merged into disjoint bands."""
    merged = []
    for a, b in sorted((p.a, p.b) for m in (model.res_l, model.res_r) for p in m.pieces):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _band_distance(model, E):
    return min(max(a - E, E - b, 0.0) for a, b in _bands(model))


def _mp_secular(model, coupling):
    """E -> (D, N_l, N_r) at mpmath's working precision, not cleared of any
    pole: the reservoir transforms by the closed-form log recurrence and the
    system pairs from the eigenvectors of H_S at that precision."""
    from mpmath import mp

    lam2, nu2 = (mp.mpf(float(c)) ** 2 for c in coupling)
    system = model.system
    energies, vecs = mp.eigh(mp.matrix(system.h_s.tolist()))
    x_l, x_r = (vecs.H * mp.matrix(v.tolist()) for v in (system.delta_l, system.delta_r))
    overlaps = [(abs(u) ** 2, abs(v) ** 2, mp.conj(u) * v) for u, v in zip(x_l, x_r)]

    def transform(measure, E):
        out = mp.fsum(w / (x - E) for x, w in measure.atoms)
        for p in measure.pieces:
            a, b = mp.mpf(p.a), mp.mpf(p.b)
            term = mp.log((b - E) / (a - E))  # I_0
            out += p.coef[0] * term
            for n in range(1, len(p.coef)):
                term = (b**n - a**n) / n + E * term  # I_n from I_{n-1}
                out += p.coef[n] * term
        return out

    def secular(E):
        l, r = transform(model.res_l, E), transform(model.res_r, E)
        a, b, c = (mp.fsum(w[i] / (e - E) for e, w in zip(energies, overlaps))
                   for i in range(3))
        d = a * b - abs(c) ** 2
        det = 1 - nu2 * r * b - lam2 * l * a + lam2 * nu2 * r * l * d
        return det, a - nu2 * r * d, b - lam2 * l * d

    return secular


@pytest.fixture(scope="module")
def legendre_4000():
    # scipy's rule takes 0.6 s here, numpy's leggauss (an eigensolve) 5 s
    from scipy.special import roots_legendre

    return roots_legendre(4000)


class TestSecularScan:
    @pytest.mark.parametrize("case", ["sample", "remark2", "composite"])
    def test_two_sided_sum_rule(self, case, remark2, t2_model, legendre_4000):
        # atoms plus the a.c. integral give back ||phi||^2: a missed atom shows
        # as a deficit, a spurious one as a surplus
        model, coupling = {
            "sample": sample_model(),
            "remark2": (remark2, (1.0, 1.0)),
            "composite": (t2_model, (0.8, 1.2)),  # criterion 8's
        }[case]
        scan = point_mass_scan(model, coupling)
        t, v = legendre_4000
        vectors = (model.system.delta_l, model.system.delta_r)
        for side, (phi, vec) in enumerate(zip((DELTA_L, DELTA_R), vectors)):
            ac = 0.0
            for a, b in _bands(model):
                E = 0.5 * (a + b) + 0.5 * (b - a) * t
                g = green(model, coupling, phi, phi, E + 1e-12j)
                ac += 0.5 * (b - a) * np.sum(v * np.maximum(g.imag, 0.0)) / np.pi
            atoms = sum(weights[side] for _, *weights in scan)
            assert abs(atoms + ac - np.vdot(vec, vec).real) <= 1e-6

    def test_scan_matches_discretization_oracle(self):
        # the eigenvalues of the 400-node operator and their overlaps with
        # delta, both ways; the rule's nodes cannot place an atom nearer a band
        # edge than their spacing, so only atoms more than 1e-2 outside the
        # bands are compared
        rng = np.random.default_rng(20261018)
        cases = [sample_model()] + [
            (random_model(rng, max_dim=8, max_pieces=2),
             tuple(rng.choice([-1.0, 1.0], 2) * rng.uniform(0.2, 2.0, 2)))
            for _ in range(5)
        ]
        for model, coupling in cases:
            disc = discretize(model, 400)
            energies, vecs = np.linalg.eigh(ref_assemble(disc, coupling))
            overlaps = np.abs(np.stack([disc.delta_l, disc.delta_r]).conj() @ vecs) ** 2
            scan = point_mass_scan(model, coupling)
            for E0, *weights in scan:
                if _band_distance(model, E0) > 1e-2:
                    j = np.argmin(np.abs(energies - E0))
                    assert abs(energies[j] - E0) <= 1e-9
                    assert np.max(np.abs(overlaps[:, j] - weights)) <= 1e-7
            for E, overlap in zip(energies, overlaps.T):
                if _band_distance(model, E) > 1e-2 and overlap.max() >= 1e-6:
                    assert any(abs(E - E0) <= 1e-9 for E0, _, _ in scan)

    def test_scan_matches_mpmath(self):
        model, cp = sample_model()
        cases = [(model, (cp.lam, cp.nu))]
        for k in range(60):
            rng = np.random.default_rng([7, k])
            model = random_model(rng, max_dim=8, max_pieces=2)
            cases.append((model, (rng.uniform(0.1, 2), rng.uniform(0.1, 2))))
        for model, coupling in cases:
            assert_scan_matches_mpmath(model, coupling)

    def test_scan_cost(self, monkeypatch):
        # the eigensolver calls of 40 scans, a count that repeats exactly: 472
        # with Newton's steps started from each crossing's gap, 559 with a
        # bisection on the count in front of them.  ``eigh`` is K's one
        # eigensolver, for the gap counts too
        calls = []
        method = _Feshbach.eigh
        monkeypatch.setattr(_Feshbach, "eigh",
                            lambda self, E: calls.append(1) or method(self, E))
        rng = np.random.default_rng(7)
        for _ in range(40):
            model = random_model(rng)
            point_mass_scan(model, tuple(rng.uniform(-2.0, 2.0, 2)))
        assert len(calls) <= 480


def assert_scan_matches_mpmath(model, coupling):
    """The scan's roots and weights against D, N_l and N_r at 40 digits:
    each weight within 1e-10 (relative) of the residue -N/D' at the
    40-digit root, which near a band edge lies far from the residue at the
    double nearest the root."""
    from mpmath import mp

    with mp.workdps(40):
        secular = _mp_secular(model, coupling)
        det = lambda E: secular(E)[0]
        scan = point_mass_scan(model, coupling)
        roots = [E0 for E0, _, _ in scan]
        poles = [*model.system.eigenvalues,
                 *(x for m in (model.res_l, model.res_r) for x, _ in m.atoms)]
        for E0, *weights in scan:
            scale = max(1.0, abs(E0))
            if any(abs(E0 - p) <= 1e-9 * scale for p in model.system.eigenvalues):
                continue  # D has a removable pole here
            # a bracket inside the gap that holds no pole and no other root
            others = [abs(E0 - p) for p in [*poles, *roots] if p != E0]
            half = 0.5 * min([_band_distance(model, E0), 1e-3 * scale, *others])
            lo, hi = mp.mpf(E0 - half), mp.mpf(E0 + half)
            assert det(lo) * det(hi) < 0
            root = mp.findroot(det, (lo, hi), solver="anderson")
            assert abs(float(root) - E0) <= 1e-13 * scale
            residues = [-num / mp.diff(det, root) for num in secular(root)[1:]]
            for w, ref in zip(weights, residues):
                if w > ATOM_FLOOR:
                    assert abs(w - float(ref)) <= 1e-10 * float(ref)
