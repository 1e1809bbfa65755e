"""Tests for the measure type and its closed-form transforms.

The independent oracle throughout is adaptive quadrature of the defining
integral (scipy.integrate.quad on real and imaginary parts separately),
which never touches the log-recurrence evaluation path.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from specbox.errors import DomainError, InvalidModelError
from specbox.measures import PieceTable, SpectralMeasure


def quad_borel(measure: SpectralMeasure, z: complex, tol: float = 1e-13) -> complex:
    """Brute-force Cauchy transform by adaptive quadrature plus exact atoms."""
    total = 0.0 + 0.0j
    for x0, w in measure.atoms:
        total += w / (x0 - z)
    for p in measure.pieces:
        def integrand_re(x):
            return (np.polynomial.polynomial.polyval(x, p.coef) / (x - z)).real

        def integrand_im(x):
            return (np.polynomial.polynomial.polyval(x, p.coef) / (x - z)).imag

        pts = [z.real] if (p.a < z.real < p.b) else None
        re, _ = quad(integrand_re, p.a, p.b, epsabs=tol, epsrel=tol, limit=400, points=pts)
        im, _ = quad(integrand_im, p.a, p.b, epsabs=tol, epsrel=tol, limit=400, points=pts)
        total += re + 1j * im
    return total


@pytest.fixture
def two_band():
    """Unit density on [-2,-1] union [1,2]."""
    return SpectralMeasure(pieces=[([-2.0, -1.0], [1.0]), ([1.0, 2.0], [1.0])])


def random_measure(rng: np.random.Generator) -> SpectralMeasure:
    """Random admissible measure: 1-3 pieces of degree <= 2, 0-2 atoms."""
    pieces = []
    edges = np.sort(rng.uniform(-4.0, 4.0, size=2 * rng.integers(1, 4)))
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a < 0.05:
            b = a + 0.05
        kind = rng.integers(0, 3)
        if kind == 0:
            coef = [float(rng.uniform(0.05, 2.0))]
        elif kind == 1:
            # alpha*(x - x0)^2 + beta, nonnegative by construction
            alpha = float(rng.uniform(0.0, 1.0))
            beta = float(rng.uniform(0.01, 1.0))
            x0 = float(rng.uniform(a, b))
            coef = [alpha * x0 * x0 + beta, -2 * alpha * x0, alpha]
        else:
            slope = float(rng.uniform(-0.3, 0.3))
            mid = 0.5 * (a + b)
            c0 = float(rng.uniform(0.5, 1.5)) + abs(slope) * (b - a)
            coef = [c0 - slope * mid, slope]
        pieces.append(([float(a), float(b)], coef))
    atoms = []
    for _ in range(rng.integers(0, 3)):
        atoms.append((float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 2.0))))
    return SpectralMeasure(atoms=atoms, pieces=pieces)


class TestConstruction:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidModelError):
            SpectralMeasure(atoms=[(0.0, 0.0)])
        with pytest.raises(InvalidModelError):
            SpectralMeasure(atoms=[(0.0, -1.0)])

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(InvalidModelError):
            SpectralMeasure(atoms=[(1.0, 1.0), (1.0, 2.0)])

    def test_rejects_negative_density(self):
        with pytest.raises(InvalidModelError):
            SpectralMeasure(pieces=[([0.0, 1.0], [-0.5])])
        # x^2 - 0.25 dips negative inside [0, 1]
        with pytest.raises(InvalidModelError):
            SpectralMeasure(pieces=[([0.0, 1.0], [-0.25, 0.0, 1.0])])

    def test_accepts_density_with_interior_zero(self):
        # (x - 0.5)^2 touches zero but never goes negative
        m = SpectralMeasure(pieces=[([0.0, 1.0], [0.25, -1.0, 1.0])])
        assert m.total_mass > 0

    def test_rejects_overlapping_pieces(self):
        with pytest.raises(InvalidModelError):
            SpectralMeasure(pieces=[([0.0, 2.0], [1.0]), ([1.0, 3.0], [1.0])])

    def test_rejects_a_piece_whose_recurrence_overflows(self):
        # b^11 overflows a double on [0, 1e30]; the piece's moments fall back
        # to the scaled series, but its transform near it could not be finite
        with pytest.raises(InvalidModelError, match=r"piece \[0\.0, 1e\+30\] of degree 11"):
            SpectralMeasure(pieces=[([0.0, 1e30], [1.0] + [0.0] * 10 + [1e-300])])
        with pytest.raises(InvalidModelError, match=r"\(b\^3 - a\^3\)/3 overflows"):
            SpectralMeasure(pieces=[([-1e150, 1e150], [1.0, 0.0, 0.0, 0.0])])

    def test_rejects_a_piece_whose_width_overflows(self):
        # b - a is inf: the positivity check's sample points would be inf or
        # NaN, so it would sample nothing
        with pytest.raises(InvalidModelError, match=r"width b - a overflows"):
            SpectralMeasure(pieces=[([-1.5e308, 1.5e308], [1e-300])])
        with pytest.raises(InvalidModelError, match=r"width b - a overflows"):
            SpectralMeasure(pieces=[([-1e308, 1e308], [1e-300, 0.0, 0.0])])

    @pytest.mark.parametrize("interval, coef", [
        ([0.0, 1e7], [1.0, 0.0, 1e-14]),
        ([0.0, 1e30], [1.0]),
        ([-1e150, 1e150], [1.0, 0.0, 0.0]),
    ])
    def test_wide_pieces_with_finite_constants_build(self, interval, coef):
        m = SpectralMeasure(pieces=[(interval, coef)])
        assert np.isfinite(m.borel(4.0 * max(abs(x) for x in interval) * 1j))

    def test_rejects_empty_measure(self):
        with pytest.raises(InvalidModelError):
            SpectralMeasure()

    def test_total_mass(self, two_band):
        assert two_band.total_mass == pytest.approx(2.0, abs=1e-14)
        m = SpectralMeasure(atoms=[(0.5, 0.25)], pieces=[([0.0, 1.0], [0.0, 2.0])])
        assert m.total_mass == pytest.approx(1.25, abs=1e-14)


class TestBorel:
    def test_point_mass_trivial(self):
        m = SpectralMeasure(atoms=[(0.0, 1.0)])
        for eps in (1.0, 1e-3, 1e-9):
            assert m.borel(1j * eps) == pytest.approx(1j / eps, rel=1e-15)

    def test_gap_center_is_zero(self, two_band):
        # log identity: the two bands cancel exactly at z = 0
        assert abs(two_band.borel(0.0)) < 1e-14
        oracle = quad_borel(two_band, 1e-30j)
        assert abs(oracle) < 1e-12

    def test_two_band_at_i_matches_quadrature(self, two_band):
        got = two_band.borel(1j)
        oracle = quad_borel(two_band, 1j)
        assert got == pytest.approx(oracle, abs=1e-12)
        # frozen value from the quadrature oracle (purely imaginary by symmetry)
        assert got == pytest.approx(0.6435011087932844j, abs=1e-13)

    def test_real_z_outside_support(self, two_band):
        got = two_band.borel(3.0)
        oracle = quad_borel(two_band, 3.0 + 0j)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert abs(got.imag) < 1e-15

    def test_next_to_an_edge_at_zero(self):
        # at z = -5e-324 by [0, 1] the quotient (b - z) / (a - z) overflows,
        # at z = 5e-324 by [-3, 0] it underflows to 0; the transform is
        # log|b - z| - log|a - z| all the same
        tiny = 5e-324
        up, down = (SpectralMeasure(pieces=[(ab, [1.0])]) for ab in ([0.0, 1.0], [-3.0, 0.0]))
        assert up.borel(-tiny) == pytest.approx(-np.log(tiny), rel=1e-15)
        assert down.borel(tiny) == pytest.approx(np.log(tiny) - np.log(3.0), rel=1e-15)

    def test_domain_errors(self, two_band):
        with pytest.raises(DomainError):
            two_band.borel(1.5)       # inside a piece
        with pytest.raises(DomainError):
            two_band.borel(2.0)       # endpoint counts as inside the closed piece
        m = SpectralMeasure(atoms=[(0.5, 1.0)])
        with pytest.raises(DomainError):
            m.borel(0.5)

    def test_vectorized_matches_scalar(self, two_band):
        zs = np.array([1j, 0.3 + 0.2j, -2.5 + 0.0j, 5.0 + 1e-3j])
        vec = two_band.borel(zs)
        assert vec.shape == zs.shape
        for z, v in zip(zs, vec):
            assert v == pytest.approx(two_band.borel(complex(z)), rel=1e-14)

    def test_closed_form_vs_quadrature_ensemble(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_measure(rng)
            for _ in range(4):
                z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 2.0))
                got = m.borel(z)
                oracle = quad_borel(m, z)
                assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_far_field_accuracy(self, two_band):
        # The far-field series must agree with the (exact) atom formula and
        # quadrature where both apply, and stay accurate at huge |z|.
        for y in (1e2, 1e4, 1e6):
            got = two_band.borel(1j * y)
            expected = quad_borel(two_band, 1j * y)
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("interval, coef", [
        ([0.0, 1e7], [1.0]),
        ([-1e7, 1e7], [1.0, 1e-7, 1e-14]),
        ([1e6, 3e9], [2.0, 1e-9]),
    ])
    def test_wide_piece_far_field(self, interval, coef):
        # x^m overflows on these pieces before m = 48: the far-field series
        # runs on moments scaled by a power of two, referee mpmath's log
        # recurrence at 50 digits
        import mpmath as mp

        m = SpectralMeasure(pieces=[(interval, coef)])
        piece = m.pieces[0]
        assert piece.scale > 1.0 and all(np.isfinite(piece.moments))
        a, b = interval
        mass = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coef))
        assert m.total_mass == pytest.approx(mass, rel=1e-15)
        radius = max(abs(a), abs(b))
        with mp.workdps(50):
            def exact(z):
                z = mp.mpc(z)
                term = mp.log((b - z) / (a - z))
                total = coef[0] * term
                for n in range(1, len(coef)):
                    term = (mp.mpf(b) ** n - mp.mpf(a) ** n) / n + z * term
                    total += coef[n] * term
                return complex(total)

            for z in (3.01j * radius, 10j * radius, -4 * radius + 1.0, 5 * radius,
                      (1 + 1j) * 1e3 * radius):
                got = m.borel(z)
                assert np.isfinite(got)
                assert got == pytest.approx(exact(z), rel=1e-12)
        # where even 50 digits cancel in the recurrence: F(z) ~ -mass / z
        assert m.borel(1e300j) == pytest.approx(-m.total_mass / 1e300j, rel=1e-12)

    def test_normalization_at_infinity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_measure(rng)
            y = 1e6
            val = (-1j * y) * m.borel(1j * y)
            assert abs(val - m.total_mass) / m.total_mass < 1e-4


class TestHerglotz:
    def test_positivity_ensemble(self):
        # 10^4 random (measure, z) pairs: Im borel >= 0 in the upper half-plane
        rng = np.random.default_rng(3)
        violations = 0
        for _ in range(100):
            m = random_measure(rng)
            zs = rng.uniform(-6, 6, 100) + 1j * 10.0 ** rng.uniform(-6, 1, 100)
            vals = m.borel(zs)
            violations += int(np.sum(vals.imag < 0))
        assert violations == 0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        m = random_measure(rng)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 2))
            assert m.borel(np.conj(z)) == pytest.approx(np.conj(m.borel(z)), rel=1e-14)


class TestPoisson:
    def test_atom_poisson(self):
        m = SpectralMeasure(atoms=[(0.0, 1.0)])
        for eps in (1.0, 1e-2, 1e-6):
            assert m.borel(complex(0.0, eps)).imag == pytest.approx(1.0 / eps, rel=1e-14)
            assert eps * m.borel(complex(0.0, eps)).imag == pytest.approx(1.0, rel=1e-14)

    def test_band_interior_density(self, two_band):
        # (1/pi) Im F(E + i eps) -> density 1 at E = 1.5; oracle at eps = 1e-6
        eps = 1e-6
        got = two_band.borel(complex(1.5, eps)).imag
        oracle = quad_borel(two_band, 1.5 + 1j * eps).imag
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(np.pi, rel=1e-5)

    def test_atom_recovery(self):
        # eps * Im F(x0 + i eps) at an isolated atom recovers the weight
        m = SpectralMeasure(
            atoms=[(0.0, 0.7), (3.0, 0.3)],
            pieces=[([1.0, 2.0], [1.0])],
        )
        for x0, w in m.atoms:
            eps = 1e-9
            assert eps * m.borel(complex(x0, eps)).imag == pytest.approx(w, abs=1e-6)


# -- the real-axis kernel against the 40-digit referee ---------------------------

#: F(E + i0) from ``PieceTable.sums`` at real E against ``referee.boundary``, relative
AXIS_REL = 1e-12


def _axis_points(measure):
    """Band interiors, gaps, far points, and the points 1e-6 and 1e-12 from
    each band edge on either side; none within 1e-6 of an atom."""
    edges = sorted(x for p in measure.pieces for x in (p.a, p.b))
    radius = max(abs(x) for x in edges)
    points = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]  # interiors and gaps
    points += [s * f * max(radius, 1.0) for s in (-1, 1) for f in (2.0, 10.0, 1e3, 1e6)]
    points += [x + s * d * max(1.0, abs(x)) for x in edges for s in (-1, 1) for d in (1e-6, 1e-12)]
    return [E for E in points
            if all(abs(E - x0) > 1e-6 for x0, _ in measure.atoms) and E not in edges]


def assert_axis_matches_referee(measure, points):
    from referee import boundary as referee

    values = PieceTable((measure,)).sums(np.asarray(points, dtype=float))[0]
    for E, got in zip(points, values):
        want = referee(measure, E)
        assert abs(got - want) <= AXIS_REL * abs(want), (E, got, want)


class TestAxisReferee:
    def test_random_measures(self):
        rng = np.random.default_rng(20261022)
        for _ in range(12):
            m = random_measure(rng)
            assert_axis_matches_referee(m, _axis_points(m))

    @pytest.mark.parametrize("interval, coef", [
        ([0.0, 1e7], [1.0]),
        ([-1e7, 1e7], [1.0, 1e-7, 1e-14]),
        ([1e6, 3e9], [2.0, 1e-9]),
    ])
    def test_wide_pieces(self, interval, coef):
        m = SpectralMeasure(atoms=[(-5.0, 0.5)], pieces=[(interval, coef)])
        assert_axis_matches_referee(m, _axis_points(m) + [-3.0, 0.5 * interval[1]])

    def test_catalogue_reservoirs(self):
        # every reservoir of tests/models.py, -3:3:13 off the band edges, and
        # the double next to an edge at 0
        import models

        for build in (models.double_level, models.left_edge_at_zero,
                      models.right_edge_at_zero, models.touching_pieces):
            model = build()
            for m in (model.res_l, model.res_r):
                grid = [E for E in np.linspace(-3, 3, 13).tolist()
                        if all(E not in (p.a, p.b) for p in m.pieces)]
                tiny = [s * 5e-324 for s in (-1, 1)]
                assert_axis_matches_referee(m, grid + _axis_points(m) + tiny)

    def test_not_finite_on_an_atom_or_an_edge_and_silent(self):
        # the suite turns numpy's warnings into errors: at an atom (w / 0),
        # an edge (log 0) and where two pieces touch (inf - inf) the value
        # is not finite, and nothing is printed
        m = SpectralMeasure(atoms=[(0.5, 1.0), (-1.0, 0.3)], pieces=[
            ([-2.0, -1.0], [1.0]), ([-1.0, -0.5], [2.0]), ([1.0, 2.0], [1.0, 0.5])])
        E = np.array([0.5, -2.0, -1.0, -0.5, 1.0, 2.0])
        assert not np.isfinite(PieceTable((m,)).sums(E)[0]).any()

    def test_one_value_per_measure_of_a_table(self):
        # the measures of one table keep their own values: each reads as in
        # its own table, to the bit
        rng = np.random.default_rng(5)
        measures = [random_measure(rng) for _ in range(3)]
        E = np.linspace(-6.0, 6.0, 49)
        together = PieceTable(measures).sums(E)
        for m, value in zip(measures, together):
            assert value.tobytes() == PieceTable((m,)).sums(E)[0].tobytes()
