"""Tests for the averaged Poisson machinery.

Core correctness duel: the residue closed form against adaptive quadrature of
the linear-system path, across fixed and randomized cases, with scipy's
QUADPACK on the scalar integrand as a third referee.
"""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from specbox.averaging import (
    PEAK_BELOW_ROUNDING,
    QUADRATURE_STALLED,
    _bond_coupling,
    _vw,
    averaged_poisson_closed,
    averaged_poisson_quadrature,
    duel_grid,
    rank_one_average,
    verify_abs_continuity,
)
from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS
from specbox.config import EpsilonLadder, Tolerances, build_run_config, load_config
from specbox.errors import AccuracyError, DomainError
from specbox.measures import SpectralMeasure
from specbox.resolvent import CouplingParams, G0Basics, green, green_from_basics

from conftest import random_model
from test_acceptance import SEED as ACCEPTANCE_SEED
from test_measures import random_measure


class TestClosedForm:
    def test_branch_nonnegative(self, remark2):
        # the branch rule forces >= 0 regardless of the sign of v/w
        for E in (-2.5, 0.0, 0.5, 1.5, 3.0):
            for nu in (0.0, 1.0, -2.0):
                val = averaged_poisson_closed(remark2, nu, DELTA_L, E, 1e-2)
                assert val >= 0.0

    def test_requires_positive_eps(self, remark2):
        with pytest.raises(DomainError):
            averaged_poisson_closed(remark2, 1.0, DELTA_L, 0.5, 0.0)

    def test_array_eps_matches_scalar(self, t2_model):
        eps = EpsilonLadder().epsilons()
        for phi in (CHI_L, DELTA_L, CHI_R, DELTA_R):
            for E in (-1.5, 0.3, 2.5):
                vec = averaged_poisson_closed(t2_model, 0.8, phi, E, eps)
                scalar = [averaged_poisson_closed(t2_model, 0.8, phi, E, e) for e in eps]
                assert vec.shape == eps.shape
                assert np.array_equal(vec, scalar)
        with pytest.raises(DomainError):
            averaged_poisson_closed(t2_model, 0.8, DELTA_L, 0.3, np.array([1e-2, 0.0]))

    def test_array_grid_matches_scalar(self):
        # ``average`` reads its closed column from one call over the grid per
        # phi; each value has the bits of that row's scalar call
        grid = np.linspace(-3.0, 3.0, 61)
        models = [build_run_config(load_config(str(SAMPLE_PATH))).model]
        models += [random_model(np.random.default_rng([7, k])) for k in range(6)]
        for model in models:
            for phi in TAGS:
                for kappa in (0.7, 1.0):
                    column = averaged_poisson_closed(model, kappa, phi, grid, 1e-3)
                    rows = [averaged_poisson_closed(model, kappa, phi, E, 1e-3)
                            for E in grid.tolist()]
                    assert column.tolist() == rows

    def test_matches_quadrature_remark2_band(self, remark2):
        closed = averaged_poisson_closed(remark2, 1.0, CHI_L, 1.5, 1e-3)
        quadr = averaged_poisson_quadrature(remark2, 1.0, CHI_L, 1.5, 1e-3)
        assert quadr == pytest.approx(closed, rel=1e-6)

    def test_matches_quadrature_t2(self, t2_model):
        closed = averaged_poisson_closed(t2_model, 0.8, DELTA_L, 0.3, 1e-2)
        quadr = averaged_poisson_quadrature(t2_model, 0.8, DELTA_L, 0.3, 1e-2)
        assert quadr == pytest.approx(closed, rel=1e-6)

    def test_right_tags_mirror(self, t2_model):
        # right vectors average over the second bond at fixed first bond
        closed = averaged_poisson_closed(t2_model, 0.7, DELTA_R, 0.4, 5e-3)
        quadr = averaged_poisson_quadrature(t2_model, 0.7, DELTA_R, 0.4, 5e-3)
        assert quadr == pytest.approx(closed, rel=1e-6)


class TestQuadrature:
    def test_integrand_at_zero_bond(self, remark2):
        # sanity: the s = 0 slice of the integrand is Im G_{0,nu}(phi, phi)
        E, eps, nu = 1.5, 1e-3, 1.0
        val = green(remark2, (0.0, nu), CHI_L, CHI_L, complex(E, eps)).imag
        assert val > 0

    def test_even_symmetry(self, remark2):
        # the bond enters Im G(phi, phi) only through its square, for each of
        # the four vectors: the integrand is even node by node, and the duel's
        # twice the half line equals the whole line's integral, which
        # QUADPACK referees over the whole line at its own breakpoints
        rng = np.random.default_rng(20261020)
        cases = [(remark2, 0.6, CHI_L, 1.5, 1e-2)]
        for _ in range(3):
            model = random_model(rng, max_dim=4, max_pieces=2)
            cases += [(model, float(rng.uniform(0.3, 2.0)), phi, float(rng.uniform(-3, 3)),
                       float(10 ** rng.uniform(-3, -1))) for phi in TAGS]
        s = np.concatenate([np.linspace(0.0, 5.0, 41), np.logspace(1.0, 8.0, 8)])
        for model, nu, phi, E, eps in cases:
            integrand = _duel_integrand(model, nu, phi, complex(E, eps))
            np.testing.assert_allclose(integrand(-s), integrand(s), rtol=1e-14, atol=0)
            full = _quadpack_duel(model, nu, phi, E, eps, 1e-12)
            half = averaged_poisson_quadrature(model, nu, phi, E, eps, tol=1e-12)
            assert half == pytest.approx(full, abs=1e-12 + 1e-12 * abs(full)), (phi, E, eps)

    def test_randomized_duel(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            model = random_model(rng, max_dim=4, max_pieces=2)
            nu = float(rng.uniform(-3, 3))
            E = float(rng.uniform(-3, 3))
            eps = float(10 ** rng.uniform(-3, -1))
            phi = (CHI_L, DELTA_L, CHI_R, DELTA_R)[rng.integers(0, 4)]
            closed = averaged_poisson_closed(model, nu, phi, E, eps)
            quadr = averaged_poisson_quadrature(model, nu, phi, E, eps)
            assert quadr == pytest.approx(closed, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("vw", [0.0, math.inf, complex(math.inf, math.inf), math.nan])
    def test_degenerate_vw_is_nulled(self, remark2, monkeypatch, vw):
        # a v w that underflowed, overflowed or is NaN leaves no peak to map:
        # the duel raises with a reason instead of dividing by zero or
        # returning NaN
        from specbox import averaging

        _, _, basics = _vw(remark2, 0.6, CHI_L, complex(1.5, 1e-2))
        monkeypatch.setattr(averaging, "_vw", lambda *args: (vw, 1.0, basics))
        with pytest.raises(AccuracyError) as info:
            averaged_poisson_quadrature(remark2, 0.6, CHI_L, 1.5, 1e-2)
        assert info.value.reason == PEAK_BELOW_ROUNDING


SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"


def _duel_integrand(model, nu, phi, z):
    """s -> Im G_(s-bond)(phi, phi, z) at an array of bond strengths, one
    4x4 solve per node, as the duel evaluates it."""
    _, _, basics = _vw(model, nu, phi, z)

    def integrand(s):
        nodes = G0Basics(*(np.broadcast_to(x, s.shape) for x in (
            basics.l, basics.r, basics.a, basics.b, basics.c, basics.cb)))
        return np.imag(green_from_basics(nodes, _bond_coupling(phi, s, nu), phi, phi))

    return integrand


def _whole_line_breakpoints(poles) -> list[float]:
    """The referees' breakpoints: x and x +/- k|y| for k = 1, 10, ..., 1e4
    around each pole x + i y, over the whole line of s."""
    pts: set[float] = set()
    for p in poles:
        x, y = float(np.real(p)), abs(float(np.imag(p)))
        candidates = [x]
        scale = max(y, 1e-300)
        for k in (1.0, 10.0, 100.0, 1e3, 1e4):
            candidates.extend((x - k * scale, x + k * scale))
        pts.update(c for c in candidates if math.isfinite(c))
    return sorted(pts)


def _quadpack_duel(model, nu, phi, E, eps, tol):
    """The averaged transform by scipy's QUADPACK: one 4x4 solve per node,
    tan-substituted over the whole line, at its own pole breakpoints."""
    from scipy.integrate import quad

    v, w, basics = _vw(model, nu, phi, complex(E, eps))
    v, w = complex(v), complex(w)

    def g(theta):
        s = math.tan(theta)
        cp = CouplingParams(s, nu) if phi in (CHI_L, DELTA_L) else CouplingParams(nu, s)
        return float(np.imag(green_from_basics(basics, cp, phi, phi))) * (1.0 + s * s)

    poles = ()
    if v != 0 and w != 0:
        p = 1.0 / np.sqrt(v * w)
        poles = (p, -p)
    pts = [math.atan(b) for b in _whole_line_breakpoints(poles)]
    val, _ = quad(g, -math.pi / 2, math.pi / 2, epsabs=1e-300, epsrel=tol, limit=800,
                  points=pts or None)
    return val


def _quadpack_scalar(v, w, tol):
    """The whole line's integral of the scalar Im[v / (1 - s^2 v w)] by
    scipy's QUADPACK, in s itself: breakpoints around the poles +-p on a
    finite middle, and the two infinite tails beyond it."""
    from scipy.integrate import quad

    def f(s):
        return (v / (1.0 - s * s * v * w)).imag

    p = 1.0 / np.sqrt(v * w)
    pts = _whole_line_breakpoints((p, -p))
    edge = 2.0 * max(abs(x) for x in pts) + 1.0
    kw = {"epsabs": 0.0, "epsrel": tol, "limit": 800}
    return (quad(f, -edge, edge, points=pts, **kw)[0] + quad(f, edge, math.inf, **kw)[0]
            + quad(f, -math.inf, -edge, **kw)[0])


def _sample_cases(grid):
    cfg = build_run_config(load_config(str(SAMPLE_PATH)), {})
    for E in grid:
        for phi in TAGS:
            kappa = cfg.coupling.nu if phi in (CHI_L, DELTA_L) else cfg.coupling.lam
            yield cfg.require_model(), kappa, phi, float(E), cfg.average_eps


def _criterion_2_cases():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)  # criterion 2's ensemble
    for _ in range(50):
        model = random_model(rng, max_dim=5, max_pieces=2)
        nu = float(rng.uniform(-3, 3))
        E = float(rng.uniform(-3, 3))
        eps = float(10 ** rng.uniform(-3, -1))
        yield model, nu, TAGS[rng.integers(0, 4)], E, eps


class TestQuadpackReferee:
    """QUADPACK referees the duel: it, the Gauss-Kronrod rule and the closed
    form agree pairwise within quad_tol."""

    @pytest.mark.parametrize("cases", [
        pytest.param(lambda: _sample_cases(np.linspace(1.2, 1.8, 7)), id="readme-grid"),
        pytest.param(lambda: _sample_cases(np.linspace(-3, 3, 13)), id="wide-grid"),
        pytest.param(_criterion_2_cases, id="criterion-2"),
    ])
    def test_three_way_agreement(self, cases):
        tol = Tolerances().quad_tol
        for model, nu, phi, E, eps in cases():
            values = (
                averaged_poisson_closed(model, nu, phi, E, eps),
                averaged_poisson_quadrature(model, nu, phi, E, eps, tol=tol),
                _quadpack_duel(model, nu, phi, E, eps, tol),
            )
            for x, y in itertools.combinations(values, 2):
                assert abs(x - y) <= tol * max(abs(x), abs(y)), (E, phi, values)

    def test_far_rows_against_the_scalar_integrand(self):
        # far outside the bands the sample config's pole pair narrows to
        # h / c ~ 1e-7 and below.  A row the rule answers agrees with the
        # closed form and with QUADPACK on the scalar integrand within the
        # rule's own acceptance of 100 quad_tol; every other row says why
        tol = Tolerances().quad_tol
        answered = 0
        for model, nu, phi, E, eps in _sample_cases(np.logspace(1.0, 8.0, 49)):
            try:
                quadr = averaged_poisson_quadrature(model, nu, phi, E, eps, tol=tol)
            except AccuracyError as exc:
                assert exc.reason in (PEAK_BELOW_ROUNDING, QUADRATURE_STALLED), (E, phi)
                continue
            answered += 1
            v, w, _ = _vw(model, nu, phi, complex(E, eps))
            referee = _quadpack_scalar(complex(v), complex(w), 0.1 * tol)
            closed = averaged_poisson_closed(model, nu, phi, E, eps)
            for other in (closed, referee):
                assert abs(quadr - other) <= 100 * tol * abs(other), (E, phi, quadr, other)
        # u c / h passes quad_tol near E = 4,500: every row up to
        # E = 10^(1 + 7 * 18 / 48) = 4,217 is answered
        assert answered == 4 * 19


def _duel_rows(model, lam, nu, grid, eps, tol):
    """Each duel_grid row with the per-point closed form and quadrature at
    its (E, phi, kappa); a null duel's per-point reason stands in for its
    quadrature."""
    for E, phi, closed, quadr, rel, reason in duel_grid(model, lam, nu, grid, eps, tol):
        kappa = nu if phi in (CHI_L, DELTA_L) else lam
        try:
            point = averaged_poisson_quadrature(model, kappa, phi, E, eps, tol=tol)
        except AccuracyError as exc:
            point = exc.reason
        yield (E, phi), (closed, quadr if reason is None else reason), \
            (averaged_poisson_closed(model, kappa, phi, E, eps), point)


class TestDuelGrid:
    """``average``'s table reads one zero-bond evaluation per grid, and each
    row keeps the bits of the per-point functions."""

    @pytest.mark.parametrize("grid", ["1.2:1.8:7", "-3:3:61"])
    def test_one_g0_evaluation_outside_the_scan(self, grid, monkeypatch, capsys):
        from specbox import averaging
        from specbox.cli import main

        calls, scanning = [], []
        at, scan = G0Basics.at.__func__, averaging.verify_abs_continuity

        def counted(cls, model, z):
            if not scanning:
                calls.append(np.shape(z))
            return at(cls, model, z)

        def counted_scan(*args, **kwargs):
            scanning.append(True)
            try:
                return scan(*args, **kwargs)
            finally:
                scanning.pop()

        monkeypatch.setattr(G0Basics, "at", classmethod(counted))
        monkeypatch.setattr(averaging, "verify_abs_continuity", counted_scan)
        assert main(["average", "--config", str(SAMPLE_PATH), "--grid", grid]) == 0
        capsys.readouterr()
        assert calls == [(int(grid.split(":")[-1]),)]

    @pytest.mark.parametrize("draw", [None, *range(6)],
                             ids=["sample", *(f"rng-7-{k}" for k in range(6))])
    def test_rows_keep_the_per_point_bits(self, draw):
        cfg = build_run_config(load_config(str(SAMPLE_PATH)), {})
        model = (cfg.require_model() if draw is None
                 else random_model(np.random.default_rng([7, draw])))
        rows = _duel_rows(model, cfg.coupling.lam, cfg.coupling.nu, np.linspace(-3, 3, 61),
                          cfg.average_eps, cfg.tolerances.quad_tol)
        for key, grid_row, point_row in rows:
            assert repr(grid_row) == repr(point_row), key  # the same doubles

    def test_far_rows_within_rounding(self):
        # past 3 max(radius, 1) of a piece the transform's far-field series
        # rounds with the length of the array it is given, so the grid's
        # rows and the one-point calls differ in their last bits there
        cfg = build_run_config(load_config(str(SAMPLE_PATH)), {})
        rows = _duel_rows(cfg.require_model(), cfg.coupling.lam, cfg.coupling.nu,
                          np.linspace(-9, 9, 13), cfg.average_eps, cfg.tolerances.quad_tol)
        for key, grid_row, point_row in rows:
            for x, y in zip(grid_row, point_row):
                assert abs(x - y) <= 1e-12 * abs(y), (key, x, y)


class TestRankOne:
    def test_point_mass(self):
        m = SpectralMeasure(atoms=[(0.0, 1.0)])
        assert rank_one_average(m, 0.0, 1.0) == pytest.approx(np.pi, abs=1e-8)

    def test_band_measure(self, remark2):
        assert rank_one_average(remark2.res_l, 1.5, 1e-2) == pytest.approx(
            np.pi, abs=1e-8
        )

    def test_randomized(self):
        for m, E, eps in _rank_one_draws():
            assert rank_one_average(m, E, eps) == pytest.approx(np.pi, abs=1e-8)

    def test_nodes_per_average(self, monkeypatch):
        # in t = s + Re q the Lorentzian is 1/cosh on the sinh piece and
        # 1/(1 + y^2) on the tail: the first two panels, 30 nodes, meet
        # RANK_ONE_TOL whatever the pole's width
        from specbox import averaging

        quad = averaging.quad
        nodes = []

        def counting_quad(func, *args, **kwargs):
            def counted(x):
                nodes[-1] += x.size
                return func(x)

            return quad(counted, *args, **kwargs)

        monkeypatch.setattr(averaging, "quad", counting_quad)
        for m, E, eps in _rank_one_draws():
            nodes.append(0)
            rank_one_average(m, E, eps)
        assert len(nodes) == 50 and max(nodes) <= 30, nodes

    def test_pole_without_width_raises(self):
        # at E = 1e200, eps = 1e-300 the atom's g = -1 / (E + i eps) has its
        # imaginary part underflow to 0: g is real and its pole has no width
        m = SpectralMeasure(atoms=[(0.0, 1.0)])
        with pytest.raises(AccuracyError) as info:
            rank_one_average(m, 1e200, 1e-300)
        assert info.value.reason == PEAK_BELOW_ROUNDING

    @pytest.mark.parametrize("g", [0.0, math.inf, complex(math.inf, 1.0), math.nan,
                                   complex(1.0, math.nan)])
    def test_degenerate_transform_raises(self, g):
        class Fixed:
            def borel(self, z):
                return g

        with pytest.raises(AccuracyError) as info:
            rank_one_average(Fixed(), 0.5, 1e-2)
        assert info.value.reason == PEAK_BELOW_ROUNDING


def _rank_one_draws():
    rng = np.random.default_rng(43)
    for _ in range(50):
        m = random_measure(rng)
        E = float(rng.uniform(-6, 6))
        eps = float(10 ** rng.uniform(-6, 0.5))
        yield m, E, eps


class TestQuadHook:
    """Both quadrature callers integrate through the module attribute
    ``averaging.quad``, the hook that lets a tracer count integrand
    evaluations by patching one name."""

    def test_callers_go_through_module_quad(self, remark2, monkeypatch):
        from specbox import averaging

        cases = [
            lambda: averaged_poisson_quadrature(remark2, 1.0, CHI_L, 1.5, 1e-2),
            lambda: rank_one_average(remark2.res_l, 1.5, 1e-2),
        ]
        plain = [case() for case in cases]
        counts = {"calls": 0, "evals": 0}
        quad = averaging.quad

        def counting_quad(func, *args, **kwargs):
            counts["calls"] += 1

            def counted(x):
                counts["evals"] += 1
                return func(x)

            return quad(counted, *args, **kwargs)

        monkeypatch.setattr(averaging, "quad", counting_quad)
        for case, expected in zip(cases, plain):
            before = dict(counts)
            assert case() == expected  # bit-identical through the hook
            assert counts["calls"] > before["calls"]
            assert counts["evals"] > before["evals"]


class TestVerifyAbsContinuity:
    def test_degenerate_model_vacuous_with_atom(self, remark2):
        grid = np.linspace(-0.5, 0.5, 11)  # includes E = 0 exactly
        report = verify_abs_continuity(remark2, 1.0, grid)
        assert report.verdict == "VACUOUS"
        atoms_at_zero = [a for a in report.atoms if abs(a["E"]) < 1e-12]
        assert atoms_at_zero, "expected a divergent averaged ladder at E = 0"
        assert all(a["indicator"] > 0 for a in atoms_at_zero)

    def test_one_g0_evaluation_per_block(self, remark2, t2_model, monkeypatch):
        from specbox import boundary

        calls = []
        at = G0Basics.at.__func__

        def counted(cls, model, z):
            calls.append((np.shape(z), np.real(z)[:, 0].tolist()))
            return at(cls, model, z)

        monkeypatch.setattr(G0Basics, "at", classmethod(counted))
        rungs = EpsilonLadder().epsilons().size
        verify_abs_continuity(remark2, 1.0, [0.0, 1.5])
        assert calls == [((2, rungs), [0.0, 1.5])]

        # an excluded energy is never evaluated
        calls.clear()
        target = t2_model.exceptional_sets.n_points[0]
        verify_abs_continuity(t2_model, 1.0, [target, target + 0.5])
        assert calls == [((1, rungs), [target + 0.5])]

        # a long grid is cut into blocks of at most LATTICE_POINTS points
        calls.clear()
        monkeypatch.setattr(boundary, "LATTICE_POINTS", 2 * rungs)
        verify_abs_continuity(remark2, 1.0, [0.0, 0.5, 1.5])
        assert [shape for shape, _ in calls] == [(2, rungs), (1, rungs)]

    def test_failure_stays_local(self, t2_model, monkeypatch):
        from specbox import boundary

        grid = [-2.5, -1.5, 0.3, 1.5, 2.5]
        target = 0.3
        clean = verify_abs_continuity(t2_model, 1.0, grid).to_dict()
        at = G0Basics.at.__func__

        # the zero-bond values of every tag come from this one evaluation
        def failing(cls, model, z):
            if target in np.real(z):
                raise DomainError("injected failure")
            return at(cls, model, z)

        monkeypatch.setattr(G0Basics, "at", classmethod(failing))
        # with 2 energies a block, the failing energy sits in the second block
        for points in (boundary.LATTICE_POINTS, 2 * EpsilonLadder().epsilons().size):
            monkeypatch.setattr(boundary, "LATTICE_POINTS", points)
            report = verify_abs_continuity(t2_model, 1.0, grid).to_dict()
            assert report == _per_energy_scan(t2_model, 1.0, grid)
            for got, want in zip(report["points"], clean["points"]):
                if got["E"] == target:
                    assert got["status"] == "UNDETERMINED" and got["limit"] is None
                else:
                    assert got == want
            assert report["excluded"] == clean["excluded"]
            assert report["atoms"] == clean["atoms"]

    def test_bottom_of_range_ladder_warns_nothing(self):
        # at eps = 1e-300 the quotient v / w of the remark2 model overflows
        # (w is about 5e304), and i times the inf it leaves reads nan: both
        # are the scan's data, not numpy warnings on stderr
        from specbox import certify

        ladder = EpsilonLadder(eps_max=0.1, eps_min=1e-305, ratio=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_abs_continuity(certify.remark2_model(), 1.0, [0.0, 0.5], ladder)
        assert report.verdict == "VACUOUS"
        assert [p["status"] for p in report.points] == [
            "ZERO", "UNDETERMINED", "ZERO", "UNDETERMINED", "ZERO", "ZERO", "ZERO", "ZERO"]

    def test_vanished_partner_leaves_only_its_own_rows(self, tmp_path):
        # with |delta_l| = 1e-10, G(delta_l, delta_l) underflows to 0 at
        # E = 1e306: chi_l's partner vanishes there, and no other vector's
        doc = json.loads(SAMPLE_PATH.read_text())
        doc["model"]["system"]["delta_l"] = [[1e-10, 0.0], [0.0, 0.0]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        model = build_run_config(load_config(str(path))).model
        grid = [1.5, 1e306]
        report = verify_abs_continuity(model, 1.0, grid, lam=0.7).to_dict()
        assert report == _per_energy_scan(model, 1.0, grid, lam=0.7)
        far = {p["phi"]: p["status"] for p in report["points"] if p["E"] == 1e306}
        assert far == {CHI_L: "UNDETERMINED", DELTA_L: "ZERO",
                       CHI_R: "FINITE_NONZERO", DELTA_R: "FINITE_NONZERO"}

    @pytest.mark.parametrize("case", ["remark2", "t2", "random0", "random1", "random2",
                                      "empty", "all_excluded"])
    def test_scan_matches_per_energy_ladders(self, remark2, t2_model, case):
        grid = np.linspace(-3.0, 3.0, 25)
        nu, lam = 1.0, None
        if case == "remark2":
            model = remark2
        elif case == "t2":
            model = t2_model
            grid = np.concatenate([grid, t2_model.exceptional_sets.n_points])
        elif case.startswith("random"):
            rng = np.random.default_rng([20261018, int(case[-1])])
            model = random_model(rng, max_dim=4, max_pieces=2)
            nu, lam = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
            n_points = model.exceptional_sets.n_points or []  # None if degenerate
            grid = np.concatenate([np.linspace(-4.5, 4.5, 19), n_points[:3]])
        elif case == "empty":
            model, grid = t2_model, []
        else:
            model, grid = t2_model, t2_model.exceptional_sets.n_points
        report = verify_abs_continuity(model, nu, grid, lam=lam).to_dict()
        assert report == _per_energy_scan(model, nu, grid, lam=lam)
        if case == "all_excluded":
            assert not report["points"] and len(report["excluded"]) == len(grid)

    def test_lam_fixes_the_right_rows(self, t2_slanted_model):
        grid = np.linspace(-2.5, 2.5, 11)
        both = verify_abs_continuity(t2_slanted_model, 1.0, grid, lam=0.6)
        at_nu = verify_abs_continuity(t2_slanted_model, 1.0, grid)
        at_lam = verify_abs_continuity(t2_slanted_model, 0.6, grid)
        assert both.to_dict()["lam"] == 0.6 and "lam" not in at_nu.to_dict()
        for got, left, right in zip(both.points, at_nu.points, at_lam.points):
            assert got == (left if got["phi"] in (CHI_L, DELTA_L) else right)

    def test_exclusion_markers(self, t2_model):
        exc = t2_model.exceptional_sets
        target = exc.n_points[0]
        report = verify_abs_continuity(t2_model, 1.0, [target, target + 0.5])
        assert any(e["marker"] == "EXCLUDED_N" for e in report.excluded)
        assert all(abs(e["E"] - target) < 1e-12 for e in report.excluded)

    def test_composite_model_passes(self, t2_model):
        exc = t2_model.exceptional_sets
        grid = [
            E
            for E in np.linspace(-3, 3, 61)
            if min(abs(E - p) for p in exc.n_points) > 0.02
        ]
        report = verify_abs_continuity(t2_model, 1.0, grid, EpsilonLadder(eps_min=1e-8))
        assert report.verdict == "PASS"
        assert not report.atoms


def _per_energy_scan(model, nu, grid, lam=None):
    """The scan as one averaged-transform ladder per (energy, tag), through
    the module's ``averaged_poisson_closed``: the reference for the lattice."""
    from specbox import averaging
    from specbox.boundary import _richardson, boundary_value

    ladder = EpsilonLadder()
    exc = model.exceptional_sets
    out = {"nu": nu, "verdict": "PASS", "points": [], "excluded": [], "atoms": []}
    if lam is not None:
        out["lam"] = lam
    diverged = False
    for E in np.asarray(grid, dtype=float):
        if not exc.degenerate and any(abs(E - p) < averaging.N_EXCLUSION
                                      for p in exc.n_points):
            out["excluded"].append({"E": float(E), "marker": "EXCLUDED_N"})
            continue
        for phi in TAGS:
            kappa = nu if phi in (CHI_L, DELTA_L) or lam is None else lam
            rec = boundary_value(
                lambda z: averaging.averaged_poisson_closed(model, kappa, phi, float(E),
                                                            z.imag),
                float(E), ladder,
            )
            out["points"].append({
                "E": float(E), "phi": phi, "status": rec.status,
                "limit": None if rec.value is None else float(rec.value.real),
            })
            if rec.status == "DIVERGENT":
                diverged = True
                (e0, e1), (p0, p1) = rec.eps[-2:], rec.values[-2:]
                indicator = _richardson(e1 * p1.real, e0 * p0.real, ladder.ratio)
                out["atoms"].append({"E": float(E), "phi": phi,
                                     "indicator": float(indicator)})
    if exc.degenerate:
        out["verdict"] = "VACUOUS"
    elif diverged:
        out["verdict"] = "FAIL"
    return out
