"""Tests for the averaged Poisson machinery.

Core correctness duel: the residue closed form against adaptive quadrature of
the linear-system path, across fixed and randomized cases, with scipy's
QUADPACK on the scalar integrand as a third referee.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from specbox.averaging import (
    _pole_breakpoints,
    _vw,
    averaged_poisson_closed,
    averaged_poisson_quadrature,
    rank_one_average,
    verify_abs_continuity,
)
from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS
from specbox.boundary import EpsilonLadder, Tolerances
from specbox.config import build_run_config, load_config
from specbox.errors import DomainError
from specbox.measures import SpectralMeasure
from specbox.resolvent import CouplingParams, green, green_from_basics

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
        # the integrand depends on the bond through its square: half-range
        # doubling equals the full-range integral
        E, eps, nu = 1.5, 1e-2, 0.6
        full = averaged_poisson_quadrature(remark2, nu, CHI_L, E, eps)
        # integrate over |s|: each half of the line gives half the integral
        from specbox.averaging import _tan_quadrature
        from specbox.resolvent import G0Basics

        basics = G0Basics.at(remark2, complex(E, eps))

        def integrand(s):
            nodes = G0Basics(*(np.broadcast_to(x, s.shape) for x in (
                basics.l, basics.r, basics.a, basics.b, basics.c, basics.cb)))
            return np.imag(
                green_from_basics(nodes, CouplingParams(np.abs(s), nu), CHI_L, CHI_L)
            )

        sym = _tan_quadrature(integrand, 1e-12)
        assert sym == pytest.approx(full, abs=1e-12 + 1e-12 * abs(full))

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


SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"


def _quadpack_duel(model, nu, phi, E, eps, tol):
    """The averaged transform by scipy's QUADPACK on the scalar integrand:
    one 4x4 solve per node, tan-substituted, at the same pole breakpoints."""
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
    pts = [math.atan(b) for b in _pole_breakpoints(poles)]
    val, _ = quad(g, -math.pi / 2, math.pi / 2, epsabs=1e-300, epsrel=tol, limit=800,
                  points=pts or None)
    return val


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


class TestRankOne:
    def test_point_mass(self):
        m = SpectralMeasure(atoms=[(0.0, 1.0)])
        assert rank_one_average(m, 0.0, 1.0) == pytest.approx(np.pi, abs=1e-8)

    def test_band_measure(self, remark2):
        assert rank_one_average(remark2.res_l, 1.5, 1e-2) == pytest.approx(
            np.pi, abs=1e-8
        )

    def test_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            m = random_measure(rng)
            E = float(rng.uniform(-6, 6))
            eps = float(10 ** rng.uniform(-6, 0.5))
            assert rank_one_average(m, E, eps) == pytest.approx(np.pi, abs=1e-8)


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

    def test_one_lattice_call_per_tag(self, remark2, t2_model, monkeypatch):
        from specbox import averaging

        calls = []
        closed = averaging.averaged_poisson_closed

        def counted(model, nu, phi, E, eps):
            calls.append((np.broadcast_shapes(np.shape(E), np.shape(eps)),
                          np.ravel(E).tolist()))
            return closed(model, nu, phi, E, eps)

        monkeypatch.setattr(averaging, "averaged_poisson_closed", counted)
        rungs = EpsilonLadder().epsilons().size
        verify_abs_continuity(remark2, 1.0, [0.0, 1.5])
        assert calls == [((2, rungs), [0.0, 1.5])] * 4

        # an excluded energy is never evaluated
        calls.clear()
        target = t2_model.exceptional_sets.n_points[0]
        verify_abs_continuity(t2_model, 1.0, [target, target + 0.5])
        assert calls == [((1, rungs), [target + 0.5])] * 4

        # a long grid is cut into blocks of LATTICE_ROWS energies
        calls.clear()
        monkeypatch.setattr(averaging, "LATTICE_ROWS", 2)
        verify_abs_continuity(remark2, 1.0, [0.0, 0.5, 1.5])
        assert [shape for shape, _ in calls] == [(2, rungs)] * 4 + [(1, rungs)] * 4

    def test_failure_stays_local(self, t2_model, monkeypatch):
        from specbox import averaging

        grid = [-2.5, -1.5, 0.3, 1.5, 2.5]
        target = 0.3
        clean = verify_abs_continuity(t2_model, 1.0, grid).to_dict()
        closed = averaging.averaged_poisson_closed

        def failing(model, nu, phi, E, eps):
            if target in np.ravel(E):
                raise DomainError("injected failure")
            return closed(model, nu, phi, E, eps)

        monkeypatch.setattr(averaging, "averaged_poisson_closed", failing)
        report = verify_abs_continuity(t2_model, 1.0, grid).to_dict()
        assert report == _per_energy_scan(t2_model, 1.0, grid)
        for got, want in zip(report["points"], clean["points"]):
            if got["E"] == target:
                assert got["status"] == "UNDETERMINED" and got["limit"] is None
            else:
                assert got == want
        assert report["excluded"] == clean["excluded"]
        assert report["atoms"] == clean["atoms"]

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
