"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.  All ensembles are seeded and deterministic.
"""

import time

import numpy as np
import pytest

from specbox.averaging import (
    averaged_poisson_closed,
    averaged_poisson_quadrature,
    rank_one_average,
    verify_abs_continuity,
)
from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel
from specbox.boundary import (
    DIVERGENT,
    FINITE_NONZERO,
    UNDETERMINED,
    ZERO,
    EpsilonLadder,
    boundary_value,
    classify_energy,
    density_from_record,
    diagonal_records,
    point_mass,
    point_mass_scan,
)
from specbox.certify import CERTIFIED, certify_no_sc, eigen_residual, remark2_model
from specbox.errors import PointMassPresentError, UndeterminedLimitError
from specbox.resolvent import (
    CouplingParams,
    discretize,
    green,
    green_all,
    green_oracle_all,
)

from conftest import make_t2_system, random_model, two_band_measure
from test_measures import random_measure

SEED = 20260810


def report(number: int, elapsed: float, budget: float, detail: str):
    print(f"\nACCEPTANCE {number}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) — {detail}")
    assert elapsed <= budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_resolvent_oracle_equivalence():
    """Closed-form coupled pairs vs the direct discretized solve."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng, max_dim=8, max_pieces=3)
        cp = CouplingParams(*rng.uniform(-3, 3, 2))
        disc = discretize(model, 400)
        zs = rng.uniform(-3, 3, 10) + 1j * rng.uniform(0.05, 2, 10)
        closed = green_all(model, cp, zs)
        for iz, z in enumerate(zs):
            oracle = green_oracle_all(disc, cp, complex(z))
            scale = max(max(abs(v) for v in oracle.values()), 1e-12)
            for i, phi in enumerate(TAGS):
                for j, psi in enumerate(TAGS):
                    o = oracle[(phi, psi)]
                    err = abs(closed[iz, i, j] - o) / max(abs(o), 1e-2 * scale)
                    worst = max(worst, err)
    assert worst <= 1e-7
    report(1, time.perf_counter() - t0, 60.0,
           f"100 models x 10 z x 16 pairs, worst rel err {worst:.2e} <= 1e-7")


def test_criterion_2_averaging_residue_formula():
    """Closed-form averaged Poisson vs adaptive quadrature, branch >= 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        model = random_model(rng, max_dim=5, max_pieces=2)
        nu = float(rng.uniform(-3, 3))
        E = float(rng.uniform(-3, 3))
        eps = float(10 ** rng.uniform(-3, -1))
        phi = TAGS[rng.integers(0, 4)]
        closed = averaged_poisson_closed(model, nu, phi, E, eps)
        assert closed >= 0.0
        quadr = averaged_poisson_quadrature(model, nu, phi, E, eps)
        err = abs(closed - quadr) / max(abs(closed), abs(quadr), 1e-300)
        worst = max(worst, err)
    assert worst <= 1e-6
    report(2, time.perf_counter() - t0, 120.0,
           f"50 randomized cases, worst rel err {worst:.2e} <= 1e-6, branch >= 0")


def test_criterion_3_rank_one_average():
    """The single-bond average is the Lebesgue measure: density pi exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(200):
        m = random_measure(rng)
        for _ in range(5):
            E = float(rng.uniform(-6, 6))
            eps = float(10 ** rng.uniform(-6, 0.5))
            worst = max(worst, abs(rank_one_average(m, E, eps) - np.pi))
    assert worst <= 1e-8
    report(3, time.perf_counter() - t0, 30.0,
           f"10^3 random (measure, E, eps), worst |avg - pi| {worst:.2e} <= 1e-8")


def test_criterion_4_persistent_zero_mode():
    """Zero-mode residual and the two independent routes to the atom weight."""
    t0 = time.perf_counter()
    model = remark2_model()
    residual, weight = eigen_residual(model, (1.0, 1.0), 200)
    assert residual <= 1e-10
    assert abs(weight - 1 / 3) <= 1e-4
    atom = point_mass(model, (1.0, 1.0), DELTA_L, 0.0)
    assert abs(atom - 1 / 3) <= 1e-4
    for (lam, nu), expected in [((2.0, 0.0), 1 / 5), ((1.0, 3.0), 1 / 11)]:
        _, w = eigen_residual(model, (lam, nu), 200)
        assert abs(w - expected) <= 1e-4
    report(4, time.perf_counter() - t0, 10.0,
           f"residual {residual:.1e} <= 1e-10; weights 1/3, 1/5, 1/11 within 1e-4")


def test_criterion_5_certification():
    """All band-interior grid points certified with the proof's sign structure."""
    t0 = time.perf_counter()
    model = remark2_model()
    grid = np.concatenate([np.linspace(1.05, 1.95, 25), np.linspace(-1.95, -1.05, 25)])
    cert = certify_no_sc(model, (1.0, 1.0), grid)
    assert all(p.verdict == CERTIFIED for p in cert.points)
    for p in cert.points:
        assert p.aux1_rhs >= -1e-12 and p.aux2_rhs >= -1e-12
        assert p.aux1_lhs <= 1e-12 and p.aux2_lhs <= 1e-12
        assert p.aux1_lhs < -1e-10 or p.aux2_lhs < -1e-10
    refined = certify_no_sc(
        model, (1.0, 1.0), grid, EpsilonLadder(eps_min=1e-11)
    )
    base_min, fine_min = cert.min_abs_D, refined.min_abs_D
    assert abs(fine_min - base_min) <= 0.10 * base_min
    report(5, time.perf_counter() - t0, 30.0,
           f"50/50 CERTIFIED, min |D| {base_min:.6f} stable to "
           f"{abs(fine_min - base_min) / base_min:.2e} under ladder refinement")


def test_criterion_6_averaged_measure_scan():
    """Boundedness of the averaged Poisson ladder away from the exceptional set."""
    t0 = time.perf_counter()
    composite = BlackBoxModel(make_t2_system(), two_band_measure(), two_band_measure())
    exc = composite.exceptional_sets
    grid = [
        float(E)
        for E in np.linspace(-3, 3, 200)
        if min(abs(E - p) for p in exc.n_points) > 0.02
    ]
    assert len(grid) >= 190
    rep = verify_abs_continuity(composite, 1.0, grid)
    assert rep.verdict == "PASS"
    assert not rep.atoms

    degenerate = verify_abs_continuity(remark2_model(), 1.0, np.linspace(-0.5, 0.5, 11))
    assert degenerate.verdict == "VACUOUS"
    zero_atoms = [a for a in degenerate.atoms if abs(a["E"]) < 1e-12]
    assert zero_atoms and all(a["indicator"] > 0 for a in zero_atoms)
    report(6, time.perf_counter() - t0, 120.0,
           f"composite PASS on {len(grid)} grid points; degenerate model VACUOUS "
           f"with atom indicator {zero_atoms[0]['indicator']:.4f} > 0 at E = 0")


def test_criterion_7_boundary_machinery():
    """Dissipative-set recovery on the reservoir bands plus the gap zero."""
    t0 = time.perf_counter()
    model = remark2_model()
    inside = np.concatenate([
        np.linspace(-2, -1, 252)[1:-1], np.linspace(1, 2, 252)[1:-1],
    ])
    for E in inside:
        c = classify_energy(model, float(E))
        assert c.in_ml and c.in_mr, f"dissipative flags lost at E = {E}"
    outside = np.concatenate([
        np.linspace(-0.9, 0.9, 250), np.linspace(2.1, 4.0, 250),
    ])
    for E in outside:
        c = classify_energy(model, float(E))
        assert not c.in_ml and not c.in_mr, f"phantom dissipative flag at E = {E}"
    c_mid = classify_energy(model, 1.5)
    assert abs(c_mid.rec_chi_l.im_limit - np.pi) <= 1e-5
    rec0 = boundary_value(model.res_l.borel, 0.0)
    assert rec0.status == ZERO and abs(rec0.value) <= 1e-8
    report(7, time.perf_counter() - t0, 30.0,
           "in_Ml/in_Mr exact on 500 interior + 500 exterior points; "
           f"Im limit pi to {abs(c_mid.rec_chi_l.im_limit - np.pi):.1e}; |G(0+i0)| <= 1e-8")


def test_criterion_8_global_invariants():
    """Herglotz positivity, conjugate and left-right symmetry, resolvent
    identity, and the mass budget, with zero violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    violations = 0

    # Herglotz positivity: measures and coupled diagonal pairs
    for _ in range(50):
        m = random_measure(rng)
        zs = rng.uniform(-6, 6, 200) + 1j * 10.0 ** rng.uniform(-6, 1, 200)
        violations += int(np.sum(m.borel(zs).imag < 0))
    models = [random_model(rng, max_dim=6, max_pieces=2) for _ in range(5)]
    for model in models:
        cp = CouplingParams(*rng.uniform(-3, 3, 2))
        zs = rng.uniform(-4, 4, 100) + 1j * 10.0 ** rng.uniform(-4, 0.5, 100)
        for phi in TAGS:
            violations += int(np.sum(green(model, cp, phi, phi, zs).imag < 0))

    # conjugate symmetry on 10^3 samples
    for _ in range(1000):
        model = models[rng.integers(0, len(models))]
        cp = CouplingParams(*rng.uniform(-3, 3, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 2))
        i, j = rng.integers(0, 4, size=2)
        lhs = green(model, cp, TAGS[i], TAGS[j], np.conj(z))
        rhs = np.conj(green(model, cp, TAGS[j], TAGS[i], z))
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            violations += 1

    # left-right relabeling symmetry
    swap = {CHI_L: CHI_R, CHI_R: CHI_L, DELTA_L: DELTA_R, DELTA_R: DELTA_L}
    for model in models:
        mirrored = BlackBoxModel(
            type(model.system)(
                model.system.h_s, model.system.delta_r, model.system.delta_l
            ),
            model.res_r,
            model.res_l,
        )
        cp = CouplingParams(*rng.uniform(-3, 3, 2))
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
            i, j = rng.integers(0, 4, size=2)
            phi, psi = TAGS[i], TAGS[j]
            direct = green(model, cp, phi, psi, z)
            mirror = green(mirrored, CouplingParams(cp.nu, cp.lam), swap[phi], swap[psi], z)
            if abs(direct - mirror) > 1e-12 * max(1.0, abs(direct)):
                violations += 1

    # resolvent identity residual on the oracle
    for model in models[:2]:
        disc = discretize(model, 200)
        cp = CouplingParams(*rng.uniform(-2, 2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.0))
        g_c = green_oracle_all(disc, cp, z)
        g_0 = green_oracle_all(disc, (0.0, 0.0), z)
        for phi in TAGS:
            for psi in TAGS:
                residual = (
                    g_c[(phi, psi)] - g_0[(phi, psi)]
                    + cp.lam * (g_c[(phi, DELTA_L)] * g_0[(CHI_L, psi)]
                                + g_c[(phi, CHI_L)] * g_0[(DELTA_L, psi)])
                    + cp.nu * (g_c[(phi, DELTA_R)] * g_0[(CHI_R, psi)]
                               + g_c[(phi, CHI_R)] * g_0[(DELTA_R, psi)])
                )
                if abs(residual) > 1e-11:
                    violations += 1

    # mass budget on the two reference models
    composite = BlackBoxModel(make_t2_system(), two_band_measure(), two_band_measure())
    for model, coupling in ((remark2_model(), (1.0, 1.0)), (composite, (0.8, 1.2))):
        for phi in (DELTA_L, DELTA_R):
            vec = model.system.delta_l if phi == DELTA_L else model.system.delta_r
            budget = float(np.linalg.norm(vec) ** 2) + 2e-2
            atoms = [(E, w_l if phi == DELTA_L else w_r)
                     for E, w_l, w_r in point_mass_scan(model, coupling)]
            grid = np.linspace(-4.5, 4.5, 601)
            dens = []
            for records in diagonal_records(model, coupling, grid):
                try:
                    dens.append(density_from_record(records[TAGS.index(phi)]))
                except (PointMassPresentError, UndeterminedLimitError):
                    dens.append(0.0)
            total = sum(w for _, w in atoms) + float(np.trapezoid(dens, grid))
            if total > budget:
                violations += 1

    assert violations == 0
    report(8, time.perf_counter() - t0, 300.0,
           "Herglotz, conjugate symmetry, left-right symmetry, resolvent "
           "identity, mass budget: zero violations")
