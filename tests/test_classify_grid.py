"""classify and certify read the reservoir transforms on the (energy x eps)
lattice and the Feshbach data a, b, c, d in one array call per grid, and
greens builds its table from one array: the same bytes as the per-energy
loops, one ``borel`` call per side and block, and a failure that stays with
its side and energy."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import specbox.boundary
import specbox.certify
import specbox.cli
from specbox.blackbox import DELTA_L, DELTA_R, TAGS, BlackBoxModel
from specbox.boundary import (
    C_TOL,
    DIVERGENT,
    FINITE_NONZERO,
    UNDETERMINED,
    ZERO,
    EnergyClassification,
    EpsilonLadder,
    Tolerances,
    boundary_value,
    classify_energy,
    classify_grid,
)
from specbox.certify import (
    _SIGN_SLACK,
    _STRICT_NEG,
    CERTIFIED,
    NUMERICALLY_UNRESOLVED,
    OUT_OF_SCOPE,
    Certificate,
    CertificatePoint,
    certify_no_sc,
)
from specbox.cli import main
from specbox.config import RunConfig, build_run_config, load_config
from specbox.measures import SpectralMeasure
from specbox.resolvent import G0Basics, _coupling, green_all

from conftest import make_t2_system, random_model, two_band_measure

SAMPLE = str(Path(__file__).resolve().parents[1] / "sample-config.json")
DEEP = EpsilonLadder(eps_min=1e-30)  # 97 rungs: 10 energies a block


def _near(E, points):
    return any(abs(E - p) <= 1e-9 * max(1.0, abs(p)) for p in points)


def _finite_target(num, den):
    """num / den as the profile target, or None where it is not finite."""
    try:
        target = num / den
    except ZeroDivisionError:
        return None
    return target if math.isfinite(target) else None


def _profiles(model, E, nu, rec_l, rec_r, in_sigma):
    """The c2/c3 checks at one energy from its own scalar a, b and d."""
    c2 = {"applicable": False, "satisfied": False, "target": None}
    c3 = {"applicable": False, "satisfied": False, "target": None}
    if nu == 0.0 or in_sigma:
        return c2, c3
    a = model.g0(DELTA_L, DELTA_L, float(E)).real
    b = model.g0(DELTA_R, DELTA_R, float(E)).real
    d = model.system.d(float(E))
    r_val = rec_r.value if rec_r.finite else None

    def profile(target, left_status, unset):
        if target is None:
            return unset
        satisfied = rec_l.status == left_status and r_val is not None and (
            abs(r_val - target) <= C_TOL * max(1.0, abs(target))
        )
        return {"applicable": True, "satisfied": bool(satisfied), "target": target}

    if d != 0.0 and not model.exceptional_sets.degenerate:
        c2 = profile(_finite_target(a, nu**2 * d), DIVERGENT, c2)
    if b != 0.0:
        c3 = profile(_finite_target(1.0, nu**2 * b), ZERO, c3)
    return c2, c3


def _reference(model, E, nu=None, ladder=EpsilonLadder(), *, tol=Tolerances()):
    """The per-energy classification: one ladder per transform and energy."""
    exc = model.exceptional_sets
    in_sigma = _near(E, exc.sigma_hs)
    rec_l = boundary_value(model.res_l.borel, E, ladder, tol=tol)
    rec_r = boundary_value(model.res_r.borel, E, ladder, tol=tol)
    in_m0 = rec_l.status == FINITE_NONZERO and rec_r.status == FINITE_NONZERO
    in_ml = bool(
        in_m0 and rec_l.im_limit is not None and tol.im_tol < rec_l.im_limit < 1.0 / tol.im_tol
    )
    in_mr = bool(
        in_m0 and rec_r.im_limit is not None and tol.im_tol < rec_r.im_limit < 1.0 / tol.im_tol
    )
    c2 = c3 = None
    if nu is not None:
        c2, c3 = _profiles(model, E, float(nu), rec_l, rec_r, in_sigma)
    return EnergyClassification(
        E=E, in_m0=in_m0, in_ml=in_ml, in_mr=in_mr, in_sigma_hs=in_sigma,
        in_s=_near(E, exc.s_zeros),
        in_n=None if exc.degenerate else _near(E, exc.n_points),
        rec_chi_l=rec_l, rec_chi_r=rec_r, c2=c2, c3=c3,
    )


def _reference_grid(model, grid, nu=None, ladder=EpsilonLadder(), *, tol=Tolerances()):
    for E in np.asarray(grid, dtype=float).tolist():
        yield _reference(model, E, nu, ladder, tol=tol)


def _reference_certify(model, coupling, grid, ladder=EpsilonLadder(), *, tol=Tolerances()):
    """The per-energy certificate: scalar a, b, c and d at each energy."""
    cp = _coupling(coupling)
    lam2, nu2 = cp.lam**2, cp.nu**2
    cert = Certificate(lam=cp.lam, nu=cp.nu)
    for cls in _reference_grid(model, grid, ladder=ladder, tol=tol):
        E = cls.E
        if UNDETERMINED in (cls.rec_chi_l.status, cls.rec_chi_r.status):
            cert.points.append(CertificatePoint(E, NUMERICALLY_UNRESOLVED, False))
            continue
        if not ((cls.in_ml or cls.in_mr) and not (cls.in_sigma_hs or cls.in_s)):
            cert.points.append(CertificatePoint(E, OUT_OF_SCOPE, False))
            continue
        a = model.g0(DELTA_L, DELTA_L, E).real
        b = model.g0(DELTA_R, DELTA_R, E).real
        c = model.g0(DELTA_L, DELTA_R, E)
        d = model.system.d(E)
        l, r = cls.rec_chi_l.value, cls.rec_chi_r.value
        with np.errstate(over="ignore", invalid="ignore"):
            abs_D = float(abs(G0Basics(l, r, a, b, c, c.conjugate()).det_D(cp)))
            aux1_lhs = float(-nu2 * abs(c) ** 2 * r.imag)
            aux1_rhs = float(lam2 * l.imag * abs(a - nu2 * d * r) ** 2)
            aux2_lhs = float(-lam2 * abs(c) ** 2 * l.imag)
            aux2_rhs = float(nu2 * r.imag * abs(b - lam2 * d * l) ** 2)
        values = [abs_D, aux1_lhs, aux1_rhs, aux2_lhs, aux2_rhs]
        if not all(math.isfinite(v) for v in values):
            values = [v if math.isfinite(v) else None for v in values]
            cert.points.append(CertificatePoint(E, NUMERICALLY_UNRESOLVED, True, *values))
            continue
        sign_ok = (aux1_rhs >= -_SIGN_SLACK and aux2_rhs >= -_SIGN_SLACK
                   and aux1_lhs <= _SIGN_SLACK and aux2_lhs <= _SIGN_SLACK)
        if cp.lam != 0.0 and cp.nu != 0.0 and abs(c) > 1e-6 and max(l.imag, r.imag) > 1e-8:
            sign_ok = sign_ok and (aux1_lhs < -_STRICT_NEG or aux2_lhs < -_STRICT_NEG)
        verdict = CERTIFIED if (abs_D > tol.d_floor and sign_ok) else NUMERICALLY_UNRESOLVED
        cert.points.append(CertificatePoint(E, verdict, True, *values))
    return cert


def _reference_greens(values, zs):
    """The greens table and CSV rows, read cell by cell from green_all's array."""
    rows, entries = [], []
    for iz, z in enumerate(zs):
        pairs = {}
        for i, phi in enumerate(TAGS):
            for j, psi in enumerate(TAGS):
                g = values[iz, i, j]
                rows.append([float(z.real), float(z.imag), phi, psi,
                             float(g.real), float(g.imag)])
                pairs[f"{phi}|{psi}"] = [float(g.real), float(g.imag)]
        entries.append({"z": [float(z.real), float(z.imag)], "pairs": pairs})
    return rows, entries


def _special_grid(model, rng):
    """Band edges, reservoir atoms, sigma(H_S), S and the points of N, an
    energy 1e-10 from an eigenvalue (inside the 1e-9 match tolerance, outside
    the 1e-12 pole check), plus uniform energies around them."""
    special = [x for m in (model.res_l, model.res_r) for p in m.pieces for x in (p.a, p.b)]
    special += [x for m in (model.res_l, model.res_r) for x, _ in m.atoms]
    exc = model.exceptional_sets
    special += list(exc.sigma_hs) + list(exc.s_zeros) + [exc.sigma_hs[0] + 1e-10]
    if not exc.degenerate:
        special += list(exc.n_points)
    lo, hi = min(special) - 0.5, max(special) + 0.5
    return sorted(set(special) | set(rng.uniform(lo, hi, 12).tolist()) | {0.0})


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(16)
    models = [("sample", build_run_config(load_config(SAMPLE)).model)]
    models.append(("remark2", specbox.certify.remark2_model()))
    models.append(("t2", BlackBoxModel(make_t2_system(), two_band_measure(),
                                       two_band_measure())))
    while len(models) < 23:
        model = random_model(rng, max_dim=6, max_pieces=3)
        if model.res_l.atoms or model.res_r.atoms:
            models.append((f"random{len(models) - 3}", model))
    return [(name, model, _special_grid(model, rng)) for name, model in models]


def _dumps(classifications):
    return [json.dumps(c.to_dict()) for c in classifications]


class TestIdentity:
    @pytest.mark.parametrize("ladder", [EpsilonLadder(), DEEP], ids=["default", "deep"])
    def test_same_bytes_as_per_energy_ladders(self, models, ladder):
        statuses, c2, c3, verdicts = set(), set(), set(), set()
        for name, model, grid in models:
            for nu in (None, 0.8):
                rows = list(classify_grid(model, grid, nu, ladder))
                assert _dumps(rows) == _dumps(_reference_grid(model, grid, nu, ladder)), \
                    (name, nu)
            for c in rows:
                statuses |= {c.rec_chi_l.status, c.rec_chi_r.status}
                c2.add(c.c2["applicable"])
                c3.add(c.c3["applicable"])
            for coupling in ((0.7, 0.8), (0.0, 1.3)):
                cert = certify_no_sc(model, coupling, grid, ladder)
                assert json.dumps(cert.to_dict()) \
                    == json.dumps(_reference_certify(model, coupling, grid, ladder).to_dict()), \
                    (name, coupling)
                verdicts |= {p.verdict for p in cert.points}
        assert statuses == {FINITE_NONZERO, ZERO, DIVERGENT, UNDETERMINED}
        assert c2 == c3 == {True, False}
        assert verdicts == {CERTIFIED, OUT_OF_SCOPE, NUMERICALLY_UNRESOLVED}

    def test_classify_energy_is_the_one_energy_grid(self, t2_model):
        for E in (-1.0, 0.0, 0.3, 1.5):
            assert classify_energy(t2_model, E, 1.0).to_dict() \
                == _reference(t2_model, E, 1.0).to_dict()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_greens_same_bytes_as_cell_loop(self, models, monkeypatch, fmt):
        emitted = []
        monkeypatch.setattr(specbox.cli, "_emit",
                            lambda cfg, payload, header, rows: emitted.append((payload, rows)))
        for name, model, grid in models:
            monkeypatch.setattr(RunConfig, "require_model", lambda self, model=model: model)
            monkeypatch.setattr(RunConfig, "require_grid",
                                lambda self, grid=grid: np.asarray(grid, dtype=float))
            assert main(["greens", "--config", SAMPLE, "--format", fmt]) == 0
            payload, rows = emitted.pop()
            cfg = build_run_config(load_config(SAMPLE))
            zs = np.asarray(grid, dtype=float) + 1j * cfg.greens_im_z
            ref_rows, ref_entries = _reference_greens(green_all(model, cfg.coupling, zs), zs)
            assert json.dumps(payload["table"]) == json.dumps(ref_entries), name
            assert json.dumps(rows) == json.dumps(ref_rows), name
            assert [type(v) for v in rows[0]] == [float, float, str, str, float, float]


class TestBlocks:
    GRID = np.linspace(1.05, 1.95, 9)
    BAD = 3  # with 2 energies a block, the second block holds energies 2 and 3

    @pytest.mark.parametrize("side", ["res_l", "res_r"])
    def test_failure_stays_with_its_side_and_energy(self, t2_model, monkeypatch, side):
        grid, bad = self.GRID, self.GRID[self.BAD]
        clean = [c.to_dict() for c in classify_grid(t2_model, grid, 1.0)]
        clean_cert = certify_no_sc(t2_model, (0.7, 1.0), grid).to_dict()["points"]
        assert all(UNDETERMINED not in (p["chi_l"]["status"], p["chi_r"]["status"])
                   for p in clean)
        assert all(p["verdict"] != NUMERICALLY_UNRESOLVED for p in clean_cert)

        rungs = EpsilonLadder().epsilons().size
        monkeypatch.setattr(specbox.boundary, "LATTICE_POINTS", 2 * rungs)
        shapes = {"res_l": [], "res_r": []}
        for name in shapes:
            measure = getattr(t2_model, name)

            def borel(z, name=name, original=measure.borel):
                shapes[name].append(np.shape(z))
                if name == side and bad in np.real(z):
                    raise ArithmeticError("borel failed")
                return original(z)

            monkeypatch.setattr(measure, "borel", borel)

        rows = [c.to_dict() for c in classify_grid(t2_model, grid, 1.0)]
        key, other = ("chi_l", "chi_r") if side == "res_l" else ("chi_r", "chi_l")
        assert rows[self.BAD][key] == {"E": bad, "status": UNDETERMINED, "value": None,
                                       "im_limit": None, "pole_weight": None, "slope": None}
        assert rows[self.BAD][other] == clean[self.BAD][other]
        assert rows[:self.BAD] + rows[self.BAD + 1:] == clean[:self.BAD] + clean[self.BAD + 1:]
        # five blocks on each side; the failing side's second block is
        # evaluated again one energy at a time
        blocks = [(2, rungs)] * 4 + [(1, rungs)]
        assert shapes[side] == blocks[:2] + [(rungs,)] * 2 + blocks[2:]
        assert shapes["res_r" if side == "res_l" else "res_l"] == blocks

        points = certify_no_sc(t2_model, (0.7, 1.0), grid).to_dict()["points"]
        assert points[self.BAD]["verdict"] == NUMERICALLY_UNRESOLVED
        assert points[:self.BAD] + points[self.BAD + 1:] \
            == clean_cert[:self.BAD] + clean_cert[self.BAD + 1:]

    @pytest.mark.parametrize("argv", [["classify", "--grid", "-1:1:9"],
                                      ["certify", "--grid", "1.05:1.95:9"]],
                             ids=["classify", "certify"])
    def test_one_borel_call_per_side(self, monkeypatch, capsys, argv):
        borel = SpectralMeasure.borel
        shapes = []

        def counted(self, z):
            shapes.append(np.shape(z))
            return borel(self, z)

        monkeypatch.setattr(SpectralMeasure, "borel", counted)
        assert main([*argv, "--config", SAMPLE]) == 0
        capsys.readouterr()
        assert shapes == [(9, EpsilonLadder().epsilons().size)] * 2
