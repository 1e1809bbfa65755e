"""classify and certify read the reservoir transforms at E + i0 from one
real-axis kernel pass per grid and the Feshbach data a, b, c, d in one array
call per grid, and greens builds its table from one array.  Referees: the
per-energy ladders, wherever they resolve (the same statuses, memberships,
profile flags and verdicts, and values within the ladders' own error), and
the one-energy call, to the bit.  A value that is not finite stays with its
side and energy."""

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
from specbox.config import EpsilonLadder, RunConfig, Tolerances, build_run_config, load_config
from specbox.measures import PieceTable, SpectralMeasure
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


def _levels(system, E):
    """The rounding levels of a, b and d at E, each 16 n eps times the sum
    of the absolute terms of its pole sum, n = dim H_S; one loop per sum."""
    scale = 16 * system.dim * np.finfo(float).eps
    u = [1.0 / abs(p - E) for p in system.poles.tolist()]
    a, b = (scale * sum(abs(w) * uk for w, uk in zip(system.pair_weights(phi, phi).tolist(), u))
            for phi in (DELTA_L, DELTA_R))
    d = scale * 0.5 * sum(system.minors[k, j] * u[k] * u[j]
                          for k in range(len(u)) for j in range(len(u)))
    return a, b, d


def _profiles(model, E, nu, rec_l, rec_r, in_sigma):
    """The c2/c3 checks at one energy from its own scalar a, b and d."""
    c2 = {"applicable": False, "satisfied": False, "target": None}
    c3 = {"applicable": False, "satisfied": False, "target": None}
    if nu == 0.0 or in_sigma:
        return c2, c3
    a = model.system.green(DELTA_L, DELTA_L, float(E)).real
    b = model.system.green(DELTA_R, DELTA_R, float(E)).real
    d = model.system.d(float(E))
    level_a, level_b, level_d = _levels(model.system, float(E))
    r_val = rec_r.value if rec_r.finite else None

    def profile(target, left_status, unset):
        if target is None:
            return unset
        satisfied = rec_l.status == left_status and r_val is not None and (
            abs(r_val - target) <= C_TOL * max(1.0, abs(target))
        )
        return {"applicable": True, "satisfied": bool(satisfied), "target": target}

    if abs(a) > level_a and abs(d) > level_d and not model.exceptional_sets.degenerate:
        c2 = profile(_finite_target(a, nu**2 * d), DIVERGENT, c2)
    if abs(b) > level_b:
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
        a = model.system.green(DELTA_L, DELTA_L, E).real
        b = model.system.green(DELTA_R, DELTA_R, E).real
        c = model.system.green(DELTA_L, DELTA_R, E)
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


#: FINITE_NONZERO and ZERO values against the ladder's Richardson limit,
#: relative to max(1, |value|): the ladder's own error, seen up to 6.1e-10 on
#: the benchmark's grid_scan inputs
VALUE_REL = 1e-8


def assert_resolved_alike(got, ref):
    """A record read at E + i0 against the ladder's record at E: where the
    ladder resolves, the same status, a value within VALUE_REL, and a pole
    weight within the last step of the ladder's eps * Im f plus the floor
    of its convergence test (``boundary._ladder_mass``).  Returns whether
    the ladder resolved."""
    assert (got.E, got.slope, got.eps, got.values) == (ref.E, None, None, None)
    if got.value is not None:
        assert type(got.value) is np.complex128  # certify's overflow reads numpy's inf
    if ref.status == UNDETERMINED:
        return False
    assert got.status == ref.status, (got.E, got.status, ref.status)
    if ref.finite:
        assert abs(got.value - ref.value) <= VALUE_REL * max(1.0, abs(ref.value)), got.E
        assert abs(got.im_limit - ref.im_limit) <= VALUE_REL * max(1.0, abs(ref.value)), got.E
    if ref.pole_weight is not None:
        m = ref.eps * ref.values.imag
        step = abs(m[-1] - m[-2]) + 1e-10 * max(1.0, abs(m[-1]))
        assert abs(got.pole_weight - ref.pole_weight) <= step, got.E
    return True


def _close(x, y):
    return x is y is None or abs(x - y) <= VALUE_REL * max(1.0, abs(y))


class TestIdentity:
    @pytest.mark.parametrize("ladder", [EpsilonLadder(), DEEP], ids=["default", "deep"])
    def test_same_bytes_as_per_energy_ladders(self, models, ladder):
        # the per-energy ladders are the referee: every grid energy and every
        # set membership that needs no ladder, the profiles' applicability
        # and targets, and wherever both ladders resolve, the statuses,
        # memberships, profile verdicts and values; where classify gives up
        # at an energy, so does the ladder
        statuses, c2, c3, verdicts, compared = set(), set(), set(), set(), 0
        for name, model, grid in models:
            for nu in (None, 0.8):
                rows = list(classify_grid(model, grid, nu))
                for got, ref in zip(rows, _reference_grid(model, grid, nu, ladder), strict=True):
                    assert (got.E, got.in_sigma_hs, got.in_s, got.in_n) \
                        == (ref.E, ref.in_sigma_hs, ref.in_s, ref.in_n), name
                    resolved = [assert_resolved_alike(g, r) for g, r in
                                ((got.rec_chi_l, ref.rec_chi_l), (got.rec_chi_r, ref.rec_chi_r))]
                    for g, r in ((got.rec_chi_l, ref.rec_chi_l), (got.rec_chi_r, ref.rec_chi_r)):
                        assert g.status != UNDETERMINED or r.status == UNDETERMINED, (name, g.E)
                    for key in ("c2", "c3"):
                        g, r = getattr(got, key), getattr(ref, key)
                        assert (g is None) == (r is None)
                        if g is not None:
                            assert (g["applicable"], g["target"]) \
                                == (r["applicable"], r["target"]), (name, got.E)
                    if all(resolved):
                        compared += 1
                        assert (got.in_m0, got.in_ml, got.in_mr, got.c2, got.c3) \
                            == (ref.in_m0, ref.in_ml, ref.in_mr, ref.c2, ref.c3), (name, got.E)
            for c in rows:
                statuses |= {c.rec_chi_l.status, c.rec_chi_r.status}
                c2.add(c.c2["applicable"])
                c3.add(c.c3["applicable"])
            for coupling in ((0.7, 0.8), (0.0, 1.3)):
                cert = certify_no_sc(model, coupling, grid)
                ref = _reference_certify(model, coupling, grid, ladder)
                for got, want in zip(cert.points, ref.points, strict=True):
                    assert got.E == want.E
                    if (want.verdict, want.in_scope) == (NUMERICALLY_UNRESOLVED, False):
                        continue  # an unresolved ladder
                    assert (got.verdict, got.in_scope) == (want.verdict, want.in_scope), \
                        (name, coupling, got.E)
                    for key in ("abs_D", "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"):
                        assert _close(getattr(got, key), getattr(want, key)), (name, got.E, key)
                verdicts |= {p.verdict for p in cert.points}
        assert statuses == {FINITE_NONZERO, ZERO, DIVERGENT, UNDETERMINED}
        assert c2 == c3 == {True, False}
        assert verdicts == {CERTIFIED, OUT_OF_SCOPE, NUMERICALLY_UNRESOLVED}
        assert compared > 1000

    def test_classify_energy_is_the_one_energy_grid(self, models):
        # the real-axis kernel runs only real float operations, so a row has
        # the same bits alone as in a grid, at the far points of -40:40:17
        # (past every piece's moment-series cut) as elsewhere
        for name, model, special in models:
            grid = np.concatenate([np.linspace(-40.0, 40.0, 17), special])
            for E, row in zip(grid.tolist(), classify_grid(model, grid, 0.8), strict=True):
                one = classify_energy(model, E, 0.8)
                assert json.dumps(one.to_dict()) == json.dumps(row.to_dict()), (name, E)
                for a, b in ((one.rec_chi_l, row.rec_chi_l), (one.rec_chi_r, row.rec_chi_r)):
                    assert (a.value is None and b.value is None) \
                        or a.value.tobytes() == b.value.tobytes(), (name, E)
                assert one.feshbach == row.feshbach

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
    BAD = 3

    @pytest.mark.parametrize("side", ["res_l", "res_r"])
    def test_failure_stays_with_its_side_and_energy(self, t2_model, monkeypatch, side):
        grid, bad = self.GRID, self.GRID[self.BAD]
        clean = [c.to_dict() for c in classify_grid(t2_model, grid, 1.0)]
        clean_cert = certify_no_sc(t2_model, (0.7, 1.0), grid).to_dict()["points"]
        assert all(UNDETERMINED not in (p["chi_l"]["status"], p["chi_r"]["status"])
                   for p in clean)
        assert all(p["verdict"] != NUMERICALLY_UNRESOLVED for p in clean_cert)

        table, shapes = t2_model.reservoir_pieces, []

        def sums(E, kernel=table.sums):
            shapes.append(E.shape)
            values = kernel(E)
            values[0 if side == "res_l" else 1][E == bad] = complex(np.inf, np.nan)
            return values

        monkeypatch.setattr(table, "sums", sums)
        rows = [c.to_dict() for c in classify_grid(t2_model, grid, 1.0)]
        key, other = ("chi_l", "chi_r") if side == "res_l" else ("chi_r", "chi_l")
        assert rows[self.BAD][key] == {"E": bad, "status": UNDETERMINED, "value": None,
                                       "im_limit": None, "pole_weight": None, "slope": None}
        assert rows[self.BAD][other] == clean[self.BAD][other]
        assert rows[:self.BAD] + rows[self.BAD + 1:] == clean[:self.BAD] + clean[self.BAD + 1:]

        points = certify_no_sc(t2_model, (0.7, 1.0), grid).to_dict()["points"]
        assert points[self.BAD]["verdict"] == NUMERICALLY_UNRESOLVED
        assert points[:self.BAD] + points[self.BAD + 1:] \
            == clean_cert[:self.BAD] + clean_cert[self.BAD + 1:]
        assert shapes == [grid.shape] * 2  # one pass per grid

    @pytest.mark.parametrize("argv", [["classify", "--grid", "-1:1:9"],
                                      ["certify", "--grid", "1.05:1.95:9"]],
                             ids=["classify", "certify"])
    def test_one_kernel_pass_per_grid(self, monkeypatch, capsys, argv):
        # no ladder and no borel call: both reservoir transforms at E + i0
        # come from one real-axis pass of the kernel over the grid
        calls = []
        for owner, name in ((SpectralMeasure, "borel"), (PieceTable, "sums"),
                            (specbox.boundary, "boundary_value")):
            def counted(*args, name=name, original=getattr(owner, name), **kwargs):
                calls.append((name, np.shape(args[-1])))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        assert main([*argv, "--config", SAMPLE]) == 0
        capsys.readouterr()
        assert calls == [("sums", (9,))]


class TestProfileRounding:
    """c2 and c3 do not apply where an input of their target is 0 up to
    rounding.  On the sample a(-1) = 0 and b(1) = 0 exactly (h = [[1, 0.5],
    [0.5, -1]], delta_l = e_1, delta_r = e_2), and the computed a(-1) and
    b(1) are rounding: c2's target read -5.55e-17 at E = -1 and c3's
    -2^52 at E = 1.  So does a complex rotation of H_S and the deltas."""

    UNSET = {"applicable": False, "satisfied": False, "target": None}

    @staticmethod
    def _rotated(model, seed):
        u, _ = np.linalg.qr(np.random.default_rng([21, seed]).normal(size=(2, 2, 2)) @ [1, 1j])
        system = model.system
        h = u @ system.h_s @ u.conj().T
        return BlackBoxModel(specbox.blackbox.SystemBlock((h + h.conj().T) / 2,
                                                          u @ system.delta_l, u @ system.delta_r),
                             model.res_l, model.res_r)

    @pytest.mark.parametrize("seed", [None, *range(12)],
                             ids=["sample", *(f"rotated{k}" for k in range(12))])
    def test_rounding_input_is_not_applicable(self, seed):
        model = build_run_config(load_config(SAMPLE)).model
        if seed is not None:
            model = self._rotated(model, seed)
        minus, plus, generic = classify_grid(model, [-1.0, 1.0, 0.3], 1.0)
        assert minus.c2 == self.UNSET and minus.c3["applicable"]
        assert plus.c3 == self.UNSET and plus.c2["applicable"]
        assert generic.c2["applicable"] and generic.c3["applicable"]
        # the targets that apply are far above the rounding
        assert 1e-3 < abs(minus.c3["target"]) < 1e3 and 1e-3 < abs(plus.c2["target"]) < 1e3

    def test_the_cli_prints_them_not_applicable(self, capsys):
        assert main(["classify", "--config", SAMPLE, "--grid", "-1:1:3", "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [(p["c2"]["applicable"], p["c3"]["applicable"]) for p in points] \
            == [(False, True), (True, True), (True, False)]
