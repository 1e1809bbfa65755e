"""classify and certify read the reservoir transforms on the (energy x eps)
lattice: the same bytes as the per-energy ladders, one ``borel`` call per
side and block, and a failure that stays with its side and energy."""

import json
from pathlib import Path

import numpy as np
import pytest

import specbox.boundary
import specbox.certify
from specbox.blackbox import BlackBoxModel
from specbox.boundary import (
    DIVERGENT,
    FINITE_NONZERO,
    UNDETERMINED,
    ZERO,
    EnergyClassification,
    EpsilonLadder,
    Tolerances,
    _c_set_diagnostics,
    _near,
    boundary_value,
    classify_energy,
    classify_grid,
)
from specbox.certify import NUMERICALLY_UNRESOLVED, certify_no_sc
from specbox.cli import main
from specbox.config import build_run_config, load_config
from specbox.measures import SpectralMeasure

from conftest import make_t2_system, random_model, two_band_measure

SAMPLE = str(Path(__file__).resolve().parents[1] / "sample-config.json")
DEEP = EpsilonLadder(eps_min=1e-30)  # 97 rungs: 10 energies a block


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
        c2, c3 = _c_set_diagnostics(model, E, float(nu), rec_l, rec_r, in_sigma)
    return EnergyClassification(
        E=E, in_m0=in_m0, in_ml=in_ml, in_mr=in_mr, in_sigma_hs=in_sigma,
        in_s=_near(E, exc.s_zeros),
        in_n=None if exc.degenerate else _near(E, exc.n_points),
        rec_chi_l=rec_l, rec_chi_r=rec_r, c2=c2, c3=c3,
    )


def _reference_grid(model, grid, nu=None, ladder=EpsilonLadder(), *, tol=Tolerances()):
    for E in np.asarray(grid, dtype=float).tolist():
        yield _reference(model, E, nu, ladder, tol=tol)


def _special_grid(model, rng):
    """Band edges, reservoir atoms, sigma(H_S), S and the points of N, plus
    uniform energies around them."""
    special = [x for m in (model.res_l, model.res_r) for p in m.pieces for x in (p.a, p.b)]
    special += [x for m in (model.res_l, model.res_r) for x, _ in m.atoms]
    exc = model.exceptional_sets
    special += list(exc.sigma_hs) + list(exc.s_zeros)
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
    def test_same_bytes_as_per_energy_ladders(self, models, ladder, monkeypatch):
        statuses, c2, c3 = set(), set(), set()
        for name, model, grid in models:
            for nu in (None, 0.8):
                rows = list(classify_grid(model, grid, nu, ladder))
                assert _dumps(rows) == _dumps(_reference_grid(model, grid, nu, ladder)), \
                    (name, nu)
            for c in rows:
                statuses |= {c.rec_chi_l.status, c.rec_chi_r.status}
                c2.add(c.c2["applicable"])
                c3.add(c.c3["applicable"])
            cert = json.dumps(certify_no_sc(model, (0.7, 0.8), grid, ladder).to_dict())
            with monkeypatch.context() as patch:
                patch.setattr(specbox.certify, "classify_grid", _reference_grid)
                reference = json.dumps(certify_no_sc(model, (0.7, 0.8), grid, ladder).to_dict())
            assert cert == reference, name
        assert statuses == {FINITE_NONZERO, ZERO, DIVERGENT, UNDETERMINED}
        assert c2 == c3 == {True, False}

    def test_classify_energy_is_the_one_energy_grid(self, t2_model):
        for E in (-1.0, 0.0, 0.3, 1.5):
            assert classify_energy(t2_model, E, 1.0).to_dict() \
                == _reference(t2_model, E, 1.0).to_dict()


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
