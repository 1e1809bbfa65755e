"""The system pairs and d = a b - |c|^2 over a grid: each energy's value has
the same bits however many energies share the call, classify and certify
read the pairs from one ``green_pairs`` call and d from one ``d`` call per
grid, and a coupling whose profile target or certificate value is not
finite in double precision is reported, not emitted as inf or nan."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from specbox.blackbox import DELTA_L, DELTA_R, SystemBlock
from specbox.certify import NUMERICALLY_UNRESOLVED
from specbox.cli import main

from conftest import random_system

SAMPLE = str(Path(__file__).resolve().parents[1] / "sample-config.json")
PAIRS = [(DELTA_L, DELTA_L), (DELTA_L, DELTA_R), (DELTA_R, DELTA_L), (DELTA_R, DELTA_R)]
FIELDS = ["abs_D", "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"]


def _grid(system, rng):
    """Uniform energies around sigma(H_S), and energies 1e-10 and 1e-6 from
    each eigenvalue."""
    poles = system.poles
    near = np.concatenate([poles + 1e-10, poles - 1e-6])
    return np.concatenate([rng.uniform(poles.min() - 1.0, poles.max() + 1.0, 40), near])


@pytest.fixture(scope="module")
def systems():
    rng = np.random.default_rng(18)
    out = []
    while len(out) < 20:
        system = random_system(rng, max_dim=8)
        if system.dim >= 2:
            out.append((system, _grid(system, rng)))
    return out


class TestBatchSizeIndependence:
    def test_d_has_the_one_energy_bits(self, systems):
        for system, grid in systems:
            one = np.array([system.d(E) for E in grid.tolist()])
            assert system.d(grid).tobytes() == one.tobytes()
            # the one-energy value is the one-row product u M
            u = 1.0 / (system.poles - grid[:, None])
            rows = [0.5 * np.sum((u[k:k + 1] @ system.minors) * u[k:k + 1])
                    for k in range(grid.size)]
            assert one.tobytes() == np.array(rows).tobytes()

    def test_green_has_the_one_energy_bits(self, systems):
        for system, grid in systems:
            for z in (grid, grid + 0.01j):
                for phi, psi in PAIRS:
                    one = np.array([system.green(phi, psi, x) for x in z.tolist()])
                    assert system.green(phi, psi, z).tobytes() == one.tobytes()


class TestCallCounts:
    @pytest.mark.parametrize("argv", [
        ["classify", "--grid", "-1:1:9", "--nu", "1"],
        ["certify", "--grid", "1.05:1.95:9"],
    ], ids=["classify", "certify"])
    def test_one_call_per_pair_and_grid(self, monkeypatch, capsys, argv):
        calls = {"green": 0, "green_pairs": 0, "d": 0}

        def count(name):
            fn = getattr(SystemBlock, name)

            def counted(self, *args):
                calls[name] += 1
                return fn(self, *args)
            return counted

        for name in calls:
            monkeypatch.setattr(SystemBlock, name, count(name))
        assert main([*argv, "--config", SAMPLE]) == 0
        capsys.readouterr()
        assert calls == {"green": 0, "green_pairs": 1, "d": 1}


def _run(capsys, argv):
    code = main([*argv, "--config", SAMPLE])
    out, err = capsys.readouterr()
    return code, out, err


class TestNonFinite:
    @pytest.mark.parametrize("nu", ["0", "1e-155", "1e-162", "1e-170"])
    def test_underflowing_nu_squared_leaves_the_profiles_unapplied(self, capsys, nu):
        argv = ["classify", "--grid", "0.5:0.5:1", "--nu", nu]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        (point,) = json.loads(out)["points"]
        for key in ("c2", "c3"):
            assert point[key] == {"applicable": False, "satisfied": False, "target": None}
        code, out, err = _run(capsys, [*argv, "--format", "csv"])
        assert code == 0, err
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["c2_applicable"] == row["c3_applicable"] == "false"

    @pytest.mark.parametrize("flags", [["--lambda", "1e100"], ["--lambda", "1e154"],
                                       ["--nu", "1e100"]], ids=["lam1e100", "lam1e154", "nu1e100"])
    def test_non_finite_certificate_value_is_unresolved(self, capsys, flags):
        argv = ["certify", "--grid", "1.5:1.5:1", *flags]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        cert = json.loads(out)["certificate"]
        (point,) = cert["points"]
        assert point["verdict"] == NUMERICALLY_UNRESOLVED and point["in_scope"]
        assert None in [point[f] for f in FIELDS]
        assert cert["min_abs_D"] is None
        code, out, err = _run(capsys, [*argv, "--format", "csv"])
        assert code == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["verdict"] == NUMERICALLY_UNRESOLVED and row["in_scope"] == "true"
        assert [row[f] == "" for f in FIELDS] == [point[f] is None for f in FIELDS]
        assert all(v not in ("inf", "-inf", "nan") for v in row.values())
        assert _run(capsys, [*argv, "--strict"])[0] == 2
