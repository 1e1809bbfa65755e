"""The model's exact symmetries as tests of every command's whole output.

- Mirror: swap the reservoirs, delta_l <-> delta_r and lam <-> nu.  Rows
  swap chi_l <-> chi_r and delta_l <-> delta_r; so do classify's reservoir
  records and M_l <-> M_r, certify's two identities and the reported bond
  strengths.  classify's c2 and c3 profiles read the left transform against
  the right one at nu, so the mirror maps them onto profiles no command
  prints, and they are left out of the mirror's comparison.
- Unitary: H_S -> U H_S U* and delta -> U delta for a complex unitary U.
  Every output is unchanged.

Each map runs density, average, classify and certify in process through the
CLI on the sample config and on random models, and compares the whole JSON
output.  Strings, booleans and None (statuses, verdicts, reasons, set
memberships, counts) must be equal, and so must the number of rows and
atoms.  Numbers must agree within the bounds below.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel, SystemBlock
from specbox.cli import main
from specbox.config import build_run_config

from conftest import model_doc, random_model

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = json.loads((ROOT / "sample-config.json").read_text())
COMMANDS = ("density", "average", "classify", "certify")
SWAP = {CHI_L: CHI_R, CHI_R: CHI_L, DELTA_L: DELTA_R, DELTA_R: DELTA_L}

#: relative bound on every number, on top of the absolute ones below
REL = 1e-9
#: absolute bound on a density or averaged-scan limit: where the value is
#: exactly 0 (a gap row) each side prints its own rounding noise.  Seen: up
#: to 5.5e-15 on the sample, 1.3e-13 (density) and 1.3e-12 (scan limit) on
#: the random models
GAP_NOISE = 1e-11
#: absolute bound on a duel's rel_diff, which is rounding on both sides
REL_DIFF_NOISE = 1e-10


def _mirror(model: BlackBoxModel) -> BlackBoxModel:
    system = model.system
    return BlackBoxModel(SystemBlock(system.h_s, system.delta_r, system.delta_l),
                         model.res_r, model.res_l)


def _rotate(model: BlackBoxModel, rng: np.random.Generator) -> BlackBoxModel:
    n = model.system.dim
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    h = u @ model.system.h_s @ u.conj().T
    system = SystemBlock((h + h.conj().T) / 2, u @ model.system.delta_l,
                         u @ model.system.delta_r)
    return BlackBoxModel(system, model.res_l, model.res_r)


def _run(command, model, lam, nu, grid, tmp_path, capsys):
    doc = copy.deepcopy(SAMPLE)
    doc.update(model=model_doc(model), coupling={"lambda": lam, "nu": nu},
               grid={"list": list(grid)})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--config", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), err
    return json.loads(out)


def _by_row(rows, key=lambda row: (row["E"], TAGS.index(row["phi"]))):
    return sorted(rows, key=key)


def _swap_tags(rows):
    return _by_row([{**row, "phi": SWAP[row["phi"]]} for row in rows])


def _mirrored(command: str, out: dict) -> dict:
    """The output the mirrored model must print, from the model's own."""
    out = copy.deepcopy(out)
    out["coupling"] = {"lambda": out["coupling"]["nu"], "nu": out["coupling"]["lambda"]}
    if command == "density":
        out["points"] = _swap_tags(out["points"])
        out["atom_scan"] = _swap_tags(out["atom_scan"])
    elif command == "average":
        out["table"] = _swap_tags(out["table"])
        scan = out["abs_continuity"]
        scan["nu"], scan["lam"] = scan["lam"], scan["nu"]
        scan["points"] = _swap_tags(scan["points"])
        scan["atoms"] = _swap_tags(scan["atoms"])
    elif command == "classify":
        for p in out["points"]:
            p["in_Ml"], p["in_Mr"] = p["in_Mr"], p["in_Ml"]
            p["chi_l"], p["chi_r"] = p["chi_r"], p["chi_l"]
            del p["c2"], p["c3"]
    else:
        cert = out["certificate"]
        cert["lambda"], cert["nu"] = cert["nu"], cert["lambda"]
        for p in cert["points"]:
            for side in ("lhs", "rhs"):
                p[f"aux1_{side}"], p[f"aux2_{side}"] = p[f"aux2_{side}"], p[f"aux1_{side}"]
    return out


def _canonical(command: str, out: dict) -> dict:
    """The output with its atom lists in one order on both sides: by E
    within each tag, where the scan lists atoms by tag, then E."""
    out = copy.deepcopy(out)
    if command == "density":
        out["atom_scan"] = _by_row(out["atom_scan"])
    if command == "average":
        out["abs_continuity"]["atoms"] = _by_row(out["abs_continuity"]["atoms"])
    return out


ABSOLUTE = {"ac_density": GAP_NOISE, "limit": GAP_NOISE, "rel_diff": REL_DIFF_NOISE}


def assert_same_output(want, got, path="", key=None):
    """Equal structure and non-numbers; numbers within the bounds above."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and want.keys() == got.keys(), path
        for k in want:
            assert_same_output(want[k], got[k], f"{path}.{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(want) == len(got), path
        for i, (w, g) in enumerate(zip(want, got)):
            assert_same_output(w, g, f"{path}[{i}]", key)
    elif isinstance(want, float) and isinstance(got, float):
        bound = REL * max(abs(want), abs(got)) + ABSOLUTE.get(key, 0.0)
        assert abs(want - got) <= bound, (path, want, got)
    else:
        assert want == got, path


def _cases():
    """The sample config on -3:3:13, which holds its band edges, and ten
    random models with one-sided bands and some atoms on -4.5:4.5:11 at
    another coupling; average, whose duels cost the most, on about half as
    many points."""
    yield pytest.param(build_run_config(SAMPLE).model, 0.7, 1.0, (-3, 3, 13, 7), id="sample")
    for k in range(10):
        model = random_model(np.random.default_rng([11, k]), max_dim=4, max_pieces=2)
        yield pytest.param(model, 0.6, 1.3, (-4.5, 4.5, 11, 6), id=f"rng-11-{k}")


@pytest.mark.parametrize("model, lam, nu, grids", list(_cases()))
@pytest.mark.parametrize("command", COMMANDS)
def test_mirror_and_unitary_maps(command, model, lam, nu, grids, tmp_path, capsys):
    start, stop, points, average_points = grids
    grid = np.linspace(start, stop, average_points if command == "average" else points)
    out = _run(command, model, lam, nu, grid, tmp_path, capsys)
    mirrored = _run(command, _mirror(model), nu, lam, grid, tmp_path, capsys)
    if command == "classify":
        for p in mirrored["points"]:
            del p["c2"], p["c3"]
    assert_same_output(_canonical(command, _mirrored(command, out)),
                       _canonical(command, mirrored))
    rotated = _run(command, _rotate(model, np.random.default_rng([21, model.system.dim])),
                   lam, nu, grid, tmp_path, capsys)
    assert_same_output(_canonical(command, out), _canonical(command, rotated))
