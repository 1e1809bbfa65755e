"""Untimed correctness checks: every request's output against a reference.

Each ``check_*`` function returns ``(problems, unresolved, records)``: the
problems found (none means the output passed), and how many of the output's
per-energy records are UNDETERMINED or NUMERICALLY_UNRESOLVED out of how
many carry a status.  The references are independent of the code path under test:
the README's exit-code and column contracts (written out here, not imported
from the CLI), the Plemelj formula Im = pi p(E) evaluated from the piece
polynomials, the printed closed forms against the 4x4 solve, the
discretization oracle, and the rank-one average pi.  Tolerances are those of
the acceptance suite.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from specbox import averaging, resolvent
from specbox.blackbox import TAGS

HEADERS = {
    "validate": ["key", "value"],
    "greens": ["z_re", "z_im", "phi", "psi", "g_re", "g_im"],
    "classify": ["E", "in_M0", "in_Ml", "in_Mr", "in_sigma_hs", "in_S", "in_N",
                 "status_chi_l", "chi_l_re", "chi_l_im",
                 "status_chi_r", "chi_r_re", "chi_r_im",
                 "c2_applicable", "c2_satisfied", "c3_applicable", "c3_satisfied"],
    "density": ["E", "phi", "status", "ac_density", "point_mass"],
    "average": ["E", "phi", "closed", "quadrature", "rel_diff", "ladder_status"],
    "certify": ["E", "verdict", "in_scope", "abs_D",
                "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"],
}
JSON_KEYS = {
    "validate": {"command", "coupling", "seed", "diagnostics", "exceptional_sets"},
    "greens": {"command", "coupling", "seed", "im_z", "table"},
    "classify": {"command", "coupling", "seed", "points"},
    "density": {"command", "coupling", "seed", "points", "atom_scan"},
    "average": {"command", "coupling", "seed", "eps", "table", "abs_continuity"},
    "certify": {"command", "coupling", "seed", "certificate"},
    "remark2": {"command", "coupling", "seed", "nodes_per_piece", "residual",
                "weight_estimate", "point_mass_at_zero", "cross_check_abs_diff",
                "expected_weight", "exceptional_sets"},
}
LADDER_STATUSES = {"FINITE_NONZERO", "ZERO", "DIVERGENT", "UNDETERMINED"}
VERDICTS = {"CERTIFIED", "OUT_OF_SCOPE", "NUMERICALLY_UNRESOLVED"}

ORACLE_TOL = 1e-7      # acceptance criterion 1
# Nodes per piece for the oracle, coarsest first (400 is criterion 1's).  Its
# own discretization error grows as z nears the axis: at 400 it reached
# 1.7e-7 at Im z = 0.057 on one seeded model, and 5e-14 at 800.
ORACLE_NODES = (400, 800, 2000)
CLOSED_TOL = 1e-9      # printed closed forms against the 4x4 solve
# The next two are relative to the modulus of the complex boundary value, since
# roundoff in its imaginary part scales with the whole value.
PLEMELJ_TOL = 1e-6     # Im chi(E + i0) = pi p(E)
DENSITY_TOL = 1e-5     # ladder limit against the extrapolated closed form
RANK_ONE_TOL = 1e-8    # acceptance criterion 3
ZERO_MODE_TOL = 1e-4   # acceptance criterion 4
SIGN_SLACK = 1e-12
MATCH_TOL = 1e-9
NEAR_AXIS = 1e-9


def axis_limit(f, E):
    """f(E + i0) from f(E + i eta) and f(E + i eta / 2), linear in eta."""
    return 2 * complex(f(complex(E, NEAR_AXIS / 2))) - complex(f(complex(E, NEAR_AXIS)))


def _num(text):
    return None if text == "" else float(text)


def _bool(text):
    return {"true": True, "false": False, "": None}[text]


def parse(command, fmt, text):
    """Output text -> (rows as dicts, JSON payload or None).  Raises
    ValueError when the text does not follow the documented format."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows or rows[0] != HEADERS[command]:
            raise ValueError(f"CSV header {rows[:1]} is not the documented one")
        return [dict(zip(rows[0], r)) for r in rows[1:]], None
    payload = json.loads(text)
    missing = JSON_KEYS[command] - set(payload)
    if missing:
        raise ValueError(f"JSON lacks keys {sorted(missing)}")
    return None, payload


def expected_exit(strict, unresolved):
    """README contract: 2 under --strict when anything is unresolved, else 0."""
    return 2 if strict and unresolved else 0


def _near(E, points):
    return any(abs(E - p) <= MATCH_TOL * max(1.0, abs(p)) for p in points)


def density_at(reservoir, E):
    """p(E) from the piece polynomials, 0 off the pieces; None at an edge or
    an atom, where no finite Plemelj value exists."""
    if any(abs(E - x) <= MATCH_TOL for x, _ in reservoir["atoms"]):
        return None
    for piece in reservoir["pieces"]:
        a, b = piece["interval"]
        if E == a or E == b:
            return None
        if a < E < b:
            return float(np.polynomial.polynomial.polyval(E, piece["poly"]))
    return 0.0


def sigma_hs(model_doc):
    h = np.array([[complex(*c) for c in row] for row in model_doc["system"]["matrix"]])
    return [float(x) for x in np.linalg.eigvalsh(h)]


# -- classify ---------------------------------------------------------------

def _classify_records(rows, payload):
    if rows is not None:
        out = []
        for r in rows:
            rec = {"E": float(r["E"]), "in_sigma_hs": _bool(r["in_sigma_hs"])}
            for side in ("l", "r"):
                re_, im_ = _num(r[f"chi_{side}_re"]), _num(r[f"chi_{side}_im"])
                rec[side] = (r[f"status_chi_{side}"],
                             None if re_ is None else complex(re_, im_))
            out.append(rec)
        return out
    out = []
    for p in payload["points"]:
        rec = {"E": p["E"], "in_sigma_hs": p["in_sigma_hs"]}
        for side in ("l", "r"):
            chi = p[f"chi_{side}"]
            val = chi["value"]
            rec[side] = (chi["status"], None if val is None else complex(*val))
        out.append(rec)
    return out


def check_classify(doc, grid, strict, code, text, fmt):
    rows, payload = parse("classify", fmt, text)
    recs = _classify_records(rows, payload)
    problems = []
    if [r["E"] for r in recs] != [float(E) for E in grid]:
        return ["classify rows do not follow the grid"], 0, 0
    sigma = sigma_hs(doc["model"])
    unresolved = 0
    for r in recs:
        if "UNDETERMINED" in (r["l"][0], r["r"][0]):
            unresolved += 1
        if r["in_sigma_hs"] != _near(r["E"], sigma):
            problems.append(f"in_sigma_hs wrong at E = {r['E']}")
        for side, res in (("l", "reservoir_left"), ("r", "reservoir_right")):
            status, value = r[side]
            if status not in LADDER_STATUSES:
                problems.append(f"unknown status {status!r}")
            if status != "FINITE_NONZERO":
                continue
            p = density_at(doc["model"][res], r["E"])
            if p is not None:
                ref = math.pi * p
                if abs(value.imag - ref) > PLEMELJ_TOL * max(1.0, abs(value)):
                    problems.append(f"Im chi_{side}({r['E']}) = {value.imag} != pi p(E) = {ref}")
    if code != expected_exit(strict, unresolved):
        problems.append(f"exit {code}, contract says {expected_exit(strict, unresolved)}")
    return problems, unresolved, len(recs)


# -- density ----------------------------------------------------------------

def check_density(doc, grid, strict, code, text, fmt, model, coupling):
    rows, payload = parse("density", fmt, text)
    if rows is not None:
        recs = [{"E": float(r["E"]), "phi": r["phi"], "status": r["status"],
                 "ac_density": _num(r["ac_density"]), "point_mass": _num(r["point_mass"])}
                for r in rows]
    else:
        recs = list(payload["points"]) + [
            {"E": a["E"], "phi": a["phi"], "status": "ATOM_SCAN", "ac_density": None,
             "point_mass": a["weight"]} for a in payload["atom_scan"]]
    grid_recs = [r for r in recs if r["status"] != "ATOM_SCAN"]
    atoms = [r for r in recs if r["status"] == "ATOM_SCAN"]
    expected = [(float(E), phi) for E in grid for phi in TAGS]
    if [(r["E"], r["phi"]) for r in grid_recs] != expected:
        return ["density rows do not follow grid x tags"], 0, 0
    problems, unresolved = [], 0
    for r in grid_recs:
        status = r["status"]
        if status not in LADDER_STATUSES:
            problems.append(f"unknown status {status!r}")
        if status == "UNDETERMINED" or (status == "DIVERGENT" and r["point_mass"] is None):
            unresolved += 1
        if status == "FINITE_NONZERO":
            g0 = axis_limit(lambda z: resolvent.green_closed(model, coupling, r["phi"], z), r["E"])
            ref = max(g0.imag / math.pi, 0.0)
            if abs(r["ac_density"] - ref) > DENSITY_TOL * max(1.0, abs(g0)):
                problems.append(f"ac density {r['ac_density']} != {ref} at {r['E']}")
        elif status == "ZERO" and r["ac_density"] != 0.0:
            problems.append(f"ZERO row with density {r['ac_density']}")
    norms = {"delta_l": model.system.delta_l, "delta_r": model.system.delta_r}
    for a in atoms:
        mass = float(np.vdot(norms[a["phi"]], norms[a["phi"]]).real)
        if not 0.0 < a["point_mass"] <= mass * (1 + 1e-9):
            problems.append(f"atom weight {a['point_mass']} outside (0, {mass}]")
    if code != expected_exit(strict, unresolved):
        problems.append(f"exit {code}, contract says {expected_exit(strict, unresolved)}")
    return problems, unresolved, len(grid_recs)


# -- certify ----------------------------------------------------------------

def check_certify(doc, grid, strict, code, text, fmt, model, coupling, d_floor=1e-8):
    rows, payload = parse("certify", fmt, text)
    if rows is not None:
        pts = [{"E": float(r["E"]), "verdict": r["verdict"], "in_scope": _bool(r["in_scope"]),
                "abs_D": _num(r["abs_D"]),
                **{k: _num(r[k]) for k in ("aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs")}}
               for r in rows]
    else:
        pts = payload["certificate"]["points"]
        counts = payload["certificate"]["counts"]
        tally = {v: sum(p["verdict"] == v for p in pts) for v in VERDICTS}
        if counts != tally:
            return [f"certificate counts {counts} != tally {tally}"], 0, 0
    if [p["E"] for p in pts] != [float(E) for E in grid]:
        return ["certify rows do not follow the grid"], 0, 0
    problems, unresolved = [], 0
    for p in pts:
        if p["verdict"] not in VERDICTS:
            problems.append(f"unknown verdict {p['verdict']!r}")
        if p["verdict"] == "NUMERICALLY_UNRESOLVED":
            unresolved += 1
        if p["verdict"] != "CERTIFIED":
            continue
        if not (p["in_scope"] and p["abs_D"] > d_floor
                and p["aux1_rhs"] >= -SIGN_SLACK and p["aux2_rhs"] >= -SIGN_SLACK
                and p["aux1_lhs"] <= SIGN_SLACK and p["aux2_lhs"] <= SIGN_SLACK):
            problems.append(f"CERTIFIED at {p['E']} without the sign structure")
        ref = abs(axis_limit(lambda z: resolvent.det_D(model, coupling, z), p["E"]))
        if abs(p["abs_D"] - ref) > DENSITY_TOL * max(1.0, ref):
            problems.append(f"|D| {p['abs_D']} != {ref} at {p['E']}")
    if code != expected_exit(strict, unresolved):
        problems.append(f"exit {code}, contract says {expected_exit(strict, unresolved)}")
    return problems, unresolved, len(pts)


# -- greens -----------------------------------------------------------------

def _pair_error(value, ref, scale):
    return abs(value - ref) / max(abs(ref), 1e-2 * scale)


def _worst(oracle, value_of):
    scale = max(max(abs(v) for v in oracle.values()), 1e-12)
    return max(_pair_error(value_of(k), v, scale) for k, v in oracle.items())


def oracle_error(model, coupling, z, value_of, oracle=None):
    """Worst pair error of ``value_of((phi, psi))`` against the oracle at z,
    criterion 1's measure.  While it exceeds ORACLE_TOL the discretization is
    refined, so that the oracle's own error is not taken for the program's.
    ``oracle`` is an already computed coarsest solve, if any."""
    for nodes in ORACLE_NODES:
        if oracle is None:
            oracle = resolvent.green_oracle_all(resolvent.discretize(model, nodes), coupling, z)
        worst = _worst(oracle, value_of)
        if worst <= ORACLE_TOL:
            break
        oracle = None
    return worst


def check_greens(grid, im_z, code, text, fmt, model, coupling, rng):
    rows, payload = parse("greens", fmt, text)
    if rows is not None:
        table = {}
        for r in rows:
            z = complex(float(r["z_re"]), float(r["z_im"]))
            table.setdefault(z, {})[(r["phi"], r["psi"])] = complex(float(r["g_re"]), float(r["g_im"]))
    else:
        table = {complex(*e["z"]): {tuple(k.split("|")): complex(*v) for k, v in e["pairs"].items()}
                 for e in payload["table"]}
    zs = [complex(float(E), im_z) for E in grid]
    if list(table) != zs or any(len(pairs) != 16 for pairs in table.values()):
        return ["greens table does not hold 16 pairs per grid energy"], 0, 0
    problems = []
    if code != 0:
        problems.append(f"exit {code}, contract says 0")
    for z, pairs in table.items():
        scale = max(abs(v) for v in pairs.values())
        for phi in TAGS:
            ref = complex(resolvent.green_closed(model, coupling, phi, z))
            if _pair_error(pairs[(phi, phi)], ref, scale) > CLOSED_TOL:
                problems.append(f"G({phi},{phi},{z}) differs from the closed form")
    for k in rng.choice(len(zs), size=1):
        z = zs[k]
        worst = oracle_error(model, coupling, z, table[z].get)
        if worst > ORACLE_TOL:
            problems.append(f"greens at {z} differ from the oracle by {worst:.2e}")
    return problems, 0, 0


# -- averaging --------------------------------------------------------------

_PARTNER = {"chi_l": "delta_l", "delta_l": "chi_l", "chi_r": "delta_r", "delta_r": "chi_r"}


def averaged_reference(model, nu, phi, E):
    """pi |Re sqrt(v / w)| at E + i0, with v, w from the printed closed forms."""
    cp = resolvent.CouplingParams(0.0, nu) if phi in ("chi_l", "delta_l") \
        else resolvent.CouplingParams(nu, 0.0)

    def averaged(z):
        v = complex(resolvent.green_closed(model, cp, phi, z))
        w = complex(resolvent.green_closed(model, cp, _PARTNER[phi], z))
        return math.pi * abs(np.sqrt(v / w).real)

    return axis_limit(averaged, E).real


def check_scan(report, model, nu, grid):
    problems = []
    if report.verdict not in ("PASS", "FAIL", "VACUOUS"):
        problems.append(f"unknown verdict {report.verdict!r}")
    seen = {e["E"] for e in report.excluded} | {p["E"] for p in report.points}
    if seen != {float(E) for E in grid}:
        problems.append("scan does not cover its grid")
    for p in report.points:
        if p["status"] not in LADDER_STATUSES:
            problems.append(f"unknown status {p['status']!r}")
        if p["status"] == "FINITE_NONZERO":
            ref = averaged_reference(model, nu, p["phi"], p["E"])
            if abs(p["limit"] - ref) > DENSITY_TOL * max(1.0, ref):
                problems.append(f"averaged limit {p['limit']} != {ref} at {p['E']}")
    unresolved = sum(p["status"] == "UNDETERMINED" for p in report.points)
    return problems, unresolved, len(report.points)


def check_duel(closed, quadr, quad_tol, measure, E, eps):
    problems = []
    if closed < 0.0:
        problems.append(f"closed form {closed} is negative")
    if abs(closed - quadr) > quad_tol * max(abs(closed), abs(quadr)):
        problems.append(f"duel: closed {closed} vs quadrature {quadr}")
    avg = averaging.rank_one_average(measure, E, eps)
    if abs(avg - math.pi) > RANK_ONE_TOL:
        problems.append(f"rank-one average {avg} != pi")
    return problems, 0, 0


def check_oracle(oracle, closed, model, coupling, z):
    index = {tag: i for i, tag in enumerate(TAGS)}
    worst = oracle_error(model, coupling, z,
                         lambda k: closed[index[k[0]], index[k[1]]], oracle)
    return ([] if worst <= ORACLE_TOL else [f"oracle differs from green_all by {worst:.2e}"]), 0, 0


# -- cli_cold extras --------------------------------------------------------

def check_validate(code, text):
    parse("validate", "json", text)
    return ([] if code == 0 else [f"exit {code}, contract says 0"]), 0, 0


def check_average(code, text, quad_tol):
    _, payload = parse("average", "json", text)
    problems = [] if code == 0 else [f"exit {code}, contract says 0"]
    for e in payload["table"]:
        if e["closed"] < 0 or e["rel_diff"] > quad_tol:
            problems.append(f"average at {e['E']}/{e['phi']}: rel_diff {e['rel_diff']}")
    unresolved = sum(e["ladder_status"] == "UNDETERMINED" for e in payload["table"])
    return problems, unresolved, len(payload["table"])


def check_remark2(code, text, lam, nu):
    _, p = parse("remark2", "json", text)
    problems = [] if code == 0 else [f"exit {code}, contract says 0"]
    expected = 1.0 / (1.0 + lam**2 + nu**2)
    if p["residual"] > 1e-10:
        problems.append(f"zero-mode residual {p['residual']}")
    for key in ("weight_estimate", "point_mass_at_zero"):
        if abs(p[key] - expected) > ZERO_MODE_TOL:
            problems.append(f"{key} {p[key]} != {expected}")
    return problems, 0, 0
