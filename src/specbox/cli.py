"""Command-line interface.

Subcommands: validate, greens, classify, density, average, certify, and
scenario remark2.  One JSON config document (see README) plus flag overrides
drives every run; results are emitted as JSON or RFC-4180 CSV with stable
column sets.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical-resolution
failure under --strict (any UNDETERMINED or NUMERICALLY_UNRESOLVED outcome, or
an averaged-transform duel whose rel_diff exceeds quad_tol or whose quadrature
stalled), 3 internal error.
"""

from __future__ import annotations

import functools
import sys
import traceback

import click

from .averaging import (
    averaged_poisson_closed,
    averaged_poisson_quadrature,
    verify_abs_continuity,
)
from .blackbox import CHI_L, DELTA_L, DELTA_R, TAGS
from .boundary import (
    DIVERGENT,
    UNDETERMINED,
    classify_energy,
    density_from_record,
    diagonal_records,
    point_mass,
    point_mass_scan,
)
from .certify import NUMERICALLY_UNRESOLVED, certify_no_sc, eigen_residual, remark2_model
from .config import RunConfig, build_run_config, load_config
from .emit import render_csv, render_json, write_output
from .errors import AccuracyError, ConfigError, SpecboxError
from .resolvent import green_all

__all__ = ["cli", "main"]


class StrictFailure(SpecboxError):
    """Raised when --strict is set and an unresolved outcome occurred."""


_OPTIONS = [
    click.option("--config", "config_path", type=str, default=None,
                 help="Path to the JSON run configuration."),
    click.option("--lambda", "lam", type=float, default=None,
                 help="Left bond strength (overrides config)."),
    click.option("--nu", type=float, default=None,
                 help="Right bond strength (overrides config)."),
    click.option("--grid", type=str, default=None,
                 help="Energy grid a:b:n (overrides config)."),
    click.option("--eps-min", type=float, default=None,
                 help="Smallest ladder epsilon."),
    click.option("--eps-max", type=float, default=None,
                 help="Largest ladder epsilon."),
    click.option("--nodes", type=int, default=None,
                 help="Oracle quadrature nodes per density piece."),
    click.option("--strict", is_flag=True, default=False,
                 help="Exit 2 if any outcome is numerically unresolved."),
    click.option("--seed", type=int, default=None,
                 help="PRNG seed recorded in the output."),
    click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
                 default=None, help="Output format (default json)."),
    click.option("--out", "out_path", type=str, default=None,
                 help="Write output to this path instead of stdout."),
]


def _run_config(command):
    """Give ``command(cfg)`` the shared flags.

    The flags other than --config and --strict are written over the config
    document, which is then parsed into the RunConfig passed to the command.
    The command returns its number of unresolved outcomes (None counts as
    none); under --strict a nonzero count raises StrictFailure (exit 2).
    """
    @functools.wraps(command)
    def run(config_path, strict, **overrides):
        raw = load_config(config_path) if config_path else None
        unresolved = command(build_run_config(raw, overrides))
        if strict and unresolved:
            raise StrictFailure(f"{unresolved} unresolved outcome(s) under --strict")

    for option in reversed(_OPTIONS):
        run = option(run)
    return run


def _emit(cfg: RunConfig, payload: dict, header: list[str], rows: list[list]) -> None:
    if cfg.out_format == "csv":
        write_output(render_csv(header, rows), cfg.out_path)
    else:
        write_output(render_json(payload), cfg.out_path)


def _columns(header: list[str], records: list[dict]) -> list[list]:
    """CSV rows of records whose keys are the CSV columns."""
    return [[rec[key] for key in header] for rec in records]


def _meta(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "coupling": {"lambda": cfg.coupling.lam, "nu": cfg.coupling.nu},
        "seed": cfg.seed,
    }


@click.group()
def cli():
    """Spectral analysis of a finite system coupled to two reservoirs."""


@cli.command()
@_run_config
def validate(cfg):
    """Model diagnostics and the certified exceptional sets."""
    model = cfg.require_model()
    report = model.validate()
    exc = model.exceptional_sets
    payload = _meta(cfg, "validate")
    payload["diagnostics"] = report.to_dict()
    payload["exceptional_sets"] = exc.to_dict()
    rows = [["ok", report.ok]]
    rows += [[k, v] for k, v in report.to_dict().items() if k != "ok"]
    for key, value in exc.to_dict().items():
        rows.append([key, value if isinstance(value, str) else " ".join(f"{x:.17g}" for x in value)])
    _emit(cfg, payload, ["key", "value"], rows)


GREENS_HEADER = ["z_re", "z_im", "phi", "psi", "g_re", "g_im"]


@cli.command()
@_run_config
def greens(cfg):
    """Coupled Green's functions, all 16 pairs, over the energy grid."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    zs = grid + 1j * cfg.greens_im_z
    values = green_all(model, cfg.coupling, zs)
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
    payload = _meta(cfg, "greens")
    payload["im_z"] = cfg.greens_im_z
    payload["table"] = entries
    _emit(cfg, payload, GREENS_HEADER, rows)


CLASSIFY_HEADER = [
    "E", "in_M0", "in_Ml", "in_Mr", "in_sigma_hs", "in_S", "in_N",
    "status_chi_l", "chi_l_re", "chi_l_im",
    "status_chi_r", "chi_r_re", "chi_r_im",
    "c2_applicable", "c2_satisfied", "c3_applicable", "c3_satisfied",
]


def _parts(rec):
    if rec.value is None:
        return None, None
    return float(rec.value.real), float(rec.value.imag)


@cli.command()
@_run_config
def classify(cfg):
    """Per-energy set membership and boundary-value diagnostics."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    nu_val = cfg.coupling.nu if cfg.coupling.nu != 0.0 else None
    rows, entries, unresolved = [], [], 0
    for E in grid:
        c = classify_energy(model, float(E), nu=nu_val, ladder=cfg.ladder,
                            tol=cfg.tolerances)
        entries.append(c.to_dict())
        if UNDETERMINED in (c.rec_chi_l.status, c.rec_chi_r.status):
            unresolved += 1
        l_re, l_im = _parts(c.rec_chi_l)
        r_re, r_im = _parts(c.rec_chi_r)
        rows.append([
            float(E), c.in_m0, c.in_ml, c.in_mr, c.in_sigma_hs, c.in_s,
            c.in_n, c.rec_chi_l.status, l_re, l_im,
            c.rec_chi_r.status, r_re, r_im,
            None if c.c2 is None else c.c2["applicable"],
            None if c.c2 is None else c.c2["satisfied"],
            None if c.c3 is None else c.c3["applicable"],
            None if c.c3 is None else c.c3["satisfied"],
        ])
    payload = _meta(cfg, "classify")
    payload["points"] = entries
    _emit(cfg, payload, CLASSIFY_HEADER, rows)
    return unresolved


DENSITY_HEADER = ["E", "phi", "status", "ac_density", "point_mass"]


@cli.command()
@_run_config
def density(cfg):
    """Absolutely continuous densities over the grid plus a point-mass scan."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    entries, unresolved = [], 0
    for E in grid:
        records = diagonal_records(model, cfg.coupling, float(E), cfg.ladder,
                                   tol=cfg.tolerances)
        for phi, rec in zip(TAGS, records):
            # a divergent ladder carries its point mass; an undetermined
            # ladder or a point mass that does not converge is unresolved
            ac = pm = None
            if rec.status == DIVERGENT:
                pm = rec.pole_weight
            elif rec.status != UNDETERMINED:
                ac = density_from_record(rec)
            if ac is None and pm is None:
                unresolved += 1
            entries.append({"E": float(E), "phi": phi, "status": rec.status,
                            "ac_density": ac, "point_mass": pm})
    scan = point_mass_scan(model, cfg.coupling)
    atoms = [
        {"phi": phi, "E": E0, "weight": weights[i]}
        for i, phi in enumerate((DELTA_L, DELTA_R))
        for E0, *weights in scan
        if weights[i] > 0
    ]
    payload = _meta(cfg, "density")
    payload["points"] = entries
    payload["atom_scan"] = atoms
    scan_rows = [{"E": a["E"], "phi": a["phi"], "status": "ATOM_SCAN",
                  "ac_density": None, "point_mass": a["weight"]} for a in atoms]
    _emit(cfg, payload, DENSITY_HEADER, _columns(DENSITY_HEADER, entries + scan_rows))
    return unresolved


AVERAGE_HEADER = ["E", "phi", "closed", "quadrature", "rel_diff", "ladder_status"]


@cli.command()
@_run_config
def average(cfg):
    """Averaged Poisson transforms: closed form vs quadrature, plus the
    absolute-continuity scan."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    eps = cfg.average_eps
    report = verify_abs_continuity(model, cfg.coupling.nu, grid, cfg.ladder,
                                   lam=cfg.coupling.lam, tol=cfg.tolerances)
    status_by_key = {(p["E"], p["phi"]): p["status"] for p in report.points}
    entries = []
    for E in grid:
        for phi in TAGS:
            kappa = cfg.coupling.nu if phi in (CHI_L, DELTA_L) else cfg.coupling.lam
            closed = averaged_poisson_closed(model, kappa, phi, float(E), eps)
            try:
                quadr = averaged_poisson_quadrature(
                    model, kappa, phi, float(E), eps, tol=cfg.tolerances.quad_tol
                )
                rel = abs(closed - quadr) / max(abs(closed), abs(quadr), 1e-300)
            except AccuracyError:  # a stalled duel leaves its cells empty
                quadr = rel = None
            entries.append({"E": float(E), "phi": phi, "closed": closed,
                            "quadrature": quadr, "rel_diff": rel,
                            "ladder_status": status_by_key.get((float(E), phi))})
    payload = _meta(cfg, "average")
    payload["eps"] = eps
    payload["table"] = entries
    payload["abs_continuity"] = report.to_dict()
    if cfg.out_format == "csv":
        click.echo(f"abs_continuity verdict: {report.verdict}", err=True)
    _emit(cfg, payload, AVERAGE_HEADER, _columns(AVERAGE_HEADER, entries))
    # a row is unresolved when its ladder is, or when the duel stalls or
    # fails (a NaN rel_diff fails too)
    return sum(e["ladder_status"] == UNDETERMINED or e["rel_diff"] is None
               or not e["rel_diff"] <= cfg.tolerances.quad_tol for e in entries)


CERTIFY_HEADER = ["E", "verdict", "in_scope", "abs_D",
                  "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"]


@cli.command()
@_run_config
def certify(cfg):
    """Pointwise no-singular-continuous certificate over the grid."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    cert = certify_no_sc(model, cfg.coupling, grid, cfg.ladder, tol=cfg.tolerances)
    payload = _meta(cfg, "certify")
    payload["certificate"] = cert.to_dict()
    _emit(cfg, payload, CERTIFY_HEADER,
          _columns(CERTIFY_HEADER, payload["certificate"]["points"]))
    return cert.counts()[NUMERICALLY_UNRESOLVED]


@cli.group()
def scenario():
    """Built-in reference scenarios."""


@scenario.command("remark2")
@_run_config
def scenario_remark2(cfg):
    """Persistent zero mode of the reference model: residual, atom weight,
    and the two independent routes to the same weight."""
    model = remark2_model()
    nodes_pp = cfg.nodes_per_piece
    residual, weight = eigen_residual(model, cfg.coupling, nodes_pp)
    atom = point_mass(model, cfg.coupling, DELTA_L, 0.0, cfg.ladder)
    payload = _meta(cfg, "scenario remark2")
    payload.update({
        "nodes_per_piece": nodes_pp,
        "residual": residual,
        "weight_estimate": weight,
        "point_mass_at_zero": atom,
        "cross_check_abs_diff": abs(weight - atom),
        "expected_weight": 1.0 / (1.0 + cfg.coupling.lam**2 + cfg.coupling.nu**2),
        "exceptional_sets": model.exceptional_sets.to_dict(),
    })
    rows = [[k, v] for k, v in payload.items() if k not in ("command", "coupling")]
    rows.insert(0, ["lambda", cfg.coupling.lam])
    rows.insert(1, ["nu", cfg.coupling.nu])
    _emit(cfg, payload, ["key", "value"], rows)


def main(argv=None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except StrictFailure as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.UsageError as exc:
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except SpecboxError as exc:
        click.echo(f"internal numerical error: {exc}", err=True)
        return 3
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
