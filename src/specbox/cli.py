"""Command-line interface.

Subcommands: validate, greens, classify, density, average, certify, and
scenario remark2.  One JSON config document (see README) plus flag overrides
drives every run; results are emitted as JSON or RFC-4180 CSV with stable
column sets.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical-resolution
failure under --strict (any UNDETERMINED or NUMERICALLY_UNRESOLVED outcome, or
an averaged-transform duel whose rel_diff exceeds quad_tol or that has no
value), 3 internal error.
"""

from __future__ import annotations

import functools
import sys
import traceback

import click

# every module but errors is read through its name, so a command executes
# only the modules it uses (see specbox/__init__.py); the certify module
# goes by another name because the certify command takes its own
from . import averaging, blackbox, boundary, config, emit, resolvent
from . import certify as certification
from .errors import AccuracyError, ConfigError, SpecboxError

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
        raw = config.load_config(config_path) if config_path else None
        unresolved = command(config.build_run_config(raw, overrides))
        if strict and unresolved:
            raise StrictFailure(f"{unresolved} unresolved outcome(s) under --strict")

    for option in reversed(_OPTIONS):
        run = option(run)
    return run


def _emit(cfg: config.RunConfig, payload: dict, header: list[str], rows: list[list]) -> None:
    if cfg.out_format == "csv":
        emit.write_output(emit.render_csv(header, rows), cfg.out_path)
    else:
        emit.write_output(emit.render_json(payload), cfg.out_path)


def _columns(header: list[str], records: list[dict]) -> list[list]:
    """CSV rows of records whose keys are the CSV columns."""
    return [[rec[key] for key in header] for rec in records]


def _meta(cfg: config.RunConfig, command: str) -> dict:
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
    values = resolvent.green_all(model, cfg.coupling, zs).reshape(len(zs), -1)
    pairs = [(phi, psi) for phi in blackbox.TAGS for psi in blackbox.TAGS]
    rows, entries = [], []
    for z, gs in zip(zs.tolist(), values.tolist()):
        cells = {}
        for (phi, psi), g in zip(pairs, gs):
            rows.append([z.real, z.imag, phi, psi, g.real, g.imag])
            cells[f"{phi}|{psi}"] = [g.real, g.imag]
        entries.append({"z": [z.real, z.imag], "pairs": cells})
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
    rows, entries, unresolved = [], [], 0
    for c in boundary.classify_grid(model, grid, cfg.coupling.nu, cfg.ladder,
                                    tol=cfg.tolerances):
        entries.append(c.to_dict())
        if boundary.UNDETERMINED in (c.rec_chi_l.status, c.rec_chi_r.status):
            unresolved += 1
        l_re, l_im = _parts(c.rec_chi_l)
        r_re, r_im = _parts(c.rec_chi_r)
        rows.append([
            c.E, c.in_m0, c.in_ml, c.in_mr, c.in_sigma_hs, c.in_s,
            c.in_n, c.rec_chi_l.status, l_re, l_im,
            c.rec_chi_r.status, r_re, r_im,
            c.c2["applicable"], c.c2["satisfied"], c.c3["applicable"], c.c3["satisfied"],
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
    records = boundary.diagonal_records(model, cfg.coupling, grid, cfg.ladder, tol=cfg.tolerances)
    for E, row in zip(grid, records):
        for phi, rec in zip(blackbox.TAGS, row):
            # a divergent ladder carries its point mass; an undetermined
            # ladder or a point mass that does not converge is unresolved
            ac = pm = None
            if rec.status == boundary.DIVERGENT:
                pm = rec.pole_weight
            elif rec.status != boundary.UNDETERMINED:
                ac = boundary.density_from_record(rec)
            if ac is None and pm is None:
                unresolved += 1
            entries.append({"E": float(E), "phi": phi, "status": rec.status,
                            "ac_density": ac, "point_mass": pm})
    scan = boundary.point_mass_scan(model, cfg.coupling)
    atoms = [
        {"phi": phi, "E": E0, "weight": weights[i]}
        for i, phi in enumerate((blackbox.DELTA_L, blackbox.DELTA_R))
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
    report = averaging.verify_abs_continuity(model, cfg.coupling.nu, grid, cfg.ladder,
                                             lam=cfg.coupling.lam, tol=cfg.tolerances)
    status_by_key = {(p["E"], p["phi"]): p["status"] for p in report.points}
    kappas = {phi: averaging.fixed_bond(phi, cfg.coupling.lam, cfg.coupling.nu)
              for phi in blackbox.TAGS}
    # the closed column of every phi over the grid: one evaluation of the
    # zero-bond values and one solve per bond side
    closed_rows = averaging._closed_tags(model, cfg.coupling.lam, cfg.coupling.nu,
                                         grid + 1j * eps).tolist()
    entries = []
    for k, E in enumerate(grid):
        for (phi, kappa), closed in zip(kappas.items(), closed_rows[k]):
            reason = None
            try:
                quadr = averaging.averaged_poisson_quadrature(
                    model, kappa, phi, float(E), eps, tol=cfg.tolerances.quad_tol
                )
                rel = abs(closed - quadr) / max(abs(closed), abs(quadr), 1e-300)
            except AccuracyError as exc:  # a null duel leaves its cells empty
                quadr = rel = None
                reason = exc.reason
            entries.append({"E": float(E), "phi": phi, "closed": closed,
                            "quadrature": quadr, "rel_diff": rel,
                            "ladder_status": status_by_key.get((float(E), phi)),
                            "reason": reason})
    payload = _meta(cfg, "average")
    payload["eps"] = eps
    payload["table"] = entries
    payload["abs_continuity"] = report.to_dict()
    if cfg.out_format == "csv":
        click.echo(f"abs_continuity verdict: {report.verdict}", err=True)
    _emit(cfg, payload, AVERAGE_HEADER, _columns(AVERAGE_HEADER, entries))
    # a row is unresolved when its ladder is, or when the duel has no value
    # or fails (a NaN rel_diff fails too)
    return sum(e["ladder_status"] == boundary.UNDETERMINED or e["rel_diff"] is None
               or not e["rel_diff"] <= cfg.tolerances.quad_tol for e in entries)


CERTIFY_HEADER = ["E", "verdict", "in_scope", "abs_D",
                  "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"]


@cli.command()
@_run_config
def certify(cfg):
    """Pointwise no-singular-continuous certificate over the grid."""
    model = cfg.require_model()
    grid = cfg.require_grid()
    cert = certification.certify_no_sc(model, cfg.coupling, grid, cfg.ladder, tol=cfg.tolerances)
    payload = _meta(cfg, "certify")
    payload["certificate"] = cert.to_dict()
    _emit(cfg, payload, CERTIFY_HEADER,
          _columns(CERTIFY_HEADER, payload["certificate"]["points"]))
    return cert.counts()[certification.NUMERICALLY_UNRESOLVED]


@cli.group()
def scenario():
    """Built-in reference scenarios."""


@scenario.command("remark2")
@_run_config
def scenario_remark2(cfg):
    """Persistent zero mode of the reference model: residual, atom weight,
    and the two independent routes to the same weight."""
    model = certification.remark2_model()
    nodes_pp = cfg.nodes_per_piece
    residual, weight = certification.eigen_residual(model, cfg.coupling, nodes_pp)
    # the atom at 0 from the null space of K, matched as the exceptional sets
    # match; the scan leaves out a weight at or below its floor, which reads 0
    atom = next((w_l for E0, w_l, _ in boundary.point_mass_scan(model, cfg.coupling)
                 if abs(E0) <= boundary._MATCH_TOL), 0.0)
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
