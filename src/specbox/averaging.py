"""Averaged Poisson transforms over one coupling parameter.

Averaging the dissipative part of the coupled Green's function over the bond
strength admits a residue evaluation: with v, w the zero-bond values of the
pair and its partner at E + i eps,

    integral over s of Im[ v / (1 - s^2 v w) ] ds = pi * |Re sqrt(v / w)|,

the branch of the square root being exactly the one that makes the result
nonnegative.  The independent check is adaptive quadrature of the left-hand
side along the honest linear-system path, compactified by s = tan(theta).
The rank-one classic (a single bond averaged over its strength gives the
Lebesgue measure, Poisson density pi) runs on the same quadrature engine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, BlackBoxModel
from .boundary import DIVERGENT, EpsilonLadder, Tolerances, _richardson, boundary_value
from .errors import AccuracyError, DomainError
from .measures import SpectralMeasure
from .resolvent import _TAG_INDEX, CouplingParams, G0Basics, _solve_all, green_from_basics

__all__ = [
    "averaged_poisson_closed",
    "averaged_poisson_quadrature",
    "rank_one_average",
    "verify_abs_continuity",
    "AveragingReport",
]

_PARTNER = {CHI_L: DELTA_L, DELTA_L: CHI_L, CHI_R: DELTA_R, DELTA_R: CHI_R}
_LEFT = (CHI_L, DELTA_L)

#: grid points closer than this to the exceptional set are excluded
N_EXCLUSION = 1e-6


def _zero_bond_coupling(phi: str, kappa: float) -> CouplingParams:
    """Coupling with the averaged bond off: (0, kappa) for left vectors,
    (kappa, 0) for right vectors (the mirrored family)."""
    if phi in _LEFT:
        return CouplingParams(0.0, kappa)
    return CouplingParams(kappa, 0.0)


def _vw(model: BlackBoxModel, nu: float, phi: str, z):
    """Zero-bond values v = G(phi, phi) and w = G(partner, partner) at z
    (array-capable), read off one solve."""
    cp = _zero_bond_coupling(phi, nu)
    basics = G0Basics.at(model, z)
    pairs = _solve_all(basics, cp)
    i, j = _TAG_INDEX[phi], _TAG_INDEX[_PARTNER[phi]]
    return pairs[..., i, i], pairs[..., j, j], basics


def averaged_poisson_closed(model: BlackBoxModel, nu: float, phi: str, E: float, eps):
    """Closed-form averaged Poisson transform at E + i eps; always >= 0.

    A scalar eps gives a float, an array of eps an array of the same shape.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise DomainError(f"eps must be > 0, got {eps}")
    v, w, _ = _vw(model, float(nu), phi, E + 1j * eps)
    if np.any(w == 0):
        raise DomainError("partner Green's function vanished exactly; input singular")
    p = np.pi * np.abs(np.sqrt(v / w).real)
    return float(p) if p.ndim == 0 else p


def _pole_breakpoints(poles, lambda_cap: float) -> list[float]:
    """Multiscale breakpoints around near-real poles of the integrand.

    A pole at p = x + i y produces a Lorentzian of width |y| at x; nesting
    breakpoints at x +/- k|y| over several decades lets the adaptive rule
    resolve spikes regardless of how narrow they are."""
    pts: set[float] = set()
    for p in poles:
        x, y = float(np.real(p)), abs(float(np.imag(p)))
        candidates = [x]
        scale = max(y, 1e-300)
        for k in (1.0, 10.0, 100.0, 1e3, 1e4):
            candidates.extend((x - k * scale, x + k * scale))
        for c in candidates:
            if abs(c) < lambda_cap:
                pts.add(c)
    return sorted(pts)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call: only the quadrature duel
    needs it, and importing it eagerly would more than double the start-up
    time of every CLI command.  ``_tan_quadrature`` calls it through this
    module attribute, so a tracer can patch the one name."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _tan_quadrature(integrand, lambda_cap: float, tol: float, poles=()):
    """Improper integral over |s| <= lambda_cap via s = tan(theta)."""
    theta_max = math.pi / 2 if math.isinf(lambda_cap) else math.atan(lambda_cap)

    def g(theta):
        t = math.tan(theta)
        return integrand(t) * (1.0 + t * t)

    pts = [math.atan(b) for b in _pole_breakpoints(poles, lambda_cap)]
    val, err = quad(
        g,
        -theta_max,
        theta_max,
        epsabs=1e-300,
        epsrel=tol,
        limit=800,
        points=pts or None,
    )
    if err > 100 * tol * max(abs(val), 1e-12):
        raise AccuracyError(
            f"quadrature stalled: estimate {val} with error {err}",
            estimate=val,
            achieved=err,
        )
    return val


def averaged_poisson_quadrature(
    model: BlackBoxModel,
    nu: float,
    phi: str,
    E: float,
    eps: float,
    lambda_cap: float = math.inf,
    tol: float = 1e-9,
) -> float:
    """Adaptive quadrature of s -> Im G_(s-bond)(phi, phi, E + i eps).

    Every integrand evaluation goes through the linear-system resolvent path,
    so this is an independent check on the residue formula.  The uncoupled
    values are cached across s (they do not depend on the averaged bond), and
    the near-real pole pair of 1/(1 - s^2 v w) is handed to the quadrature as
    breakpoints.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    nu = float(nu)
    v, w, basics = _vw(model, nu, phi, complex(E, eps))
    v, w = complex(v), complex(w)
    left = phi in _LEFT

    def integrand(s: float) -> float:
        cp = CouplingParams(s, nu) if left else CouplingParams(nu, s)
        return float(np.imag(green_from_basics(basics, cp, phi, phi)))

    poles = ()
    if v != 0 and w != 0:
        p = 1.0 / np.sqrt(v * w)
        poles = (p, -p)
    return _tan_quadrature(integrand, lambda_cap, tol, poles)


def rank_one_average(
    measure: SpectralMeasure,
    E: float,
    eps: float,
    lambda_cap: float = math.inf,
    tol: float = 1e-10,
) -> float:
    """Average of the rank-one-perturbed Poisson kernel over the bond strength.

    With g = measure.borel(E + i eps) the perturbed transform is
    g / (1 + s g); its imaginary part integrates to pi exactly, independent
    of the measure and of (E, eps) — the averaged measure is Lebesgue.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    g = complex(measure.borel(complex(E, eps)))

    def integrand(s: float) -> float:
        return (g / (1.0 + s * g)).imag

    return _tan_quadrature(integrand, lambda_cap, tol, poles=(-1.0 / g,))


@dataclass
class AveragingReport:
    """Boundedness scan of the averaged Poisson transform over a grid.

    verdict:
      PASS     no divergent ladder away from the exceptional set
      FAIL     at least one divergent ladder away from it
      VACUOUS  the exceptional set is degenerate (whole line); the
               restriction carries no content and nothing is asserted
    """

    nu: float
    verdict: str
    points: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    atoms: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def verify_abs_continuity(
    model: BlackBoxModel,
    nu: float,
    grid,
    ladder: EpsilonLadder | None = None,
    *,
    tol: Tolerances = Tolerances(),
) -> AveragingReport:
    """Scan the grid for divergence of the averaged Poisson ladder.

    Grid points within N_EXCLUSION of the finite exceptional set are skipped
    (marked EXCLUDED_N).  In the degenerate case the scan still runs and any
    divergent points are reported with their atom indicators (the Richardson
    limit of eps times the ladder value), but the verdict is VACUOUS.
    """
    ladder = ladder or EpsilonLadder()
    nu = float(nu)
    exc = model.exceptional_sets
    report = AveragingReport(nu=nu, verdict="PASS")
    diverged = False

    for E in np.asarray(grid, dtype=float):
        if not exc.degenerate and any(
            abs(E - p) < N_EXCLUSION for p in exc.n_points
        ):
            report.excluded.append({"E": float(E), "marker": "EXCLUDED_N"})
            continue
        for phi in (CHI_L, DELTA_L, CHI_R, DELTA_R):
            rec = boundary_value(
                lambda z: averaged_poisson_closed(model, nu, phi, float(E), z.imag),
                float(E), ladder, tol=tol,
            )
            entry = {
                "E": float(E),
                "phi": phi,
                "status": rec.status,
                "limit": None if rec.value is None else float(rec.value.real),
            }
            report.points.append(entry)
            if rec.status == DIVERGENT:
                diverged = True
                (e0, p0), (e1, p1) = rec.ladder_trace[-2:]
                indicator = _richardson(e1 * p1.real, e0 * p0.real, ladder.ratio)
                report.atoms.append(
                    {"E": float(E), "phi": phi, "indicator": float(indicator)}
                )

    if exc.degenerate:
        report.verdict = "VACUOUS"
    elif diverged:
        report.verdict = "FAIL"
    return report
