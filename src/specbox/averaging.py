"""Averaged Poisson transforms over one coupling parameter.

Averaging the dissipative part of the coupled Green's function over the bond
strength admits a residue evaluation: with v, w the zero-bond values of the
pair and its partner at E + i eps,

    integral over s of Im[ v / (1 - s^2 v w) ] ds = pi * |Re sqrt(v / w)|,

the branch of the square root being exactly the one that makes the result
nonnegative.  The independent check is adaptive quadrature of the left-hand
side along the honest linear-system path, compactified by s = tan(theta):
a numpy G7/K15 Gauss-Kronrod rule with QUADPACK's error estimate, where each
refinement round solves the 4x4 system at every node of every new panel in
one batched call.  The rank-one classic (a single bond averaged over its
strength gives the Lebesgue measure, Poisson density pi) runs on the same
quadrature engine.

``verify_abs_continuity`` scans a grid for divergence of the averaged
transform as eps shrinks, one tag at a time on ``boundary``'s (energy x
eps) lattice path, ``lattice_records``, which owns the blocks and keeps a
numerical failure with its own energy.  The ladder gets i times the
transform, which is Im of the averaged measure's Cauchy transform, so the
record's ``value.imag`` is the limit and its ``pole_weight`` (the one
atom-weight rule of ``boundary``) is the atom indicator.  Left vectors are
averaged over the left bond with the right one fixed at nu; right vectors
over the right bond with the left one fixed at ``lam`` (``fixed_bond``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel
from .boundary import DIVERGENT, _sorted_distinct, lattice_records
from .config import CouplingParams, EpsilonLadder, Tolerances
from .errors import AccuracyError, DomainError
from .measures import SpectralMeasure
from .resolvent import _TAG_INDEX, G0Basics, _solve_all, green_from_basics

__all__ = [
    "averaged_poisson_closed",
    "averaged_poisson_quadrature",
    "fixed_bond",
    "rank_one_average",
    "verify_abs_continuity",
    "AveragingReport",
]

_PARTNER = {CHI_L: DELTA_L, DELTA_L: CHI_L, CHI_R: DELTA_R, DELTA_R: CHI_R}
_LEFT = (CHI_L, DELTA_L)

#: grid points closer than this to the exceptional set are excluded
N_EXCLUSION = 1e-6
#: the relative tolerance of the rank-one average's quadrature
RANK_ONE_TOL = 1e-10
#: the narrowest peak, in ulp of theta = atan(s), that the duel's
#: quadrature is asked to resolve
_PEAK_ULPS = 4


def fixed_bond(phi: str, lam: float, nu: float) -> float:
    """The bond held fixed while phi's own bond is averaged: nu for the
    left vectors, lam for the right ones."""
    return nu if phi in _LEFT else lam


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


def averaged_poisson_closed(model: BlackBoxModel, nu: float, phi: str, E, eps):
    """Closed-form averaged Poisson transform at E + i eps; always >= 0.

    E may be an array that broadcasts against eps (E[:, None] against a
    ladder gives the (energy x eps) lattice).  Scalar E and eps give a
    float, anything else an array of the broadcast shape.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise DomainError(f"eps must be > 0, got {eps}")
    v, w, _ = _vw(model, float(nu), phi, E + 1j * eps)
    if np.any(w == 0):
        raise DomainError("partner Green's function vanished exactly; input singular")
    p = np.pi * np.abs(np.sqrt(v / w).real)
    return float(p) if p.ndim == 0 else p


def _pole_breakpoints(poles) -> list[float]:
    """Multiscale breakpoints around near-real poles of the integrand.

    A pole at p = x + i y produces a Lorentzian of width |y| at x; nesting
    breakpoints at x +/- k|y| over several decades lets the adaptive rule
    resolve spikes regardless of how narrow they are.  Poles at infinity
    give no breakpoints."""
    pts: set[float] = set()
    for p in poles:
        x, y = float(np.real(p)), abs(float(np.imag(p)))
        candidates = [x]
        scale = max(y, 1e-300)
        for k in (1.0, 10.0, 100.0, 1e3, 1e4):
            candidates.extend((x - k * scale, x + k * scale))
        pts.update(c for c in candidates if math.isfinite(c))
    return sorted(pts)


# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK's qk15): the 15 Kronrod nodes in
# ascending order with their weights, and the Gauss weights on the odd nodes.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_XK = np.concatenate([-_XK, [0.0], _XK[::-1]])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG = np.concatenate([_WG, [0.417959183673469387755102040816327], _WG[::-1]])
_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _gauss_kronrod(func, lo: np.ndarray, hi: np.ndarray):
    """K15 values and QUADPACK error estimates of every panel [lo, hi], with
    all panels' nodes evaluated by one call of ``func``."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _XK
    f = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    resk = f @ _WK
    resg = f[:, 1::2] @ _WG
    resabs = np.abs(f) @ _WK * np.abs(half)
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _WK * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0) & (err != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = resasc * np.minimum(1.0, (200 * err / resasc) ** 1.5)
    err = np.where(scaled, damped, err)
    floor = resabs > _UFLOW / (50 * _EPS)
    err = np.where(floor, np.maximum(50 * _EPS * resabs, err), err)
    return resk * half, err


def quad(func, a: float, b: float, *, epsabs: float, epsrel: float, limit: int,
         points=None):
    """Integral of ``func`` over [a, b] by adaptive G7/K15 Gauss-Kronrod.

    ``func`` maps a 1-D array of nodes to an array of real values.  The
    breakpoints ``points`` cut [a, b] into the first panels; every round
    bisects the largest-error panels and evaluates all their nodes in one
    call of ``func``.  The error estimate is QUADPACK's (Piessens et al.,
    1983), and the rule stops once the summed error is at most
    max(epsabs, epsrel |I|) or ``limit`` panels exist.  Returns (value,
    error estimate).  ``_tan_quadrature`` calls it through this module
    attribute, so a tracer can patch the one name.
    """
    edges = _sorted_distinct(np.concatenate([[a, b], np.asarray(points or [], dtype=float)]))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gauss_kronrod(func, lo, hi)
    while True:
        value, error = float(np.sum(vals)), float(np.sum(errs))
        excess = error - max(epsabs, epsrel * abs(value))
        if excess <= 0 or lo.size >= limit:
            return value, error
        # the fewest largest-error panels whose errors together reach the
        # excess, as many as the panel limit allows
        order = np.argsort(errs)[::-1]
        count = int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1
        pick = order[: min(count, limit - lo.size)]
        mid = 0.5 * (lo[pick] + hi[pick])
        if np.any((mid <= lo[pick]) | (mid >= hi[pick])):
            return value, error  # a panel is down to adjacent floats
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        new_vals, new_errs = _gauss_kronrod(func, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def _tan_quadrature(integrand, tol: float, poles=()):
    """Improper integral over the whole line of s via s = tan(theta).

    ``integrand`` maps an array of bond strengths s to an array of values."""
    def g(theta):
        t = np.tan(theta)
        return integrand(t) * (1.0 + t * t)

    pts = [math.atan(b) for b in _pole_breakpoints(poles)]
    val, err = quad(
        g,
        -math.pi / 2,
        math.pi / 2,
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
    tol: float = 1e-9,
) -> float:
    """Adaptive quadrature of s -> Im G_(s-bond)(phi, phi, E + i eps).

    Every integrand evaluation goes through the linear-system resolvent path,
    so this is an independent check on the residue formula.  The uncoupled
    values are cached across s (they do not depend on the averaged bond), and
    the near-real pole pair of 1/(1 - s^2 v w) is handed to the quadrature as
    breakpoints.  Raises AccuracyError where the rule stalls, and where it
    cannot see that pair's peak on the theta = atan(s) axis.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    nu = float(nu)
    v, w, basics = _vw(model, nu, phi, complex(E, eps))
    v, w = complex(v), complex(w)
    left = phi in _LEFT

    def integrand(s: np.ndarray) -> np.ndarray:
        nodes = G0Basics(*(np.broadcast_to(getattr(basics, f.name), s.shape)
                           for f in fields(G0Basics)))
        cp = CouplingParams(s, nu) if left else CouplingParams(nu, s)
        return np.imag(green_from_basics(nodes, cp, phi, phi))

    poles = ()
    if v != 0 and w != 0:
        # the poles +-p make a peak of theta-width |Im p| / (1 + Re p^2) at
        # theta = atan(Re p).  Where v w underflows, or that width is within
        # a few ulp of theta, no breakpoint or node resolves the peak, and the
        # rule would return the integral without it
        p = 1.0 / np.sqrt(v * w) if v * w != 0 else complex(math.inf)
        with np.errstate(over="ignore"):
            width = abs(p.imag) / (1.0 + p.real**2)
        if not width > _PEAK_ULPS * np.spacing(abs(math.atan(p.real))):
            raise AccuracyError(f"the integrand's peak at E = {E} is below the rule's "
                                "resolution in theta = atan(s)",
                                estimate=math.nan, achieved=math.inf)
        poles = (p, -p)
    return _tan_quadrature(integrand, tol, poles)


def rank_one_average(measure: SpectralMeasure, E: float, eps: float) -> float:
    """Average of the rank-one-perturbed Poisson kernel over the bond strength.

    With g = measure.borel(E + i eps) the perturbed transform is
    g / (1 + s g); its imaginary part integrates to pi exactly, independent
    of the measure and of (E, eps) — the averaged measure is Lebesgue.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    g = complex(measure.borel(complex(E, eps)))

    def integrand(s: np.ndarray) -> np.ndarray:
        return (g / (1.0 + s * g)).imag

    return _tan_quadrature(integrand, RANK_ONE_TOL, poles=(-1.0 / g,))


@dataclass
class AveragingReport:
    """Boundedness scan of the averaged Poisson transform over a grid.

    verdict:
      PASS     no divergent ladder away from the exceptional set
      FAIL     at least one divergent ladder away from it
      VACUOUS  the exceptional set is degenerate (whole line); the
               restriction carries no content and nothing is asserted

    ``lam`` is the left bond fixed for the right vectors' rows when it was
    given apart from ``nu``; None means nu fixes it, and ``to_dict`` then
    leaves the key out.
    """

    nu: float
    lam: float | None
    verdict: str
    points: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    atoms: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.lam is None:
            del out["lam"]
        return out


def verify_abs_continuity(
    model: BlackBoxModel,
    nu: float,
    grid,
    ladder: EpsilonLadder = EpsilonLadder(),
    *,
    lam: float | None = None,
    tol: Tolerances = Tolerances(),
) -> AveragingReport:
    """Scan the grid for divergence of the averaged Poisson ladder.

    Left vectors are averaged with the right bond fixed at ``nu``, right
    vectors with the left bond fixed at ``lam`` (default: ``nu``).  Grid
    points within N_EXCLUSION of the finite exceptional set are skipped
    (marked EXCLUDED_N) and never evaluated.  Each tag makes one
    ``lattice_records`` call over the remaining grid, so a numerical
    failure leaves only its own energy UNDETERMINED.  In the degenerate
    case the scan still runs and any divergent points are reported with
    their atom indicators (the record's ``pole_weight``: the Richardson
    limit of eps times the transform), but the verdict is VACUOUS.
    """
    nu = float(nu)
    report = AveragingReport(nu=nu, lam=None if lam is None else float(lam),
                             verdict="PASS")
    fixed_lam = nu if lam is None else report.lam
    exc = model.exceptional_sets
    kept = []
    for E in np.asarray(grid, dtype=float):
        if not exc.degenerate and any(abs(E - p) < N_EXCLUSION for p in exc.n_points):
            report.excluded.append({"E": float(E), "marker": "EXCLUDED_N"})
        else:
            kept.append(E)

    # the transform is Im of a Cauchy transform: the ladder gets i times it
    per_tag = [
        lattice_records(
            lambda E, eps, phi=phi, kappa=fixed_bond(phi, fixed_lam, nu):
                1j * averaged_poisson_closed(model, kappa, phi, E, eps),
            kept, [()], ladder, tol=tol)
        for phi in TAGS
    ]
    for row in zip(*per_tag):
        for phi, (rec,) in zip(TAGS, row):
            report.points.append({
                "E": rec.E,
                "phi": phi,
                "status": rec.status,
                "limit": None if rec.value is None else float(rec.value.imag),
            })
            if rec.status == DIVERGENT:
                report.atoms.append({"E": rec.E, "phi": phi, "indicator": rec.pole_weight})

    if exc.degenerate:
        report.verdict = "VACUOUS"
    elif report.atoms:  # a divergent ladder away from N
        report.verdict = "FAIL"
    return report
