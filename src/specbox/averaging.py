"""Averaged Poisson transforms over one coupling parameter.

Averaging the dissipative part of the coupled Green's function over the bond
strength admits a residue evaluation: with v, w the zero-bond values of the
pair and its partner at E + i eps,

    integral over s of Im[ v / (1 - s^2 v w) ] ds = pi * |Re sqrt(v / w)|,

the branch of the square root being exactly the one that makes the result
nonnegative.  The independent check is adaptive quadrature of the left-hand
side along the honest linear-system path: a numpy G7/K15 Gauss-Kronrod rule
with QUADPACK's error estimate, where each refinement round solves the 4x4
system at every node of every new panel in one batched call.  The integrand
is even in s, so the duel integrates twice the half line, in a variable
matched to the pole pair of 1/(1 - s^2 v w) (``_peak_quadrature``).  The
rank-one classic (a single bond averaged over its strength gives the
Lebesgue measure, Poisson density pi) runs on the same map: its integrand
is a Lorentzian in the bond strength, even about its own centre.

Every grid evaluation reads the zero-bond values of all four tags from one
``_zero_bond`` call: one ``G0Basics.at`` and one two-column solve per bond
side, chi and delta of a side being each other's partner.  Left vectors are
averaged over the left bond with the right one fixed at nu, right vectors
over the right bond with the left one fixed at ``lam`` (``fixed_bond``).
``duel_grid``, the ``average`` command's table, takes its closed column
and every row's quadrature from one such call over the grid.
``verify_abs_continuity`` scans a grid for divergence of the averaged
transform as eps shrinks, all four tags in one pass of ``boundary``'s
(energy x eps) lattice path, ``lattice_records``, which owns the blocks and
keeps a numerical failure with its own energy; a vanished partner makes only
its own vector's rows UNDETERMINED.  The ladder gets i times the transform,
which is Im of the averaged measure's Cauchy transform, so the record's
``value.imag`` is the limit and its ``pole_weight`` (the one atom-weight
rule of ``boundary``) is the atom indicator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel
from .boundary import DIVERGENT, lattice_records
from .config import CouplingParams, EpsilonLadder, Tolerances
from .errors import AccuracyError, DomainError
from .measures import SpectralMeasure
from .resolvent import _TAG_INDEX, G0Basics, _solve, green_from_basics

__all__ = [
    "averaged_poisson_closed",
    "averaged_poisson_quadrature",
    "duel_grid",
    "fixed_bond",
    "rank_one_average",
    "verify_abs_continuity",
    "AveragingReport",
]

_VANISHED = "partner Green's function vanished exactly; input singular"
_LEFT = (CHI_L, DELTA_L)

#: grid points closer than this to the exceptional set are excluded
N_EXCLUSION = 1e-6
#: the relative tolerance of the rank-one average's quadrature
RANK_ONE_TOL = 1e-10
#: why a duel has no value (``AccuracyError.reason``): its integrand's peak
#: is narrower than the integrand's own rounding there, or the adaptive rule
#: stopped short of its tolerance
PEAK_BELOW_ROUNDING = "peak_below_rounding"
QUADRATURE_STALLED = "quadrature_stalled"


def fixed_bond(phi: str, lam: float, nu: float) -> float:
    """The bond held fixed while phi's own bond is averaged: nu for the
    left vectors, lam for the right ones."""
    return nu if phi in _LEFT else lam


def _bond_coupling(phi: str, s, kappa: float) -> CouplingParams:
    """Coupling with phi's own bond at s and the other at kappa: (s, kappa)
    for left vectors, (kappa, s) for right vectors (the mirrored family)."""
    return CouplingParams(s, kappa) if phi in _LEFT else CouplingParams(kappa, s)


def _side_values(basics: G0Basics, phi: str, kappa: float):
    """G(chi, chi) and G(delta, delta) on phi's side, with that side's bond
    at 0 and the other at kappa: one solve with the side's two right-hand
    sides.  Each of the two vectors is the other's partner, so the pair
    serves both: (v, w) for chi, and swapped for delta."""
    chi, delta = (CHI_L, DELTA_L) if phi in _LEFT else (CHI_R, DELTA_R)
    i, j = _TAG_INDEX[chi], _TAG_INDEX[delta]
    X = _solve(basics, _bond_coupling(phi, 0.0, kappa), [i, j])
    return X[..., i, 0], X[..., j, 1]


def _vw(model: BlackBoxModel, nu: float, phi: str, z):
    """Zero-bond values v = G(phi, phi) and w = G(partner, partner) at z
    (array-capable), read off the solve of phi's side."""
    basics = G0Basics.at(model, z)
    g_chi, g_delta = _side_values(basics, phi, nu)
    return (g_chi, g_delta, basics) if phi in (CHI_L, CHI_R) else (g_delta, g_chi, basics)


def _poisson(v, w):
    """pi |Re sqrt(v / w)|: the closed averaged transform of a vector with
    zero-bond value v whose partner's is w; not finite where w is 0."""
    return np.pi * np.abs(np.sqrt(v / w).real)


def _zero_bond(model: BlackBoxModel, lam: float, nu: float, z):
    """v and w of every tag at z, each stacked on a last axis in TAGS order,
    and the basics: one ``G0Basics.at`` and one ``_side_values`` solve per
    bond side, the other bond fixed by ``fixed_bond``."""
    basics = G0Basics.at(model, z)
    v, w = [], []
    for chi in (CHI_L, CHI_R):
        g_chi, g_delta = _side_values(basics, chi, fixed_bond(chi, lam, nu))
        v += [g_chi, g_delta]
        w += [g_delta, g_chi]
    return np.stack(v, axis=-1), np.stack(w, axis=-1), basics


def averaged_poisson_closed(model: BlackBoxModel, nu: float, phi: str, E, eps):
    """Closed-form averaged Poisson transform at E + i eps; always >= 0.

    E may be an array that broadcasts against eps (E[:, None] against a
    ladder gives the (energy x eps) lattice).  Scalar E and eps give a
    float, anything else an array of the broadcast shape.
    """
    eps = np.asarray(eps, dtype=float)
    if (eps <= 0).any():
        raise DomainError(f"eps must be > 0, got {eps}")
    v, w, _ = _vw(model, float(nu), phi, E + 1j * eps)
    if (w == 0).any():
        raise DomainError(_VANISHED)
    p = _poisson(v, w)
    return float(p) if p.ndim == 0 else p


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


def _sorted_distinct(x) -> np.ndarray:
    """``np.unique`` of finite values, without the import of ``numpy.ma`` that
    its first call costs: sort, then keep each value that differs from the
    one before it."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def quad(func, a: float, b: float, *, epsabs: float, epsrel: float, limit: int,
         points=None):
    """Integral of ``func`` over [a, b] by adaptive G7/K15 Gauss-Kronrod.

    ``func`` maps a 1-D array of nodes to an array of real values.  The
    breakpoints ``points`` cut [a, b] into the first panels; every round
    bisects the largest-error panels and evaluates all their nodes in one
    call of ``func``.  The error estimate is QUADPACK's (Piessens et al.,
    1983), and the rule stops once the summed error is at most
    max(epsabs, epsrel |I|) or ``limit`` panels exist.  Returns (value,
    error estimate).  ``_peak_quadrature``, the one caller, calls it through
    this module attribute, so a tracer can patch the one name.
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


#: where ``_peak_quadrature``'s first panels end in tau.  The pole pair's
#: terms there are 1/cosh(tau) and tanh(tau), analytic but at tau = +-i pi/2,
#: and the Bernstein ellipse that sets the G7/K15 rate on each of the panels
#: [0, 1], [1, 3] and [3, 9] stays clear of those points
_TAU_BREAKS = (0.0, 1.0, -1.0, 3.0, -3.0, 9.0, -9.0)


def _peak_quadrature(integrand, p: complex, tol: float) -> float:
    """Integral over the whole line of an even ``integrand`` whose nearest
    singularities are the poles +-p and their conjugates: twice the half line
    s >= 0, in one ``quad`` call over two joined pieces.

    With c = |Re p| and h = |Im p|, s = c + h sinh(tau) maps [0, c + |p|].
    There the Lorentzian of the pole at c becomes 1/cosh(tau) and its
    dispersive part tanh(tau), so a peak of any width h takes the same few
    panels.  Beyond, s = (c + |p|) / y for y from 1 down to 0, on which the
    1/s^2 tail is flat.  Each piece's derivative at the joint is within a
    factor 2 of the other's, so neither end loses resolution there.  The
    first panels end at the joint, at ``_TAU_BREAKS``, and half a unit above
    tau's lower end when that lies below -1/2: for h << c the partner pole -p
    sits about log 2 below that end.  Raises AccuracyError with ``reason``
    QUADRATURE_STALLED where the half line's error estimate exceeds 100 tol
    times its value.
    """
    c, h = abs(p.real), abs(p.imag)
    lo, hi = -math.asinh(c / h), math.asinh(abs(p) / h)
    joint = c + h * math.sinh(hi)
    span = hi - lo

    def g(x):
        near = x <= span
        tau = x + lo
        y = 1.0 + span - x
        s = np.where(near, c + h * np.sinh(tau), joint / y)
        return integrand(s) * np.where(near, h * np.cosh(tau), joint / (y * y))

    pts = [b - lo for b in (*_TAU_BREAKS, min(lo + 0.5, 0.0)) if lo < b < hi] + [span]
    val, err = quad(g, 0.0, span + 1.0, epsabs=1e-300, epsrel=tol, limit=800, points=pts)
    if err > 100 * tol * max(abs(val), 1e-12):
        raise AccuracyError(f"quadrature stalled: estimate {val} with error {err}",
                            estimate=val, achieved=err, reason=QUADRATURE_STALLED)
    return 2.0 * val


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
    so this is an independent check on the residue formula (``_duel``).
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    nu = float(nu)
    v, w, basics = _vw(model, nu, phi, complex(E, eps))
    return _duel(v, w, basics, phi, nu, E, tol)


def _duel(v, w, basics: G0Basics, phi: str, kappa: float, E: float, tol: float) -> float:
    """The quadrature of phi's averaged transform from its zero-bond values
    v, w and the basics at one z, the other bond at kappa.

    The uncoupled values are cached across s (they do not depend on the
    averaged bond), and the near-real pole pair +-p of 1/(1 - s^2 v w) sets
    the variable of ``_peak_quadrature``.  Raises AccuracyError with
    ``reason`` PEAK_BELOW_ROUNDING where v w underflows, overflows or is NaN,
    or where u c / h (u the double spacing at 1, c = |Re p|, h = |Im p|), the
    4x4 integrand's relative rounding at its peak, exceeds tol; and with
    QUADRATURE_STALLED where the rule stalls.
    """
    vw = complex(v) * complex(w)
    p = 1.0 / cmath.sqrt(vw) if vw != 0 else complex(math.inf)
    c, h = abs(p.real), abs(p.imag)
    # fails closed: an underflowed, overflowed or NaN v w leaves h at 0, inf
    # or NaN, and every such peak is nulled
    if not (0.0 < h < math.inf and _EPS * c <= tol * h):
        raise AccuracyError(f"the integrand's peak at E = {E} is below its rounding: "
                            f"v w = {vw}, u c = {_EPS * c:.3e} against tol h = "
                            f"{tol * h:.3e}",
                            estimate=math.nan, achieved=math.inf,
                            reason=PEAK_BELOW_ROUNDING)

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.imag(green_from_basics(basics, _bond_coupling(phi, s, kappa), phi, phi))

    return _peak_quadrature(integrand, p, tol)


def duel_grid(model: BlackBoxModel, lam: float, nu: float, grid, eps: float, tol: float):
    """(E, phi, closed, quadrature, rel_diff, reason) per energy and tag at
    height eps, all from one ``_zero_bond`` call.  A vanished partner raises
    DomainError, as in ``averaged_poisson_closed``; a null duel leaves its
    quadrature and rel_diff None and gives its AccuracyError's reason."""
    grid = np.asarray(grid, dtype=float)
    v, w, basics = _zero_bond(model, lam, nu, grid + 1j * eps)
    if (w == 0).any():
        raise DomainError(_VANISHED)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = _poisson(v, w).tolist()
    for k, E in enumerate(grid.tolist()):
        basics_k = G0Basics(*(getattr(basics, f.name)[k] for f in fields(G0Basics)))
        for j, (phi, cl) in enumerate(zip(TAGS, closed[k])):
            quadr = rel = reason = None
            try:
                quadr = _duel(v[k, j], w[k, j], basics_k, phi, fixed_bond(phi, lam, nu), E, tol)
                rel = abs(cl - quadr) / max(abs(cl), abs(quadr), 1e-300)
            except AccuracyError as exc:
                reason = exc.reason
            yield E, phi, cl, quadr, rel, reason


def rank_one_average(measure: SpectralMeasure, E: float, eps: float) -> float:
    """Average of the rank-one-perturbed Poisson kernel over the bond strength.

    With g = measure.borel(E + i eps) the perturbed transform is
    g / (1 + s g); its imaginary part integrates to pi exactly, independent
    of the measure and of (E, eps) — the averaged measure is Lebesgue.  With
    q = 1/g that imaginary part is the Lorentzian -Im q / ((s + Re q)^2 +
    (Im q)^2), even about s = -Re q, so ``_peak_quadrature`` integrates it
    in t = s + Re q around the pole pair +-i |Im q|.  Raises AccuracyError
    with ``reason`` PEAK_BELOW_ROUNDING where g is 0 or not finite, or where
    Im q is 0, infinite or NaN (a g made real by underflow): there is no
    peak to map.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    g = complex(measure.borel(complex(E, eps)))
    q = 1.0 / g if g != 0 and cmath.isfinite(g) else complex(math.nan)
    if not 0.0 < abs(q.imag) < math.inf:
        raise AccuracyError(f"the rank-one pole at E = {E} has no width: g = {g}",
                            estimate=math.nan, achieved=math.inf,
                            reason=PEAK_BELOW_ROUNDING)

    def integrand(s: np.ndarray) -> np.ndarray:
        return (g / (1.0 + s * g)).imag

    return _peak_quadrature(lambda t: integrand(t - q.real), 1j * abs(q.imag), RANK_ONE_TOL)


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
    (marked EXCLUDED_N) and never evaluated.  One ``lattice_records`` call
    over the remaining grid evaluates all four tags, so a numerical failure
    leaves only its own energy UNDETERMINED, and a vanished partner only
    its own vector's rows there.  In the degenerate
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

    def transform(E, eps):
        # Im of a Cauchy transform: the ladder gets i times it.  A vanished
        # partner or an overflowing v / w leaves its own values not finite,
        # and i times those reads nan in its real part, silently
        v, w, _ = _zero_bond(model, fixed_lam, nu, E + 1j * eps)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return 1j * _poisson(v, w)

    records = lattice_records(transform, kept, [(k,) for k in range(len(TAGS))], ladder, tol=tol)
    for row in records:
        for phi, rec in zip(TAGS, row):
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
