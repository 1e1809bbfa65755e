"""Boundary values G(E + i0) from an epsilon ladder, and energy classification.

A geometric ladder eps_max * ratio^k realizes the limit eps -> 0 numerically.
The decision tree (in order) on the ladder values f_k:

  DIVERGENT        log|f| vs log eps slope <= -0.5 on the last rungs and
                   |f| beyond div_tol; a slope near -1 signals a pole whose
                   weight is the Richardson limit of eps * Im f.
  ZERO             |f| below zero_tol and shrinking.
  FINITE_NONZERO   Cauchy convergence (successive differences shrinking by a
                   factor >= 1.5, which cleanly excludes the sqrt(eps)
                   profiles of band-edge densities); value is the Richardson
                   extrapolation under the model f(E + i eps) = f0 + c eps.
  UNDETERMINED     everything else: an honest fourth outcome instead of a
                   forced call at band edges or log singularities.

Membership in the certified finite sets (sigma(H_S), S, N) is decided by the
root lists, never by ladder behavior; those sets have measure zero and a grid
cannot see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blackbox import DELTA_L, DELTA_R, BlackBoxModel
from .errors import (
    DomainError,
    PointMassPresentError,
    SpecboxError,
    UndeterminedLimitError,
)
from .resolvent import green

__all__ = [
    "Tolerances",
    "EpsilonLadder",
    "BoundaryRecord",
    "EnergyClassification",
    "boundary_value",
    "classify_energy",
    "ac_density",
    "density_from_record",
    "point_mass",
    "point_mass_scan",
    "FINITE_NONZERO",
    "ZERO",
    "DIVERGENT",
    "UNDETERMINED",
]

FINITE_NONZERO = "FINITE_NONZERO"
ZERO = "ZERO"
DIVERGENT = "DIVERGENT"
UNDETERMINED = "UNDETERMINED"

SLOPE_WINDOW = 5
_CAUCHY_FACTOR = 1.5
_MATCH_TOL = 1e-9
#: relative match tolerance of the c2/c3 limit-profile checks
C_TOL = 1e-6
#: point masses at or below this weight are reported as 0
ATOM_FLOOR = 1e-10
#: atom-scan candidates closer than this to a reservoir band are skipped
GAP_MARGIN = 1e-3
#: most rungs a ladder may have, checked before any rung is allocated
MAX_RUNGS = 10_000


@dataclass(frozen=True)
class Tolerances:
    """The thresholds every layer reads: ladder classification (div_tol,
    zero_tol), the dissipative sets (im_tol), the certificate floor on
    |D(E + i0)| (d_floor) and the quadrature duel (quad_tol)."""

    div_tol: float = 1e6
    zero_tol: float = 1e-6
    im_tol: float = 1e-8
    #: below this |D(E + i0)| the verdict is withheld rather than risked: the
    #: theory guarantees D != 0 but not a quantitative lower bound
    d_floor: float = 1e-8
    quad_tol: float = 1e-9


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric ladder eps_max * ratio^k clipped at eps_min."""

    eps_max: float = 1e-1
    eps_min: float = 1e-9
    ratio: float = 0.5

    def __post_init__(self):
        if not 0 < self.eps_min < self.eps_max:
            raise DomainError(
                f"need 0 < eps_min < eps_max, got ({self.eps_min}, {self.eps_max})"
            )
        if not 0 < self.ratio < 1:
            raise DomainError(f"ratio must be in (0, 1), got {self.ratio}")
        rungs = self._rungs()
        if rungs < 4:  # point_mass compares the last three steps
            raise DomainError("the ladder needs at least 4 rungs")
        if rungs > MAX_RUNGS:
            raise DomainError(f"the ladder may have at most {MAX_RUNGS} rungs, got {rungs}")

    def _rungs(self) -> int:
        return int(math.floor(math.log(self.eps_min / self.eps_max) / math.log(self.ratio))) + 1

    def epsilons(self) -> np.ndarray:
        return self.eps_max * self.ratio ** np.arange(self._rungs())


@dataclass
class BoundaryRecord:
    """Outcome of one ladder extrapolation at energy E."""

    E: float
    status: str
    value: complex | None = None
    im_limit: float | None = None
    pole_weight: float | None = None
    slope: float | None = None
    ladder_trace: list = field(default_factory=list)

    @property
    def finite(self) -> bool:
        return self.status in (FINITE_NONZERO, ZERO)

    def to_dict(self) -> dict:
        return {
            "E": self.E,
            "status": self.status,
            "value": None
            if self.value is None
            else [self.value.real, self.value.imag],
            "im_limit": self.im_limit,
            "pole_weight": self.pole_weight,
            "slope": self.slope,
        }


def _richardson(last: complex, prev: complex, ratio: float) -> complex:
    """Eliminate the O(eps) term given f(eps), f(eps/ratio) ... f = f0 + c eps."""
    return (last - ratio * prev) / (1.0 - ratio)


def boundary_value(
    f: Callable,
    E: float,
    ladder: EpsilonLadder | None = None,
    *,
    tol: Tolerances = Tolerances(),
) -> BoundaryRecord:
    """Extrapolate f(E + i 0) along the ladder and classify the outcome.

    ``f`` must accept the array of ladder points z and is called once per
    ladder; a constant result is broadcast over the rungs.  A numerical
    failure of that call gives UNDETERMINED with an empty trace, and
    non-finite rungs give UNDETERMINED with the finite prefix as trace.
    """
    ladder = ladder or EpsilonLadder()
    eps = ladder.epsilons()
    zs = E + 1j * eps
    try:
        vals = np.broadcast_to(np.asarray(f(zs), dtype=complex), zs.shape)
    except (SpecboxError, ArithmeticError, np.linalg.LinAlgError):
        return BoundaryRecord(E, UNDETERMINED)
    trace = list(zip(eps, vals))
    bad = ~np.isfinite(vals)
    if bad.any():
        return BoundaryRecord(E, UNDETERMINED, ladder_trace=trace[: bad.argmax()])
    mags = np.abs(vals)
    window = min(SLOPE_WINDOW, len(eps))
    log_eps = np.log(eps[-window:])
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.maximum(mags[-window:], 1e-300))
    slope = float(np.polyfit(log_eps, log_mag, 1)[0])

    last, prev = vals[-1], vals[-2]

    if slope <= -0.5 and mags[-1] > tol.div_tol:
        pole_weight = None
        if slope <= -0.8:
            m_last = eps[-1] * last.imag
            m_prev = eps[-2] * prev.imag
            pole_weight = max(float(_richardson(m_last, m_prev, ladder.ratio).real), 0.0)
        return BoundaryRecord(
            E, DIVERGENT, pole_weight=pole_weight, slope=slope, ladder_trace=trace
        )

    tail = mags[-window:]
    if mags[-1] < tol.zero_tol and np.all(np.diff(tail) <= 1e-12 + 0.1 * tail[:-1]):
        value = _richardson(last, prev, ladder.ratio)
        return BoundaryRecord(
            E, ZERO, value=value, im_limit=0.0, slope=slope, ladder_trace=trace
        )

    diffs = np.abs(np.diff(vals[-(window + 1):]))
    floor = 1e-12 * max(1.0, mags[-1])
    converged = all(
        d_next <= d_prev / _CAUCHY_FACTOR or d_next <= floor
        for d_prev, d_next in zip(diffs[:-1], diffs[1:])
    )
    if converged:
        value = _richardson(last, prev, ladder.ratio)
        if abs(value) <= tol.zero_tol:
            return BoundaryRecord(
                E, ZERO, value=value, im_limit=0.0, slope=slope, ladder_trace=trace
            )
        if abs(value) < tol.div_tol:
            return BoundaryRecord(
                E,
                FINITE_NONZERO,
                value=value,
                im_limit=float(value.imag),
                slope=slope,
                ladder_trace=trace,
            )
    return BoundaryRecord(E, UNDETERMINED, slope=slope, ladder_trace=trace)


@dataclass
class EnergyClassification:
    """Per-energy membership flags and boundary diagnostics.

    ``in_n`` is None when the averaging exceptional set is degenerate (the
    whole line).  ``c2``/``c3`` describe, for the supplied nu, whether the
    limit profile matches the divergence/vanishing characterizations of the
    averaged singular support; each is a dict with keys ``applicable`` and
    ``satisfied``.
    """

    E: float
    in_m0: bool
    in_ml: bool
    in_mr: bool
    in_sigma_hs: bool
    in_s: bool
    in_n: bool | None
    rec_chi_l: BoundaryRecord
    rec_chi_r: BoundaryRecord
    c2: dict | None = None
    c3: dict | None = None

    def to_dict(self) -> dict:
        return {
            "E": self.E,
            "in_M0": self.in_m0,
            "in_Ml": self.in_ml,
            "in_Mr": self.in_mr,
            "in_sigma_hs": self.in_sigma_hs,
            "in_S": self.in_s,
            "in_N": self.in_n,
            "chi_l": self.rec_chi_l.to_dict(),
            "chi_r": self.rec_chi_r.to_dict(),
            "c2": self.c2,
            "c3": self.c3,
        }


def _near(E: float, points: Sequence[float], tol: float = _MATCH_TOL) -> bool:
    return any(abs(E - p) <= tol * max(1.0, abs(p)) for p in points)


def classify_energy(
    model: BlackBoxModel,
    E: float,
    nu: float | None = None,
    ladder: EpsilonLadder | None = None,
    *,
    tol: Tolerances = Tolerances(),
) -> EnergyClassification:
    """Classify E against the certified sets and the boundary-value sets.

    Set membership (sigma(H_S), S, N) comes from the certified root lists with
    match tolerance 1e-9.  The reservoir sets need both chi transforms to have
    finite nonzero boundary values; the dissipative subsets additionally need
    the imaginary part inside (im_tol, 1/im_tol).
    """
    ladder = ladder or EpsilonLadder()
    exc = model.exceptional_sets
    in_sigma = _near(E, exc.sigma_hs)
    in_s = _near(E, exc.s_zeros)
    in_n = None if exc.degenerate else _near(E, exc.n_points)

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
        E=float(E),
        in_m0=in_m0,
        in_ml=in_ml,
        in_mr=in_mr,
        in_sigma_hs=in_sigma,
        in_s=in_s,
        in_n=in_n,
        rec_chi_l=rec_l,
        rec_chi_r=rec_r,
        c2=c2,
        c3=c3,
    )


def _c_set_diagnostics(model, E, nu, rec_l, rec_r, in_sigma):
    """Limit-profile checks behind the averaged singular support, given nu.

    Profile 2: left chi transform diverges while the right one approaches
    G0(delta_l, delta_l, E) / (nu^2 d(E)).  Profile 3: left chi transform
    vanishes while the right one approaches 1 / (nu^2 G0(delta_r, delta_r, E)).
    Both need E outside sigma(H_S) and, for profile 2, d(E) != 0.
    """
    c2 = {"applicable": False, "satisfied": False, "target": None}
    c3 = {"applicable": False, "satisfied": False, "target": None}
    if nu == 0.0 or in_sigma:
        return c2, c3
    a = model.g0(DELTA_L, DELTA_L, float(E)).real
    b = model.g0(DELTA_R, DELTA_R, float(E)).real
    d = model.d_function(float(E))
    r_val = rec_r.value if rec_r.finite else None

    if d != 0.0:
        target2 = a / (nu**2 * d)
        c2["applicable"] = True
        c2["target"] = target2
        if rec_l.status == DIVERGENT and r_val is not None:
            c2["satisfied"] = bool(
                abs(r_val - target2) <= C_TOL * max(1.0, abs(target2))
            )
    if b != 0.0:
        target3 = 1.0 / (nu**2 * b)
        c3["applicable"] = True
        c3["target"] = target3
        if rec_l.status == ZERO and r_val is not None:
            c3["satisfied"] = bool(
                abs(r_val - target3) <= C_TOL * max(1.0, abs(target3))
            )
    return c2, c3


def ac_density(
    model: BlackBoxModel,
    coupling,
    phi: str,
    E: float,
    ladder: EpsilonLadder | None = None,
) -> float:
    """(1/pi) Im G(phi, phi, E + i0); 0 where the boundary value vanishes.

    Raises PointMassPresentError on a divergent ladder (an atom, not a
    density) and UndeterminedLimitError when no call can be made.
    """
    rec = boundary_value(
        lambda z: green(model, coupling, phi, phi, z), E, ladder
    )
    return density_from_record(rec)


def density_from_record(rec: BoundaryRecord) -> float:
    """(1/pi) Im of the boundary value in ``rec``; 0 where it vanishes.

    Raises PointMassPresentError on a DIVERGENT record and
    UndeterminedLimitError on an UNDETERMINED one.
    """
    if rec.status == FINITE_NONZERO:
        return max(rec.value.imag, 0.0) / np.pi
    if rec.status == ZERO:
        return 0.0
    if rec.status == DIVERGENT:
        raise PointMassPresentError(
            f"boundary value diverges at E = {rec.E}; a point mass sits here",
            record=rec,
        )
    raise UndeterminedLimitError(
        f"ladder did not resolve the boundary value at E = {rec.E}", record=rec
    )


def point_mass(
    model: BlackBoxModel,
    coupling,
    phi: str,
    E: float,
    ladder: EpsilonLadder | None = None,
) -> float:
    """mu_phi({E}) as the Richardson limit of eps * Im G(phi, phi, E + i eps)."""
    ladder = ladder or EpsilonLadder()
    eps = ladder.epsilons()
    zs = E + 1j * eps
    vals = np.asarray(green(model, coupling, phi, phi, zs))
    m = eps * vals.imag
    diffs = np.abs(np.diff(m[-4:]))
    floor = 1e-10 * max(1.0, abs(m[-1]))
    if not (diffs[-1] <= diffs[-2] + floor or diffs[-1] <= floor):
        raise UndeterminedLimitError(
            f"eps * Im G did not converge at E = {E}",
            record=BoundaryRecord(E, UNDETERMINED, ladder_trace=list(zip(eps, m))),
        )
    w = float(_richardson(m[-1], m[-2], ladder.ratio).real)
    return w if w > ATOM_FLOOR else 0.0


def point_mass_scan(
    model: BlackBoxModel,
    coupling,
    phi: str,
    ladder: EpsilonLadder | None = None,
    nodes_per_piece: int = 60,
) -> list[tuple[float, float]]:
    """Detect atoms of mu_phi: evaluate the point mass at every isolated
    eigenvalue of the discretized compound operator.

    Candidates are discrete eigenvalues at distance > GAP_MARGIN from the
    reservoir bands (in-band discretization eigenvalues are quadrature
    artifacts); genuinely embedded atoms at band energies are outside the
    scan's reach and documented as such.
    """
    from .resolvent import discretize

    ladder = ladder or EpsilonLadder()
    disc = discretize(model, nodes_per_piece)
    eigs = np.linalg.eigvalsh(disc.assemble(coupling))
    bands = [(p.a, p.b) for meas in (model.res_l, model.res_r) for p in meas.pieces]
    found: list[tuple[float, float]] = []
    for E in eigs:
        if any(a - GAP_MARGIN <= E <= b + GAP_MARGIN for a, b in bands):
            continue
        if found and abs(E - found[-1][0]) < 1e-8:
            continue
        try:
            w = point_mass(model, coupling, phi, float(E), ladder)
        except UndeterminedLimitError:
            continue
        if w > 0:
            found.append((float(E), w))
    return found
