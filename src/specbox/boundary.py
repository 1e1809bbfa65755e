"""Boundary values G(E + i0) from an epsilon ladder, and energy classification.

A geometric ladder eps_max * ratio^k realizes the limit eps -> 0 numerically.
The decision tree (in order) on the ladder values f_k:

  DIVERGENT        log|f| vs log eps slope <= -0.5 on the last rungs and
                   |f| beyond div_tol; a slope near -1 signals a pole whose
                   weight is the Richardson limit of eps * Im f (see
                   ``_ladder_mass``).
  ZERO             |f| below zero_tol and shrinking.
  FINITE_NONZERO   Cauchy convergence (successive differences shrinking by a
                   factor >= 1.5, which cleanly excludes the sqrt(eps)
                   profiles of band-edge densities); value is the Richardson
                   extrapolation under the model f(E + i eps) = f0 + c eps.
  UNDETERMINED     everything else: an honest fourth outcome instead of a
                   forced call at band edges or log singularities.

Membership in the certified finite sets (sigma(H_S), S, N) is decided by the
root lists, never by ladder behavior; those sets have measure zero and a grid
cannot see them; ``classify_grid`` compares the whole grid with each list
at once.  The limit-profile checks read the Feshbach data a, b and
d = a b - |c|^2 (``SystemBlock.d``) from one array call each over the grid
energies off sigma(H_S).  The check c2 divides by d, so it applies only
where the model is not degenerate and d(E) != 0; either check applies only
where its target is finite in double precision (nu^2 d or nu^2 b can
underflow to 0).

Atoms in the gaps of the reservoir bands come from the secular equation,
not from a ladder.  In a gap D(E) is real, an atom of mu_delta sits at a
real zero E0 of D, and its weight is the residue -N(E0) / D'(E0) of
G(delta, delta) = N / D.  ``point_mass_scan`` samples D, cleared of the
poles of the uncoupled pairs, on every gap inside a norm bound of the
coupled operator, and refines all sign changes at once with regula falsi
steps, all in real arithmetic.  At each root it evaluates the same
function once at E0 + ih and takes D'(E0) = Im D(E0 + ih) / h by the
complex step, which subtracts nothing and so loses nothing to
cancellation.  It does not see atoms embedded in a band, nor zeros of D
without a sign change (tangential zeros; an atom sitting on a degenerate
eigenvalue of H_S can be one).

``lattice_records`` is the one (energy x eps) lattice path, blocked and
failure-local; ``density`` runs it on the four diagonal pairs of the
batched 4x4 solve (``diagonal_records``), the averaged scan on each tag,
and ``classify`` and ``certify`` on the reservoir transforms l and r
(``classify_grid``), one lattice per side, so a failure on one side
leaves the other side's record at that energy alone.

Every ladder's atom weight comes from one rule, ``_ladder_mass``: a
DIVERGENT record with slope <= -0.8 carries the converged Richardson
limit of eps * Im f as ``pole_weight``, the estimate ``point_mass``
makes from its own ladder; the weight is None where eps * Im f does not
converge or the slope is above -0.8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .blackbox import DELTA_L, DELTA_R, TAGS, BlackBoxModel, cleared_sum
from .errors import (
    DomainError,
    PointMassPresentError,
    SpecboxError,
    UndeterminedLimitError,
)
from .measures import _piece_borel
from .resolvent import CouplingParams, _coupling, green, green_all

__all__ = [
    "Tolerances",
    "EpsilonLadder",
    "BoundaryRecord",
    "EnergyClassification",
    "boundary_value",
    "classify_energy",
    "classify_grid",
    "diagonal_records",
    "lattice_records",
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
#: the atom scan's uniform samples per gap, and its geometric samples
#: towards each gap end (the distance halves from one to the next)
SCAN_SAMPLES = 256
SCAN_EDGE_STEPS = 50
#: the atom scan covers |E| <= SCAN_BOUND_FACTOR times a norm bound
SCAN_BOUND_FACTOR = 1.1
#: the atom scan's complex step h: far below the rounding of E, so that
#: Im f(E + ih) / h is f'(E) and Re f(E + ih) is f(E)
_COMPLEX_STEP = 1e-100
#: a safety cap; the scan's brackets close in about ten steps
_REFINE_STEPS = 200
#: most rungs a ladder may have, checked before any rung is allocated
MAX_RUNGS = 10_000
#: the failures of a ladder's evaluation that make it UNDETERMINED
_NUMERICAL_ERRORS = (SpecboxError, ArithmeticError, np.linalg.LinAlgError)
#: lattice points (energies x rungs) per call of ``lattice_records``: its
#: arrays stay this small however long the grid and deep the ladder
LATTICE_POINTS = 1024


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
        if self.eps_min / self.eps_max == 0:  # the log in _rungs would fail
            raise DomainError(
                f"eps_min / eps_max underflows to 0 for ({self.eps_min}, {self.eps_max})"
            )
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
    #: mu({E}) from ``_ladder_mass`` on a DIVERGENT record with slope <= -0.8;
    #: None on every other record and where eps * Im f does not converge
    pole_weight: float | None = None
    slope: float | None = None
    #: the rungs: eps_k and f(E + i eps_k), cut to the finite prefix where a
    #: value is not finite, and None where the evaluation of f raised
    eps: np.ndarray | None = None
    values: np.ndarray | None = None

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
    ladder: EpsilonLadder = EpsilonLadder(),
    *,
    tol: Tolerances = Tolerances(),
) -> BoundaryRecord:
    """Extrapolate f(E + i 0) along the ladder and classify the outcome.

    ``f`` must accept the array of ladder points z and is called once per
    ladder; a constant result is broadcast over the rungs.  A numerical
    failure of that call gives UNDETERMINED without rungs, and non-finite
    values give UNDETERMINED with the finite prefix of the rungs.
    """
    eps = ladder.epsilons()
    zs = E + 1j * eps
    try:
        vals = np.broadcast_to(np.asarray(f(zs), dtype=complex), zs.shape)
    except _NUMERICAL_ERRORS:
        return BoundaryRecord(E, UNDETERMINED)
    bad = ~np.isfinite(vals)
    if bad.any():
        n = bad.argmax()
        return BoundaryRecord(E, UNDETERMINED, eps=eps[:n], values=vals[:n])
    mags = np.abs(vals)
    window = min(SLOPE_WINDOW, len(eps))
    log_eps = np.log(eps[-window:])
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.maximum(mags[-window:], 1e-300))
    slope = float(np.polyfit(log_eps, log_mag, 1)[0])
    common = {"slope": slope, "eps": eps, "values": vals}

    if slope <= -0.5 and mags[-1] > tol.div_tol:
        weight = _ladder_mass(eps, vals, ladder.ratio) if slope <= -0.8 else None
        return BoundaryRecord(E, DIVERGENT, pole_weight=weight, **common)

    tail = mags[-window:]
    if mags[-1] < tol.zero_tol and np.all(np.diff(tail) <= 1e-12 + 0.1 * tail[:-1]):
        value = _richardson(vals[-1], vals[-2], ladder.ratio)
        return BoundaryRecord(E, ZERO, value=value, im_limit=0.0, **common)

    diffs = np.abs(np.diff(vals[-(window + 1):]))
    floor = 1e-12 * max(1.0, mags[-1])
    converged = all(
        d_next <= d_prev / _CAUCHY_FACTOR or d_next <= floor
        for d_prev, d_next in zip(diffs[:-1], diffs[1:])
    )
    if converged:
        value = _richardson(vals[-1], vals[-2], ladder.ratio)
        if abs(value) <= tol.zero_tol:
            return BoundaryRecord(E, ZERO, value=value, im_limit=0.0, **common)
        if abs(value) < tol.div_tol:
            return BoundaryRecord(
                E, FINITE_NONZERO, value=value, im_limit=float(value.imag), **common
            )
    return BoundaryRecord(E, UNDETERMINED, **common)


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


def _near(grid: np.ndarray, points: Sequence[float]) -> np.ndarray:
    """For each grid energy E, whether some p in points has
    |E - p| <= _MATCH_TOL * max(1, |p|)."""
    p = np.asarray(points, dtype=float)
    return np.any(np.abs(grid[:, None] - p) <= _MATCH_TOL * np.maximum(1.0, np.abs(p)), axis=1)


def classify_energy(
    model: BlackBoxModel,
    E: float,
    nu: float | None = None,
    ladder: EpsilonLadder = EpsilonLadder(),
    *,
    tol: Tolerances = Tolerances(),
) -> EnergyClassification:
    """Classify E against the certified sets and the boundary-value sets:
    the one-energy case of ``classify_grid``."""
    return next(classify_grid(model, [E], nu, ladder, tol=tol))


def classify_grid(
    model: BlackBoxModel,
    grid,
    nu: float | None = None,
    ladder: EpsilonLadder = EpsilonLadder(),
    *,
    tol: Tolerances = Tolerances(),
) -> Iterator[EnergyClassification]:
    """The classification of each grid energy in turn.

    Set membership (sigma(H_S), S, N) comes from the certified root lists with
    match tolerance 1e-9.  The reservoir sets need both chi transforms to have
    finite nonzero boundary values; the dissipative subsets additionally need
    the imaginary part inside (im_tol, 1/im_tol).  Each transform's ladders
    come from its own ``lattice_records`` run, so a numerical failure of one
    side's evaluation makes only that side's record UNDETERMINED.
    """
    exc = model.exceptional_sets
    grid = np.asarray(grid, dtype=float).reshape(-1)
    in_sigma = _near(grid, exc.sigma_hs)
    in_s = _near(grid, exc.s_zeros).tolist()
    in_n = [None] * grid.size if exc.degenerate else _near(grid, exc.n_points).tolist()
    if nu is not None:
        nu = float(nu)
        # the Feshbach data a, b and d, one array call each, at the energies
        # the profile checks read: off sigma(H_S), and none where nu = 0
        needs = ~in_sigma & (nu != 0.0)
        system, E_in = model.system, grid[needs]
        feshbach = zip(system.green(DELTA_L, DELTA_L, E_in).real.tolist(),
                       system.green(DELTA_R, DELTA_R, E_in).real.tolist(),
                       system.d(E_in).tolist())
    sides = [lattice_records(lambda E, eps, m=measure: m.borel(E + 1j * eps), grid, [()],
                             ladder, tol=tol)
             for measure in (model.res_l, model.res_r)]
    for k, ((rec_l,), (rec_r,)) in enumerate(zip(*sides)):
        in_m0 = rec_l.status == FINITE_NONZERO and rec_r.status == FINITE_NONZERO
        in_ml = bool(
            in_m0 and rec_l.im_limit is not None
            and tol.im_tol < rec_l.im_limit < 1.0 / tol.im_tol
        )
        in_mr = bool(
            in_m0 and rec_r.im_limit is not None
            and tol.im_tol < rec_r.im_limit < 1.0 / tol.im_tol
        )
        c2 = c3 = None
        if nu is not None:
            data = next(feshbach) if needs[k] else None
            c2, c3 = _c_set_diagnostics(model, nu, rec_l, rec_r, data)
        yield EnergyClassification(
            E=rec_l.E,
            in_m0=in_m0,
            in_ml=in_ml,
            in_mr=in_mr,
            in_sigma_hs=bool(in_sigma[k]),
            in_s=in_s[k],
            in_n=in_n[k],
            rec_chi_l=rec_l,
            rec_chi_r=rec_r,
            c2=c2,
            c3=c3,
        )


def _c_set_diagnostics(model, nu, rec_l, rec_r, data):
    """Limit-profile checks behind the averaged singular support, given nu
    and the Feshbach data (a, b, d) at E, or None where E is in sigma(H_S)
    or nu = 0.

    Profile 2: left chi transform diverges while the right one approaches
    G0(delta_l, delta_l, E) / (nu^2 d(E)).  Profile 3: left chi transform
    vanishes while the right one approaches 1 / (nu^2 G0(delta_r, delta_r, E)).
    Both need E outside sigma(H_S) and a target that is finite in double
    precision (nu^2 d or nu^2 b may underflow).  Profile 2 also needs
    d(E) != 0 on a model that is not degenerate: where d vanishes
    identically its computed value is roundoff, and the target would divide
    by it.
    """
    c2 = {"applicable": False, "satisfied": False, "target": None}
    c3 = {"applicable": False, "satisfied": False, "target": None}
    if data is None:
        return c2, c3
    a, b, d = data
    r_val = rec_r.value if rec_r.finite else None

    def profile(num, den, left_status):
        # None where the target num / den is not finite; satisfied: the left
        # transform has the profile's limit and the right one approaches the
        # target
        target = num / den if den != 0.0 else math.inf
        if not math.isfinite(target):
            return None
        satisfied = rec_l.status == left_status and r_val is not None and (
            abs(r_val - target) <= C_TOL * max(1.0, abs(target))
        )
        return {"applicable": True, "satisfied": bool(satisfied), "target": target}

    if d != 0.0 and not model.exceptional_sets.degenerate:
        c2 = profile(a, nu**2 * d, DIVERGENT) or c2
    if b != 0.0:
        c3 = profile(1.0, nu**2 * b, ZERO) or c3
    return c2, c3


def lattice_records(f: Callable, grid, columns: Sequence[tuple],
                    ladder: EpsilonLadder = EpsilonLadder(), *,
                    tol: Tolerances = Tolerances()) -> Iterator[list[BoundaryRecord]]:
    """The ladder records of f at each grid energy in turn, one per column.

    ``f(E, eps)`` maps energies E of shape (k, 1), or a float, and the
    ladder's eps to an array of shape (k, rungs, ...), or (rungs, ...); a
    column c indexes it as [..., *c].  f runs once per block of energies,
    at most LATTICE_POINTS lattice points but one energy at least, as the
    records are consumed, and each row goes to ``boundary_value``
    unchanged.  Where the block's call fails numerically, each energy is
    handed to ``boundary_value`` to evaluate alone, so only the failing
    energy's records are UNDETERMINED, without rungs.
    """
    eps = ladder.epsilons()
    grid = np.asarray(grid, dtype=float)
    size = max(1, LATTICE_POINTS // eps.size)
    for start in range(0, grid.size, size):
        block = grid[start:start + size]
        try:
            values = f(block[:, None], eps)
            cols = [values[(..., *c)] for c in columns]
        except _NUMERICAL_ERRORS:
            cols = None
        for k, E in enumerate(block.tolist()):
            if cols is None:
                fs = [lambda z, E=E, c=c: f(E, z.imag)[(..., *c)] for c in columns]
            else:
                fs = [lambda z, row=col[k]: row for col in cols]
            yield [boundary_value(g, E, ladder, tol=tol) for g in fs]


def diagonal_records(model: BlackBoxModel, coupling, grid,
                     ladder: EpsilonLadder = EpsilonLadder(), *,
                     tol: Tolerances = Tolerances()) -> Iterator[list[BoundaryRecord]]:
    """The records of G(phi, phi, E + i0), phi in TAGS order, at each grid
    energy in turn: ``lattice_records`` on the diagonal of ``green_all``."""
    return lattice_records(lambda E, eps: green_all(model, coupling, E + 1j * eps), grid,
                           [(i, i) for i in range(len(TAGS))], ladder, tol=tol)


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
    ladder: EpsilonLadder = EpsilonLadder(),
) -> float:
    """mu_phi({E}) as the Richardson limit of eps * Im G(phi, phi, E + i eps)."""
    eps = ladder.epsilons()
    zs = E + 1j * eps
    vals = np.asarray(green(model, coupling, phi, phi, zs))
    w = _ladder_mass(eps, vals, ladder.ratio)
    if w is None:
        raise UndeterminedLimitError(
            f"eps * Im G did not converge at E = {E}",
            record=BoundaryRecord(E, UNDETERMINED, eps=eps, values=vals),
        )
    return w


def _ladder_mass(eps: np.ndarray, vals: np.ndarray, ratio: float) -> float | None:
    """The Richardson limit of eps * Im f over the ladder values f, read as
    0 at or below ATOM_FLOOR; None unless the last three steps of eps * Im f
    stop growing."""
    m = eps * vals.imag
    diffs = np.abs(np.diff(m[-4:]))
    floor = 1e-10 * max(1.0, abs(m[-1]))
    if not (diffs[-1] <= diffs[-2] + floor or diffs[-1] <= floor):
        return None
    w = float(_richardson(m[-1], m[-2], ratio).real)
    return w if w > ATOM_FLOOR else 0.0


def point_mass_scan(model: BlackBoxModel, coupling) -> list[tuple[float, float, float]]:
    """Atoms of mu_{delta_l} and mu_{delta_r} in the open gaps of the
    reservoir bands, found as the real zeros of the secular determinant D.

    Returns (E, w_delta_l, w_delta_r) by ascending E.  A weight at or below
    ATOM_FLOOR reads 0, and a zero whose two weights both read 0 is left out.
    Atoms embedded in a band and zeros of D without a sign change are not
    scanned.
    """
    cp = _coupling(coupling)
    secular = _secular_function(model, cp)
    x, gap = _scan_points(model, cp)
    f = secular(x)[0]
    sign = np.sign(f)
    cross = np.flatnonzero((gap[1:] == gap[:-1]) & (sign[1:] * sign[:-1] < 0))
    roots = np.concatenate([
        x[f == 0.0],
        _refine(lambda e: secular(e)[0], x[cross], x[cross + 1], f[cross], f[cross + 1]),
    ])
    roots.sort()
    det, num_l, num_r = secular(roots + 1j * _COMPLEX_STEP)
    slope = det.imag / _COMPLEX_STEP
    found = []
    for E, w_l, w_r in zip(roots, -num_l.real / slope, -num_r.real / slope):
        w_l, w_r = (float(w) if w > ATOM_FLOOR else 0.0 for w in (w_l, w_r))
        if w_l or w_r:
            found.append((float(E), w_l, w_r))
    return found


def _secular_function(model: BlackBoxModel, cp: CouplingParams):
    """E -> (D, N_l, N_r) in the gaps, with G(delta, delta) = N / D and all
    three multiplied by prod (E - p) over the poles p of the uncoupled
    pairs: the sigma(H_S) clusters (see ``SystemBlock.secular_polynomials``)
    and the reservoir atoms.  Real E is evaluated in real arithmetic; every
    factor is holomorphic in the gaps, so complex E near the axis gives the
    complex step.

    With l, r the reservoir transforms, a, b the system diagonal pairs and
    d = a b - |c|^2, D = 1 - nu^2 r b - lam^2 l a + lam^2 nu^2 r l d,
    N_l = a - nu^2 r d and N_r = b - lam^2 l d.  Cleared, each is finite
    at the poles, so a zero of D sitting on one still has its residue.
    """
    polys = model.system.secular_polynomials()
    reservoirs = []
    for measure in (model.res_l, model.res_r):
        xs = [x for x, _ in measure.atoms]
        atoms = cleared_sum(xs, xs, [w for _, w in measure.atoms])
        reservoirs.append((measure.pieces, npoly.polyfromroots(xs), atoms))
    lam2, nu2 = cp.lam**2, cp.nu**2

    def reservoir(pieces, pi, atoms, E):
        pi = npoly.polyval(E, pi)
        return pi, pi * sum(_piece_borel(p, E) for p in pieces) + npoly.polyval(E, atoms)

    def secular(E):
        E = np.asarray(E)
        (pi_l, l), (pi_r, r) = (reservoir(*res, E) for res in reservoirs)
        p, a, b, d = (npoly.polyval(E, c) for c in polys)
        det = p * pi_l * pi_r - nu2 * r * pi_l * b - lam2 * l * pi_r * a \
            + lam2 * nu2 * r * l * d
        return det, a * pi_l * pi_r - nu2 * r * pi_l * d, b * pi_l * pi_r - lam2 * l * pi_r * d

    return secular


def _scan_points(model: BlackBoxModel, cp: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """Sample energies, ascending, and the index of the gap each lies in.

    The gaps are the open intervals between the reservoir bands inside
    |E| <= SCAN_BOUND_FACTOR * R, where R = max |x| over both supports and
    sigma(H_S), plus |lam| |delta_l| sqrt(m_l) + |nu| |delta_r| sqrt(m_r) with
    m_l, m_r the reservoirs' total masses, bounds the norm of the coupled
    operator.  Each gap gets SCAN_SAMPLES
    uniform points, SCAN_EDGE_STEPS geometric points towards each end (the
    transforms diverge logarithmically at a band edge) and the poles of the
    uncoupled pairs that lie in it.
    """
    measures = (model.res_l, model.res_r)
    system = model.system
    bands = sorted((p.a, p.b) for m in measures for p in m.pieces)
    atoms = [x for m in measures for x, _ in m.atoms]
    radius = max([abs(x) for band in bands for x in band]
                 + [abs(x) for x in atoms] + list(np.abs(system.eigenvalues)))
    radius += abs(cp.lam) * np.linalg.norm(system.delta_l) * np.sqrt(model.res_l.total_mass)
    radius += abs(cp.nu) * np.linalg.norm(system.delta_r) * np.sqrt(model.res_r.total_mass)
    bound = SCAN_BOUND_FACTOR * radius
    gaps, start = [], -bound
    for a, b in bands:
        if a > start:
            gaps.append((start, a))
        start = max(start, b)
    gaps.append((start, bound))
    poles = np.concatenate([system.poles, atoms])
    points = []
    for a, b in gaps:
        steps = (b - a) * 0.5 ** np.arange(1, SCAN_EDGE_STEPS + 1)
        x = np.concatenate([np.linspace(a, b, SCAN_SAMPLES), a + steps, b - steps, poles])
        points.append(_sorted_distinct(x[(x > a) & (x < b)]))
    gap = np.repeat(np.arange(len(points)), [p.size for p in points])
    return np.concatenate(points), gap


def _sorted_distinct(x) -> np.ndarray:
    """``np.unique`` of finite values, without the import of ``numpy.ma`` that
    its first call costs: sort, then keep each value that differs from the
    one before it."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _refine(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Illinois-type regula falsi steps (the Anderson-Bjorck variant) on
    every bracket at once, until each bracket is a few ulp wide or lands on
    an exact zero."""
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    moved = np.zeros(lo.shape, dtype=int)  # the end moved last: -1 lo, +1 hi
    for _ in range(_REFINE_STEPS):
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))
        i = np.flatnonzero(hi - lo > tol)
        if i.size == 0:
            break
        l, h, fl, fh, step = lo[i], hi[i], f_lo[i], f_hi[i], 0.5 * tol[i]
        x = (l * fh - h * fl) / (fh - fl)
        x = np.where(np.isfinite(x), x, 0.5 * (l + h))
        # half a tolerance inside either end: a zero approached from one side
        # still collapses its bracket
        x = np.clip(x, l + step, h - step)
        fx = f(x)
        zero = fx == 0.0
        right = np.sign(fx) == np.sign(fl)  # the zero lies in [x, h]
        # when the same end moves twice running, scale the value kept at the
        # other end by 1 - f(x) / f(moved end), or by 1/2 if that is not
        # positive; a far, steep end then stops holding the step back
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - fx / np.where(right, fl, fh)
        m = np.where(m > 0.0, m, 0.5)
        fh = np.where(right & (moved[i] == -1), m * fh, fh)
        fl = np.where(~right & (moved[i] == 1), m * fl, fl)
        lo[i] = np.where(right | zero, x, l)
        hi[i] = np.where(right & ~zero, h, x)
        f_lo[i] = np.where(right, fx, fl)
        f_hi[i] = np.where(right, fh, fx)
        moved[i] = np.where(right, -1, 1)
    return 0.5 * (lo + hi)
