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

Membership in the certified finite sets (sigma(H_S), S, N) is decided by
their lists, never by ladder behavior; those sets have measure zero and a grid
cannot see them; ``classify_grid`` compares the whole grid with each list
at once.  The limit-profile checks read the Feshbach data a, b and
d = a b - |c|^2 (``SystemBlock.d``) from one array call each over the grid
energies off sigma(H_S).  The check c2 divides by d, so it applies only
where the model is not degenerate and d(E) != 0; either check applies only
where its target is finite in double precision (nu^2 d or nu^2 b can
underflow to 0, and is 0 at nu = 0).

Atoms in the gaps of the reservoir bands come from the Feshbach matrix
K(E) = H - E - lam^2 l_c(E) delta_l delta_l* - nu^2 r_c(E) delta_r delta_r*
(``_Feshbach``: the coupled operator reduced onto the system and the
reservoir atoms), not from a ladder.  In a gap l_c and r_c are real and
increasing, so every eigenvalue of K falls with slope at most -1; the
number of negative eigenvalues of K at the ends of a gap is the number of
atoms in it, with multiplicity, and nothing is sampled.  ``point_mass_scan``
places each crossing by Newton's steps on the crossing eigenvalue, bracketed
by its gap, and takes each atom's weights from the null space of K there.
It does not see atoms embedded in a band.

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

from .blackbox import DELTA_L, DELTA_R, TAGS, BlackBoxModel
# defined in config, which every command runs first; still importable from here
from .config import MAX_RUNGS, CouplingParams, EpsilonLadder, Tolerances
from .errors import PointMassPresentError, SpecboxError, UndeterminedLimitError
from .measures import _piece_borel
from .resolvent import _coupling, green, green_all

__all__ = [
    "Tolerances",
    "EpsilonLadder",
    "MAX_RUNGS",
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
#: the atom scan's complex step h: far below the rounding of E, so that
#: Im f(E + ih) / h is f'(E) and Re f(E + ih) is f(E)
_COMPLEX_STEP = 1e-100
#: a safety cap; the atom scan's Newton steps converge in a few
_NEWTON_STEPS = 100
#: the failures of a ladder's evaluation that make it UNDETERMINED
_NUMERICAL_ERRORS = (SpecboxError, ArithmeticError, np.linalg.LinAlgError)
#: lattice points (energies x rungs) per call of ``lattice_records``: its
#: arrays stay this small however long the grid and deep the ladder
LATTICE_POINTS = 1024


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
    averaged singular support; each is a dict with keys ``applicable``,
    ``satisfied`` and ``target``, and None only where no nu is supplied
    (``certify``).  At nu = 0 neither check is applicable.
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

    Set membership (sigma(H_S), S, N) comes from the lists of
    ``exceptional_sets`` with match tolerance 1e-9.  The reservoir sets need
    both chi transforms to have finite nonzero boundary values; the
    dissipative subsets additionally need the imaginary part inside
    (im_tol, 1/im_tol).  Each transform's ladders
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
        # the profile checks read: off sigma(H_S)
        needs = ~in_sigma
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
    and the Feshbach data (a, b, d) at E, or None where E is in sigma(H_S).

    Profile 2: left chi transform diverges while the right one approaches
    G0(delta_l, delta_l, E) / (nu^2 d(E)).  Profile 3: left chi transform
    vanishes while the right one approaches 1 / (nu^2 G0(delta_r, delta_r, E)).
    Both need E outside sigma(H_S) and a target that is finite in double
    precision (nu^2 d or nu^2 b may underflow, and is 0 at nu = 0).  Profile
    2 also needs d(E) != 0 on a model that is not degenerate: where d
    vanishes identically its computed value is roundoff, and the target
    would divide by it.
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
    """mu_phi({E}) as the Richardson limit of eps * Im G(phi, phi, E + i eps):
    a referee for ``point_mass_scan``, which no command calls."""
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
    reservoir bands, found as the energies where the Feshbach matrix K(E)
    (``_Feshbach``) is singular.

    The count of negative eigenvalues of K at the ends of a gap gives the
    number of atoms in it, with multiplicity: the eigenvalues of K from the
    one counts to the other each cross 0 once in the gap, and ``_newton``
    places every crossing at once, each bracketed by its gap.  At an atom
    E0 with an orthonormal null basis
    psi of K, u = psi* delta and G = I + lam^2 l_c' a a* + nu^2 r_c' b b*
    (a = psi* delta_l, b = psi* delta_r), the weight of delta is u* G^-1 u:
    the squared overlap with the eigenvectors of the coupled operator,
    whose norms hold the reservoir parts.  A simple atom's weights are
    carried from the double E0 to its root to first order.

    Returns (E, w_delta_l, w_delta_r) by ascending E.  A weight at or below
    ATOM_FLOOR reads 0, and an atom whose two weights both read 0 (a level
    dark to both vectors) is left out.  Atoms embedded in a band are not
    scanned.
    """
    cp = _coupling(coupling)
    k = _Feshbach(model, cp)
    lo, hi = _gaps(model, cp)
    n_lo, n_hi = np.split(np.sum(k.eigh(np.concatenate([lo, hi]))[0] < 0.0, axis=-1), 2)
    # one task per crossing: in (lo, hi) the j-th eigenvalue of K, ascending,
    # falls through 0 exactly once for j = n_lo .. n_hi - 1
    size = np.maximum(n_hi - n_lo, 0)
    if not size.any():
        return []
    gap = np.repeat(np.arange(size.size), size)
    j = np.concatenate([np.arange(a, b) for a, b in zip(n_lo.tolist(), n_hi.tolist())])
    lo, hi = np.repeat(lo, size), np.repeat(hi, size)
    E = _newton(k, j, lo, hi)
    # crossings of one gap that meet within the match tolerance are one atom,
    # and the eigenvectors of their eigenvalues span the null space of K
    apart = E[1:] - E[:-1] > _MATCH_TOL * np.maximum(1.0, np.abs(E[1:]))
    groups = np.split(np.arange(E.size),
                      np.flatnonzero((gap[1:] != gap[:-1]) | apart) + 1)
    centres = np.array([E[g].mean() for g in groups])
    cols = [j[g] for g in groups]
    mu, slope, weights = _null_weights(k, centres, cols)
    # the root of a simple atom lies -mu/mu' from its double E0, mostly
    # within an ulp.  Near a band edge, where mu goes like the logarithm of
    # the distance to the edge and the weights like the distance itself, the
    # weights move by up to 1e-5 relative over that.  So they are carried to
    # the root: by Newton's step in log-distance to the nearer gap end (a
    # plain step is off by (step/dist)^2 / 2 there) and the weights' slope
    # over the one ulp towards the root (kept inside the gap)
    simple = np.flatnonzero([c.size == 1 for c in cols])
    if simple.size:
        E0 = centres[simple]
        first = np.array([groups[i][0] for i in simple])
        lo_end, hi_end = lo[first], hi[first]
        dist = E0 - np.where(E0 - lo_end < hi_end - E0, np.nextafter(lo_end, -np.inf),
                             np.nextafter(hi_end, np.inf))
        step = dist * np.expm1(-mu[simple] / (slope[simple] * dist))
        E1 = np.nextafter(E0, np.where(step > 0.0, np.inf, -np.inf))
        inside = (E1 >= lo_end) & (E1 <= hi_end)
        frac = np.where(inside, step / (E1 - E0), 0.0)
        _, _, moved = _null_weights(k, np.where(inside, E1, E0), [cols[i] for i in simple])
        weights[simple] += frac[:, None] * (moved - weights[simple])
    found = []
    for E0, (w_l, w_r) in zip(centres.tolist(), weights.tolist()):
        w_l, w_r = (w if w > ATOM_FLOOR else 0.0 for w in (w_l, w_r))
        if w_l or w_r:
            found.append((E0, w_l, w_r))
    return found


def _null_weights(k: "_Feshbach", E: np.ndarray, cols: list[np.ndarray]):
    """At each E, with the eigenvectors of K(E) in the columns ``cols`` (of
    ascending eigenvalue) as the null basis psi: the first column's
    eigenvalue mu and, for a single column, its slope mu' (``_newton``), and
    the weights u* G^-1 u of delta_l and delta_r as an (E.size, 2) array."""
    spectrum, vectors, dl, dr = k.eigh(E)
    mu, slope, weights = np.empty(E.size), np.empty(E.size), np.empty((E.size, 2))
    for i, (c, l1, r1) in enumerate(zip(cols, dl, dr)):
        psi = vectors[i][:, c]
        a, b = psi.conj().T @ k.delta_l, psi.conj().T @ k.delta_r
        gram = np.eye(c.size) + k.lam2 * l1 * np.outer(a, a.conj()) \
            + k.nu2 * r1 * np.outer(b, b.conj())
        weights[i] = [np.vdot(u, np.linalg.solve(gram, u)).real for u in (a, b)]
        mu[i], slope[i] = spectrum[i, c[0]], -gram[0, 0].real
    return mu, slope, weights


def _newton(k: "_Feshbach", j: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zero of the j-th eigenvalue mu of K in each gap (lo, hi), all
    gaps at once, by Newton's steps with mu' by Hellmann-Feynman,
    mu' = -1 - lam^2 l_c' |<delta_l, psi>|^2 - nu^2 r_c' |<delta_r, psi>|^2.

    mu falls with slope at most -1, so the gap holds one zero, and the
    bracket that the steps shrink around it keeps it.  At a band edge l_c
    or r_c diverges like a logarithm, and a plain step from afar overshoots
    the edge.  So each step is taken in log |E - ref|, with ref one double
    beyond the end of the gap that the step heads for (at a band edge, the
    edge itself); a small step is a plain one.  A step that leaves the
    bracket is replaced by the bracket's geometric midpoint in |E - ref|.
    """
    refs = (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))
    lo, hi = lo.copy(), hi.copy()
    E = 0.5 * (lo + hi)
    live = np.arange(E.size)
    for _ in range(_NEWTON_STEPS):
        if live.size == 0:
            break
        x = E[live]
        spectrum, vectors, dl, dr = k.eigh(x)
        rows = np.arange(live.size)
        mu, psi = spectrum[rows, j[live]], vectors[rows, :, j[live]]
        slope = -1.0 - k.lam2 * dl * np.abs(psi.conj() @ k.delta_l) ** 2 \
            - k.nu2 * dr * np.abs(psi.conj() @ k.delta_r) ** 2
        lo[live] = l = np.where(mu >= 0.0, x, lo[live])
        hi[live] = h = np.where(mu <= 0.0, x, hi[live])
        step = -mu / slope
        # ref: one double beyond the end the step heads for; x = ref + side * dist
        up = step > 0.0
        ref = np.where(up, refs[1][live], refs[0][live])
        side = np.where(up, -1.0, 1.0)
        dist = side * (x - ref)
        new = x + side * dist * np.expm1(-np.abs(step) / dist)
        # the point at distance sqrt(|l - ref| |h - ref|) from ref, as a
        # weighted mean of l and h, so that it lies in the bracket
        root_l, root_h = np.sqrt(np.abs(l - ref)), np.sqrt(np.abs(h - ref))
        mid = (l * root_h + h * root_l) / (root_l + root_h)
        eps = np.finfo(float).eps
        tol = 4 * eps * np.maximum(1.0, np.abs(x))
        # a step below a few ulp, or mu at the rounding level of K, where a
        # step is noise
        noise = 8 * eps * np.max(np.abs(spectrum), axis=1)
        done = (np.abs(new - x) <= tol) | (np.abs(mu) <= noise)
        new = np.where(done | ((new > l) & (new < h)), new, mid)
        E[live] = new
        live = live[~done & (h - l > tol)]
    return E


class _Feshbach:
    """The Feshbach matrix of the gaps: the coupled operator reduced onto the
    system and the reservoir atoms, with only the bands eliminated,

        K(E) = H - E - lam^2 l_c(E) delta_l delta_l* - nu^2 r_c(E) delta_r delta_r*.

    H is H_S bordered by one state per atom x of a coupled reservoir, of
    energy x and coupled to the system by lam sqrt(w) delta_l (the right
    side alike); delta_l, delta_r are padded with zeros, and l_c, r_c are
    the transforms of the reservoir densities alone.  In a gap l_c and r_c
    are real and increasing, so dK/dE <= -1: every eigenvalue of K falls
    with slope at most -1, and the number of negative eigenvalues of K(E)
    counts the atoms of the coupled operator below E in the gap.  K has no
    pole at a reservoir atom, as l and r have.
    """

    def __init__(self, model: BlackBoxModel, cp: CouplingParams):
        system = model.system
        self.lam2, self.nu2 = float(cp.lam) ** 2, float(cp.nu) ** 2
        sides = ((self.lam2, model.res_l, system.delta_l), (self.nu2, model.res_r, system.delta_r))
        atoms = [(x, math.sqrt(g2 * w) * v) for g2, m, v in sides if g2 != 0.0
                 for x, w in m.atoms]
        bonds = np.array([bond for _, bond in atoms]).reshape(len(atoms), system.dim)
        self.h = np.block([[system.h_s, bonds.T], [bonds.conj(), np.diag([x for x, _ in atoms])]])
        self.delta_l, self.delta_r = (np.concatenate([v, np.zeros(len(atoms))])
                                      for _, _, v in sides)
        #: (coupling squared, density pieces, projector) per side
        self.sides = [(g2, m.pieces, np.outer(v, v.conj()))
                      for (g2, m, _), v in zip(sides, (self.delta_l, self.delta_r))]

    def eigh(self, E: np.ndarray):
        """The eigenvalues (ascending) and eigenvectors of K at each E, with
        l_c' and r_c' there by the complex step: the one eigensolve of K, so
        the gap counts and the crossings read the same matrices.  l_c and
        r_c read 0 on an uncoupled side, which K does not read."""
        z = E + 1j * _COMPLEX_STEP
        K = self.h - E[:, None, None] * np.eye(self.h.shape[0])
        slopes = []
        for g2, pieces, proj in self.sides:
            t = sum((_piece_borel(p, z) for p in pieces), np.zeros_like(z)) if g2 != 0.0 \
                else np.zeros_like(z)
            K = K - (g2 * t.real)[:, None, None] * proj
            slopes.append(t.imag / _COMPLEX_STEP)
        mu, vectors = np.linalg.eigh(K)
        return (mu, vectors, *slopes)


def _gaps(model: BlackBoxModel, cp: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """The gaps (lo, hi), ascending.

    The gaps are the open intervals between the reservoir bands inside
    |E| <= 1.1 R, where R = max |x| over both supports and sigma(H_S), plus
    |lam| |delta_l| sqrt(m_l) + |nu| |delta_r| sqrt(m_r) with m_l, m_r the
    reservoirs' total masses, bounds the norm of the coupled operator.  A
    band edge is replaced by the double next to it inside the gap.  The
    transforms are finite there, also at +-5e-324 next to an edge at 0,
    where ``_piece_borel`` takes the logarithm of the quotient as a
    difference of logarithms.
    """
    measures = (model.res_l, model.res_r)
    system = model.system
    bands = sorted((p.a, p.b) for m in measures for p in m.pieces)
    radius = max([abs(x) for band in bands for x in band]
                 + [abs(x) for m in measures for x, _ in m.atoms]
                 + list(np.abs(system.eigenvalues)))
    radius += abs(cp.lam) * np.linalg.norm(system.delta_l) * np.sqrt(model.res_l.total_mass)
    radius += abs(cp.nu) * np.linalg.norm(system.delta_r) * np.sqrt(model.res_r.total_mass)
    bound = 1.1 * radius
    gaps, start = [], -bound
    for a, b in bands:
        if a > start:
            gaps.append((start, a))
        start = max(start, b)
    gaps.append((start, bound))
    lo = np.array([a if a == -bound else math.nextafter(a, math.inf) for a, _ in gaps])
    hi = np.array([b if b == bound else math.nextafter(b, -math.inf) for _, b in gaps])
    return lo[lo < hi], hi[lo < hi]


def _sorted_distinct(x) -> np.ndarray:
    """``np.unique`` of finite values, without the import of ``numpy.ma`` that
    its first call costs: sort, then keep each value that differs from the
    one before it."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]
