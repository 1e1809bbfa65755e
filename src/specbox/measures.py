"""Finite positive measures on the line and their Cauchy transform.

A measure here is a finite sum of point masses plus an absolutely continuous
part whose density is piecewise polynomial on a union of closed intervals.
For this class the Cauchy transform

    F(z) = integral of dmu(x) / (x - z)

has an exact closed form: atoms contribute w/(x0 - z) and a polynomial piece
contributes through the recurrence

    I_n(z) = int_a^b x^n/(x-z) dx = (b^n - a^n)/n + z * I_{n-1}(z),
    I_0(z) = Log((b - z)/(a - z))   (principal branch),

so no quadrature is needed on the evaluation path.  The Moebius map
z -> (b-z)/(a-z) sends C minus [a,b] into C minus the closed negative axis,
hence the principal logarithm is analytic wherever we evaluate.  Far from a
piece the recurrence is replaced by the moment series
-sum_m mu_m / z^{m+1}, which avoids the cancellation the recurrence suffers
when |z| is much larger than the support.  The 48 moments of a piece are one
array expression, built once at construction.  On a wide piece ([0, 1e7],
say) x^m overflows before m = 48; such a piece keeps mu_m / s^{m+1} for a
power of two s near its radius and sums the same series in s/z, so its
transform stays finite.  The measure stacks its pieces into read-only
arrays once; a call runs the recurrence of every piece at every point as one
(pieces x points) array expression, and the moment series per piece on its
own far points.  The Poisson transform at E + i eps is the imaginary part of
F there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidModelError

__all__ = ["SpectralMeasure"]

# Tolerance for "the density dips negative" at construction; absorbs roundoff
# in user-supplied coefficients.
_NEG_TOL = 1e-12
# Number of Chebyshev sample points per piece in the positivity check.
_POS_SAMPLES = 64
# Far-field switch: use the moment series when |z| exceeds this multiple of
# the piece's outer radius (series ratio then <= 1/3).
_FAR_FACTOR = 3.0
_FAR_TERMS = 48
_TINY = np.finfo(float).tiny


def _chebyshev_points(a: float, b: float, n: int) -> np.ndarray:
    t = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    return 0.5 * (a + b) + 0.5 * (b - a) * t


@dataclass(frozen=True)
class _Piece:
    a: float
    b: float
    coef: tuple[float, ...]          # density p(x) = sum coef[k] x^k
    # mu_m / scale^(m+1) for the far-field series; scale is 1 unless a
    # moment overflows (see _validate_piece)
    moments: tuple[float, ...] = field(repr=False, default=())
    scale: float = 1.0

    @property
    def mass(self) -> float:
        return float(self.moments[0]) * self.scale

    @property
    def radius(self) -> float:
        return max(abs(self.a), abs(self.b))


def _piece_moments(a: float, b: float, coef: Sequence[float], count: int) -> np.ndarray:
    """Exact moments mu_m = int_a^b x^m p(x) dx for m = 0..count-1, one row
    of powers P = m + k + 1 per moment: mu_m = sum_k coef[k] (b^P - a^P) / P."""
    coef = np.asarray(coef)
    powers = np.arange(1, count + 1)[:, None] + np.arange(coef.size)
    return np.sum(coef * (b ** powers - a ** powers) / powers, axis=1)


def _validate_piece(a: float, b: float, coef: Sequence[float]) -> _Piece:
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise InvalidModelError(f"piece interval [{a}, {b}] must be finite with a < b")
    coef = [float(c) for c in coef]
    if len(coef) == 0:
        raise InvalidModelError("piece needs at least one polynomial coefficient")
    if not all(np.isfinite(coef)):
        raise InvalidModelError("piece coefficients must be finite")
    # Positivity: sample at Chebyshev points and endpoints, and refine with the
    # critical points of p (real roots of p') inside the interval.
    xs = [np.array([a, b]), _chebyshev_points(a, b, _POS_SAMPLES)]
    p = coef[::-1]  # highest degree first, as np.polyval and np.roots read it
    if len(coef) > 2:
        crit = np.roots(np.polyder(p))  # p' = 0
        crit = crit[np.abs(crit.imag) < 1e-9].real
        crit = crit[(crit > a) & (crit < b)]
        if crit.size:
            xs.append(crit)
    samples = np.concatenate(xs)
    vals = np.polyval(p, samples)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(vals)) < -_NEG_TOL * scale:
        worst = samples[int(np.argmin(vals))]
        raise InvalidModelError(
            f"density negative on [{a}, {b}]: p({worst:.6g}) = {np.min(vals):.3e}"
        )
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _piece_moments(a, b, coef, _FAR_TERMS)
        if not np.all(np.isfinite(moments)):
            # a wide piece: x^m overflows.  With x = s t for s = 2^e the power
            # of two in [R/2, R], R = max(|a|, |b|), the scaling is exact and
            # mu_m / s^(m+1) are the moments of t^m p(s t) on [a/s, b/s]
            e = math.frexp(max(abs(a), abs(b)))[1] - 1
            scale = math.ldexp(1.0, e)
            moments = _piece_moments(a / scale, b / scale,
                                     np.ldexp(coef, e * np.arange(len(coef))), _FAR_TERMS)
    return _Piece(float(a), float(b), tuple(coef), tuple(moments), scale)


class SpectralMeasure:
    """Finite positive Borel measure: atoms plus piecewise-polynomial density.

    Parameters
    ----------
    atoms:
        Sequence of (position, weight) pairs, weights > 0, positions distinct.
    pieces:
        Sequence of ([a, b], coefficients) pairs; the coefficient list
        c0, c1, ... defines the density p(x) = c0 + c1 x + ... on [a, b].
        Pieces must have pairwise disjoint interiors and p >= 0 on each piece.

    Instances are immutable after construction and safe to share across
    threads; evaluation is pure.
    """

    def __init__(self, atoms: Sequence = (), pieces: Sequence = ()):
        parsed_atoms = []
        for entry in atoms:
            x0, w = entry
            x0, w = float(x0), float(w)
            if not np.isfinite(x0) or not np.isfinite(w):
                raise InvalidModelError("atom position and weight must be finite")
            if w <= 0:
                raise InvalidModelError(f"atom weight at {x0} must be > 0, got {w}")
            parsed_atoms.append((x0, w))
        positions = [x for x, _ in parsed_atoms]
        if len(set(positions)) != len(positions):
            raise InvalidModelError("atom positions must be pairwise distinct")

        parsed_pieces = [_validate_piece(a, b, coef) for (a, b), coef in pieces]
        parsed_pieces.sort(key=lambda p: p.a)
        for prev, nxt in zip(parsed_pieces, parsed_pieces[1:]):
            if nxt.a < prev.b - 1e-15:
                raise InvalidModelError(
                    f"pieces [{prev.a}, {prev.b}] and [{nxt.a}, {nxt.b}] overlap"
                )

        mass = sum(w for _, w in parsed_atoms) + sum(p.mass for p in parsed_pieces)
        if not np.isfinite(mass) or mass <= 0:
            raise InvalidModelError(f"total mass must be positive and finite, got {mass}")

        self.atoms: tuple[tuple[float, float], ...] = tuple(sorted(parsed_atoms))
        self.pieces: tuple[_Piece, ...] = tuple(parsed_pieces)
        self.total_mass: float = float(mass)
        self._atom_x = np.array([x for x, _ in self.atoms])
        self._atom_w = np.array([w for _, w in self.atoms])
        # the pieces stacked for ``_add_density``, one row each: the ends, the
        # coefficients padded with zeros to the top degree (``_live`` marks the
        # real ones), the constants (b^n - a^n)/n of the recurrence up to the
        # piece's degree, and the far-field cut
        count = len(self.pieces)
        top = max((len(p.coef) for p in self.pieces), default=1)
        self._a = np.array([p.a for p in self.pieces]).reshape(count, 1)
        self._b = np.array([p.b for p in self.pieces]).reshape(count, 1)
        self._coef = np.zeros((count, top))
        for row, p in zip(self._coef, self.pieces):
            row[:len(p.coef)] = p.coef
        self._live = np.arange(top) < np.array([len(p.coef) for p in self.pieces]).reshape(count, 1)
        self._cst = np.zeros((count, top - 1))
        for row, p in zip(self._cst, self.pieces):
            row[:len(p.coef) - 1] = [_power_difference(p, n) for n in range(1, len(p.coef))]
        self._cut = np.array([_FAR_FACTOR * max(p.radius, 1.0) for p in self.pieces]
                             ).reshape(count, 1)
        for arr in (self._atom_x, self._atom_w, self._a, self._b, self._coef, self._live,
                    self._cst, self._cut):
            arr.flags.writeable = False
        # the recurrence's steps n >= 1 as column views, sliced once: the
        # constant, the coefficient, and which pieces have a term n
        self._steps = [(self._cst[:, n - 1:n], self._coef[:, n:n + 1], self._live[:, n:n + 1])
                       for n in range(1, top)]

    def __repr__(self) -> str:
        return (
            f"SpectralMeasure(atoms={len(self.atoms)}, pieces={len(self.pieces)}, "
            f"mass={self.total_mass:.6g})"
        )

    # -- transforms ---------------------------------------------------------

    def borel(self, z):
        """Cauchy transform int dmu(x)/(x - z), closed form, array-capable.

        Real z is accepted only outside the closed support (no principal
        values arise there); otherwise raises DomainError.
        """
        z_arr = np.asarray(z, dtype=complex)
        scalar = z_arr.ndim == 0
        z_flat = z_arr.reshape(-1)

        on_axis = z_flat.imag == 0.0
        if on_axis.any():
            x_real = z_flat.real[on_axis]
            for x0, _ in self.atoms:
                if (x_real == x0).any():
                    raise DomainError(f"z = {x0} sits exactly on an atom")
            for p in self.pieces:
                if ((x_real >= p.a) & (x_real <= p.b)).any():
                    raise DomainError(
                        f"real z inside density piece [{p.a}, {p.b}]"
                    )

        out = np.zeros_like(z_flat)
        if self._atom_x.size:
            out += np.sum(
                self._atom_w / (self._atom_x - z_flat[..., None]), axis=-1
            )
        self._add_density(z_flat, out)
        out = out.reshape(z_arr.shape)
        return complex(out) if scalar else out

    def _add_density(self, z: np.ndarray, out: np.ndarray) -> None:
        """Add the Cauchy transform of each density piece at the 1-D complex
        z into ``out``, piece by piece in order.

        The recurrence I_n from I_0 runs for every piece at every z as one
        (pieces x z) array expression; a piece's term beyond its own degree
        is not added.  Where (b - z) / (a - z) over- or underflows (by an
        edge at 0: z = -5e-324 and [0, 1]), I_0 is log(b - z) - log(a - z).
        At a piece's far points the moment series replaces the recurrence;
        it runs on that piece's far points alone, or on all of z where every
        point is far, since its in-place products round some elements
        differently on arrays of another length.
        """
        if not self.pieces:
            return
        zz = z[None, :]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            ratio = (self._b - zz) / (self._a - zz)  # complex overflow can read nan
            exact = np.isfinite(ratio) & (np.abs(ratio) >= _TINY)
            term = np.log(np.where(exact, ratio, 1.0))  # I_0
            if not exact.all():
                rows, cols = np.nonzero(~exact)
                zx = z[cols]
                term[rows, cols] = np.log(self._b[rows, 0] - zx) - np.log(self._a[rows, 0] - zx)
            acc = self._coef[:, :1] * term
            for cst, coef, live in self._steps:
                term = cst + zz * term  # I_n from I_{n-1}
                np.add(acc, coef * term, out=acc, where=live)
        far = np.abs(z) > self._cut
        if far.any():
            for p, row, f in zip(self.pieces, acc, far):
                if f.all():
                    row[:] = _far_borel(p, z)
                elif f.any():
                    row[f] = _far_borel(p, z[f])
        for k in range(len(acc)):  # indexing: iterating an array costs more
            out += acc[k]


def _power_difference(p: _Piece, n: int) -> float:
    """(b^n - a^n)/n in Python floats; inf where a power overflows, so that
    the recurrence, and the transform, is not finite there."""
    try:
        return (p.b ** n - p.a ** n) / n
    except OverflowError:
        return math.inf


def _far_borel(p: _Piece, z: np.ndarray) -> np.ndarray:
    """The moment series -sum_m mu_m / z^(m+1), in powers of scale / z."""
    inv = p.scale / z
    acc = np.zeros_like(z)
    power = inv.copy()
    for m in range(_FAR_TERMS):
        acc -= p.moments[m] * power
        power *= inv
    return acc
