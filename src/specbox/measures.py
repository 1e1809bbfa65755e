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
transform stays finite.  A piece whose recurrence constant (b^n - a^n)/n
overflows a double is rejected at construction: its transform could not be
finite near it.

``PieceTable`` stacks the pieces of one or more measures into read-only
arrays once, each row tagged with the measure that owns it.  Its kernel
(``PieceTable.rows``) runs the recurrence of every piece at every point as
one (pieces x points) array expression, and the moment series per piece on
its own far points; ``PieceTable.sums`` then gives each measure its atoms'
sum and its own rows added in piece order.  ``SpectralMeasure.borel`` runs
the kernel on the measure's own table, ``resolvent.G0Basics.at`` on the
model's table of both reservoirs (``BlackBoxModel.reservoir_pieces``), and
the gap counts of ``boundary`` on the same table without the atoms; a
measure's value has the same bits in each.  The Poisson transform at
E + i eps is the imaginary part of F there.

At real E the kernel gives F(E + i0) exactly (``PieceTable.sums`` and
``rows`` at real E, by Plemelj-Sokhotski): the same recurrence and series in
real arithmetic on I_0 = log|b - E| - log|a - E|, plus i pi p(E) inside a
piece; ``boundary.classify_grid`` reads l and r so.
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
    # the recurrence's constants (b^n - a^n)/n for n = 1..degree
    steps: tuple[float, ...] = field(repr=False, default=())
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
    if not math.isfinite(float(b) - float(a)):  # the positivity samples would be inf or NaN
        raise InvalidModelError(f"piece [{a}, {b}]: its width b - a overflows a double")
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
    # the recurrence's constants in Python floats; where one is not finite,
    # neither is the transform near the piece
    fa, fb, steps = float(a), float(b), []
    for n in range(1, len(coef)):
        try:
            steps.append((fb ** n - fa ** n) / n)
        except OverflowError:
            steps.append(math.inf)
        if not math.isfinite(steps[-1]):
            raise InvalidModelError(
                f"piece [{fa}, {fb}] of degree {len(coef) - 1}: the recurrence constant "
                f"(b^{n} - a^{n})/{n} overflows a double"
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
    return _Piece(fa, fb, tuple(coef), tuple(steps), tuple(moments), scale)


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
        for arr in (self._atom_x, self._atom_w):
            arr.flags.writeable = False
        self._table = PieceTable((self,))

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
        (out,) = self._table.borel(z)
        return out


class PieceTable:
    """The atoms and density pieces of one or more measures, stacked for one
    pass of the transform kernel over all of them.

    One row per piece, measure by measure and in piece order within each:
    the ends, the coefficients padded with zeros to the common top degree
    (``_live`` marks the real ones), the constants (b^n - a^n)/n of the
    recurrence padded alike, the far-field cut, and in ``_owner`` the index
    of the measure that owns the row.  The arrays are read-only: every
    caller shares them.
    """

    def __init__(self, measures: Sequence[SpectralMeasure]):
        #: per measure: its atoms, their positions and weights, its pieces
        self._measures = tuple((m.atoms, m._atom_x, m._atom_w, m.pieces) for m in measures)
        self.pieces = tuple(p for m in measures for p in m.pieces)
        self._owner = tuple(k for k, m in enumerate(measures) for _ in m.pieces)
        count = len(self.pieces)
        top = max((len(p.coef) for p in self.pieces), default=1)
        self._a = np.array([p.a for p in self.pieces]).reshape(count, 1)
        self._b = np.array([p.b for p in self.pieces]).reshape(count, 1)
        self._coef = np.zeros((count, top))
        self._cst = np.zeros((count, top - 1))
        for coef, cst, p in zip(self._coef, self._cst, self.pieces):
            coef[:len(p.coef)] = p.coef
            cst[:len(p.steps)] = p.steps
        self._live = np.arange(top) < np.array([len(p.coef) for p in self.pieces]).reshape(count, 1)
        self._cut = np.array([_FAR_FACTOR * max(p.radius, 1.0) for p in self.pieces]
                             ).reshape(count, 1)
        for arr in (self._a, self._b, self._coef, self._live, self._cst, self._cut):
            arr.flags.writeable = False
        # the recurrence's steps n >= 1 as column views, sliced once: the
        # constant, the coefficient, and which rows have a term n
        self._steps = [(self._cst[:, n - 1:n], self._coef[:, n:n + 1], self._live[:, n:n + 1])
                       for n in range(1, top)]

    def borel(self, z) -> tuple:
        """The Cauchy transform of each measure at z, in measure order: a
        complex each for scalar z, else an array each of z's shape.

        Real z is accepted only outside every measure's closed support;
        otherwise raises DomainError, for the first measure that z hits.
        """
        z_arr = np.asarray(z, dtype=complex)
        z_flat = z_arr.reshape(-1)
        on_axis = z_flat.imag == 0.0
        if on_axis.any():
            self._check_real(z_flat.real[on_axis])
        outs = self.sums(z_flat)
        if z_arr.ndim == 0:
            return tuple(complex(out[0]) for out in outs)
        return tuple(out.reshape(z_arr.shape) for out in outs)

    def _check_real(self, x: np.ndarray) -> None:
        for atoms, _, _, pieces in self._measures:
            for x0, _ in atoms:
                if (x == x0).any():
                    raise DomainError(f"z = {x0} sits exactly on an atom")
            for p in pieces:
                if ((x >= p.a) & (x <= p.b)).any():
                    raise DomainError(f"real z inside density piece [{p.a}, {p.b}]")

    def sums(self, z: np.ndarray, atoms: bool = True) -> list:
        """Each measure's transform at the 1-D z, complex, or real for
        F(E + i0) (the real-axis mode of ``rows``; not finite on an atom or
        a band edge): into zeros, its atoms' sum (left out where ``atoms`` is
        false), then its own rows of ``rows`` in piece order.  At real z only
        real float operations run, so a value has the same bits however many
        z share the call."""
        outs = [np.zeros(z.shape, dtype=complex) for _ in self._measures]
        with np.errstate(divide="ignore", invalid="ignore"):  # real z on an atom or edge
            if atoms:
                for out, (_, x, w, _) in zip(outs, self._measures):
                    if x.size:
                        out += np.sum(w / (x - z[..., None]), axis=-1)
            if self.pieces:
                acc = self.rows(z)
                for k, owner in enumerate(self._owner):  # indexing: iterating an array costs more
                    outs[owner] += acc[k]
        return outs

    def rows(self, z: np.ndarray) -> np.ndarray:
        """The Cauchy transform of each piece at the 1-D z, one row per
        piece: at complex z, or at z + i0 for real z.

        The recurrence I_n from I_0 runs for every piece at every z as one
        (pieces x z) array expression; a piece's term beyond its own degree
        is not added.  Where (b - z) / (a - z) over- or underflows (by an
        edge at 0: z = -5e-324 and [0, 1]), I_0 is log(b - z) - log(a - z).
        At real z the recurrence runs in real arithmetic on the principal
        value's I_0 = log|b - z| - log|a - z|, and a piece then adds
        i pi p(z) strictly inside it (Plemelj-Sokhotski).
        At a piece's far points the moment series replaces the recurrence;
        it runs on that piece's far points alone, or on all of z where every
        point is far, since its in-place products round some elements
        differently on arrays of another length.
        """
        zz = z[None, :]
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            axis = z.dtype.kind == "f"
            if axis:  # the principal value's I_0, and p(z) by Horner's rule
                term = np.log(np.abs(self._b - zz)) - np.log(np.abs(self._a - zz))
                density = np.zeros_like(term)
                for k in range(self._coef.shape[1] - 1, -1, -1):
                    density = density * zz + self._coef[:, k:k + 1]
            else:
                ratio = (self._b - zz) / (self._a - zz)  # complex overflow can read nan
                exact = np.isfinite(ratio) & (np.abs(ratio) >= _TINY)
                term = np.log(np.where(exact, ratio, 1.0))  # I_0
                if not exact.all():
                    rows, cols = np.nonzero(~exact)
                    zx = z[cols]
                    term[rows, cols] = (np.log(self._b[rows, 0] - zx)
                                        - np.log(self._a[rows, 0] - zx))
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
        if axis:
            return acc + 1j * np.where((zz > self._a) & (zz < self._b), np.pi * density, 0.0)
        return acc


def _far_borel(p: _Piece, z: np.ndarray) -> np.ndarray:
    """The moment series -sum_m mu_m / z^(m+1), in powers of scale / z."""
    inv = p.scale / z
    acc = np.zeros_like(z)
    power = inv.copy()
    for m in range(_FAR_TERMS):
        acc -= p.moments[m] * power
        power *= inv
    return acc
