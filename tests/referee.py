"""A 40-digit referee for the exact values of the program, in mpmath.

``boundary(measure, E)`` is the Cauchy transform of a ``SpectralMeasure`` at
E + i0, for real E, by the Plemelj-Sokhotski formula per piece:

    int_a^b p(t) / (t - E - i0) dt = PV int_a^b p(t) / (t - E) dt + i pi p(E) 1[a < E < b],
    PV int_a^b p(t) / (t - E) dt = p(E) log|(b - E) / (a - E)| + int_a^b q(t) dt,

with q(t) = (p(t) - p(E)) / (t - E), the polynomial quotient, integrated
exactly; each atom (x0, w) adds w / (x0 - E).  Nothing here shares code with
``measures.PieceTable``: not its recurrence, nor its moment series.  The
inputs are doubles and so exact; the result is rounded once, to a complex.
At an atom or a band edge the transform has no finite value, and neither
has this.
"""

from mpmath import mp

DIGITS = 40


def _piece(a, b, coef, x):
    """The PV integral of p(t) / (t - x) over [a, b] and p(x)."""
    p_x = sum(c * x**k for k, c in enumerate(coef))
    # q(t) = sum_k c_k sum_{j < k} t^j x^(k-1-j), integrated term by term
    quotient = sum(c * x ** (k - 1 - j) * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
                   for k, c in enumerate(coef) for j in range(k))
    return p_x * mp.log(abs((b - x) / (a - x))) + quotient, p_x


def boundary(measure, E: float) -> complex:
    """F(E + i0) of ``measure`` at 40 digits, rounded to a complex."""
    with mp.workdps(DIGITS):
        x = mp.mpf(E)
        total = mp.mpc(0)
        for x0, w in measure.atoms:
            total += mp.mpf(w) / (mp.mpf(x0) - x)
        for piece in measure.pieces:
            a, b = mp.mpf(piece.a), mp.mpf(piece.b)
            value, p_x = _piece(a, b, [mp.mpf(c) for c in piece.coef], x)
            total += value + (1j * mp.pi * p_x if a < x < b else 0)
        return complex(total)
