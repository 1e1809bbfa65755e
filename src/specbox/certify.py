"""Pointwise certification that no singular continuous mass can sit on a grid.

At an energy E where at least one reservoir transform has a strictly positive
dissipative boundary value and E avoids the system spectrum and the zero set
of the cross pair, a vanishing denominator D(E + i0) would force the two
imaginary-part identities

    lhs1 = -nu^2  |c|^2 Im r   =   lam^2 Im l |a - nu^2 d r|^2 = rhs1
    lhs2 = -lam^2 |c|^2 Im l   =   nu^2  Im r |b - lam^2 d l|^2 = rhs2

to hold simultaneously; their right-hand sides are nonnegative while at least
one left-hand side is strictly negative.  The certificate evaluates both
sides from extrapolated boundary values, checks |D(E + i0)| against a floor,
and confirms the sign structure.  The claim is per sampled energy only: a
finite grid cannot represent the countable exceptional intersections the
full statement tolerates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .blackbox import DELTA_L, DELTA_R, BlackBoxModel, SystemBlock
from .boundary import UNDETERMINED, EpsilonLadder, Tolerances, classify_energy
from .errors import UnsupportedScenarioError
from .measures import SpectralMeasure
from .resolvent import G0Basics, _coupling, discretize

__all__ = [
    "Certificate",
    "CertificatePoint",
    "certify_no_sc",
    "remark2_model",
    "eigen_residual",
    "CERTIFIED",
    "OUT_OF_SCOPE",
    "NUMERICALLY_UNRESOLVED",
]

CERTIFIED = "CERTIFIED"
OUT_OF_SCOPE = "OUT_OF_SCOPE"
NUMERICALLY_UNRESOLVED = "NUMERICALLY_UNRESOLVED"

_SIGN_SLACK = 1e-12
_STRICT_NEG = 1e-10


@dataclass
class CertificatePoint:
    E: float
    verdict: str
    in_scope: bool
    abs_D: float | None = None
    aux1_lhs: float | None = None
    aux1_rhs: float | None = None
    aux2_lhs: float | None = None
    aux2_rhs: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Certificate:
    """Per-grid-point no-singular-continuous certificate."""

    lam: float
    nu: float
    points: list[CertificatePoint] = field(default_factory=list)

    @property
    def min_abs_D(self) -> float | None:
        vals = [p.abs_D for p in self.points if p.verdict == CERTIFIED]
        return min(vals) if vals else None

    def counts(self) -> dict:
        out = {CERTIFIED: 0, OUT_OF_SCOPE: 0, NUMERICALLY_UNRESOLVED: 0}
        for p in self.points:
            out[p.verdict] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "nu": self.nu,
            "min_abs_D": self.min_abs_D,
            "counts": self.counts(),
            "points": [p.to_dict() for p in self.points],
        }


def certify_no_sc(
    model: BlackBoxModel,
    coupling,
    grid,
    ladder: EpsilonLadder = EpsilonLadder(),
    *,
    tol: Tolerances = Tolerances(),
) -> Certificate:
    """Evaluate the certificate at every grid energy.

    Scope: E must lie in the dissipative reservoir set (either side) and
    avoid sigma(H_S) and the cross-pair zero set S.  Unresolved ladders and
    |D| at or below the floor yield NUMERICALLY_UNRESOLVED, never a silent
    failure.
    """
    cp = _coupling(coupling)
    lam2, nu2 = cp.lam**2, cp.nu**2
    cert = Certificate(lam=cp.lam, nu=cp.nu)

    for E in np.asarray(grid, dtype=float):
        E = float(E)
        cls = classify_energy(model, E, ladder=ladder, tol=tol)
        if UNDETERMINED in (cls.rec_chi_l.status, cls.rec_chi_r.status):
            cert.points.append(CertificatePoint(E, NUMERICALLY_UNRESOLVED, False))
            continue
        in_scope = (cls.in_ml or cls.in_mr) and not (cls.in_sigma_hs or cls.in_s)
        if not in_scope:
            cert.points.append(CertificatePoint(E, OUT_OF_SCOPE, False))
            continue

        a = model.g0(DELTA_L, DELTA_L, E).real
        b = model.g0(DELTA_R, DELTA_R, E).real
        c = model.g0(DELTA_L, DELTA_R, E)
        d = model.system.d(E)
        l = cls.rec_chi_l.value
        r = cls.rec_chi_r.value

        # on the real axis G0(delta_r, delta_l, E) = conj G0(delta_l, delta_r, E)
        abs_D = float(abs(G0Basics(l, r, a, b, c, c.conjugate()).det_D(cp)))
        aux1_lhs = float(-nu2 * abs(c) ** 2 * r.imag)
        aux1_rhs = float(lam2 * l.imag * abs(a - nu2 * d * r) ** 2)
        aux2_lhs = float(-lam2 * abs(c) ** 2 * l.imag)
        aux2_rhs = float(nu2 * r.imag * abs(b - lam2 * d * l) ** 2)

        sign_ok = (
            aux1_rhs >= -_SIGN_SLACK
            and aux2_rhs >= -_SIGN_SLACK
            and aux1_lhs <= _SIGN_SLACK
            and aux2_lhs <= _SIGN_SLACK
        )
        strict_applicable = (
            cp.lam != 0.0
            and cp.nu != 0.0
            and abs(c) > 1e-6
            and max(l.imag, r.imag) > 1e-8
        )
        if strict_applicable:
            sign_ok = sign_ok and (aux1_lhs < -_STRICT_NEG or aux2_lhs < -_STRICT_NEG)

        verdict = CERTIFIED if (abs_D > tol.d_floor and sign_ok) else NUMERICALLY_UNRESOLVED
        cert.points.append(
            CertificatePoint(
                E,
                verdict,
                True,
                abs_D=abs_D,
                aux1_lhs=aux1_lhs,
                aux1_rhs=aux1_rhs,
                aux2_lhs=aux2_lhs,
                aux2_rhs=aux2_rhs,
            )
        )
    return cert


def remark2_model() -> BlackBoxModel:
    """The scalar reference model with an eigenvalue pinned at zero.

    One system level at energy 0, unit coupling vectors on both sides, and
    identical reservoirs with unit density on [-2,-1] union [1,2].  The
    symmetric spectral gap makes the reservoir transform vanish at 0, so the
    compound operator keeps a zero eigenvalue at every coupling strength and
    the averaged spectral measure carries an atom there: the degenerate case
    the finite-exceptional-set statement must exclude.
    """
    system = SystemBlock(
        np.array([[0.0]], dtype=complex),
        np.array([1.0], dtype=complex),
        np.array([1.0], dtype=complex),
    )
    band = [([-2.0, -1.0], [1.0]), ([1.0, 2.0], [1.0])]
    return BlackBoxModel(
        system,
        SpectralMeasure(pieces=band),
        SpectralMeasure(pieces=band),
    )


def eigen_residual(
    model: BlackBoxModel, coupling, nodes_per_piece: int
) -> tuple[float, float]:
    """Persistent zero-mode check on the discretized compound operator.

    For models of the reference shape (scalar system level at 0, unit
    coupling vectors, reservoir transforms vanishing at 0) the vector with
    components -lam * sqrt(w_j)/x_j on the left nodes, 1 on the system, and
    -nu * sqrt(w_j)/x_j on the right nodes is an exact zero eigenvector.
    Returns (||H psi|| / ||psi||, |(delta, psi)|^2 / ||psi||^2); the second
    entry estimates the atom weight of the zero eigenvalue.
    """
    sysb = model.system
    if sysb.dim != 1 or abs(sysb.h_s[0, 0]) > 1e-12:
        raise UnsupportedScenarioError("needs a scalar system level at energy 0")
    if abs(sysb.delta_l[0] - 1.0) > 1e-12 or abs(sysb.delta_r[0] - 1.0) > 1e-12:
        raise UnsupportedScenarioError("needs unit coupling vectors on both sides")
    for res in (model.res_l, model.res_r):
        if res.atoms or abs(res.borel(0.0)) > 1e-12:
            raise UnsupportedScenarioError(
                "needs purely a.c. reservoirs whose transform vanishes at 0"
            )

    cp = _coupling(coupling)
    disc = discretize(model, nodes_per_piece)
    psi = np.zeros(disc.dim, dtype=complex)
    psi[: disc.m_l] = -cp.lam * np.sqrt(disc.weights_l) / disc.nodes_l
    psi[disc.m_l] = 1.0
    psi[disc.m_l + 1 :] = -cp.nu * np.sqrt(disc.weights_r) / disc.nodes_r
    H = disc.assemble(cp)
    norm = float(np.linalg.norm(psi))
    residual = float(np.linalg.norm(H @ psi)) / norm
    weight = float(abs(np.vdot(disc.delta_l, psi)) ** 2) / norm**2
    return residual, weight
