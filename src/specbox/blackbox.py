"""Full model assembly and the uncoupled Green's functions.

The uncoupled operator is block diagonal over (left reservoir, system,
right reservoir), so its Green's functions factor: cross-block pairs vanish,
reservoir pairs reduce to the Cauchy transform of the reservoir measure, and
system pairs are rational functions built from the eigendecomposition of the
system matrix,

    G0(phi, psi, z) = sum_k (phi, e_k)(e_k, psi) / (E_k - z).

Because those are rational with a common denominator prod_k (E - E_k), the
finite exceptional sets (zeros of the cross Green's function, and the zero
set of the product G_ll * G_rr * G_lr * d) can be certified complete by
polynomial root finding (companion matrix) instead of grid scans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidModelError, PoleError
from .measures import SpectralMeasure

__all__ = [
    "CHI_L",
    "CHI_R",
    "DELTA_L",
    "DELTA_R",
    "TAGS",
    "DEGENERATE_WHOLE_LINE",
    "SystemBlock",
    "BlackBoxModel",
    "ExceptionalSets",
    "ValidationReport",
]

CHI_L = "chi_l"
DELTA_L = "delta_l"
CHI_R = "chi_r"
DELTA_R = "delta_r"
TAGS = (CHI_L, DELTA_L, CHI_R, DELTA_R)
_SYSTEM_TAGS = (DELTA_L, DELTA_R)
_RESERVOIR_TAGS = (CHI_L, CHI_R)

#: Sentinel: the product defining the averaging exceptional set vanishes
#: identically, so "the finite set" degenerates to the whole line.
DEGENERATE_WHOLE_LINE = "DEGENERATE_WHOLE_LINE"

_HERM_TOL = 1e-14
_EIG_RESIDUAL_TOL = 1e-12
_CLUSTER_TOL = 1e-10
_VANISH_TOL = 1e-13
_ROOT_RESIDUAL_TOL = 1e-10
_RANK_TOL = 1e-8


class SystemBlock:
    """Hermitian system matrix with its two distinguished coupling vectors.

    The eigendecomposition is computed once at construction; eigenvalues are
    merged into clusters of width 1e-10 so that pole/weight data is well
    defined even for (numerically) degenerate spectra.
    """

    def __init__(self, h_s, delta_l, delta_r):
        h = np.atleast_2d(np.asarray(h_s, dtype=complex))
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InvalidModelError(f"system matrix must be square, got {h.shape}")
        scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
        herm_residual = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
        if herm_residual > _HERM_TOL * scale:
            raise InvalidModelError(
                f"system matrix is not Hermitian (residual {herm_residual:.3e})"
            )
        dl = np.asarray(delta_l, dtype=complex).reshape(-1)
        dr = np.asarray(delta_r, dtype=complex).reshape(-1)
        n = h.shape[0]
        if dl.shape != (n,) or dr.shape != (n,):
            raise InvalidModelError("coupling vectors must match the system dimension")
        if np.linalg.norm(dl) == 0 or np.linalg.norm(dr) == 0:
            raise InvalidModelError("coupling vectors delta_l, delta_r must be nonzero")

        evals, evecs = np.linalg.eigh(h)
        residual = float(
            np.max(np.linalg.norm(h @ evecs - evecs * evals, axis=0))
        )
        if residual > _EIG_RESIDUAL_TOL * scale:
            raise InvalidModelError(
                f"eigendecomposition residual too large: {residual:.3e}"
            )

        self.h_s = h
        self.h_s.setflags(write=False)
        self.delta_l = dl
        self.delta_r = dr
        self.dim = n
        self.eigenvalues = evals
        self.eigenvectors = evecs
        self.herm_residual = herm_residual
        self.eig_residual = residual

        # coefficients (e_k, v) for v in {delta_l, delta_r}
        self._coef = {
            DELTA_L: evecs.conj().T @ dl,
            DELTA_R: evecs.conj().T @ dr,
        }
        self._clusters = self._cluster_eigenvalues()

    def _cluster_eigenvalues(self):
        positions, groups = [], []
        for k, E in enumerate(self.eigenvalues):
            if positions and abs(E - positions[-1]) <= _CLUSTER_TOL:
                groups[-1].append(k)
                positions[-1] = np.mean(self.eigenvalues[groups[-1]])
            else:
                positions.append(float(E))
                groups.append([k])
        return tuple(positions), tuple(tuple(g) for g in groups)

    @property
    def poles(self) -> np.ndarray:
        """Distinct eigenvalues after clustering (the poles of system pairs)."""
        return np.array(self._clusters[0])

    def pair_weights(self, phi: str, psi: str) -> np.ndarray:
        """Clustered weights (phi, e_k)(e_k, psi), one entry per pole."""
        cphi = self._coef[phi]
        cpsi = self._coef[psi]
        w = np.conj(cphi) * cpsi
        return np.array([np.sum(w[list(g)]) for g in self._clusters[1]])

    def green(self, phi: str, psi: str, z):
        """System-pair Green's function, array-capable in z."""
        z_arr = np.asarray(z, dtype=complex)
        scalar = z_arr.ndim == 0
        z_flat = np.atleast_1d(z_arr)
        poles = self.poles
        on_axis = z_flat.imag == 0.0
        if np.any(on_axis):
            re = z_flat.real[on_axis]
            dist = np.abs(re[:, None] - poles[None, :])
            hits = np.nonzero(dist <= 1e-12 * np.maximum(1.0, np.abs(poles)))
            if hits[0].size:
                idx = int(hits[1][0])
                raise PoleError(
                    f"real z = {re[hits[0][0]]} hits system eigenvalue {poles[idx]}",
                    energy=float(poles[idx]),
                    index=idx,
                )
        w = self.pair_weights(phi, psi)
        vals = np.sum(w / (poles - z_flat[..., None]), axis=-1)
        vals = vals.reshape(z_arr.shape)
        return complex(vals) if scalar else vals

    def pair_numerator(self, phi: str, psi: str) -> np.ndarray:
        """Coefficients (low-to-high) of N with G(phi,psi,E) = -N(E)/P(E).

        P(E) = prod over distinct poles of (E - x_k); poles with negligible
        weight for this pair are genuinely absent from the rational function,
        so they are excluded before forming the numerator.
        """
        poles = self.poles
        weights = self.pair_weights(phi, psi)
        wscale = float(np.linalg.norm(self._coef[phi]) * np.linalg.norm(self._coef[psi]))
        keep = np.abs(weights) > 1e-14 * max(wscale, 1e-300)
        poles, weights = poles[keep], weights[keep]
        if poles.size == 0:
            return np.zeros(1, dtype=complex)
        num = np.zeros(poles.size, dtype=complex)
        for k in range(poles.size):
            others = np.delete(poles, k)
            term = npoly.polyfromroots(others) if others.size else np.array([1.0])
            num[: term.size] += weights[k] * term
        return num


@dataclass(frozen=True)
class ExceptionalSets:
    """The certified finite sets attached to a model.

    ``n_points`` is None exactly when the defining product vanishes
    identically (degenerate case); ``n`` then reports the sentinel.
    """

    sigma_hs: tuple[float, ...]
    s_zeros: tuple[float, ...]
    n_points: tuple[float, ...] | None

    @property
    def degenerate(self) -> bool:
        return self.n_points is None

    @property
    def n(self):
        return DEGENERATE_WHOLE_LINE if self.degenerate else self.n_points

    def to_dict(self) -> dict:
        return {
            "sigma_hs": list(self.sigma_hs),
            "S": list(self.s_zeros),
            "N": DEGENERATE_WHOLE_LINE if self.degenerate else list(self.n_points),
        }


@dataclass
class ValidationReport:
    """Report-only diagnostics; construction already enforced the hard invariants."""

    herm_residual: float
    eig_residual: float
    vanish_ok: bool
    vanish_numerator_max: float
    cyclicity_rank: int
    system_dim: int
    cyclic_system_heuristic: bool
    reservoirs_nontrivial: bool
    degenerate_n: bool
    n_outside_sigma_hs: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.vanish_ok and self.reservoirs_nontrivial

    def to_dict(self) -> dict:
        # a list, not a tuple: CSV writes a tuple with its parentheses
        return {**asdict(self), "n_outside_sigma_hs": list(self.n_outside_sigma_hs),
                "ok": self.ok}


class BlackBoxModel:
    """System block plus the two reservoir spectral measures.

    Construction enforces the non-decoupling condition: the cross Green's
    function G0(delta_l, delta_r, .) must not vanish identically, i.e. the
    cyclic subspaces generated by the two coupling vectors are not orthogonal.
    Instances are immutable after construction; evaluation is pure.
    """

    def __init__(self, system: SystemBlock, res_l: SpectralMeasure, res_r: SpectralMeasure):
        self.system = system
        self.res_l = res_l
        self.res_r = res_r
        num = system.pair_numerator(DELTA_L, DELTA_R)
        self._vanish_numerator_max = float(np.max(np.abs(num)))
        if self._vanish_numerator_max <= _VANISH_TOL:
            raise InvalidModelError(
                "cross Green's function vanishes identically: the model decouples "
                "into two non-interacting halves"
            )

    # -- uncoupled Green's functions ---------------------------------------

    def g0(self, phi: str, psi: str, z):
        """Uncoupled G0(phi, psi, z) using the block-diagonal structure."""
        for tag in (phi, psi):
            if tag not in TAGS:
                raise ValueError(f"unknown vector tag {tag!r}")
        if phi in _RESERVOIR_TAGS or psi in _RESERVOIR_TAGS:
            if phi == psi == CHI_L:
                return self.res_l.borel(z)
            if phi == psi == CHI_R:
                return self.res_r.borel(z)
            # different blocks: exactly zero
            z_arr = np.asarray(z, dtype=complex)
            return 0j if z_arr.ndim == 0 else np.zeros(z_arr.shape, dtype=complex)
        return self.system.green(phi, psi, z)

    def d_function(self, E: float) -> float:
        """det of the 2x2 system Green matrix at real E outside sigma(H_S).

        Real-valued: the diagonal entries are real and the off-diagonal pair
        multiplies to |G0(delta_l, delta_r, E)|^2.
        """
        a = self.system.green(DELTA_L, DELTA_L, float(E))
        b = self.system.green(DELTA_R, DELTA_R, float(E))
        c = self.system.green(DELTA_L, DELTA_R, float(E))
        cb = self.system.green(DELTA_R, DELTA_L, float(E))
        ab, ccb = a * b, c * cb
        val = ab - ccb
        # scale by the products: where d vanishes identically, val is pure
        # cancellation and its roundoff is relative to |a b|, not to |val|
        if abs(val.imag) > 1e-12 * max(1.0, abs(ab), abs(ccb)):
            raise ArithmeticError(
                f"d(E) acquired an imaginary part {val.imag:.3e} at E = {E}"
            )
        return float(val.real)

    # -- exceptional sets ---------------------------------------------------

    def _d_numerator(self) -> np.ndarray:
        n_ll = self.system.pair_numerator(DELTA_L, DELTA_L)
        n_rr = self.system.pair_numerator(DELTA_R, DELTA_R)
        n_lr = self.system.pair_numerator(DELTA_L, DELTA_R)
        n_rl = self.system.pair_numerator(DELTA_R, DELTA_L)
        num = npoly.polysub(npoly.polymul(n_ll, n_rr), npoly.polymul(n_lr, n_rl))
        # real for real E; drop the roundoff imaginary part
        return np.real_if_close(num, tol=1000).real.astype(float) \
            if np.iscomplexobj(num) else num

    @cached_property
    def exceptional_sets(self) -> ExceptionalSets:
        """sigma(H_S), the zero set S of the cross pair, and the averaging set N.

        N collects sigma(H_S) with the real zeros of the product
        G_ll * G_rr * G_lr * d; since a polynomial product vanishes exactly
        where a factor does, the roots are taken factor-wise (better
        conditioned than one degree-4(p-1) product).  The product is
        identically zero iff d is (the other factors cannot vanish for a
        valid model), which yields the degenerate flag.
        """
        sigma = tuple(float(x) for x in self.system.poles)
        n_lr = self.system.pair_numerator(DELTA_L, DELTA_R)
        s_zeros = _real_roots(n_lr, avoid=sigma)
        n_d = self._d_numerator()
        d_scale = max(
            float(np.max(np.abs(n_d))), 0.0
        )
        ref = self._vanish_numerator_max ** 2
        if d_scale <= 1e-13 * max(ref, 1.0):
            return ExceptionalSets(sigma, s_zeros, None)
        points = set(sigma)
        points.update(s_zeros)
        for num in (
            self.system.pair_numerator(DELTA_L, DELTA_L),
            self.system.pair_numerator(DELTA_R, DELTA_R),
            n_d,
        ):
            points.update(_real_roots(num))
        return ExceptionalSets(sigma, s_zeros, tuple(sorted(points)))

    # -- diagnostics ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report-only diagnostics: Hermiticity, non-decoupling, cyclicity
        heuristic (numeric Krylov rank), reservoir non-triviality, and the
        degenerate-N flag with the empirical N \\ sigma(H_S) comparison."""
        sysb = self.system
        n = sysb.dim
        krylov = []
        for v in (sysb.delta_l, sysb.delta_r):
            w = v.astype(complex)
            for _ in range(n):
                krylov.append(w)
                w = sysb.h_s @ w
        K = np.stack(krylov, axis=1)
        svals = np.linalg.svd(K, compute_uv=False)
        rank = int(np.sum(svals > _RANK_TOL * svals[0])) if svals.size else 0
        exc = self.exceptional_sets
        outside = tuple(
            E
            for E in (exc.n_points or ())
            if min(abs(E - s) for s in exc.sigma_hs) > 1e-9
        )
        return ValidationReport(
            herm_residual=sysb.herm_residual,
            eig_residual=sysb.eig_residual,
            vanish_ok=True,
            vanish_numerator_max=self._vanish_numerator_max,
            cyclicity_rank=rank,
            system_dim=n,
            cyclic_system_heuristic=rank == n,
            reservoirs_nontrivial=(self.res_l.total_mass > 0 and self.res_r.total_mass > 0),
            degenerate_n=exc.degenerate,
            n_outside_sigma_hs=outside,
        )


def _real_roots(
    coef: np.ndarray, avoid: Sequence[float] = (), imag_tol: float = 1e-7
) -> tuple[float, ...]:
    """Certified real roots of a polynomial: companion-matrix roots filtered
    to the real axis, Newton-polished, de-duplicated, residual-checked."""
    coef = np.asarray(coef, dtype=complex)
    nz = np.nonzero(np.abs(coef) > 0)[0]
    if nz.size == 0:
        raise ValueError("zero polynomial has no certified root list")
    coef = coef[: nz[-1] + 1]
    if coef.size == 1:
        return ()
    scale = float(np.max(np.abs(coef)))
    roots = npoly.polyroots(coef)
    deriv = npoly.polyder(coef)
    out = []
    for r in roots:
        if abs(r.imag) > imag_tol * max(1.0, abs(r.real)):
            continue
        x = r
        for _ in range(8):  # Newton polish in complex arithmetic
            fx = npoly.polyval(x, coef)
            dfx = npoly.polyval(x, deriv)
            if dfx == 0:
                break
            step = fx / dfx
            x = x - step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        if abs(x.imag) > 1e-9 * max(1.0, abs(x.real)):
            continue
        residual = abs(npoly.polyval(x.real, coef))
        bound = scale * max(1.0, abs(x.real)) ** (coef.size - 1)
        if residual > _ROOT_RESIDUAL_TOL * bound:
            continue
        out.append(float(x.real))
    out.sort()
    dedup: list[float] = []
    for x in out:
        if dedup and abs(x - dedup[-1]) <= 1e-9 * max(1.0, abs(x)):
            continue
        if any(abs(x - s) <= 1e-9 * max(1.0, abs(x)) for s in avoid):
            continue
        dedup.append(x)
    return tuple(dedup)
