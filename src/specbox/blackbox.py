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

The determinant d = a b - |c|^2 of the 2x2 system Green matrix has one
formula, the Cauchy-Binet sum over the minors of the eigenvector overlaps of
delta_l and delta_r (``SystemBlock.d`` on the real axis, its cleared
numerator for N).  It is real by construction, and it vanishes identically
exactly when delta_r is parallel to delta_l; N is then the whole line
(degenerate).

A ``SystemBlock`` builds each pole-cleared numerator, and its secular
polynomials, once, and shares every product prod (E - p) over the same
root list between them; the memo lives on the block, never in the module.
The products keep ``npoly.polyfromroots``'s order of operations, and the
Newton polish of the companion-matrix roots runs on all candidates at once
with the scalar rounding, so every coefficient and root is bit-identical to
the per-pole, per-root computation.
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
    "cleared_sum",
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
#: a companion-matrix root counts as real below this relative imaginary part
_ROOT_IMAG_TOL = 1e-7
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
        positions, self._groups = self._cluster_eigenvalues()
        #: Distinct eigenvalues after clustering (the poles of system pairs).
        self.poles = np.array(positions)
        # clustered weights (phi, e_k)(e_k, psi) of the four system pairs, one
        # np.sum per cluster and not `@ member` below: green must keep adding a
        # cluster's terms in this order, and a matrix product may reorder them
        self._weights = {}
        for phi in _SYSTEM_TAGS:
            for psi in _SYSTEM_TAGS:
                w = np.conj(self._coef[phi]) * self._coef[psi]
                self._weights[phi, psi] = np.array([np.sum(w[list(g)]) for g in self._groups])
        # M: the Cauchy-Binet minors |x_i y_j - x_j y_i|^2 of the overlaps x, y
        # of delta_l, delta_r, summed over clusters (see secular_polynomials)
        x, y = self._coef[DELTA_L], self._coef[DELTA_R]
        minors = np.abs(np.outer(x, y) - np.outer(y, x)) ** 2
        # i = j is no pair; computed, the entry is a rounding residue, not 0
        np.fill_diagonal(minors, 0.0)
        member = np.zeros((n, self.poles.size))
        for k, g in enumerate(self._groups):
            member[list(g), k] = 1.0
        #: Cluster-summed minors (the diagonal counts each pair i < j twice).
        self.minors = member.T @ minors @ member
        # shared by every caller
        for a in (self.poles, self.minors, *self._weights.values()):
            a.setflags(write=False)
        # prod (E - r) by root list, and the pair numerators by pair: the
        # cleared sums below share their products, and each is built once
        self._products: dict[tuple, np.ndarray] = {}
        self._numerators: dict[tuple[str, str], np.ndarray] = {}

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

    def _product(self, roots) -> np.ndarray:
        """prod (E - r) over ``roots`` (``_polyfromroots``), computed once per
        root list on this block (read-only)."""
        key = tuple(roots)
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = _frozen(_polyfromroots(roots))
        return out

    def pair_weights(self, phi: str, psi: str) -> np.ndarray:
        """Clustered weights (phi, e_k)(e_k, psi), one entry per pole (read-only)."""
        return self._weights[phi, psi]

    def _check_poles(self, re: np.ndarray) -> None:
        """Raise PoleError if a real energy in the 1-d array ``re`` hits a pole."""
        poles = self.poles
        dist = np.abs(re[:, None] - poles[None, :])
        hits = np.nonzero(dist <= 1e-12 * np.maximum(1.0, np.abs(poles)))
        if hits[0].size:
            idx = int(hits[1][0])
            raise PoleError(
                f"real z = {re[hits[0][0]]} hits system eigenvalue {poles[idx]}",
                energy=float(poles[idx]),
                index=idx,
            )

    def green(self, phi: str, psi: str, z):
        """System-pair Green's function, array-capable in z."""
        z_arr = np.asarray(z, dtype=complex)
        scalar = z_arr.ndim == 0
        z_flat = np.atleast_1d(z_arr)
        on_axis = z_flat.imag == 0.0
        if np.any(on_axis):
            self._check_poles(z_flat.real[on_axis])
        w = self.pair_weights(phi, psi)
        vals = np.sum(w / (self.poles - z_flat[..., None]), axis=-1)
        vals = vals.reshape(z_arr.shape)
        return complex(vals) if scalar else vals

    def d(self, E):
        """d = a b - |c|^2, the determinant of the 2x2 system Green matrix,
        at real E outside sigma(H_S); array-capable in E.

        By Cauchy-Binet d = 1/2 sum_kj M_kj u_k u_j with u_k = 1/(p_k - E)
        over the clusters p and M the cluster-summed minors: real by
        construction, and exactly 0 for a 1x1 H_S.  Each energy's u M is its
        own one-row product, so its value has the same bits however many
        energies share the call (a (k, n) product may add in another order).
        """
        E_arr = np.asarray(E, dtype=float)
        E_flat = np.atleast_1d(E_arr)
        self._check_poles(E_flat.ravel())
        u = 1.0 / (self.poles - E_flat[..., None])
        vals = 0.5 * np.sum((u[..., None, :] @ self.minors)[..., 0, :] * u, axis=-1)
        return float(vals[0]) if E_arr.ndim == 0 else vals

    def pair_numerator(self, phi: str, psi: str) -> np.ndarray:
        """Coefficients (low-to-high) of N with G(phi,psi,E) = -N(E)/P(E).

        P(E) = prod over distinct poles of (E - x_k); poles with negligible
        weight for this pair are genuinely absent from the rational function,
        so they are excluded before forming the numerator.  Built once per
        pair; the array is read-only.
        """
        num = self._numerators.get((phi, psi))
        if num is None:
            poles = self.poles
            weights = self.pair_weights(phi, psi)
            wscale = float(np.linalg.norm(self._coef[phi]) * np.linalg.norm(self._coef[psi]))
            keep = np.abs(weights) > 1e-14 * max(wscale, 1e-300)
            poles, weights = poles[keep], weights[keep]
            num = -cleared_sum(poles, poles, weights, self._product)
            self._numerators[phi, psi] = _frozen(num)
        return num

    def secular_polynomials(self) -> tuple[np.ndarray, ...]:
        """The system pairs with their poles cleared, for the secular equation
        (built once per block; the arrays are read-only).

        Returns coefficient arrays (low to high) of P, P a, P b and P d, where
        a = G0(delta_l, delta_l), b = G0(delta_r, delta_r), d = a b - |c|^2
        and P = prod (E - p)^m over the clusters p.  By Cauchy-Binet,
        d = sum_{i<j} |x_i y_j - x_j y_i|^2 / ((E - E_i)(E - E_j)) with
        x, y the eigenvector overlaps of delta_l, delta_r, so d has a double
        pole at a cluster of two or more eigenvalues; such a cluster is
        cleared twice (m = 2), every other once.
        """
        return self._secular

    @cached_property
    def _secular(self) -> tuple[np.ndarray, ...]:
        poles = self.poles
        roots = [p for p, g in zip(poles, self._groups) for _ in range(min(len(g), 2))]
        d = np.zeros(max(len(roots) - 1, 1))
        for k in range(poles.size):
            for j in range(k, poles.size):
                weight = self.minors[k, j] if j > k else 0.5 * self.minors[k, k]
                if weight == 0.0:
                    continue
                rest = list(roots)
                rest.remove(poles[k])
                rest.remove(poles[j])
                term = weight * self._product(rest)
                d[: term.size] += term
        a = cleared_sum(roots, poles, self.pair_weights(DELTA_L, DELTA_L).real, self._product)
        b = cleared_sum(roots, poles, self.pair_weights(DELTA_R, DELTA_R).real, self._product)
        return self._product(roots), _frozen(a), _frozen(b), _frozen(d)


@dataclass(frozen=True)
class ExceptionalSets:
    """The certified finite sets attached to a model.

    ``n_points`` is None exactly when the defining product vanishes
    identically (degenerate case); ``to_dict`` then reports the sentinel.
    """

    sigma_hs: tuple[float, ...]
    s_zeros: tuple[float, ...]
    n_points: tuple[float, ...] | None

    @property
    def degenerate(self) -> bool:
        return self.n_points is None

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

    # -- exceptional sets ---------------------------------------------------

    @cached_property
    def exceptional_sets(self) -> ExceptionalSets:
        """sigma(H_S), the zero set S of the cross pair, and the averaging set N.

        N collects sigma(H_S) with the real zeros of the product
        G_ll * G_rr * G_lr * d; since a polynomial product vanishes exactly
        where a factor does, the roots are taken factor-wise (better
        conditioned than one degree-4(p-1) product), d's from its
        Cauchy-Binet numerator P d (``SystemBlock.secular_polynomials``).
        Each point is listed once: a root within the match tolerance of one
        already listed is dropped.  The product is identically zero iff d is
        (the other factors cannot vanish for a valid model), which yields the
        degenerate flag.
        """
        sysb = self.system
        sigma = tuple(float(x) for x in sysb.poles)
        n_lr = sysb.pair_numerator(DELTA_L, DELTA_R)
        s_zeros = _real_roots(n_lr, avoid=sigma)
        # d vanishes identically iff every minor does: they are >= 0, and at
        # the lowest pole p_1, d has the terms M_11 / (2 (p_1 - E)^2) and
        # sum_{j>1} M_1j / ((p_j - p_1)(p_1 - E)).  Half the minors' sum is
        # |delta_l|^2 |delta_r|^2 - |<delta_l, delta_r>|^2 (Lagrange), so the
        # test reads the angle between delta_l and delta_r, whatever the
        # scale of the spectrum.
        norms = np.linalg.norm(sysb.delta_l) * np.linalg.norm(sysb.delta_r)
        if 0.5 * float(np.sum(sysb.minors)) <= 1e-13 * norms**2:
            return ExceptionalSets(sigma, s_zeros, None)
        points = [*sigma, *s_zeros]
        for num in (
            sysb.pair_numerator(DELTA_L, DELTA_L),
            sysb.pair_numerator(DELTA_R, DELTA_R),
            sysb.secular_polynomials()[3],
        ):
            # a root at a listed point is that point; P d, cleared of every
            # cluster, can vanish on one
            points += _real_roots(num, avoid=points)
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _polyfromroots(roots) -> np.ndarray:
    """``npoly.polyfromroots`` of real roots with its arithmetic: the linear
    factors of the sorted roots, multiplied in the same balanced tree, by
    ``np.convolve`` without ``polymul``'s conversions (its inputs are float
    arrays with leading coefficient 1 already)."""
    roots = np.sort(np.asarray(roots, dtype=float))
    if roots.size == 0:
        return np.ones(1)
    p = [np.array([-r, 1.0]) for r in roots]
    n = len(p)
    while n > 1:
        m, odd = divmod(n, 2)
        tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
        if odd:
            tmp[0] = np.convolve(tmp[0], p[-1])
        p, n = tmp, m
    return p[0]


def cleared_sum(roots, poles, weights, product=_polyfromroots) -> np.ndarray:
    """Coefficients (low to high) of prod_r (E - r) * sum_k weights[k] / (poles[k] - E).

    Every pole must be among ``roots``; its term drops one copy of it from
    the product, so no division is left and the value is exact at the poles.
    ``product(rest)`` gives prod (E - r) over ``rest``.
    """
    out = np.zeros(max(len(roots), 1), dtype=np.result_type(np.asarray(weights), float))
    for p, w in zip(poles, weights):
        rest = list(roots)
        rest.remove(p)
        term = -w * product(rest)
        out[: term.size] += term
    return out


def _horner(coef: np.ndarray, xr: np.ndarray, xi: np.ndarray):
    """``npoly.polyval(x, coef)`` at complex x = xr + i xi, as real and
    imaginary parts.  Each complex product is spelled out as
    (ar br - ai bi, ar bi + ai br), the scalar rounding: numpy's array
    complex product may fuse a multiply-add and round differently."""
    zr, zi = xr * 0.0 - xi * 0.0, xr * 0.0 + xi * 0.0  # x * 0
    vr, vi = coef[-1].real + zr, coef[-1].imag + zi
    for c in coef[-2::-1]:
        vr, vi = c.real + (vr * xr - vi * xi), c.imag + (vr * xi + vi * xr)
    return vr, vi


def _real_roots(coef: np.ndarray, avoid: Sequence[float] = ()) -> tuple[float, ...]:
    """Certified real roots of a polynomial: companion-matrix roots filtered
    to the real axis, Newton-polished (all candidates at once, up to 8
    steps each), de-duplicated, residual-checked."""
    coef = np.asarray(coef, dtype=complex)
    nz = np.nonzero(np.abs(coef) > 0)[0]
    if nz.size == 0:
        raise ValueError("zero polynomial has no certified root list")
    coef = coef[: nz[-1] + 1]
    if coef.size == 1:
        return ()
    scale = float(np.max(np.abs(coef)))
    roots = npoly.polyroots(coef)
    deriv = coef[1:] * np.arange(1, coef.size)
    roots = roots[~(np.abs(roots.imag) > _ROOT_IMAG_TOL * np.maximum(1.0, np.abs(roots.real)))]
    xr, xi = roots.real.copy(), roots.imag.copy()
    live = np.arange(roots.size)  # the roots still polishing
    for _ in range(8):
        if live.size == 0:
            break
        fr, fi = _horner(coef, xr[live], xi[live])
        dr, di = _horner(deriv, xr[live], xi[live])
        moving = (dr != 0.0) | (di != 0.0)
        live, fr, fi, dr, di = live[moving], fr[moving], fi[moving], dr[moving], di[moving]
        fx, dfx = fr.astype(complex), dr.astype(complex)
        fx.imag, dfx.imag = fi, di
        step = fx / dfx
        xr[live] -= step.real
        xi[live] -= step.imag
        done = np.hypot(step.real, step.imag) < 1e-15 * np.maximum(
            1.0, np.hypot(xr[live], xi[live]))
        live = live[~done]
    xr = xr[~(np.abs(xi) > 1e-9 * np.maximum(1.0, np.abs(xr)))]
    res = np.hypot(*_horner(coef, xr, np.zeros_like(xr)))  # |p(x)| at real x
    out = sorted(
        x for x, r in zip(xr.tolist(), res.tolist())
        if not r > _ROOT_RESIDUAL_TOL * (scale * max(1.0, abs(x)) ** (coef.size - 1))
    )
    # a root within 1e-9 relative of a point to avoid or of one already kept
    # (out is ascending, so the last kept is the nearest) is the same point
    avoid = np.asarray(avoid, dtype=float)
    dedup: list[float] = []
    for x in out:
        tol = 1e-9 * max(1.0, abs(x))
        if dedup and not abs(x - dedup[-1]) > tol:
            continue
        if np.all(np.abs(x - avoid) > tol):
            dedup.append(x)
    return tuple(dedup)
