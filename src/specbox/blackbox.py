"""Full model assembly and the uncoupled Green's functions.

The uncoupled operator is block diagonal over (left reservoir, system,
right reservoir), so its Green's functions factor: cross-block pairs vanish,
reservoir pairs reduce to the Cauchy transform of the reservoir measure, and
system pairs are rational functions built from the eigendecomposition of the
system matrix,

    G0(phi, psi, z) = sum_k (phi, e_k)(e_k, psi) / (E_k - z).

``SystemBlock.green`` evaluates the system pairs and
``SpectralMeasure.borel`` the reservoir ones; ``resolvent.G0Basics`` holds
the six that do not vanish.

The finite exceptional sets are eigenvalues of H_S compressed to the
complements of the coupling vectors, never roots of polynomial
coefficients.  With Q_phi an orthonormal basis of the orthogonal complement
of phi (``_complement``), by Cauchy interlacing and Jacobi's
complementary-minor identity:

- a = G0(delta_l, delta_l) vanishes at the eigenvalues of Q_l* H_S Q_l, b at
  those of Q_r* H_S Q_r, and d = a b - |c|^2 at those of H_S compressed to
  {delta_l, delta_r}^perp.  Each list may also hold eigenvalues of H_S that
  the pair does not see; those are in sigma(H_S) anyway.
- c = G0(delta_l, delta_r) vanishes off sigma(H_S) exactly at the finite
  eigenvalues of the (n-1)-dimensional pencil Q_r* (H_S - E) Q_l.  Where
  delta_l is orthogonal to delta_r, B = Q_r* Q_l is singular and the pencil
  has infinite eigenvalues, so it is solved in shift-invert form,
  eig((A - s B)^-1 B), with a shift s off the real axis: an infinite
  eigenvalue reads theta = 0, and where rounding moves it (an end-coupled
  chain has one of index n - 1), it moves to a complex point, never onto
  the real axis that S is read from.

The determinant d = a b - |c|^2 of the 2x2 system Green matrix has one
formula, the Cauchy-Binet sum over the minors of the eigenvector overlaps of
delta_l and delta_r (``SystemBlock.d``).  It is real by construction, and
it vanishes identically exactly when delta_r is parallel to delta_l; N is
then the whole line (degenerate).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

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

#: Sentinel: the product defining the averaging exceptional set vanishes
#: identically, so "the finite set" degenerates to the whole line.
DEGENERATE_WHOLE_LINE = "DEGENERATE_WHOLE_LINE"

_HERM_TOL = 1e-14
_EIG_RESIDUAL_TOL = 1e-12
_CLUSTER_TOL = 1e-10
_VANISH_TOL = 1e-13
#: a pencil eigenvalue counts as real below this relative imaginary part
_REAL_TOL = 1e-7
#: two points of an exceptional set closer than this (relative) are one
_DISTINCT_TOL = 1e-9
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
        # of delta_l, delta_r, summed over clusters (see d)
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
    #: the largest clustered weight (delta_l, e_k)(e_k, delta_r) of the cross
    #: pair, relative to |delta_l| |delta_r|; the model decouples at or below
    #: 1e-13
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
    It vanishes identically exactly when each of its clustered residues does,
    so the test reads the largest residue relative to |delta_l| |delta_r|.
    Instances are immutable after construction; evaluation is pure.
    """

    def __init__(self, system: SystemBlock, res_l: SpectralMeasure, res_r: SpectralMeasure):
        self.system = system
        self.res_l = res_l
        self.res_r = res_r
        norms = np.linalg.norm(system.delta_l) * np.linalg.norm(system.delta_r)
        weights = system.pair_weights(DELTA_L, DELTA_R)
        self._vanish_numerator_max = float(np.max(np.abs(weights)) / norms)
        if self._vanish_numerator_max <= _VANISH_TOL:
            raise InvalidModelError(
                "cross Green's function vanishes identically: the model decouples "
                "into two non-interacting halves"
            )

    # -- exceptional sets ---------------------------------------------------

    @cached_property
    def exceptional_sets(self) -> ExceptionalSets:
        """sigma(H_S), the zero set S of the cross pair, and the averaging set N.

        S is the real spectrum of the pencil Q_r* (H_S - E) Q_l off
        sigma(H_S).  N collects sigma(H_S), S and the zeros of a, b and d,
        the eigenvalues of the three compressions of H_S (see the module
        docstring).  Each point is listed once: a point within 1e-9
        (relative) of one already listed is dropped.  The product
        a b c d vanishes identically iff d does (the other factors cannot
        for a valid model), which yields the degenerate flag.
        """
        sysb = self.system
        h, dl, dr = sysb.h_s, sysb.delta_l, sysb.delta_r
        sigma = tuple(float(x) for x in sysb.poles)
        ql, qr = _complement(dl), _complement(dr)
        s_zeros = _distinct(_pencil_real_eigenvalues(h, ql, qr, sysb.eigenvalues), sigma)
        # d vanishes identically iff every minor does: they are >= 0, and at
        # the lowest pole p_1, d has the terms M_11 / (2 (p_1 - E)^2) and
        # sum_{j>1} M_1j / ((p_j - p_1)(p_1 - E)).  Half the minors' sum is
        # |delta_l|^2 |delta_r|^2 - |<delta_l, delta_r>|^2 (Lagrange), so the
        # test reads the angle between delta_l and delta_r, whatever the
        # scale of the spectrum.
        norms = np.linalg.norm(dl) * np.linalg.norm(dr)
        if 0.5 * float(np.sum(sysb.minors)) <= 1e-13 * norms**2:
            return ExceptionalSets(sigma, s_zeros, None)
        zeros = [np.linalg.eigvalsh(q.conj().T @ h @ q)
                 for q in (ql, qr, _complement(dl, dr))]
        points = (*sigma, *s_zeros)
        points += _distinct(np.concatenate(zeros), points)
        return ExceptionalSets(sigma, s_zeros, tuple(sorted(points)))

    # -- diagnostics ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report-only diagnostics: Hermiticity, non-decoupling, cyclicity,
        reservoir non-triviality, and the degenerate-N flag with the
        points of N outside sigma(H_S).  The cyclicity rank, the
        dimension of the cyclic subspace of {delta_l, delta_r}, sums over the
        eigenvalue clusters of H_S the rank of the cluster's overlaps with
        delta_l and delta_r (singular values above 1e-8 max |delta|)."""
        sysb = self.system
        n = sysb.dim
        x, y = sysb._coef[DELTA_L], sysb._coef[DELTA_R]
        tol = _RANK_TOL * max(np.linalg.norm(sysb.delta_l), np.linalg.norm(sysb.delta_r))
        rank = sum(int(np.linalg.matrix_rank(np.stack([x[list(g)], y[list(g)]], axis=1), tol=tol))
                   for g in sysb._groups)
        exc = self.exceptional_sets
        # N lists sigma(H_S) itself, and every other point of N lies beyond
        # the distinct-point tolerance from it
        outside = tuple(E for E in (exc.n_points or ()) if E not in exc.sigma_hs)
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


def _complement(*vectors) -> np.ndarray:
    """An orthonormal basis, as columns, of the orthogonal complement of the
    span of ``vectors`` (of their numerical span, when they are dependent)."""
    u, svals, _ = np.linalg.svd(np.stack(vectors, axis=1))
    rank = int(np.sum(svals > 1e-12 * svals[0]))
    return u[:, rank:]


def _pencil_real_eigenvalues(h, ql, qr, spectrum) -> np.ndarray:
    """The real finite eigenvalues E of Q_r* (h - E) Q_l, ascending, given
    the complements Q_l and Q_r of delta_l and delta_r.

    Shift-invert with s = i (1 + max |spectrum|): theta = 1 / (E - s) are the
    eigenvalues of (A - s B)^-1 B, A = Q_r* h Q_l, B = Q_r* Q_l; a theta at
    the rounding level of the largest is an infinite eigenvalue.
    """
    if ql.shape[1] == 0:
        return np.zeros(0)
    shift = 1j * (1.0 + float(np.max(np.abs(spectrum))))
    b = qr.conj().T @ ql
    theta = np.linalg.eigvals(np.linalg.solve(qr.conj().T @ h @ ql - shift * b, b))
    theta = theta[np.abs(theta) > 1e-12 * np.max(np.abs(theta))]
    E = shift + 1.0 / theta
    return np.sort(E.real[np.abs(E.imag) <= _REAL_TOL * np.maximum(1.0, np.abs(E.real))])


def _distinct(new, listed) -> tuple[float, ...]:
    """The points of ``new``, ascending, without those within _DISTINCT_TOL
    (relative) of a point listed or of one kept before."""
    listed = np.asarray(listed, dtype=float)
    kept: list[float] = []
    for x in np.sort(np.asarray(new, dtype=float)).tolist():
        tol = _DISTINCT_TOL * max(1.0, abs(x))
        if kept and not abs(x - kept[-1]) > tol:
            continue
        if np.all(np.abs(x - listed) > tol):
            kept.append(x)
    return tuple(kept)
