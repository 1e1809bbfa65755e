"""Coupled Green's functions: closed forms, linear systems, and a brute-force
discretization oracle.

For coupling strengths (lam, nu) the second resolvent identity closes on the
four distinguished vectors.  Fixing the first argument phi and letting the
second run over (chi_l, delta_l, chi_r, delta_r) gives a 4x4 linear system
whose coefficient matrix A depends only on z and the coupling, with

    det A = D(z) = (1 - nu^2 r b)(1 - lam^2 l a) - nu^2 lam^2 r l c cbar,

where l, r are the reservoir transforms and a, b, c, cbar the system pairs.
Solving A X = B with the four right-hand sides at once yields all 16 pairs;
the printed closed forms for the diagonal pairs are kept as independent
cross-checks.

The oracle replaces each density piece by Gauss-Legendre nodes (density
absorbed into the weights), keeps atoms as exact nodes, embeds chi as the
vector of square-root weights, and solves (H - z) u = psi directly.  The
assembled matrix is diagonal on every reservoir node, so the oracle
eliminates those nodes in closed form (the Feshbach reduction onto the
system): one n x n solve of the Schur complement per z covers every
requested vector, and back-substitution recovers the reservoir components.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel
from .config import CouplingParams  # defined in config, still importable from here
from .errors import DomainError, NearSingularError, OracleError
from .measures import SpectralMeasure

__all__ = [
    "CouplingParams",
    "G0Basics",
    "det_D",
    "green",
    "green_all",
    "green_closed",
    "discretize",
    "DiscretizedModel",
    "green_oracle",
    "green_oracle_all",
]

_TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}


def _coupling(coupling) -> CouplingParams:
    if isinstance(coupling, CouplingParams):
        return coupling
    lam, nu = coupling
    return CouplingParams(float(lam), float(nu))


@dataclass(frozen=True)
class G0Basics:
    """The six nonzero uncoupled Green's values at one (array of) z."""

    l: np.ndarray          # (chi_l, chi_l)
    r: np.ndarray          # (chi_r, chi_r)
    a: np.ndarray          # (delta_l, delta_l)
    b: np.ndarray          # (delta_r, delta_r)
    c: np.ndarray          # (delta_l, delta_r)
    cb: np.ndarray         # (delta_r, delta_l)

    @classmethod
    def at(cls, model: BlackBoxModel, z) -> "G0Basics":
        system = model.system
        return cls(
            l=model.res_l.borel(z),
            r=model.res_r.borel(z),
            a=system.green(DELTA_L, DELTA_L, z),
            b=system.green(DELTA_R, DELTA_R, z),
            c=system.green(DELTA_L, DELTA_R, z),
            cb=system.green(DELTA_R, DELTA_L, z),
        )

    def det_D(self, coupling: CouplingParams):
        lam2, nu2 = coupling.lam**2, coupling.nu**2
        return (1 - nu2 * self.r * self.b) * (1 - lam2 * self.l * self.a) \
            - nu2 * lam2 * self.r * self.l * self.c * self.cb

    def system_matrix(self, coupling: CouplingParams) -> np.ndarray:
        """A with rows indexed by the second-argument equation, columns by the
        unknown pair partner, in tag order (chi_l, delta_l, chi_r, delta_r)."""
        lam, nu = coupling.lam, coupling.nu
        l, r, a, b, c, cb = np.broadcast_arrays(
            self.l, self.r, self.a, self.b, self.c, self.cb
        )
        shape = l.shape
        A = np.zeros(shape + (4, 4), dtype=complex)
        one = np.ones(shape, dtype=complex)
        A[..., 0, 0] = one
        A[..., 0, 1] = lam * l
        A[..., 1, 0] = lam * a
        A[..., 1, 1] = one
        A[..., 1, 2] = nu * cb
        A[..., 2, 2] = one
        A[..., 2, 3] = nu * r
        A[..., 3, 0] = lam * c
        A[..., 3, 2] = nu * b
        A[..., 3, 3] = one
        return A

    def rhs_matrix(self) -> np.ndarray:
        """B[..., row psi, col phi] = G0(phi, psi)."""
        l, r, a, b, c, cb = np.broadcast_arrays(
            self.l, self.r, self.a, self.b, self.c, self.cb
        )
        B = np.zeros(l.shape + (4, 4), dtype=complex)
        B[..., 0, 0] = l          # phi = chi_l, psi = chi_l
        B[..., 1, 1] = a          # phi = delta_l, psi = delta_l
        B[..., 3, 1] = c          # phi = delta_l, psi = delta_r
        B[..., 2, 2] = r          # phi = chi_r,  psi = chi_r
        B[..., 1, 3] = cb         # phi = delta_r, psi = delta_l
        B[..., 3, 3] = b          # phi = delta_r, psi = delta_r
        return B


def det_D(model: BlackBoxModel, coupling, z):
    """D(z) from the uncoupled values; equals det of the 4x4 system matrix."""
    cp = _coupling(coupling)
    return G0Basics.at(model, z).det_D(cp)


def _solve_all(basics: G0Basics, coupling: CouplingParams) -> np.ndarray:
    """All 16 coupled pairs; result[..., i, j] = G(tag_i, tag_j)."""
    D = basics.det_D(coupling)
    if np.any(np.abs(np.atleast_1d(D)) < 1e-300):
        raise NearSingularError(
            "D(z) underflowed; z is numerically at a resonance of the coupled model"
        )
    A = basics.system_matrix(coupling)
    B = basics.rhs_matrix()
    X = np.linalg.solve(A, B)
    # X[..., psi_row, phi_col] = G(phi, psi): transpose the trailing block
    return np.swapaxes(X, -1, -2)


def green_all(model: BlackBoxModel, coupling, z) -> np.ndarray:
    """All 16 pairs at z (array-capable); index order follows TAGS."""
    cp = _coupling(coupling)
    return _solve_all(G0Basics.at(model, z), cp)


def green(model: BlackBoxModel, coupling, phi: str, psi: str, z):
    """Coupled G_{lam,nu}(phi, psi, z) via the linear-system path."""
    cp = _coupling(coupling)
    z_arr = np.asarray(z, dtype=complex)
    vals = green_all(model, cp, z)[..., _TAG_INDEX[phi], _TAG_INDEX[psi]]
    return complex(vals) if z_arr.ndim == 0 else vals


def green_from_basics(basics: G0Basics, coupling, phi: str, psi: str):
    """Coupled pair from precomputed uncoupled values (hot loops over coupling)."""
    cp = _coupling(coupling)
    return _solve_all(basics, cp)[..., _TAG_INDEX[phi], _TAG_INDEX[psi]]


def green_closed(model: BlackBoxModel, coupling, phi: str, z):
    """The printed diagonal closed forms; cross-check for the system path.

    Left pairs as printed, right pairs through the left-right relabeling.
    """
    cp = _coupling(coupling)
    g = G0Basics.at(model, z)
    lam2, nu2 = cp.lam**2, cp.nu**2
    D = g.det_D(cp)
    if phi == DELTA_L:
        num = (1 - nu2 * g.r * g.b) * g.a + nu2 * g.r * g.c * g.cb
    elif phi == CHI_L:
        num = g.l * (1 - nu2 * g.r * g.b)
    elif phi == DELTA_R:
        num = (1 - lam2 * g.l * g.a) * g.b + lam2 * g.l * g.cb * g.c
    elif phi == CHI_R:
        num = g.r * (1 - lam2 * g.l * g.a)
    else:
        raise ValueError(f"no closed form for tag {phi!r}")
    return num / D


# ---------------------------------------------------------------------------
# discretization oracle
# ---------------------------------------------------------------------------


class DiscretizedModel:
    """Finite Hermitian matrix standing in for the full compound operator.

    Reservoir blocks are diagonal on the quadrature nodes; the embedded chi
    vectors carry sqrt(weight) entries so that (chi, (H_res - z)^{-1} chi)
    is exactly the quadrature approximation of the reservoir transform.  H
    couples the reservoir nodes only to the system, through the two bond
    blocks of ``_bonds``; ``apply`` and the oracle's elimination both read
    H's entries from them, and neither forms the dense H.
    """

    def __init__(self, model: BlackBoxModel, nodes_per_piece: int):
        if nodes_per_piece < 2:
            raise DomainError(f"nodes_per_piece must be >= 2, got {nodes_per_piece}")
        self.model = model
        self.nodes_per_piece = int(nodes_per_piece)

        xl, wl = _measure_nodes(model.res_l, nodes_per_piece)
        xr, wr = _measure_nodes(model.res_r, nodes_per_piece)
        n = model.system.dim
        self.m_l, self.m_r = xl.size, xr.size
        self.dim = self.m_l + n + self.m_r
        self.nodes_l, self.weights_l = xl, wl
        self.nodes_r, self.weights_r = xr, wr
        self._sys_slice = slice(self.m_l, self.m_l + n)
        # the reservoir nodes, left then right
        self._res_index = np.r_[: self.m_l, self.m_l + n : self.dim]

        self.chi_l = np.zeros(self.dim, dtype=complex)
        self.chi_l[: self.m_l] = np.sqrt(wl)
        self.chi_r = np.zeros(self.dim, dtype=complex)
        self.chi_r[self.m_l + n :] = np.sqrt(wr)
        self.delta_l = np.zeros(self.dim, dtype=complex)
        self.delta_l[self._sys_slice] = model.system.delta_l
        self.delta_r = np.zeros(self.dim, dtype=complex)
        self.delta_r[self._sys_slice] = model.system.delta_r
        self._vectors = {
            CHI_L: self.chi_l,
            DELTA_L: self.delta_l,
            CHI_R: self.chi_r,
            DELTA_R: self.delta_r,
        }

        self.h0_diag = np.concatenate(
            [
                xl.astype(complex),
                np.diag(model.system.h_s).real.astype(complex),
                xr.astype(complex),
            ]
        )

    def vector(self, tag: str) -> np.ndarray:
        return self._vectors[tag]

    def _bonds(self, cp: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
        """H[res, sys] and H[sys, res], reservoir nodes left then right.

        A bond of strength s adds s (chi conj(delta)) to the system columns
        and s (delta conj(chi)) to the system rows; each chi lives on its own
        reservoir's nodes only.
        """
        sys = self._sys_slice
        left, right = slice(None, self.m_l), slice(sys.stop, None)
        bonds = ((cp.lam, self.chi_l[left], self.delta_l[sys]),
                 (cp.nu, self.chi_r[right], self.delta_r[sys]))
        a_rs = np.concatenate([s * np.outer(chi, delta.conj()) for s, chi, delta in bonds])
        a_sr = np.concatenate([s * np.outer(delta, chi.conj()) for s, chi, delta in bonds], axis=1)
        return a_rs, a_sr

    def apply(self, coupling, u: np.ndarray) -> np.ndarray:
        """H(lam, nu) u without forming H: O(dim * n) time and memory."""
        res, sys = self._res_index, self._sys_slice
        a_rs, a_sr = self._bonds(_coupling(coupling))
        out = np.empty(self.dim, dtype=complex)
        out[res] = self.h0_diag[res] * u[res] + a_rs @ u[sys]
        out[sys] = a_sr @ u[res] + self.model.system.h_s @ u[sys]
        return out


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n (each
    rule is an n x n eigensolve); the arrays are read-only because every
    caller shares them."""
    # imported here: only the oracle reads a rule, and numpy.polynomial
    # costs every other command its import
    from numpy.polynomial.legendre import leggauss

    t, v = leggauss(n)
    t.setflags(write=False)
    v.setflags(write=False)
    return t, v


def _measure_nodes(measure: SpectralMeasure, nodes_per_piece: int):
    """Nodes/weights for the measure: GL rule per piece with the polynomial
    density absorbed into the weights; atoms kept exactly."""
    t, v = _gauss_legendre(nodes_per_piece)
    xs, ws = [], []
    for p in measure.pieces:
        half = 0.5 * (p.b - p.a)
        mid = 0.5 * (p.a + p.b)
        x = mid + half * t
        dens = np.polynomial.polynomial.polyval(x, p.coef)
        xs.append(x)
        ws.append(half * v * dens)
    for x0, w in measure.atoms:
        xs.append(np.array([x0]))
        ws.append(np.array([w]))
    if not xs:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(xs), np.concatenate(ws)


def discretize(model: BlackBoxModel, nodes_per_piece: int) -> DiscretizedModel:
    """Build the finite stand-in operator used as the verification oracle."""
    return DiscretizedModel(model, nodes_per_piece)


def green_oracle(
    disc: DiscretizedModel,
    coupling,
    phi: str,
    psi: str,
    z: complex,
) -> complex:
    """(phi, (H - z)^{-1} psi) on the discretized model by direct solve."""
    vals = green_oracle_all(disc, coupling, z, tags=(phi, psi))
    return vals[(phi, psi)]


def green_oracle_all(
    disc: DiscretizedModel,
    coupling,
    z: complex,
    tags: Iterable[str] = TAGS,
) -> dict:
    """All requested pairs from one n x n solve of (H - z) U = B.

    With d = x_nodes - z on the diagonal reservoir block, the Schur
    complement S = H_S - z - H[sys, res] diag(1/d) H[res, sys] gives the
    system components, u_res = (b_res - H[res, sys] u_sys) / d the rest,
    and every pair is an entry of B^H U.
    """
    cp = _coupling(coupling)
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("oracle requires Im z != 0")
    tags = tuple(dict.fromkeys(tags))
    res, sys = disc._res_index, disc._sys_slice
    B = np.stack([disc.vector(t) for t in tags], axis=1)
    b_r, b_s = B[res], B[sys]
    a_rs, a_sr = disc._bonds(cp)
    d = (disc.h0_diag[res] - z)[:, None]
    h_s = disc.model.system.h_s
    S = h_s - z * np.eye(h_s.shape[0]) - a_sr @ (a_rs / d)
    try:
        u_s = np.linalg.solve(S, b_s - a_sr @ (b_r / d))
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            f"direct solve failed at z = {z}: {exc}",
            condition_estimate=float(np.linalg.cond(S)),
        ) from exc
    u_r = (b_r - a_rs @ u_s) / d
    pairs = b_r.conj().T @ u_r + b_s.conj().T @ u_s
    return {(phi, psi): complex(pairs[i, j])
            for i, phi in enumerate(tags) for j, psi in enumerate(tags)}
