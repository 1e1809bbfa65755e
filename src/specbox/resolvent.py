"""Coupled Green's functions: closed forms, linear systems, and a brute-force
discretization oracle.

For coupling strengths (lam, nu) the second resolvent identity closes on the
four distinguished vectors.  Fixing the first argument phi and letting the
second run over (chi_l, delta_l, chi_r, delta_r) gives a 4x4 linear system
whose coefficient matrix A depends only on z and the coupling, with

    det A = D(z) = (1 - nu^2 r b)(1 - lam^2 l a) - nu^2 lam^2 r l c cbar,

where l, r are the reservoir transforms and a, b, c, cbar the system pairs.
Solving A X = B with the four right-hand sides at once yields all 16 pairs;
a caller that reads fewer first arguments solves with only their columns,
which gives the same bits.  The printed closed forms for the diagonal pairs
are kept as independent cross-checks.

The oracle replaces each density piece by Gauss-Legendre nodes (density
absorbed into the weights), keeps atoms as exact nodes, embeds chi as the
vector of square-root weights, and solves (H - z) u = psi directly.  The
assembled matrix is diagonal on every reservoir node, and each bond is the
rank-one chi delta^*, so the oracle eliminates those nodes in closed form
(the Feshbach reduction onto the system) through two quadrature sums,
q_l = sum w_l / (x - z) of the left node weights (|chi_l|^2) and q_r on
the right: one n x n solve of the Schur complement per z covers every
requested vector, and the chi pairs follow from q_l, q_r and the
solution's delta components.  That is O(m + n^3) time and O(m) memory per z for m reservoir
nodes.
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
        l, r = model.reservoir_pieces.borel(z)
        return cls(l, r, *model.system.green_pairs(z))

    def det_D(self, coupling: CouplingParams):
        lam2, nu2 = coupling.lam**2, coupling.nu**2
        return (1 - nu2 * self.r * self.b) * (1 - lam2 * self.l * self.a) \
            - nu2 * lam2 * self.r * self.l * self.c * self.cb

    def _shape(self, *more) -> tuple:
        """The leading shape of the six values broadcast with ``more``,
        found without a broadcast copy."""
        return np.broadcast(self.l, self.r, self.a, self.b, self.c, self.cb, *more).shape

    def system_matrix(self, coupling: CouplingParams) -> np.ndarray:
        """A with rows indexed by the second-argument equation, columns by the
        unknown pair partner, in tag order (chi_l, delta_l, chi_r, delta_r),
        over the shape of the values broadcast with the bond strengths."""
        lam, nu = coupling.lam, coupling.nu
        A = np.zeros(self._shape(lam, nu) + (4, 4), dtype=complex)
        A[..., 0, 0] = 1.0
        A[..., 0, 1] = lam * self.l
        A[..., 1, 0] = lam * self.a
        A[..., 1, 1] = 1.0
        A[..., 1, 2] = nu * self.cb
        A[..., 2, 2] = 1.0
        A[..., 2, 3] = nu * self.r
        A[..., 3, 0] = lam * self.c
        A[..., 3, 2] = nu * self.b
        A[..., 3, 3] = 1.0
        return A

    def rhs_matrix(self) -> np.ndarray:
        """B[..., row psi, col phi] = G0(phi, psi), over the values' shape;
        ``np.linalg.solve`` broadcasts it against a system matrix of bond
        strengths."""
        B = np.zeros(self._shape() + (4, 4), dtype=complex)
        B[..., 0, 0] = self.l     # phi = chi_l, psi = chi_l
        B[..., 1, 1] = self.a     # phi = delta_l, psi = delta_l
        B[..., 3, 1] = self.c     # phi = delta_l, psi = delta_r
        B[..., 2, 2] = self.r     # phi = chi_r,  psi = chi_r
        B[..., 1, 3] = self.cb    # phi = delta_r, psi = delta_l
        B[..., 3, 3] = self.b     # phi = delta_r, psi = delta_r
        return B


def det_D(model: BlackBoxModel, coupling, z):
    """D(z) from the uncoupled values; equals det of the 4x4 system matrix."""
    cp = _coupling(coupling)
    return G0Basics.at(model, z).det_D(cp)


def _solve(basics: G0Basics, coupling: CouplingParams, columns=slice(None)) -> np.ndarray:
    """X[..., psi, k] = G(phi_k, psi), psi in TAGS order, for the first
    arguments phi_k that ``columns`` picks from TAGS: the 4x4 solve with only
    their right-hand sides.  A column has the same bits whatever other
    columns share the solve."""
    D = basics.det_D(coupling)
    if (np.abs(D) < 1e-300).any():
        raise NearSingularError(
            "D(z) underflowed; z is numerically at a resonance of the coupled model"
        )
    return np.linalg.solve(basics.system_matrix(coupling), basics.rhs_matrix()[..., :, columns])


def _solve_all(basics: G0Basics, coupling: CouplingParams) -> np.ndarray:
    """All 16 coupled pairs; result[..., i, j] = G(tag_i, tag_j)."""
    # X[..., psi_row, phi_col] = G(phi, psi): transpose the trailing block
    return np.swapaxes(_solve(basics, coupling), -1, -2)


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
    """Coupled pair from precomputed uncoupled values (hot loops over coupling),
    solved with phi's right-hand side alone."""
    cp = _coupling(coupling)
    return _solve(basics, cp, [_TAG_INDEX[phi]])[..., _TAG_INDEX[psi], 0]


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
    couples the reservoir nodes only to the system, through the two rank-one
    bond blocks of ``_bonds``.  Only ``apply`` reads those blocks; the
    oracle's elimination needs no more of them than the quadrature sums of
    the node weights w / (x - z), and neither forms the dense H.
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

        self.h0_diag = np.concatenate(
            [
                xl.astype(complex),
                np.diag(model.system.h_s).real.astype(complex),
                xr.astype(complex),
            ]
        )

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
    """All requested pairs from one n x n solve of the Schur complement.

    With d = x_nodes - z, the quadrature sums q_l = sum weights_l / d and
    q_r (atoms included) give the Schur complement of H - z onto the system,
    S = H_S - z - lam^2 q_l delta_l delta_l^* - nu^2 q_r delta_r delta_r^*.
    A delta's right-hand side is itself, chi_l's is -lam q_l delta_l and
    chi_r's -nu q_r delta_r; with P = [delta_l delta_r]^* S^{-1} R, a delta
    pair is P's entry and G(chi_l, psi) = [psi = chi_l] q_l
    - lam q_l P[delta_l, psi] (the same on the right).
    """
    cp = _coupling(coupling)
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("oracle requires Im z != 0")
    tags = tuple(dict.fromkeys(tags))
    q_l = np.sum(disc.weights_l / (disc.nodes_l - z))
    q_r = np.sum(disc.weights_r / (disc.nodes_r - z))
    system = disc.model.system
    d_l, d_r, h_s = system.delta_l, system.delta_r, system.h_s
    S = (h_s - z * np.eye(h_s.shape[0])
         - cp.lam**2 * q_l * np.outer(d_l, d_l.conj())
         - cp.nu**2 * q_r * np.outer(d_r, d_r.conj()))
    rhs = {CHI_L: -cp.lam * q_l * d_l, DELTA_L: d_l, CHI_R: -cp.nu * q_r * d_r, DELTA_R: d_r}
    try:
        u_s = np.linalg.solve(S, np.stack([rhs[t] for t in tags], axis=1))
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            f"direct solve failed at z = {z}: {exc}",
            condition_estimate=float(np.linalg.cond(S)),
        ) from exc
    p_l, p_r = d_l.conj() @ u_s, d_r.conj() @ u_s
    rows = {CHI_L: -cp.lam * q_l * p_l, DELTA_L: p_l, CHI_R: -cp.nu * q_r * p_r, DELTA_R: p_r}
    pairs = {(phi, psi): complex(rows[phi][j])
             for phi in tags for j, psi in enumerate(tags)}
    for tag, q in ((CHI_L, q_l), (CHI_R, q_r)):
        if tag in tags:
            pairs[(tag, tag)] += q
    return pairs
