"""Shared fixtures: the two reference models used throughout the suite, two
referees built from the block structure (the uncoupled pairs and the dense
discretized H), and the config document of a built model."""

import numpy as np
import pytest

from specbox.blackbox import CHI_L, CHI_R, BlackBoxModel, SystemBlock
from specbox.measures import SpectralMeasure


def make_t2_system(delta_r=None) -> SystemBlock:
    """Two-level system with off-diagonal hopping 0.5; couplings e1 and e2."""
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    dr = np.array([0.0, 1.0], dtype=complex) if delta_r is None else delta_r
    return SystemBlock(h, np.array([1.0, 0.0], dtype=complex), dr)


def two_band_measure() -> SpectralMeasure:
    return SpectralMeasure(pieces=[([-2.0, -1.0], [1.0]), ([1.0, 2.0], [1.0])])


@pytest.fixture(scope="session")
def remark2():
    from specbox.certify import remark2_model

    return remark2_model()


@pytest.fixture(scope="session")
def t2_model():
    """T2 system block with the symmetric two-band reservoirs on both sides."""
    return BlackBoxModel(make_t2_system(), two_band_measure(), two_band_measure())


@pytest.fixture(scope="session")
def t2_slanted_model():
    """T2 variant whose coupling vectors are not orthogonal, so S is nonempty."""
    dr = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return BlackBoxModel(make_t2_system(dr), two_band_measure(), two_band_measure())


def random_system(rng: np.random.Generator, max_dim: int = 8) -> SystemBlock:
    n = int(rng.integers(1, max_dim + 1))
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (raw + raw.conj().T) / 2
    while True:
        dl = rng.normal(size=n) + 1j * rng.normal(size=n)
        dr = rng.normal(size=n) + 1j * rng.normal(size=n)
        if np.linalg.norm(dl) > 0.1 and np.linalg.norm(dr) > 0.1:
            return SystemBlock(h, dl, dr)


def random_reservoir(rng: np.random.Generator, max_pieces: int = 3) -> SpectralMeasure:
    n_pieces = int(rng.integers(1, max_pieces + 1))
    edges = np.sort(rng.uniform(-4.0, 4.0, size=2 * n_pieces))
    pieces = []
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a < 0.1:
            b = a + 0.1
        alpha = float(rng.uniform(0.0, 0.5))
        beta = float(rng.uniform(0.05, 1.0))
        x0 = float(rng.uniform(a, b))
        coef = [alpha * x0 * x0 + beta, -2 * alpha * x0, alpha]
        pieces.append(([float(a), float(b)], coef))
    atoms = []
    if rng.uniform() < 0.3:
        atoms.append((float(rng.uniform(4.2, 5.0)), float(rng.uniform(0.2, 1.0))))
    return SpectralMeasure(atoms=atoms, pieces=pieces)


def random_model(
    rng: np.random.Generator, max_dim: int = 8, max_pieces: int = 3
) -> BlackBoxModel:
    from specbox.errors import InvalidModelError

    while True:
        try:
            return BlackBoxModel(
                random_system(rng, max_dim),
                random_reservoir(rng, max_pieces),
                random_reservoir(rng, max_pieces),
            )
        except InvalidModelError:
            continue


def g0(model: BlackBoxModel, phi: str, psi: str, z):
    """The uncoupled G0(phi, psi, z) from the block structure: the reservoir
    transform on a chi diagonal, the system pair on the delta block, and 0
    across blocks."""
    if CHI_L in (phi, psi) or CHI_R in (phi, psi):
        if phi == psi:
            return (model.res_l if phi == CHI_L else model.res_r).borel(z)
        return np.zeros_like(np.asarray(z, dtype=complex))[()]
    return model.system.green(phi, psi, z)


def model_doc(model) -> dict:
    """The config document's model section for a built model."""
    def vector(v):
        return [[float(x.real), float(x.imag)] for x in v]

    def measure(m):
        return {"atoms": [list(atom) for atom in m.atoms],
                "pieces": [{"interval": [p.a, p.b], "poly": list(p.coef)} for p in m.pieces]}

    system = model.system
    return {
        "system": {"matrix": [vector(row) for row in system.h_s],
                   "delta_l": vector(system.delta_l), "delta_r": vector(system.delta_r)},
        "reservoir_left": measure(model.res_l),
        "reservoir_right": measure(model.res_r),
    }


def ref_assemble(disc, coupling):
    """The dense discretized H(lam, nu): each bond's outer products added to
    the whole system rows and columns."""
    from specbox.resolvent import _coupling

    cp = _coupling(coupling)
    lam, nu = cp.lam, cp.nu
    n = disc.model.system.dim
    sys = slice(disc.m_l, disc.m_l + n)
    H = np.diag(disc.h0_diag)
    H[sys, sys] = disc.model.system.h_s
    for strength, chi, delta in ((lam, disc.chi_l, disc.delta_l), (nu, disc.chi_r, disc.delta_r)):
        if strength != 0.0:
            H[sys, :] += strength * np.outer(delta[sys], chi.conj())
            H[:, sys] += strength * np.outer(chi, delta[sys].conj())
    return H
