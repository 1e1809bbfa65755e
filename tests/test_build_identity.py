"""The model build is bit-identical to the straightforward formulas.

The moments and the discretized operator are built by array expressions.
The reference implementations below are the plain per-moment loop and the
dense outer-product assembly of the discretized operator; every output must
equal theirs exactly (``np.array_equal``).
"""

from pathlib import Path

import numpy as np
import pytest

from specbox import measures
from specbox.blackbox import DELTA_L, DELTA_R, BlackBoxModel, SystemBlock
from specbox.config import build_run_config, load_config
from specbox.resolvent import discretize

from conftest import random_model, random_reservoir

SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"
PAIRS = [(phi, psi) for phi in (DELTA_L, DELTA_R) for psi in (DELTA_L, DELTA_R)]


# -- reference implementations ----------------------------------------------

def ref_moments(a, b, coef, count):
    mom = np.zeros(count)
    for m in range(count):
        powers = m + 1 + np.arange(len(coef))
        mom[m] = np.sum(np.asarray(coef) * (b ** powers - a ** powers) / powers)
    return mom


def ref_assemble(disc, lam, nu):
    """The dense H(lam, nu): each bond's outer products added to the whole
    system rows and columns."""
    n = disc.model.system.dim
    sys = slice(disc.m_l, disc.m_l + n)
    H = np.diag(disc.h0_diag)
    H[sys, sys] = disc.model.system.h_s
    for strength, chi, delta in ((lam, disc.chi_l, disc.delta_l), (nu, disc.chi_r, disc.delta_r)):
        if strength != 0.0:
            H[sys, :] += strength * np.outer(delta[sys], chi.conj())
            H[:, sys] += strength * np.outer(chi, delta[sys].conj())
    return H


# -- the models --------------------------------------------------------------

def clustered_model(rng, sizes, spread):
    """A model whose H_S has eigenvalue clusters of the given sizes, the
    members of a cluster ``spread`` apart (inside the 1e-10 cluster width)."""
    levels = np.sort(rng.uniform(-3.0, 3.0, len(sizes)))
    evals = np.concatenate([lv + spread * np.arange(m) for lv, m in zip(levels, sizes)])
    n = evals.size
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    h = q @ np.diag(evals) @ q.conj().T
    h = (h + h.conj().T) / 2
    dl = rng.normal(size=n) + 1j * rng.normal(size=n)
    dr = rng.normal(size=n) + 1j * rng.normal(size=n)
    return BlackBoxModel(SystemBlock(h, dl, dr), random_reservoir(rng), random_reservoir(rng))


def _models():
    yield "sample", build_run_config(load_config(str(SAMPLE_PATH))).model
    for k in range(60):
        yield f"random{k}", random_model(np.random.default_rng([20261018, 12, k]))
    for k, (sizes, spread) in enumerate([((2, 1), 0.0), ((3, 1, 2), 2e-11),
                                         ((2, 2), 5e-11), ((1, 4), 1e-12)]):
        yield f"clustered{k}", clustered_model(np.random.default_rng([20261018, 13, k]),
                                               sizes, spread)


MODELS = dict(_models())


def test_the_draws_cover_atoms_and_clusters():
    with_atoms = [m for m in MODELS.values() if m.res_l.atoms or m.res_r.atoms]
    clustered = [m for m in MODELS.values()
                 if any(len(g) > 1 for g in m.system._groups)]
    assert len(with_atoms) >= 10
    assert len(clustered) >= 4


@pytest.mark.parametrize("name", list(MODELS))
def test_build_matches_reference(name):
    model = MODELS[name]
    for measure in (model.res_l, model.res_r):
        for piece in measure.pieces:
            assert piece.scale == 1.0
            want = ref_moments(piece.a, piece.b, piece.coef, measures._FAR_TERMS)
            assert np.array_equal(np.array(piece.moments), want)


def test_moments_match_reference_on_many_pieces():
    rng = np.random.default_rng([20261018, 14])
    for _ in range(500):
        k = int(rng.integers(1, 16))
        a, b = np.sort(rng.uniform(-4.0, 4.0, 2)) * 10.0 ** rng.integers(-3, 2)
        coef = list(rng.normal(size=k) * 10.0 ** rng.integers(-3, 3, k))
        assert np.array_equal(measures._piece_moments(float(a), float(b), coef, 48),
                              ref_moments(float(a), float(b), coef, 48))


def test_shared_arrays_are_read_only():
    system = MODELS["random0"].system
    for phi, psi in PAIRS:
        assert not system.pair_weights(phi, psi).flags.writeable
    assert not system.poles.flags.writeable
    assert not system.minors.flags.writeable


def test_assemble_matches_reference():
    # 30 models of dimension >= 2, each with one delta entry set to zero,
    # assembled with both bonds, with lam = 0 and with both strengths 0
    rng = np.random.default_rng([20261018, 14])
    draws = 0
    while draws < 30:
        model = random_model(rng, max_pieces=2)
        system = model.system
        if system.dim < 2:
            continue
        dl, dr = system.delta_l.copy(), system.delta_r.copy()
        (dl if draws % 2 else dr)[rng.integers(system.dim)] = 0.0
        model = BlackBoxModel(SystemBlock(system.h_s, dl, dr), model.res_l, model.res_r)
        disc = discretize(model, 7)
        lam, nu = rng.uniform(0.2, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        for cp in ((lam, nu), (0.0, nu), (0.0, 0.0)):
            assert np.array_equal(disc.assemble(cp), ref_assemble(disc, *cp))
        draws += 1
