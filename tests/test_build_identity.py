"""The model build is bit-identical to the straightforward formulas.

The moments, the pole-cleared numerators, the secular polynomials and the
exceptional sets are built by array expressions and shared products.  The
reference implementations below are the plain per-moment loop, the per-pole
``polyfromroots`` cleared sum, the scalar Newton polish and the dense
outer-product assembly of the discretized operator; every output must equal
theirs exactly (``np.array_equal``, or the same JSON bytes).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from specbox import blackbox, measures
from specbox.blackbox import DELTA_L, DELTA_R, BlackBoxModel, SystemBlock, _real_roots
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


def ref_cleared_sum(roots, poles, weights):
    out = np.zeros(max(len(roots), 1), dtype=np.result_type(np.asarray(weights), float))
    for p, w in zip(poles, weights):
        rest = list(roots)
        rest.remove(p)
        term = -w * npoly.polyfromroots(rest)
        out[: term.size] += term
    return out


def ref_pair_numerator(system, phi, psi):
    vec = {DELTA_L: system.delta_l, DELTA_R: system.delta_r}
    coef = {tag: system.eigenvectors.conj().T @ v for tag, v in vec.items()}
    weights = system.pair_weights(phi, psi)
    wscale = float(np.linalg.norm(coef[phi]) * np.linalg.norm(coef[psi]))
    keep = np.abs(weights) > 1e-14 * max(wscale, 1e-300)
    poles, weights = system.poles[keep], weights[keep]
    return -ref_cleared_sum(poles, poles, weights)


def ref_secular_polynomials(system):
    poles = system.poles
    sizes = [len(g) for g in system._groups]
    roots = [p for p, m in zip(poles, sizes) for _ in range(min(m, 2))]
    d = np.zeros(max(len(roots) - 1, 1))
    for k in range(poles.size):
        for j in range(k, poles.size):
            weight = system.minors[k, j] if j > k else 0.5 * system.minors[k, k]
            if weight == 0.0:
                continue
            rest = list(roots)
            rest.remove(poles[k])
            rest.remove(poles[j])
            term = weight * npoly.polyfromroots(rest)
            d[: term.size] += term
    a = ref_cleared_sum(roots, poles, system.pair_weights(DELTA_L, DELTA_L).real)
    b = ref_cleared_sum(roots, poles, system.pair_weights(DELTA_R, DELTA_R).real)
    return npoly.polyfromroots(roots), a, b, d


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


def ref_real_roots(coef, avoid=()):
    coef = np.asarray(coef, dtype=complex)
    nz = np.nonzero(np.abs(coef) > 0)[0]
    coef = coef[: nz[-1] + 1]
    if coef.size == 1:
        return ()
    scale = float(np.max(np.abs(coef)))
    roots = npoly.polyroots(coef)
    deriv = npoly.polyder(coef)
    out = []
    for r in roots:
        if abs(r.imag) > blackbox._ROOT_IMAG_TOL * max(1.0, abs(r.real)):
            continue
        x = r
        for _ in range(8):
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
        if residual > blackbox._ROOT_RESIDUAL_TOL * bound:
            continue
        out.append(float(x.real))
    out.sort()
    dedup = []
    for x in out:
        if all(abs(x - s) > 1e-9 * max(1.0, abs(x)) for s in (*avoid, *dedup)):
            dedup.append(x)
    return tuple(dedup)


def ref_exceptional_sets(model):
    sysb = model.system
    sigma = [float(x) for x in sysb.poles]
    s_zeros = ref_real_roots(ref_pair_numerator(sysb, DELTA_L, DELTA_R), avoid=sigma)
    norms = np.linalg.norm(sysb.delta_l) * np.linalg.norm(sysb.delta_r)
    if 0.5 * float(np.sum(sysb.minors)) <= 1e-13 * norms**2:
        return {"sigma_hs": sigma, "S": list(s_zeros), "N": blackbox.DEGENERATE_WHOLE_LINE}
    points = [*sigma, *s_zeros]
    for num in (ref_pair_numerator(sysb, DELTA_L, DELTA_L),
                ref_pair_numerator(sysb, DELTA_R, DELTA_R),
                ref_secular_polynomials(sysb)[3]):
        points += ref_real_roots(num, avoid=points)
    return {"sigma_hs": sigma, "S": list(s_zeros), "N": sorted(points)}


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
    system = model.system
    for phi, psi in PAIRS:
        assert np.array_equal(system.pair_numerator(phi, psi),
                              ref_pair_numerator(system, phi, psi))
    for got, want in zip(system.secular_polynomials(), ref_secular_polynomials(system)):
        assert np.array_equal(got, want)
    assert json.dumps(model.exceptional_sets.to_dict()) == json.dumps(ref_exceptional_sets(model))


def test_moments_match_reference_on_many_pieces():
    rng = np.random.default_rng([20261018, 14])
    for _ in range(500):
        k = int(rng.integers(1, 16))
        a, b = np.sort(rng.uniform(-4.0, 4.0, 2)) * 10.0 ** rng.integers(-3, 2)
        coef = list(rng.normal(size=k) * 10.0 ** rng.integers(-3, 3, k))
        assert np.array_equal(measures._piece_moments(float(a), float(b), coef, 48),
                              ref_moments(float(a), float(b), coef, 48))


def test_real_roots_match_scalar_polish():
    """Clustered, multiple and complex roots, where the polish takes all of
    its steps or stops at a zero derivative."""
    rng = np.random.default_rng([20261018, 15])
    cases = [npoly.polyfromroots([1.0, 1.0, 2.0]), npoly.polyfromroots([0.5, 0.5, 0.5, -1.0]),
             npoly.polyfromroots([1.0, 1.0 + 1e-9, 3.0, 1j, -1j]), np.array([0.0, 0.0, 1.0]),
             npoly.polyfromroots([-2.0, 1e-12, 4.0])]
    for _ in range(200):
        roots = rng.normal(size=int(rng.integers(1, 9)))
        roots[rng.uniform(size=roots.size) < 0.3] = roots[0]
        pairs = rng.normal(size=int(rng.integers(0, 3))) + 1j * rng.uniform(1e-9, 1.0)
        coef = npoly.polyfromroots(np.concatenate([roots, pairs, pairs.conj()]))
        cases.append(coef * (rng.normal() + 1j * rng.normal()))
    for coef in cases:
        avoid = tuple(rng.normal(size=2))
        # repr: a root printed as -0.0 must stay -0.0
        assert repr(_real_roots(coef)) == repr(ref_real_roots(coef))
        assert repr(_real_roots(coef, avoid)) == repr(ref_real_roots(coef, avoid))


def test_polyfromroots_matches_numpy():
    rng = np.random.default_rng([20261018, 16])
    for n in list(range(12)) * 20:
        roots = list(rng.normal(size=n) * 10.0 ** rng.integers(-3, 3))
        if n > 2:
            roots[1] = roots[-1]
        assert np.array_equal(blackbox._polyfromroots(roots), npoly.polyfromroots(roots))


def _module_sizes():
    """The size of every container and function cache in the two modules."""
    sizes = {}
    for mod in (blackbox, measures):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)):
                sizes[mod.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[mod.__name__, name] = value.cache_info().currsize
    return sizes


def test_products_are_memoized_per_block(monkeypatch):
    calls = []
    original = blackbox._polyfromroots

    def counting(roots):
        calls.append(tuple(roots))
        return original(roots)

    monkeypatch.setattr(blackbox, "_polyfromroots", counting)
    h = np.diag([-1.0, 0.5, 2.0]) + 0.1
    dl, dr = [1.0, 0.3, 0.2j], [0.1, 1.0, 0.4]
    before = _module_sizes()

    def build():
        system = SystemBlock(h, dl, dr)
        for phi, psi in PAIRS:
            system.pair_numerator(phi, psi)
        system.secular_polynomials()
        return system

    first = build()
    n_first = len(calls)
    assert n_first > first.poles.size
    assert n_first == len(set(calls))  # each root list once
    for phi, psi in PAIRS:
        first.pair_numerator(phi, psi)
    first.secular_polynomials()
    assert len(calls) == n_first  # repeats hit the memo
    second = build()
    assert calls[n_first:] == calls[:n_first]  # same roots, computed again
    assert second._products is not first._products
    assert _module_sizes() == before


def test_shared_arrays_are_read_only():
    system = MODELS["random0"].system
    for phi, psi in PAIRS:
        assert not system.pair_numerator(phi, psi).flags.writeable
    assert not any(c.flags.writeable for c in system.secular_polynomials())


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
