"""The model build and the point-evaluation kernels are bit-identical to the
straightforward formulas.

The moments and the discretized operator are built by array expressions.
The reference implementations are the plain per-moment loop below and the
dense outer-product assembly of the discretized operator
(``conftest.ref_assemble``, the dense H the other tests solve); every output
must equal theirs exactly (``np.array_equal``).  The kernels are held to the
same rule: the four system pairs in one call against one ``SystemBlock.green``
call each, the one-column solves against the four-column one, and the Cauchy
transform, which evaluates all pieces of a measure in one array expression,
against the atoms plus each piece's own formula with both masks
(``ref_piece_borel``), summed in piece order (``ref_borel``).  The model's
one kernel pass over both reservoirs must give each reservoir's own
transform, and the 4x4 solve without broadcast copies the bits of the solve
with the values broadcast to the bond strengths first (``ref_solve``).  The
ladder judge, which builds its rungs and slope fit once per ladder, must give
every field of the record that the per-row body on ``np.polyfit`` gives
(``ref_boundary_value``).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from specbox import averaging, boundary, measures, resolvent
from specbox.blackbox import CHI_L, CHI_R, DELTA_L, DELTA_R, TAGS, BlackBoxModel, SystemBlock
from specbox.boundary import (DIVERGENT, FINITE_NONZERO, UNDETERMINED, ZERO, BoundaryRecord,
                              EpsilonLadder, Tolerances)
from specbox.config import CouplingParams, build_run_config, load_config
from specbox.errors import DomainError, PoleError
from specbox.resolvent import G0Basics, _solve_all, discretize, green_from_basics

from conftest import random_model, random_reservoir, ref_assemble

SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"
PAIRS = [(phi, psi) for phi in (DELTA_L, DELTA_R) for psi in (DELTA_L, DELTA_R)]
#: each vector's partner: chi and delta of one bond side
PARTNERS = {CHI_L: DELTA_L, DELTA_L: CHI_L, CHI_R: DELTA_R, DELTA_R: CHI_R}
#: the pairs in ``green_pairs`` order: a, b, c and cbar
PAIR_ORDER = [(DELTA_L, DELTA_L), (DELTA_R, DELTA_R), (DELTA_L, DELTA_R), (DELTA_R, DELTA_L)]


# -- reference implementations ----------------------------------------------

def ref_moments(a, b, coef, count):
    mom = np.zeros(count)
    for m in range(count):
        powers = m + 1 + np.arange(len(coef))
        mom[m] = np.sum(np.asarray(coef) * (b ** powers - a ** powers) / powers)
    return mom


def ref_piece_borel(p, z):
    """The Cauchy transform of one piece as one formula with a near and a far
    mask, each applied also where it selects every point or none."""
    out = np.empty_like(z)
    far = np.abs(z) > measures._FAR_FACTOR * max(p.radius, 1.0)
    near = ~far
    if np.any(near):
        zn = z[near]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            ratio = (p.b - zn) / (p.a - zn)
            exact = np.isfinite(ratio) & (np.abs(ratio) >= np.finfo(float).tiny)
        term = np.log(np.where(exact, ratio, 1.0))
        if not exact.all():
            zx = zn[~exact]
            log = np.log if np.iscomplexobj(zx) else lambda x: np.log(np.abs(x))
            term[~exact] = log(p.b - zx) - log(p.a - zx)
        acc = p.coef[0] * term
        for n in range(1, len(p.coef)):
            term = (p.b ** n - p.a ** n) / n + zn * term
            acc += p.coef[n] * term
        out[near] = acc
    if np.any(far):
        zf = z[far]
        inv = p.scale / zf
        acc = np.zeros_like(zf)
        power = inv.copy()
        for m in range(measures._FAR_TERMS):
            acc -= p.moments[m] * power
            power *= inv
        out[far] = acc
    return out


def ref_borel(measure, z):
    """``SpectralMeasure.borel`` as the atoms' sum plus one ``ref_piece_borel``
    per piece, added into zeros in piece order."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.zeros_like(flat)
    if measure.atoms:
        x, w = np.array(measure.atoms).T
        out += np.sum(w / (x - flat[..., None]), axis=-1)
    for p in measure.pieces:
        out += ref_piece_borel(p, flat)
    out = out.reshape(z.shape)
    return complex(out) if z.ndim == 0 else out


def _bits(x):
    """The float view of a complex scalar or array: signed zeros count."""
    return np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=complex))).view(float)


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
    # the measures' atoms and stacked pieces, and the model's table of both
    # reservoirs, which every transform reads
    for name in ("sample", "random0", "random1"):
        model = MODELS[name]
        for measure in (model.res_l, model.res_r):
            assert not measure._atom_x.flags.writeable
            assert not measure._atom_w.flags.writeable
        for table in (model.res_l._table, model.res_r._table, model.reservoir_pieces):
            for arr in (table._a, table._b, table._coef, table._live, table._cst, table._cut):
                assert not arr.flags.writeable
    # the ladder's rungs and fit, which every record of the ladder shares
    for ladder in LADDERS.values():
        for arr in boundary._ladder_fit(ladder)[:4]:
            assert not arr.flags.writeable
        first, second = (boundary.boundary_value(lambda z: 1.0 / z, E, ladder) for E in (0.5, 1.5))
        assert first.eps is second.eps is boundary._ladder_fit(ladder)[0]


def test_assemble_matches_reference():
    # the dense reference H is, column by column, the operator that
    # ``apply`` applies: 30 models of dimension >= 2, each with one delta
    # entry set to zero, with both bonds, with lam = 0 and with both
    # strengths 0
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
        unit = np.eye(disc.dim, dtype=complex)
        for cp in ((lam, nu), (0.0, nu), (0.0, 0.0)):
            applied = np.stack([disc.apply(cp, u) for u in unit], axis=1)
            assert np.array_equal(applied, ref_assemble(disc, cp))
        draws += 1


# -- point-evaluation kernels --------------------------------------------------

def _points(rng, shape, scale=4.0):
    """Complex points of ``shape`` around the spectrum, some near the axis."""
    re = rng.uniform(-scale, scale, shape)
    im = 10.0 ** rng.uniform(-9, 1, shape) * rng.choice([-1.0, 1.0], shape)
    return re + 1j * im


def _assert_same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@pytest.mark.parametrize("name", list(MODELS))
def test_green_pairs_match_one_green_call_each(name):
    system = MODELS[name].system
    rng = np.random.default_rng([20261018, 15, len(name)])
    # real energies off sigma(H_S): between the poles and beyond them
    poles = system.poles
    real = np.concatenate([(poles[1:] + poles[:-1]) / 2, poles[[0, -1]] + [-0.5, 0.5]])
    for z in (complex(_points(rng, ())), 0.3 + 0.0j, _points(rng, (7,)), _points(rng, (3, 5)),
              real, real.astype(complex), _points(rng, (0,))):
        got = system.green_pairs(z)
        assert len(got) == 4
        for value, (phi, psi) in zip(got, PAIR_ORDER):
            _assert_same(value, system.green(phi, psi, z))
            assert not isinstance(value, np.ndarray) or value.flags.c_contiguous


def test_green_pairs_raise_the_pole_error_of_green():
    system = MODELS["sample"].system
    for k, pole in enumerate(system.poles):
        z = np.array([0.25 + 1j, pole, pole + 1e-14, 2.0])
        with pytest.raises(PoleError) as one:
            system.green(DELTA_L, DELTA_R, z)
        with pytest.raises(PoleError) as four:
            system.green_pairs(z)
        assert str(four.value) == str(one.value)
        assert (four.value.energy, four.value.index) == (one.value.energy, one.value.index) \
            == (float(pole), k)


def test_g0basics_checks_the_poles_once(monkeypatch):
    model = MODELS["sample"]
    calls = []
    check = SystemBlock._check_poles
    monkeypatch.setattr(SystemBlock, "_check_poles",
                        lambda self, re: calls.append(re.size) or check(self, re))
    # real points outside the reservoirs' support [-2, 2], and one off the axis
    G0Basics.at(model, np.array([-7.0, 0.5 + 1j, 9.0]))
    G0Basics.at(model, 11.0)
    assert calls == [2, 1]
    G0Basics.at(model, np.array([0.5 + 1j, 3j]))
    assert calls == [2, 1]


def _couplings(rng, shape):
    lam, nu = rng.uniform(-2.0, 2.0, 2)
    s = np.tan(rng.uniform(-1.5, 1.5, shape))
    yield CouplingParams(float(lam), float(nu))
    yield CouplingParams(0.0, float(nu))
    yield CouplingParams(float(lam), 0.0)
    # a bond over an array of strengths, as the quadrature duel evaluates
    yield CouplingParams(s, float(nu))
    yield CouplingParams(float(lam), s)


@pytest.mark.parametrize("name", ["sample", "random0", "random1", "random2", "random3",
                                  "clustered1"])
def test_one_column_solves_match_the_four_column_solve(name):
    """The solves with one or two right-hand-side columns give the bits of the
    four-column solve.  numpy's solve runs LAPACK's getrf and getrs on each
    4x4 system, and whether getrs rounds a column the same way whatever the
    other columns are depends on the BLAS that numpy is linked against, not on
    specbox.  It holds with OpenBLAS 0.3.31 (numpy's bundled scipy-openblas);
    a BLAS that routes one column through a different kernel would fail here,
    and ``average`` would then print other last bits than the four-column
    solve did."""
    model = MODELS[name]
    rng = np.random.default_rng([20261018, 16, len(name)])
    for shape in ((), (9,), (2, 6)):
        z = _points(rng, shape)
        basics = G0Basics.at(model, z)
        nodes = G0Basics(*(np.broadcast_to(np.asarray(getattr(basics, f))[..., None],
                                           shape + (5,))
                           for f in ("l", "r", "a", "b", "c", "cb")))
        for cp in _couplings(rng, shape + (5,)):
            at = nodes if np.ndim(cp.lam) or np.ndim(cp.nu) else basics
            full = _solve_all(at, cp)
            for i, phi in enumerate(TAGS):
                for j, psi in enumerate(TAGS):
                    _assert_same(np.asarray(green_from_basics(at, cp, phi, psi)),
                                 np.asarray(full[..., i, j]))
        for phi, partner in PARTNERS.items():
            kappa = float(rng.uniform(-2.0, 2.0))
            v, w, _ = averaging._vw(model, kappa, phi, z)
            full = _solve_all(basics, averaging._bond_coupling(phi, 0.0, kappa))
            i, j = TAGS.index(phi), TAGS.index(partner)
            assert np.array_equal(v, full[..., i, i]) and np.array_equal(w, full[..., j, j])


def _piece_cases():
    rng = np.random.default_rng([20261018, 17])
    pieces = [((-2.0, -1.0), [1.0]), ((0.5, 3.0), [0.2, -0.1, 0.05]),
              ((-1e-3, 2e-3), [1.0, 3.0]), ((0.0, 1.0), [1.0, -1.0, 0.5]),
              ((-3.0, 0.0), [2.0]), ((0.0, 1e7), [1.0]), ((-1e7, 1e7), [1.0, 1e-7, 1e-14])]
    for (a, b), coef in pieces:
        measure = measures.SpectralMeasure(pieces=[([a, b], coef)])
        (piece,) = measure.pieces
        cut = measures._FAR_FACTOR * max(piece.radius, 1.0)
        near = cut * rng.uniform(0.0, 0.95, 40) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        far = cut * 10.0 ** rng.uniform(0.01, 3, 40) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        assert (np.abs(near) <= cut).all() and (np.abs(far) > cut).all()
        mixed = np.concatenate([near[:20], far[:20]])
        rng.shuffle(mixed)
        # real points off [a, b], near and far
        real = np.concatenate([a - 10.0 ** rng.uniform(-6, 1, 6) * max(1.0, b - a),
                               b + 10.0 ** rng.uniform(-6, 1, 6) * max(1.0, b - a),
                               [-2 * cut, 2 * cut]])
        yield measure, (near, far, mixed, mixed.reshape(5, 8), real, real[:12], real[12:],
                        near[:1], far[:1])
    # the edge at 0: the quotient over- or underflows next to it
    for (a, b) in ((0.0, 1.0), (-1.0, 0.0)):
        measure = measures.SpectralMeasure(pieces=[([a, b], [1.0, 0.5])])
        tiny = 5e-324
        side = -tiny if a == 0.0 else tiny
        yield measure, (np.array([side]), np.array([side + 0j]), np.array([side, 0.5j, 4.0]),
                        np.array([side, 0.5j, 40.0]))


def test_piece_borel_matches_the_masked_formula():
    # a real z is taken as complex, as ``borel`` takes it
    count = 0
    for measure, arrays in _piece_cases():
        for z in arrays:
            with np.errstate(all="ignore"):
                got, want = measure.borel(z), ref_borel(measure, z)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want)), (measure.pieces, z)
            count += 1
    assert count == 7 * 9 + 2 * 4


def _mixed_measures():
    """Measures of two to four pieces of degrees 0 to 3, in every order,
    some with atoms, some with zero coefficients, some with an edge at 0, and
    one with a wide piece."""
    rng = np.random.default_rng([20261018, 18])
    for k in range(40):
        count = 2 + k % 3
        edges = np.sort(rng.uniform(-6.0, 6.0, 2 * count))
        if k % 4 == 0:
            edges -= edges[2 * (k % count)]  # an edge at 0
        degrees = rng.permutation(4)[:count] if k % 2 else rng.integers(0, 4, count)
        pieces = []
        for (a, b), deg in zip(edges.reshape(count, 2), degrees):
            coef = rng.normal(size=deg + 1) * (rng.uniform(size=deg + 1) > 0.3)
            # a positive density on [a, b]
            coef[0] = 0.5 + np.sum(np.abs(coef[1:]) * max(abs(a), abs(b)) ** np.arange(1, deg + 1))
            coef = [float(c) for c in coef]
            pieces.append(([float(a), float(b)], coef))
        atoms = [(float(x), 0.3) for x in rng.uniform(-8.0, 8.0, k % 3)]
        yield measures.SpectralMeasure(atoms=atoms, pieces=pieces)
    # a wide piece of degree 0 next to one of degree 3: the wide piece's
    # recurrence would overflow beyond its own degree
    yield measures.SpectralMeasure(pieces=[([-2.0, -1.0], [1.0, 0.0, 0.5, 0.0]),
                                           ([10.0, 1e300], [1.0])])


def test_borel_matches_the_pieces_summed_in_order():
    count = mixed = 0
    for measure in _mixed_measures():
        rng = np.random.default_rng([20261018, 19, count])
        mixed += len({len(p.coef) for p in measure.pieces}) > 1
        radius = max(abs(x) for p in measure.pieces for x in (p.a, p.b))
        cut = measures._FAR_FACTOR * max(radius, 1.0)
        mids = np.array([0.5 * (p.a + p.b) for p in measure.pieces])
        # real points off the support: between the pieces and beyond them
        ends = [(p.a, p.b) for p in measure.pieces]
        gaps = np.array([0.5 * (b0 + a1) for (_, b0), (a1, _) in zip(ends, ends[1:]) if b0 < a1]
                        + [ends[0][0] - 0.3, ends[-1][1] + 0.7, ends[-1][1] + 2 * cut])
        gaps = gaps[[np.isfinite(x) and all(x != x0 for x0, _ in measure.atoms)
                     and not any(a <= x <= b for a, b in ends) for x in gaps]]
        around = cut * 10.0 ** rng.uniform(-2.0, 1.0, (4, 27)) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 27)))
        cases = [
            complex(mids[0], 1e-3), complex(3 * cut, 1.0), 1j * 1e-12,
            mids + 1e-9j, mids - 1e-2j, mids * (1 + 1e-15) + 0.5j,
            around, around[0], around[:, :1],
            mids[:, None] + 1j * np.logspace(-1, -9, 27),  # (energies, rungs)
            np.concatenate([mids + 1e-6j, [5 * cut + 0j, -7 * cut + 0j]]),
            gaps, gaps.astype(complex), gaps[::2], float(gaps[-1]),
        ]
        if any(p.a == 0.0 or p.b == 0.0 for p in measure.pieces):
            side = 5e-324 if any(p.b == 0.0 for p in measure.pieces) else -5e-324
            if not any(p.a <= side <= p.b for p in measure.pieces):
                cases += [complex(side), np.array([side, side + 1j, 40 * cut])]
        for z in cases:
            with np.errstate(all="ignore"):
                got, want = measure.borel(z), ref_borel(measure, z)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(_bits(got), _bits(want)), (measure.pieces, z)
        count += 1
    assert count == 41 and mixed >= 30


# -- both reservoirs from one kernel pass -----------------------------------------

def _reservoir(rng, count, edge_at_zero=None, clear=False):
    """A measure of ``count`` pieces of degrees 0 to 3 (some coefficients 0)
    on [-6, 6], with 0 to 2 atoms beyond it; an atom alone where count is 0.
    ``edge_at_zero`` (+1 or -1) makes [0, 1.5] or [-1.5, 0] the first piece,
    and ``clear`` keeps the pieces off [-2, 2]."""
    edges = np.sort(rng.uniform(2.0 if clear else -6.0, 6.0, 2 * count))
    if clear and rng.uniform() < 0.5:
        edges = -edges[::-1]
    edges = edges.reshape(count, 2)
    if edge_at_zero is not None:
        edges[0] = [0.0, 1.5] if edge_at_zero > 0 else [-1.5, 0.0]
        edges = np.array([edges[0]] + [e for e in edges[1:] if e[0] > 1.5 or e[1] < -1.5])
    pieces = []
    for a, b in edges:
        deg = int(rng.integers(0, 4))
        coef = rng.normal(size=deg + 1) * (rng.uniform(size=deg + 1) > 0.3)
        coef[0] = 0.5 + np.sum(np.abs(coef[1:]) * max(abs(a), abs(b)) ** np.arange(1, deg + 1))
        pieces.append(([float(a), float(b)], [float(c) for c in coef]))
    atoms = [(float(x), float(w)) for x, w in zip(rng.choice([-1.0, 1.0], 2) * rng.uniform(6.5, 9.0, 2),
                                                  rng.uniform(0.1, 1.0, 2))]
    atoms = atoms[:max(int(rng.integers(0, 3)), count == 0)]
    return measures.SpectralMeasure(atoms=atoms, pieces=pieces)


def _two_sided_models():
    """Models with 0 to 3 pieces a side, every pair of counts; with pieces
    on both sides, also one with a left edge at 0 from above and one from
    below, the right pieces then clear of it."""
    k = 0
    for left in range(4):
        for right in range(4):
            for edge in (None, 1, -1):
                if edge is not None and not (left and right):
                    continue
                rng = np.random.default_rng([20261021, 1, k])
                res_l = _reservoir(rng, left, edge)
                res_r = _reservoir(rng, right, clear=edge is not None)
                system = random_model(rng).system
                yield f"{left}{right}{edge or ''}", BlackBoxModel(system, res_l, res_r)
                k += 1


TWO_SIDED = dict(_two_sided_models())


def _z_cases(model, rng):
    pieces = [p for m in (model.res_l, model.res_r) for p in m.pieces]
    atoms = [x for m in (model.res_l, model.res_r) for x, _ in m.atoms]
    radius = max([abs(x) for p in pieces for x in (p.a, p.b)] + [abs(x) for x in atoms])
    cut = measures._FAR_FACTOR * max(radius, 1.0)
    # near and far points of every piece, mixed
    mixed = cut * 10.0 ** rng.uniform(-2.0, 1.0, 30) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
    mids = np.array([0.5 * (p.a + p.b) for p in pieces] or [0.0])
    # real points outside both supports and off the poles of H_S
    ends = sorted((p.a, p.b) for p in pieces)
    real = [0.5 * (b0 + a1) for (_, b0), (a1, _) in zip(ends, ends[1:]) if b0 < a1]
    real += [-1.3 * cut, 2.1 * cut, 40.0 * cut]
    real = np.array([x for x in real if not any(a <= x <= b for a, b in ends)
                     and x not in atoms
                     and np.min(np.abs(model.system.poles - x)) > 1e-6 * max(1.0, abs(x))])
    cases = [complex(mids[0], 1e-3), complex(2 * cut, -1.0), 1e-12j, mixed, mixed[:1],
             mixed.reshape(5, 6), mids[:, None] + 1j * np.logspace(-1, -9, 27),
             real, real.astype(complex), float(real[-1])]
    zero_edges = [x for a, b in ends for x in (a, b) if x == 0.0]
    if zero_edges:
        side = 5e-324 if any(b == 0.0 for _, b in ends) else -5e-324
        if not any(a <= side <= b for a, b in ends):
            cases += [complex(side), np.array([side, side + 1j, 40 * cut])]
    return cases


@pytest.mark.parametrize("name", list(TWO_SIDED))
def test_one_pass_gives_each_reservoirs_own_transform(name):
    model = TWO_SIDED[name]
    rng = np.random.default_rng([20261021, 2, len(name), sum(map(ord, name))])
    for z in _z_cases(model, rng):
        basics = G0Basics.at(model, z)
        for got, measure in ((basics.l, model.res_l), (basics.r, model.res_r)):
            want = measure.borel(z)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(_bits(got), _bits(want)), (name, z)
            assert np.array_equal(_bits(got), _bits(ref_borel(measure, z))), (name, z)


def test_the_two_sided_models_cover_the_cases():
    counts = {(len(m.res_l.pieces), len(m.res_r.pieces)) for m in TWO_SIDED.values()}
    assert counts == {(i, j) for i in range(4) for j in range(4)}
    degrees = {len(p.coef) - 1 for m in TWO_SIDED.values()
               for p in m.res_l.pieces + m.res_r.pieces}
    assert degrees == {0, 1, 2, 3}
    assert any(m.res_l.atoms or m.res_r.atoms for m in TWO_SIDED.values())
    assert any(not (m.res_l.atoms or m.res_r.atoms) for m in TWO_SIDED.values())
    # the real z next to an edge at 0 (+-5e-324) lies outside both supports
    edge_cases = [name for name, m in TWO_SIDED.items()
                  if any(np.ndim(z) == 0 and abs(z) == 5e-324
                         for z in _z_cases(m, np.random.default_rng(0)))]
    assert len(edge_cases) == 18


def test_one_pass_raises_each_reservoirs_domain_error():
    model = TWO_SIDED["221"]
    (la, lb), (ra, rb) = ((p.a, p.b) for p in (model.res_l.pieces[0], model.res_r.pieces[0]))
    inside_l, inside_r = 0.5 * (la + lb), 0.5 * (ra + rb)
    for z, measure in ((inside_l, model.res_l), (np.array([1j, inside_r]), model.res_r),
                       # both hit: the left reservoir is checked first
                       (np.array([inside_r, inside_l]), model.res_l)):
        with pytest.raises(DomainError) as one:
            measure.borel(z)
        with pytest.raises(DomainError) as both:
            G0Basics.at(model, z)
        assert str(both.value) == str(one.value)
    assert str(both.value) == f"real z inside density piece [{la}, {lb}]"
    for measure in (model.res_l, model.res_r):
        for x0, _ in measure.atoms:
            with pytest.raises(DomainError, match="sits exactly on an atom"):
                G0Basics.at(model, np.array([1j, x0]))


def test_g0basics_makes_one_kernel_pass_and_no_borel_call(monkeypatch):
    # a later change must not fall back to one transform per reservoir
    model = MODELS["sample"]
    assert model.res_l.pieces and model.res_r.pieces
    borel_calls, passes = [], []
    borel, rows = measures.SpectralMeasure.borel, measures.PieceTable.rows
    monkeypatch.setattr(measures.SpectralMeasure, "borel",
                        lambda self, z: borel_calls.append(z) or borel(self, z))
    monkeypatch.setattr(measures.PieceTable, "rows",
                        lambda self, z: passes.append(z.size) or rows(self, z))
    G0Basics.at(model, np.array([0.3 + 0.1j, 5.0, 2.5 - 1j]))
    assert borel_calls == [] and passes == [3]
    G0Basics.at(model, 1j)
    assert borel_calls == [] and passes == [3, 1]


# -- the 4x4 system without broadcast copies ----------------------------------------

def ref_system_matrix(basics, cp):
    """The system matrix as it was assembled before: every value broadcast
    to the shape of the values and the bond strengths, and a ones array on
    the diagonal."""
    lam, nu = cp.lam, cp.nu
    l, r, a, b, c, cb, _, _ = np.broadcast_arrays(
        basics.l, basics.r, basics.a, basics.b, basics.c, basics.cb, lam, nu)
    A = np.zeros(l.shape + (4, 4), dtype=complex)
    one = np.ones(l.shape, dtype=complex)
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


def ref_solve(basics, cp, column):
    """One column of the 4x4 solve with the values broadcast to the bond
    strengths' shape first, as the duel's integrand built its nodes."""
    shape = np.broadcast_shapes(np.shape(cp.lam), np.shape(cp.nu), np.shape(basics.l))
    nodes = G0Basics(*(np.broadcast_to(getattr(basics, f), shape)
                       for f in ("l", "r", "a", "b", "c", "cb")))
    l, r, a, b, c, cb = (getattr(nodes, f) for f in ("l", "r", "a", "b", "c", "cb"))
    B = np.zeros(shape + (4, 4), dtype=complex)
    B[..., 0, 0], B[..., 1, 1], B[..., 3, 1] = l, a, c
    B[..., 2, 2], B[..., 1, 3], B[..., 3, 3] = r, cb, b
    return np.linalg.solve(ref_system_matrix(nodes, cp), B[..., :, [column]])


@pytest.mark.parametrize("name", ["sample"] + [f"random{k}" for k in range(12)])
def test_copy_free_solve_matches_the_broadcast_basics(name):
    model = MODELS[name]
    rng = np.random.default_rng([20261021, 3, len(name), sum(map(ord, name))])
    for z in (complex(_points(rng, ())), _points(rng, (1,))):
        basics = G0Basics.at(model, z)
        s = np.tan(rng.uniform(-1.5, 1.5, (31,)))
        kappa = float(rng.uniform(-2.0, 2.0))
        for cp in (CouplingParams(s, kappa), CouplingParams(kappa, s), CouplingParams(s, s[::-1]),
                   CouplingParams(s, 0.0)):
            assert np.array_equal(basics.system_matrix(cp), ref_system_matrix(basics, cp))
            for k in range(4):
                got = resolvent._solve(basics, cp, [k])
                want = ref_solve(basics, cp, k)
                assert got.shape == want.shape == (31, 4, 1)
                assert np.array_equal(_bits(got), _bits(want)), (name, z, k)


@pytest.mark.parametrize("phi", TAGS)
def test_duel_integrand_matches_the_broadcast_basics_at_its_nodes(phi, monkeypatch):
    model = MODELS["sample"]
    calls = []
    solve = averaging.green_from_basics

    def recorded(basics, cp, phi, psi):
        value = solve(basics, cp, phi, psi)
        calls.append((basics, cp, TAGS.index(phi), TAGS.index(psi), value))
        return value

    monkeypatch.setattr(averaging, "green_from_basics", recorded)
    averaging.averaged_poisson_quadrature(model, 1.0, phi, 1.5, 1e-3)
    assert calls
    for basics, cp, col, row, value in calls:
        assert np.ndim(basics.l) == 0 and np.ndim(value) == 1
        want = ref_solve(basics, cp, col)[..., row, 0]
        assert np.array_equal(_bits(value), _bits(want))


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, math.nan, 1e200, -1.4e154,        # Python floats
    10 ** 200,                                               # an int
    np.float64(math.inf), np.float64(1e200), np.float32(math.nan),  # numpy scalars
    np.array([0.5, math.nan]), np.array([1.0, 1e160]),     # arrays
])
@pytest.mark.parametrize("side", ["lam", "nu"])
def test_coupling_rejects_non_finite_values_and_squares(value, side):
    with pytest.raises(DomainError, match="coupling parameters must be finite"):
        CouplingParams(**{side: value, ("nu" if side == "lam" else "lam"): 0.5})


def test_coupling_accepts_finite_values():
    for value in (0.0, -1e154, 1e154, 3, np.float64(2.5), np.array([0.5, -1e100])):
        CouplingParams(value, value)


# -- the ladder judge -----------------------------------------------------------

LADDERS = {
    "default": EpsilonLadder(),
    "eps_min=5e-10": EpsilonLadder(eps_min=5e-10),
    "ratio=0.3": EpsilonLadder(ratio=0.3),
}


def ref_boundary_value(f, E, ladder=EpsilonLadder(), *, tol=Tolerances()):
    """``boundary_value`` as it was before its fit was built once per
    ladder: the rungs, the points and the log-eps window per call, f's
    values broadcast to the rungs' shape, and the slope from ``np.polyfit``."""
    eps = ladder.epsilons()
    zs = E + 1j * eps
    try:
        vals = np.broadcast_to(np.asarray(f(zs), dtype=complex), zs.shape)
    except boundary._NUMERICAL_ERRORS:
        return BoundaryRecord(E, UNDETERMINED)
    bad = ~np.isfinite(vals)
    if bad.any():
        n = bad.argmax()
        return BoundaryRecord(E, UNDETERMINED, eps=eps[:n], values=vals[:n])
    mags = np.abs(vals)
    window = min(boundary.SLOPE_WINDOW, len(eps))
    log_eps = np.log(eps[-window:])
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.maximum(mags[-window:], 1e-300))
    slope = float(np.polyfit(log_eps, log_mag, 1)[0])
    common = {"slope": slope, "eps": eps, "values": vals}

    if slope <= -0.5 and mags[-1] > tol.div_tol:
        weight = boundary._ladder_mass(eps, vals, ladder.ratio) if slope <= -0.8 else None
        return BoundaryRecord(E, DIVERGENT, pole_weight=weight, **common)

    tail = mags[-window:]
    if mags[-1] < tol.zero_tol and np.all(np.diff(tail) <= 1e-12 + 0.1 * tail[:-1]):
        value = boundary._richardson(vals[-1], vals[-2], ladder.ratio)
        return BoundaryRecord(E, ZERO, value=value, im_limit=0.0, **common)

    diffs = np.abs(np.diff(vals[-(window + 1):]))
    floor = 1e-12 * max(1.0, mags[-1])
    converged = all(
        d_next <= d_prev / boundary._CAUCHY_FACTOR or d_next <= floor
        for d_prev, d_next in zip(diffs[:-1], diffs[1:])
    )
    if converged:
        value = boundary._richardson(vals[-1], vals[-2], ladder.ratio)
        if abs(value) <= tol.zero_tol:
            return BoundaryRecord(E, ZERO, value=value, im_limit=0.0, **common)
        if abs(value) < tol.div_tol:
            return BoundaryRecord(
                E, FINITE_NONZERO, value=value, im_limit=float(value.imag), **common
            )
    return BoundaryRecord(E, UNDETERMINED, **common)


def _scalar_bits(x):
    return None if x is None else _bits(x).tobytes()


def _array_bits(x):
    return None if x is None else (x.shape, _bits(x).tobytes())


def assert_same_record(got, want):
    """Every field of two ladder records, to the bit."""
    assert (got.E, got.status) == (want.E, want.status)
    for name in ("value", "im_limit", "pole_weight", "slope"):
        assert type(getattr(got, name)) is type(getattr(want, name)), name
        assert _scalar_bits(getattr(got, name)) == _scalar_bits(getattr(want, name)), name
    for name in ("eps", "values"):
        assert _array_bits(getattr(got, name)) == _array_bits(getattr(want, name)), name


def _judged_against_the_reference(monkeypatch, kinds):
    """``lattice_records``' judge replaced by one that judges each row also
    with ``ref_boundary_value`` and asserts the same record; each record's
    (status, has a weight) is added to ``kinds``."""
    judge = boundary.boundary_value

    def both(f, E, ladder, *, tol):
        got = judge(f, E, ladder, tol=tol)
        assert_same_record(got, ref_boundary_value(f, E, ladder, tol=tol))
        kinds.add((got.status, got.pole_weight is not None))
        return got

    monkeypatch.setattr(boundary, "boundary_value", both)


#: the grids of the README's commands on the sample config
README_GRIDS = [np.linspace(-3, 3, 61), np.linspace(-3, 3, 121), np.linspace(1.1, 1.9, 17),
                np.linspace(1.2, 1.8, 7), np.linspace(1.05, 1.95, 50)]


def _lattice_cases():
    cfg = build_run_config(load_config(str(SAMPLE_PATH)))
    yield "sample", cfg.model, cfg.coupling, np.concatenate(README_GRIDS)
    for k in range(6):
        rng = np.random.default_rng([20261021, 31, k])
        model = random_model(rng, max_pieces=2)
        cp = CouplingParams(*rng.uniform(0.2, 1.5, 2))
        # band edges, reservoir atoms and the coupled atoms in the gaps, where
        # the ladders diverge or stay undetermined
        marks = [x for m in (model.res_l, model.res_r) for p in m.pieces for x in (p.a, p.b)]
        marks += [x for m in (model.res_l, model.res_r) for x, _ in m.atoms]
        marks += [E for E, _, _ in boundary.point_mass_scan(model, cp)]
        yield f"random{k}", model, cp, np.concatenate([np.linspace(-4, 4, 9), marks])


LATTICE_CASES = {name: case for name, *case in _lattice_cases()}


@pytest.mark.parametrize("ladder", list(LADDERS))
def test_lattice_rows_judge_as_the_polyfit_reference(ladder, monkeypatch):
    ladder = LADDERS[ladder]
    kinds = set()
    _judged_against_the_reference(monkeypatch, kinds)
    for model, cp, grid in LATTICE_CASES.values():
        for _ in boundary.diagonal_records(model, cp, grid, ladder):
            pass
        for _ in boundary.classify_grid(model, grid, cp.nu, ladder):
            pass
    assert {status for status, _ in kinds} == {FINITE_NONZERO, ZERO, DIVERGENT, UNDETERMINED}
    assert (DIVERGENT, True) in kinds


def _raise(error):
    raise error


#: f's that reach each branch of the judge at E = 0.5
SYNTHETIC = {
    "divergent with a weight": (lambda z: 0.7 / (0.5 - z), (DIVERGENT, True)),
    "divergent without a weight": (lambda z: 100 * (-1j * (z - 0.5)) ** -0.6, (DIVERGENT, False)),
    "zero": (lambda z: 3.0 * (z - 0.5), (ZERO, False)),
    "finite nonzero": (lambda z: 1 + 2j + 0.5 * (z - 0.5), (FINITE_NONZERO, False)),
    "log profile": (lambda z: np.log(z - 0.5), (UNDETERMINED, False)),
    "non-finite prefix": (lambda z: np.where(z.imag < 1e-5, np.nan, 1.0 + 0j),
                          (UNDETERMINED, False)),
    "raises ArithmeticError": (lambda z: 1 / 0, (UNDETERMINED, False)),
    "raises LinAlgError": (lambda z: _raise(np.linalg.LinAlgError("singular")),
                           (UNDETERMINED, False)),
    "constant": (lambda z: 2.5 - 1j, (FINITE_NONZERO, False)),
    "constant zero": (lambda z: 0.0, (ZERO, False)),
    "one-element constant": (lambda z: np.array([1.5]), (FINITE_NONZERO, False)),
}


@pytest.mark.parametrize("ladder", list(LADDERS))
@pytest.mark.parametrize("case", list(SYNTHETIC))
def test_synthetic_rows_judge_as_the_polyfit_reference(case, ladder):
    f, (status, weighted) = SYNTHETIC[case]
    got = boundary.boundary_value(f, 0.5, LADDERS[ladder])
    assert_same_record(got, ref_boundary_value(f, 0.5, LADDERS[ladder]))
    assert (got.status, got.pole_weight is not None) == (status, weighted)


def test_a_ladder_too_dense_for_a_slope_warns_as_polyfit():
    # rungs 1e-15 apart in ratio: the slope's least-squares system has rank 1
    ladder = EpsilonLadder(eps_max=0.1, eps_min=0.1 * (1 - 1e-12), ratio=1 - 1e-15)
    for judge in (boundary.boundary_value, ref_boundary_value):
        with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
            judge(lambda z: 1.0 / z, 0.5, ladder)
