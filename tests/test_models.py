"""The hard-model catalogue (``tests/models.py``) against its referees.

- Chains of dims 16-64: the atom scan against the discretization oracle at
  two node counts, N against the interlacing counts of a and b found from
  the pole sums alone, and S empty (c has no zero).
- The double level on sigma(H_S): closed-form weights of a double atom.
- The cyclicity rank of the chains, the double level and a dark level.
- Band edges at 0 and touching pieces: the atom scan against the
  discretization oracle at 200 and 400 nodes per piece.
- delta_l orthogonal to delta_r: S against the zeros of c at 40 digits.
- Every dim-48 chain builds: the decoupling test reads the cross pair's
  clustered weights, not rounding noise.
"""

import numpy as np
import pytest

from specbox.blackbox import DELTA_L, DELTA_R
from specbox.boundary import point_mass_scan
from specbox.resolvent import discretize

import models
from conftest import ref_assemble
from test_boundary import _band_distance, assert_scan_matches_mpmath


def _oracle_atoms(model, nodes):
    """The eigenvalues of the discretized operator more than 1e-2 outside
    the bands, with their overlaps with delta_l and delta_r."""
    disc = discretize(model, nodes)
    h = ref_assemble(disc, models.COUPLING)
    # every catalogue model is real: a real symmetric solve is 4 times faster
    energies, vecs = np.linalg.eigh(h if h.imag.any() else h.real)
    overlaps = np.abs(np.stack([disc.delta_l, disc.delta_r]).conj() @ vecs) ** 2
    keep = np.array([_band_distance(model, E) > 1e-2 for E in energies])
    return energies[keep], overlaps[:, keep].T


def assert_scan_matches_oracle(model, nodes):
    """The scan against the oracle at the two node counts ``nodes``, both
    ways, on the atoms more than 1e-2 outside the bands."""
    coarse, fine = (_oracle_atoms(model, n) for n in nodes)
    # the oracle shows its own convergence
    assert coarse[0].size == fine[0].size
    assert np.max(np.abs(coarse[0] - fine[0])) <= 1e-12
    energies, overlaps = fine
    scan = point_mass_scan(model, models.COUPLING)
    for E0, *weights in scan:
        if _band_distance(model, E0) > 1e-2:
            j = np.argmin(np.abs(energies - E0))
            assert abs(energies[j] - E0) <= 1e-9
            assert np.max(np.abs(overlaps[j] - weights)) <= 1e-7
    for E, overlap in zip(energies, overlaps):
        if overlap.max() >= 1e-6:
            assert any(abs(E - E0) <= 1e-9 for E0, _, _ in scan)


@pytest.mark.parametrize("dim", models.CHAIN_DIMS)
def test_chain_atoms_match_the_oracle(dim):
    assert_scan_matches_oracle(models.chain(dim), (100, 150))


@pytest.mark.parametrize("name", ["left_edge_at_zero", "right_edge_at_zero", "touching_pieces"])
def test_moved_bands_match_the_oracle(name):
    # next to an edge at 0 the gap ends at -5e-324 or 5e-324, where the
    # quotient inside the logarithm of the piece's transform over- or
    # underflows: the count there read inf or NaN, and the left gap's two
    # atoms were dropped
    assert_scan_matches_oracle(getattr(models, name)(), (200, 400))


def _pole_sum(poles, weights, E):
    return np.sum(weights / (poles - E[:, None]), axis=1)


def _resolvable_zeros(poles, weights):
    """The zero of sum_k w_k / (p_k - E), w_k > 0, between each pair of
    neighbouring poles, by bisection on the pole sum.  It increases from
    -inf to +inf there, so it has one zero; where that zero lies within
    1e-9 (relative) of a pole, it is that pole, and none is listed."""
    pad = 1e-9 * np.maximum(1.0, np.abs(poles))
    lo, hi = poles[:-1] + pad[:-1], poles[1:] - pad[1:]
    ok = lo < hi
    lo, hi = lo[ok], hi[ok]
    ok = (_pole_sum(poles, weights, lo) < 0) & (_pole_sum(poles, weights, hi) > 0)
    lo, hi = lo[ok], hi[ok]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = _pole_sum(poles, weights, mid) < 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("dim", models.CHAIN_DIMS)
def test_chain_n_holds_the_interlacing_counts(dim):
    model = models.chain(dim)
    system, exc = model.system, model.exceptional_sets
    assert exc.s_zeros == ()  # c = +-0.5^(dim-1) / det(H_S - E)
    n_points = np.array(exc.n_points)
    sigma = np.array(exc.sigma_hs)
    # N lists one point for points closer than the match tolerance 1e-9
    # (relative), the tolerance classify reads it with
    tol = 1e-9 * np.maximum(1.0, np.abs(n_points))
    off = np.array([np.min(np.abs(E - sigma)) > t for E, t in zip(n_points, tol)])
    for tag in (DELTA_L, DELTA_R):
        weights = system.pair_weights(tag, tag).real
        zeros = _resolvable_zeros(system.poles, weights)
        assert zeros.size >= dim // 2
        for z in zeros:
            assert np.min(np.abs(n_points - z)) <= 1e-9 * max(1.0, abs(z))
        # the points of N off sigma(H_S) where the pair rises through 0
        # within the match tolerance: one per resolvable zero, no more
        rises = ((_pole_sum(system.poles, weights, n_points - tol) < 0)
                 & (_pole_sum(system.poles, weights, n_points + tol) > 0))
        assert int(np.sum(rises & off)) == zeros.size


def test_every_dim48_chain_builds():
    for seed in range(40):
        model = models.chain(48, seed)
        report = model.validate()
        weights = model.system.pair_weights(DELTA_L, DELTA_R)
        assert report.vanish_numerator_max == np.max(np.abs(weights))
        assert report.vanish_numerator_max > 1e-6
        assert report.ok


def test_cyclicity_rank_counts_the_visible_levels():
    # the rank of the 2n Krylov vectors H_S^k delta read 28, 16 and 7 at dims
    # 32, 48 and 64: the powers lose rank long before the subspace does
    ranks = [models.chain(dim).validate().cyclicity_rank for dim in models.CHAIN_DIMS]
    assert ranks == [16, 32, 48, 62]
    # at dim 64 two levels have overlaps with both vectors below 1e-8
    model = models.chain(64)
    overlaps = np.abs(model.system.eigenvectors[[0, -1]])
    assert int(np.sum(overlaps.max(axis=0) <= 1e-8)) == 2
    assert models.double_level().validate().cyclicity_rank == 3
    report = models.dark_level().validate()
    assert (report.cyclicity_rank, report.cyclic_system_heuristic) == (1, False)


def test_double_level_weights():
    lam, nu = models.COUPLING
    scan = point_mass_scan(models.double_level(), models.COUPLING)
    at_zero = [(w_l, w_r) for E, w_l, w_r in scan if abs(E) <= 1e-12]
    assert at_zero == [pytest.approx((1 / (1 + lam**2), 1 / (1 + nu**2)), rel=1e-12)]


def test_catalogue_scans_match_mpmath():
    for model in (models.chain(16), models.double_level(), models.orthogonal_deltas(),
                  models.left_edge_at_zero(), models.right_edge_at_zero(),
                  models.touching_pieces()):
        assert_scan_matches_mpmath(model, models.COUPLING)


def _mp_cross_zeros(model):
    """The real zeros of c = G0(delta_l, delta_r) off sigma(H_S) at 40
    digits: the roots of its numerator sum_k w_k prod_{j != k} (p_j - E),
    built from the eigenvectors of H_S at that precision."""
    from mpmath import mp

    system = model.system
    with mp.workdps(40):
        energies, vecs = mp.eigh(mp.matrix(system.h_s.tolist()))
        x = vecs.H * mp.matrix(system.delta_l.tolist())
        y = vecs.H * mp.matrix(system.delta_r.tolist())
        n = len(energies)
        coef = [mp.mpf(0)] * n  # low to high
        for k in range(n):
            poly = [mp.mpf(1)]
            for j in range(n):
                if j != k:
                    poly = [a * energies[j] - b for a, b in zip(poly + [0], [0] + poly)]
            for i, c in enumerate(poly):
                coef[i] += mp.conj(x[k]) * y[k] * c
        scale = max(abs(c) for c in coef)
        while len(coef) > 1 and abs(coef[-1]) <= mp.mpf(10) ** -30 * scale:
            coef.pop()  # a leading coefficient at rounding level is 0
        if len(coef) == 1:
            return []
        roots = mp.polyroots(coef[::-1], maxsteps=200, extraprec=200)
        real = sorted(float(mp.re(r)) for r in roots if abs(mp.im(r)) <= 1e-20 * max(1, abs(r)))
    return [r for r in real if min(abs(r - float(e)) for e in energies) > 1e-9 * max(1.0, abs(r))]


def test_orthogonal_deltas_s_matches_mpmath():
    # the leading coefficient of c's numerator is <delta_l, delta_r> = 0: the
    # cleared polynomial put a root near -4.1e15 into S, N and validate
    cases = [models.orthogonal_deltas()]
    cases += [models.orthogonal_deltas(seed, dim) for seed, dim in
              zip(range(100, 140), [2, 3, 4, 5, 6, 7, 8, 8] * 5)]
    for model in cases:
        s_zeros = model.exceptional_sets.s_zeros
        want = _mp_cross_zeros(model)
        assert len(s_zeros) == len(want)
        assert s_zeros == pytest.approx(want, rel=1e-10, abs=1e-10)
        assert set(s_zeros) <= set(model.exceptional_sets.n_points)
    assert len(cases[0].exceptional_sets.s_zeros) == 2
