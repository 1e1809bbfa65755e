"""A catalogue of hard models, each named with the referee that judges it.

Every random model elsewhere in the suite is a dense system of dimension
1-8 with generic overlaps.  The models here lie outside that set:

- ``chain(dim)``: an end-coupled tight-binding chain (hopping 0.5, on-site
  values uniform in [-0.8, 0.8], delta_l = e_1, delta_r = e_dim).  Its
  cross pair c = +-0.5^(dim-1) / det(H_S - E) has no zero, and at dim 48 it
  is below the rounding of a pole sum.  Referees: the discretization
  oracle at two node counts, and the interlacing counts of a and b.
- ``double_level()``: h_s = diag(0, 0, 1.5), delta_l = (1, 0, 1),
  delta_r = (0, 1, 1).  K(0) has the two-dimensional null space {e_1, e_2},
  an atom of multiplicity two on sigma(H_S).  Referee: the closed-form
  weights 1 / (1 + lam^2) and 1 / (1 + nu^2), since l'(0) = r'(0) = 1.
- ``orthogonal_deltas()``: a random symmetric 4 x 4 h_s with delta_l = e_1,
  delta_r = e_4, so <delta_l, delta_r> = 0 and the pencil behind S has an
  infinite eigenvalue.  Referee: the zeros of c at 40 digits.
- ``dark_level()``: h_s = diag(1.5, 0.5), delta_l = delta_r = e_1.  The
  level 0.5 is dark to both vectors, so the cyclic subspace has dimension
  one.  Referee: that dimension.

These sit on the sample configuration's reservoirs (unit density on
[-2, -1] and [1, 2] on both sides) at its coupling (lam, nu) = (0.7, 1).
Three more keep the sample system (``sample_system()``) and move the
reservoir bands, to put a band edge where the gaps are hard to read:

- ``left_edge_at_zero()``: left pieces [-2, -1] and [0, 1].  The gap
  (-1, 0) ends at 0, where the double next to the edge is -5e-324 and
  (b - z) / (a - z) of the piece [0, 1] overflows.
- ``right_edge_at_zero()``: right pieces [-3, 0] and [1, 2].  The gap
  (0, 1) starts at 0, where the same quotient of [-3, 0] underflows.
- ``touching_pieces()``: left pieces [-2, -1] and [-1, -0.5], one band
  made of two pieces.

Referee of all three: the discretization oracle at two node counts.
"""

import numpy as np

from specbox.blackbox import BlackBoxModel, SystemBlock
from specbox.measures import SpectralMeasure

COUPLING = (0.7, 1.0)
CHAIN_DIMS = (16, 32, 48, 64)


def bands(*pieces) -> SpectralMeasure:
    """Unit density on ``pieces``, by default [-2, -1] and [1, 2]."""
    pieces = pieces or ((-2.0, -1.0), (1.0, 2.0))
    return SpectralMeasure(pieces=[(list(ab), [1.0]) for ab in pieces])


def _model(h, dl, dr) -> BlackBoxModel:
    return BlackBoxModel(SystemBlock(h, dl, dr), bands(), bands())


def sample_system() -> SystemBlock:
    """The sample configuration's system: h_s = [[1, 0.5], [0.5, -1]],
    delta_l = e_1, delta_r = e_2."""
    return SystemBlock([[1.0, 0.5], [0.5, -1.0]], [1.0, 0.0], [0.0, 1.0])


def chain(dim: int, seed: int = 0) -> BlackBoxModel:
    """The end-coupled chain; its on-site values are the first draw of
    ``default_rng(seed)``."""
    onsite = np.random.default_rng(seed).uniform(-0.8, 0.8, dim)
    h = np.diag(onsite) + 0.5 * (np.eye(dim, k=1) + np.eye(dim, k=-1))
    return _model(h, np.eye(dim)[0], np.eye(dim)[-1])


def double_level() -> BlackBoxModel:
    return _model(np.diag([0.0, 0.0, 1.5]), [1.0, 0.0, 1.0], [0.0, 1.0, 1.0])


def orthogonal_deltas(seed: int = 3, dim: int = 4) -> BlackBoxModel:
    """(A + A^T) / 2 for A = ``default_rng(seed).normal(size=(dim, dim))``,
    with delta_l = e_1 and delta_r = e_dim."""
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return _model((a + a.T) / 2, np.eye(dim)[0], np.eye(dim)[-1])


def dark_level() -> BlackBoxModel:
    return _model(np.diag([1.5, 0.5]), [1.0, 0.0], [1.0, 0.0])


def left_edge_at_zero() -> BlackBoxModel:
    return BlackBoxModel(sample_system(), bands((-2.0, -1.0), (0.0, 1.0)), bands())


def right_edge_at_zero() -> BlackBoxModel:
    return BlackBoxModel(sample_system(), bands(), bands((-3.0, 0.0), (1.0, 2.0)))


def touching_pieces() -> BlackBoxModel:
    return BlackBoxModel(sample_system(), bands((-2.0, -1.0), (-1.0, -0.5)), bands())
