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

All of them sit on the sample configuration's reservoirs (unit density on
[-2, -1] and [1, 2] on both sides) at its coupling (lam, nu) = (0.7, 1).
"""

import numpy as np

from specbox.blackbox import BlackBoxModel, SystemBlock
from specbox.measures import SpectralMeasure

COUPLING = (0.7, 1.0)
CHAIN_DIMS = (16, 32, 48, 64)


def bands() -> SpectralMeasure:
    """Unit density on [-2, -1] and [1, 2]."""
    return SpectralMeasure(pieces=[([-2.0, -1.0], [1.0]), ([1.0, 2.0], [1.0])])


def _model(h, dl, dr) -> BlackBoxModel:
    return BlackBoxModel(SystemBlock(h, dl, dr), bands(), bands())


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
