"""Spectral analysis of a finite quantum system coupled to two reservoirs
through rank-two bonds: closed-form resolvents verified against a
discretization oracle, boundary-value classification on energy grids,
spectral averaging over bond strengths, and pointwise certificates for the
absence of singular continuous spectrum."""

from .blackbox import BlackBoxModel, SystemBlock
from .boundary import classify_energy
from .certify import certify_no_sc
from .measures import SpectralMeasure
from .resolvent import CouplingParams, discretize, green, green_oracle

__version__ = "0.1.0"
