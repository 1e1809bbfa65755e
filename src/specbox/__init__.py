"""Spectral analysis of a finite quantum system coupled to two reservoirs
through rank-two bonds: closed-form resolvents verified against a
discretization oracle, boundary-value classification on energy grids,
spectral averaging over bond strengths, and pointwise certificates for the
absence of singular continuous spectrum."""

from .averaging import (
    AveragingReport,
    averaged_poisson_closed,
    averaged_poisson_quadrature,
    rank_one_average,
    verify_abs_continuity,
)
from .blackbox import (
    CHI_L,
    CHI_R,
    DEGENERATE_WHOLE_LINE,
    DELTA_L,
    DELTA_R,
    TAGS,
    BlackBoxModel,
    ExceptionalSets,
    SystemBlock,
    ValidationReport,
)
from .boundary import (
    DIVERGENT,
    FINITE_NONZERO,
    UNDETERMINED,
    ZERO,
    BoundaryRecord,
    EnergyClassification,
    EpsilonLadder,
    ac_density,
    boundary_value,
    classify_energy,
    point_mass,
    point_mass_scan,
)
from .certify import (
    CERTIFIED,
    NUMERICALLY_UNRESOLVED,
    OUT_OF_SCOPE,
    Certificate,
    CertificatePoint,
    certify_no_sc,
    eigen_residual,
    remark2_model,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    InvalidModelError,
    NearSingularError,
    OracleError,
    PointMassPresentError,
    PoleError,
    SpecboxError,
    UndeterminedLimitError,
    UnsupportedScenarioError,
)
from .measures import SpectralMeasure
from .resolvent import (
    CouplingParams,
    DiscretizedModel,
    G0Basics,
    det_D,
    discretize,
    green,
    green_all,
    green_closed,
    green_oracle,
    green_oracle_all,
)

__version__ = "0.1.0"
