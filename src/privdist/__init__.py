"""Distribution estimation from locally obfuscated data.

Builds privacy mechanisms (k-RR, geometric, Laplace, exponential, RAPPOR),
recovers the original distribution from their noisy reports (iterative
Bayesian update, matrix inversion with normalization or simplex projection,
per-bit RAPPOR decoding), analyzes when the estimate is trustworthy (strict
concavity of the likelihood, identification, error bounds), and reduces
unbounded alphabets to finite likely subsets so estimation stays tractable.
"""

from .core import (
    INTEGER_LINE,
    Alphabet,
    CategoricalAlphabet,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    Mechanism,
    ObsMatrix,
    ObservationSet,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
    to_empirical,
    uniform_distribution,
)
from .mechanisms import (
    BitVectorMechanism,
    IntegerLineMechanism,
    build_exponential,
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_identity,
    build_krr,
    build_laplace_linear_discretized,
    build_laplace_planar_discretized,
    build_rappor,
    obfuscate_dataset,
)
from .estimators import (
    IbuResult,
    ibu,
    inv_normalize,
    inv_project,
    inv_raw,
    project_to_simplex,
    rappor_decode,
)
from .analysis import (
    ConcavityReport,
    identification_check,
    inv_geometric_error_lower_bound,
    inv_krr_error_bound,
    log_likelihood,
    rappor_concavity_prob_bound,
    strict_concavity_check,
)
from .reduction import (
    LikelySubset,
    likely_krr,
    likely_linear,
    likely_planar,
    likely_subset,
    restrict_and_lift,
)
from .metrics import emd, emd_1d, emd_planar, l2sq, min_cost_transport, tv
from .dataio import (
    Binomial,
    Explicit,
    RawDataset,
    UniformOn,
    empirical_distribution,
    grid_for_bbox,
    load_ages,
    load_checkins,
    sample_synthetic,
)
from .experiment import ExperimentConfig, derive_rng, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
