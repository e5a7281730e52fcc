"""pooledsim: a simulation lab for approximate recovery from noisy pooled data.

The package covers the full pipeline: random pooling designs (Bernoulli
and doubly regular, the latter with or without multi-edges), noisy
additive queries, threshold decoding, closed-form query bounds, and a seeded
Monte-Carlo sweep harness with a CLI.  The names below are the pipeline's
entry points; everything else is reached through its module.
"""

__version__ = "0.1.0"

from .channel import run_queries
from .decoder import compute_score_vector, decode, required_queries
from .designs import DesignSpec, SimplificationError, generate, read_edge_list, write_edge_list
from .experiment import TrialConfig, derive_seed, run_sweep, run_trial, run_trial_detailed
from .model import BernoulliPrior, ChannelMatrix, FixedPrior, eps_recovery, sample_ground_truth

__all__ = [
    "__version__",
    "BernoulliPrior",
    "ChannelMatrix",
    "DesignSpec",
    "FixedPrior",
    "SimplificationError",
    "TrialConfig",
    "compute_score_vector",
    "decode",
    "derive_seed",
    "eps_recovery",
    "generate",
    "read_edge_list",
    "required_queries",
    "run_queries",
    "run_sweep",
    "run_trial",
    "run_trial_detailed",
    "sample_ground_truth",
    "write_edge_list",
]
