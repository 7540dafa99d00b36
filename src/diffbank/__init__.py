"""Sparse diffusion feature banks with spectrum-aware bases and staged
re-propagation training.

The pipeline in one breath: build a CSR graph, pick a propagation operator,
expand node features into a (hops + 1)-slab polynomial or Krylov bank, train
a small dense model on the concatenated slabs, and optionally re-diffuse the
model's own hidden states for a few further training stages.
"""

from .backbone import ConcatMLP, HopGRU, TrainConfig, init_adam, softmax_xent
from .banks import chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank
from .calibration import (SpectralDensity, calibrate, calibrate_jacobi,
                          exact_moments, spectral_imbalance)
from .config import validate_config
from .errors import ConfigError, DataError, DiffbankError, NumericalError
from .experiment import run_ablation, run_experiment
from .graph import make_operator, reset_spmm_count, spmm_call_count
from .hrp import (StagePlan, blend, blend_alphas, build_model,
                  cosine_blend_weight, extract_hidden, repropagate,
                  run_hrp_training, train_stage)
from .io import load_bank_file, save_bank_file
from .krylov import batched_lanczos, ritz_components
from .synth import SyntheticSpec, generate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DiffbankError", "ConfigError", "DataError", "NumericalError",
    # data, operators and product counts
    "SyntheticSpec", "generate", "make_operator", "spmm_call_count",
    "reset_spmm_count",
    # calibration
    "SpectralDensity", "exact_moments", "spectral_imbalance",
    "calibrate_jacobi", "calibrate",
    # banks
    "monomial_bank", "jacobi_bank", "legendre_bank", "chebyshev_bank",
    "batched_lanczos", "ritz_components", "save_bank_file", "load_bank_file",
    # backbones and staged training
    "ConcatMLP", "HopGRU", "TrainConfig", "softmax_xent", "init_adam",
    "StagePlan", "cosine_blend_weight", "blend_alphas", "build_model",
    "extract_hidden", "repropagate", "blend", "train_stage",
    "run_hrp_training",
    # config and harness
    "validate_config", "run_experiment", "run_ablation",
]
