"""Randomization-based shallow and deep neural networks with a benchmark harness."""

from .autoencoders import (
    AutoencoderSpec,
    EncoderWeights,
    KernelDecoder,
    corrupt,
    encode,
    kernel_ae_train,
    rand_ae_train,
)
from .data import Dataset, ScalingStats, fit_apply_scaling, load_csv, load_manifest, one_hot
from .deep import DeepConfig, DeepModel, ResourceError, deep_predict, deep_train, mlkelm_train
from .methods import METHODS, get_method, predict_method, train_method
from .model_io import load_model, save_model
from .numerics import RngState, activate, concat_cols, derive_seed
from .ranking import (
    RankTable,
    SignificanceMatrix,
    friedman_chi2,
    friedman_f,
    nemenyi_cd,
    pairwise_significance,
    rank_rows,
)
from .selection import EvalResult, GridSpec, accuracy, auc, expand_grid, grid_search
from .shallow import RandomLayer, ShallowModel, elm_train, kelm_train, predict, rvfl_train
from .solvers import (
    AdmmResult,
    ElasticNetConfig,
    FistaResult,
    KernelSpec,
    L1Config,
    RidgeConfig,
    admm_elastic_net,
    fista_lasso,
    kernel_matrix,
    krr_fit,
    pinv_solve,
    ridge_dual,
    ridge_primal,
    ridge_solve,
)
from .synthetic import interleaved_arcs, separable_blobs

__version__ = "0.1.0"
