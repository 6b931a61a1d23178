"""From-scratch tabular classifiers for 11-attribute heart-disease data.

The package covers the full workflow: CSV ingestion and validation,
preprocessing (label encoding, imputation, standard scaling, minority
oversampling), four model families (Gaussian naive Bayes, gradient boosting
and XGBoost over Newton-step trees, and an Elman recurrent network),
confusion-matrix evaluation with cross-validation and grid search, JSON
model persistence, and a command-line front end. Every random choice flows
from an explicit seed through one documented generator, so identical
configurations reproduce identical artifacts with the same Python, NumPy and
OpenBLAS builds on the same CPU dispatch path; another SIMD path can change
the last bits (ROADMAP.md open item 3).
"""

from .bayes import GaussianNBModel, fit_gaussian_nb, posterior_from_log_joint
from .boosting import (
    BoostConfig,
    BoostedEnsemble,
    GradHess,
    TreeNode,
    fit_boosted,
    fit_tree,
)
from .dataset import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    LABEL_COLUMN,
    NUMERIC_FEATURES,
    SCHEMA,
    Dataset,
    SplitResult,
    SummaryReport,
    kfold,
    load_csv,
    load_unlabeled_csv,
    stratified_split,
    summarize,
    synth_generate,
    write_csv,
)
from .errors import CardioLearnError
from .evaluation import (
    ConfusionMatrix,
    CVResult,
    EvalReport,
    GridSearchResult,
    GridSpec,
    RunConfig,
    SelectionMetric,
    confusion,
    cross_validate,
    encode_folds,
    evaluate_model,
    grid_search,
    metrics,
)
from .persistence import (
    FORMAT_VERSION,
    LoadedBundle,
    build_bundle,
    load_bundle,
    save_bundle,
)
from .pipeline import (
    COMPARE_ORDER,
    TrainOutcome,
    run_compare,
    run_training,
)
from .preprocess import (
    FeatureMatrix,
    FittedPreprocessor,
    UnseenPolicy,
    flag_outliers,
    smote,
)
from .preprocess import fit as fit_preprocessor
from .preprocess import transform as transform_features
from .rng import SplitMix64, derive_seed
from .rnn import (
    RNNModel,
    RNNParams,
    RNNTrainConfig,
    TrainHistory,
    backward,
    bce,
    forward,
    grad_check,
    rmsprop_step,
    train_rnn,
)
from .training import (
    ALGORITHM_LABELS,
    PARAM_DEFAULTS,
    Algorithm,
    fit_algorithm,
)

__version__ = "0.1.0"
