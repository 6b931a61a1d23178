"""Gaussian naive Bayes over the transformed feature matrix.

Each class gets an empirical prior plus per-feature Gaussian likelihood
parameters (population moments). Posteriors are computed entirely in log
space and normalized with log-sum-exp, so extreme likelihoods cannot
underflow. Per-class variances are clamped from below by a relative floor
so constant features keep finite log densities.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFeature, SingleClassDataset
from .preprocess import FeatureMatrix, feature_batch

# the largest variance whose 2 * pi * var, inside the log density, is finite
MAX_VARIANCE = sys.float_info.max / (2.0 * math.pi)


@dataclass(frozen=True)
class GaussianNBModel:
    priors: np.ndarray     # shape (2,)
    means: np.ndarray      # shape (2, d)
    variances: np.ndarray  # shape (2, d)
    var_floor: float

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def posterior(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class posteriors; log pdfs are summed along the contiguous
        feature axis, so each row matches scoring it alone bit for bit."""
        X = feature_batch(X, self.n_features)
        log_joint = np.empty((X.shape[0], 2))
        for c in (0, 1):
            var = self.variances[c]
            with np.errstate(over="ignore"):  # a mean far from the row: checked below
                log_pdf = -0.5 * (np.log(2.0 * math.pi * var) + (X - self.means[c]) ** 2 / var)
            log_joint[:, c] = math.log(self.priors[c]) + np.sum(log_pdf, axis=1)
        lost = ~np.isfinite(np.max(log_joint, axis=1))
        if lost.any():
            raise NonFiniteFeature(f"row {int(np.argmax(lost))}: the naive Bayes log density "
                                   "is not finite under either class")
        return posterior_from_log_joint(log_joint)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class posterior per row of an (n, d) batch."""
        return self.posterior(X)[:, 1]


def posterior_from_log_joint(log_joint: np.ndarray) -> np.ndarray:
    """Normalize two-class log joints (last axis) via log-sum-exp."""
    weights = np.exp(log_joint - np.max(log_joint, axis=-1, keepdims=True))
    return weights / (weights[..., :1] + weights[..., 1:])


def fit_gaussian_nb(m: FeatureMatrix) -> GaussianNBModel:
    """Estimate priors and per-class per-feature Gaussian moments."""
    labels = m.labels
    n = m.n_rows
    if n == 0 or np.all(labels == labels[0]):
        raise SingleClassDataset("Gaussian NB needs samples from both classes")
    d = m.n_cols
    priors = np.empty(2)
    means = np.empty((2, d))
    variances = np.empty((2, d))
    for c in (0, 1):
        rows = m.values[labels == c]
        priors[c] = rows.shape[0] / n
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)
    overall_var = m.values.var(axis=0)
    max_var = float(overall_var.max()) if d else 0.0
    var_floor = 1e-9 * max_var if max_var > 0.0 else 1e-9
    variances = np.maximum(variances, var_floor)
    return GaussianNBModel(priors=priors, means=means, variances=variances, var_floor=var_floor)
