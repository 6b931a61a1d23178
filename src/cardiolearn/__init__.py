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

__version__ = "0.1.0"
