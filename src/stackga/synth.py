"""The synthetic table that tests, scripts, the benchmark and the default
configs use.

`make_pima_like` produces a stand-in with the exact shape and conventions of
the classic Pima diabetes table (768 rows, 8 numeric predictors, binary
outcome, zero-sentinel missingness in the usual five columns) but with a
known generative model, so quantitative expectations in the test suite are
honest. Point the experiment configs at the real CSV to run on actual data.
"""

import numpy as np

from .dataset import Dataset, PIMA_SCHEMA
from .rng import child_rng

#: fraction of rows whose measurement is zeroed per sentinel column,
#: roughly matching the real table's missingness profile
_MISSING_RATES = {
    "glucose": 0.01,
    "blood_pressure": 0.045,
    "skinfold": 0.30,
    "insulin": 0.48,
    "bmi": 0.015,
}


def make_pima_like(n: int = 768, seed: int = 20211) -> Dataset:
    """768x9-shaped surrogate with a learnable clinical-style signal.

    The outcome depends on glucose, BMI, age, pedigree, and pregnancies;
    blood pressure, skinfold, and insulin are distractors. The label noise
    puts a well-tuned classifier around the low 0.8s in held-out accuracy.
    """
    rng = child_rng(seed, "pima-like")
    preg = np.clip(rng.poisson(3.0, n), 0, 15).astype(float)
    glucose = np.clip(rng.normal(122, 31, n), 56, 199)
    bp = np.clip(rng.normal(70, 12, n), 24, 122)
    skin = np.clip(rng.normal(29, 10, n), 7, 99)
    insulin = np.clip(np.exp(rng.normal(4.7, 0.7, n)), 14, 846)
    bmi = np.clip(rng.normal(32, 7, n), 18, 67)
    pedigree = np.clip(rng.gamma(2.2, 0.21, n), 0.078, 2.42)
    age = np.clip(21 + rng.exponential(11, n), 21, 81)

    def z(v):
        return (v - v.mean()) / v.std()

    logit = (
        -0.75
        + 3.80 * z(glucose)
        + 2.30 * z(bmi)
        + 1.70 * z(age)
        + 1.30 * z(pedigree)
        + 0.90 * z(preg)
    )
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)

    X = np.column_stack([preg, glucose, bp, skin, insulin, bmi, pedigree, age])
    X = np.round(X, 3)
    for name, rate in _MISSING_RATES.items():
        col = PIMA_SCHEMA.feature_index(PIMA_SCHEMA.column_names.index(name))
        X[rng.random(n) < rate, col] = 0.0
    return Dataset(X, y, PIMA_SCHEMA)
