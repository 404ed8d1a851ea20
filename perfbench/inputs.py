"""Seeded benchmark inputs.

Every generated file is a pure function of the workload seed: the same seed
gives byte-identical CSV and config files. The program under test receives
only these files (plus shipped configs and command-line overrides); it never
sees the seed generator itself.
"""

import json
from pathlib import Path

import numpy as np

from stackga.dataset import PIMA_SCHEMA
from stackga.synth import make_pima_like

HOLDOUT_CONFIG = "configs/pima_holdout.json"
XVAL_CONFIG = "configs/pima_xval.json"


def _cell(v: float) -> str:
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def write_table(path, column_names, features, labels) -> None:
    """CSV with a header row, predictors first and the 0/1 label last."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(column_names) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join(_cell(v) for v in row) + f",{int(label)}\n")


def noise_names(n_noise: int) -> list:
    return [f"noise_{i:02d}" for i in range(n_noise)]


def write_ga_wide_table(path, seed: int, n_rows: int, n_noise: int) -> list:
    """The 8 `make_pima_like` predictors plus `n_noise` seeded N(0, 1) noise
    columns rounded to 3 decimals; returns the column names (label last)."""
    ds = make_pima_like(n=n_rows, seed=seed)
    rng = np.random.default_rng([seed, n_noise, 0x6A77])
    noise = np.round(rng.normal(0.0, 1.0, size=(n_rows, n_noise)), 3)
    names = list(PIMA_SCHEMA.predictor_names) + noise_names(n_noise) + ["outcome"]
    write_table(path, names, np.hstack([ds.features, noise]), ds.labels)
    return names


def write_score_table(path, seed: int, n_rows: int) -> None:
    """A `make_pima_like` table in the shipped column order."""
    ds = make_pima_like(n=n_rows, seed=seed)
    write_table(path, PIMA_SCHEMA.predictor_names + ("outcome",), ds.features, ds.labels)


def ga_wide_config(root, data_path, columns) -> dict:
    """The shipped holdout config, pointed at the wide table."""
    cfg = json.loads(Path(root, HOLDOUT_CONFIG).read_text(encoding="utf-8"))
    cfg["dataset"]["path"] = str(data_path)
    cfg["dataset"]["columns"] = list(columns)
    return cfg


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
