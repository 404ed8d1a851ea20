"""Two-level stacked generalization.

Level-0 learners produce a derived dataset whose columns are their outputs
(hard labels or positive-class probabilities); a level-1 meta-learner trains
on it. Two construction modes:

- "out_of_fold": each derived value comes from a model trained without the
  sample's fold. This is the leakage-free default.
- "naive": derived values come from models trained on the full training set.
  The meta-learner then sees resubstitution outputs, which overstates the
  base learners' reliability; kept as a first-class mode because it is the
  literal reading of the classic stacking pseudocode and explains how
  headline accuracies get inflated.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dataset import Dataset, Schema, make_folds
from .errors import ConfigError
from .learners import LearnerSpec, TrainedModel, both_classes, predict, predict_proba, train
from .parallel import run_tasks
from .records import Folds, check_fields
from .rng import derive_seed

Level1Mode = Literal["out_of_fold", "naive"]
Level1FeatureKind = Literal["label", "probability"]


@dataclass(frozen=True)
class StackSpec:
    """The stack a run trains; each setting is checked against its
    annotation when built."""

    base_specs: tuple
    meta_spec: LearnerSpec
    level1_mode: Level1Mode = "out_of_fold"
    level1_folds: Folds = 5
    level1_feature_kind: Level1FeatureKind = "probability"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "base_specs", tuple(self.base_specs))
        if not self.base_specs:
            raise ConfigError("a stack needs at least one base learner")
        check_fields(self)


@dataclass(frozen=True)
class StackModel:
    base_models: tuple
    meta_model: TrainedModel
    spec: StackSpec


def _level1_schema(spec: StackSpec, ds: Dataset) -> Schema:
    names = tuple(
        f"z{t}_{s.algorithm}" for t, s in enumerate(spec.base_specs)
    ) + (ds.schema.column_names[ds.schema.label_column],)
    return Schema(column_names=names, label_column=len(names) - 1)


def _base_outputs(model: TrainedModel, X: np.ndarray, kind: str) -> np.ndarray:
    if kind == "label":
        return predict(model, X).astype(np.float64)
    return predict_proba(model, X)[:, 1]


def _trained_outputs(base: LearnerSpec, fit_ds: Dataset, X: np.ndarray, kind: str,
                     fold: int) -> np.ndarray:
    """`base` trained on `fit_ds`, its outputs on `X`; one out-of-fold level-1 task."""
    if not both_classes(fit_ds.labels):
        raise ConfigError(f"level-1 fold {fold}: training part has a single class")
    return _base_outputs(train(base, fit_ds), X, kind)


def _meta_features(models, X: np.ndarray, kind: str) -> np.ndarray:
    """The meta-learner's input: one column of outputs on `X` per base model."""
    X = np.asarray(X, dtype=np.float64)
    return np.column_stack([_base_outputs(b, X, kind) for b in models])


@dataclass(frozen=True)
class Level1:
    """A derived dataset, each row's level-1 fold (-1 in naive mode), and the
    row ids each fold's models trained on, to check that no model predicted a
    row it saw; `models` are the naive mode's bases, fitted on every row."""

    dataset: Dataset
    assignments: np.ndarray
    trained_on: dict
    models: tuple


def build_level1_dataset(spec: StackSpec, ds: Dataset) -> Level1:
    """Derived dataset: one row per training sample, one column per base learner.

    The (fold x base) fits are independent tasks, shared by the usable CPUs
    (see `parallel.run_tasks`); the result does not depend on their number.
    """
    if not both_classes(ds.labels):
        raise ConfigError("stacking requires both classes in the training data")
    kind = spec.level1_feature_kind
    models = None
    if spec.level1_mode == "naive":
        # the stack's own prediction-time features, on the rows its bases fit
        models = tuple(run_tasks(train, [(base, ds) for base in spec.base_specs]))
        Z = _meta_features(models, ds.features, kind)
        assignments = np.full(ds.n_samples, -1)
        trained_on = {-1: ds.row_ids.copy()}
    else:
        Z = np.empty((ds.n_samples, len(spec.base_specs)))
        plan = make_folds(ds, spec.level1_folds, stratified=True,
                          seed=derive_seed(spec.seed, "level1-folds"))
        parts = [(fold, ds.take(plan.train_indices(fold)), plan.test_indices(fold))
                 for fold in range(plan.k)]
        trained_on = {fold: fit_part.row_ids.copy() for fold, fit_part, _ in parts}
        # each base's folds together, in base order: workers start on the
        # first base's fits (in the shipped configs the random forest, the
        # longest), the calling process on the last's
        cells, tasks = [], []
        for t, base in enumerate(spec.base_specs):
            for fold, fit_part, held_idx in parts:
                cells.append((held_idx, t))
                tasks.append((base, fit_part, ds.features[held_idx], kind, fold))
        for (held_idx, t), column in zip(cells, run_tasks(_trained_outputs, tasks)):
            Z[held_idx, t] = column
        assignments = plan.assignments
    d_prime = Dataset(Z, ds.labels, _level1_schema(spec, ds), ds.row_ids)
    return Level1(d_prime, assignments, trained_on, models)


def train_stack(spec: StackSpec, ds: Dataset) -> StackModel:
    """Fit the meta-learner on the derived dataset, then refit every base
    learner on the full training set for prediction time. In naive mode the
    level-1 fits are those refits (same spec, seed and rows), so they are
    kept instead of fitted again.

    Level 1, and then the meta fit with the refits, run as independent tasks
    on the usable CPUs; the model does not depend on their number.
    """
    level1 = build_level1_dataset(spec, ds)
    # the refits first, in base order, so the workers start on the longest;
    # the few-ms meta fit last, for this process
    fits = [(b, ds) for b in spec.base_specs] if level1.models is None else []
    *refits, meta = run_tasks(train, fits + [(spec.meta_spec, level1.dataset)])
    return StackModel(base_models=tuple(level1.models or refits), meta_model=meta, spec=spec)


def predict_stack(model: StackModel, X) -> np.ndarray:
    """Meta prediction on the base models' outputs."""
    Z = _meta_features(model.base_models, X, model.spec.level1_feature_kind)
    return predict(model.meta_model, Z)


def predict_proba_stack(model: StackModel, X) -> np.ndarray:
    Z = _meta_features(model.base_models, X, model.spec.level1_feature_kind)
    return predict_proba(model.meta_model, Z)
