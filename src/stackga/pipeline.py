"""End-to-end experiment runs: preprocess, select features, stack, evaluate.

Two protocols:

- "clean": every data-derived statistic (imputation medians, clip fences,
  GA feature mask, level-1 construction) is computed inside the training
  boundary of the current split or fold and merely applied to its test part.
- "paper_faithful": statistics, the GA, and all model training use the full
  dataset, and the test rows are re-used for evaluation. This reproduces the
  inflated headline numbers such leaky protocols yield; reports carry a note
  saying so.

`training_groups` is the protocol's one decision point: holdout, k-fold and
`stackga eval` read their fit set and eval parts from it. A group has one fit
step, `train_group` (the singles beside the GA, then the stack, into a
`GroupFit` that `stackga train` saves), and one score step, `evaluate_partition`.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .config import ExperimentConfig, config_to_dict, learner_spec, stack_spec_from_config
from .dataset import (
    Dataset,
    apply_clip,
    apply_imputation,
    load_csv,
    make_folds,
    nonzero_medians,
    outlier_fences,
    select_features,
    shuffle_split,
)
from .errors import ConfigError
from .genetic import (
    GaRun,
    mask_to_names,
    run_ga,
    wrapper_cv_accuracy,
    wrapper_plan,
)
from .learners import LearnerSpec, both_classes, labels_from_proba, predict_proba, train
from .parallel import run_tasks
from .report import (
    DISPLAY_NAMES,
    STACK_ROW_GA,
    STACK_ROW_PLAIN,
    FeatureRow,
    GaSummary,
    KfoldRow,
    ModelRow,
    Report,
)
from .rng import derive_seed
from .stacking import predict_proba_stack, train_stack

CLEAN_NOTE = (
    "Headline accuracies near 0.98 for this method are only reachable under a "
    "leaky protocol (models trained on the rows they are scored on; see the "
    "'Leakage analysis' section of the README). This clean run keeps feature "
    "selection and level-1 construction inside the training boundary, where "
    "honest accuracy on this kind of data sits around 0.75-0.85."
)
FAITHFUL_NOTE = (
    "paper_faithful protocol: preprocessing statistics, the GA mask, and all "
    "models use the full dataset, and evaluation rows were part of training. "
    "Accuracy is inflated by construction; use the clean protocol for honest "
    "estimates."
)
GA_REFERENCE_NOTE = (
    "Feature-selection reference point: 0.93 wrapper accuracy with 5 selected "
    "features has been reported for this method; shown for context, not "
    "asserted by this run."
)
#: where a k-fold run's GA ran, by protocol
KFOLD_GA_NOTES = {
    "clean": "GA placement: re-run inside every fold's training part.",
    "paper_faithful": "GA placement: one global run on the full dataset (leaky).",
}


@dataclass
class RunDetails:
    """Side outputs that accompany a Report: ROC curves keyed by row name,
    provenance row-id bookkeeping, and the GA run object."""

    curves: dict
    provenance: dict
    ga_run: GaRun = None


@dataclass(frozen=True)
class TrainingGroup:
    """Models trained once on `fit_ds` and scored on each of `parts`, a
    tuple of (k, eval dataset) with k None in holdout. The group's GA seed
    comes from `ga_tags` and its seconds go to `timings[ga_key]`."""

    fit_ds: Dataset
    ga_tags: tuple
    ga_key: str
    parts: tuple


@dataclass(frozen=True)
class GroupFit:
    """A group's `_timed` fits: one single per configured learner, the GA and
    the stack (each None when off; the stack fails with a failed GA's error),
    and the GA mask's columns, the stack's input (None: every column)."""

    singles: tuple
    ga: tuple = None
    stack: tuple = None
    mask: np.ndarray = None


def _display_name(algorithm: str, taken) -> str:
    base = DISPLAY_NAMES.get(algorithm, algorithm)
    name = base
    i = 2
    while name in taken:
        name = f"{base} ({i})"
        i += 1
    return name


def single_names(config: ExperimentConfig) -> list:
    """The report row name of every configured single learner, in config order."""
    names = []
    for entry in config.learners:
        names.append(_display_name(entry["algorithm"], names))
    return names


def preprocess_pair(train_ds: Dataset, test_ds: Dataset, prep) -> tuple:
    """Clean both partitions using statistics from the training part only;
    returns them and the training part's "imputed_train" and "clipped_train"
    counts per column."""
    stats = {}
    if prep.impute and train_ds.schema.missing_as_zero_columns:
        medians = nonzero_medians(train_ds)
        train_ds, stats["imputed_train"] = apply_imputation(train_ds, medians)
        test_ds, _ = apply_imputation(test_ds, medians)
    if prep.clip:
        fences = outlier_fences(train_ds, prep.iqr_multiplier)
        train_ds, stats["clipped_train"] = apply_clip(train_ds, fences)
        test_ds, _ = apply_clip(test_ds, fences)
    return train_ds, test_ds, stats


def error_text(error) -> str:
    """A failure as rows and artifacts show it, `<type>: <message>` (the text
    an artifact holds is already that)."""
    return error if isinstance(error, str) else f"{type(error).__name__}: {error}"


def _timed(fn, *args) -> tuple:
    """(`fn(*args)` or None, seconds, the exception or None): a failure is
    returned, not raised. Also the dispatcher of a group's `run_tasks` list,
    whose tasks are `(fn, *args)`."""
    t0 = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - t0, None
    except Exception as e:  # one bad model must not sink the benchmark table
        return None, time.perf_counter() - t0, e


def _timed_probas(fitted, proba, parts) -> list:
    """(probabilities, seconds, error or None) on each of `parts`, from
    `proba(model, part)` with the model of `fitted`, a `_timed` fit. A failed
    fit fails every part and a failed score only its own; the fit's seconds
    count in the first part."""
    model, seconds, error = fitted
    outcomes = []
    for part in parts:
        if error is None:
            probas, score_seconds, score_error = _timed(proba, model, part)
            outcomes.append((probas, seconds + score_seconds, score_error))
        else:
            outcomes.append((None, seconds, error))
        seconds = 0.0
    return outcomes


def _scored_row(name: str, y_true, proba, error) -> tuple:
    """(ModelRow, ROC curve or None) from the eval rows' class probabilities;
    an `error`, or a failure to score, becomes a failed row."""
    if error is not None:
        return ModelRow(name=name, status="failed", error=error_text(error)), None
    try:
        cm = metrics.confusion(y_true, labels_from_proba(proba))
        curve = metrics.roc_curve(y_true, proba[:, 1]) if both_classes(y_true) else None
        auc_value = None if curve is None else metrics.auc(curve)
    except Exception as e:  # one bad model must not sink the benchmark table
        return ModelRow(name=name, status="failed", error=error_text(e)), None
    row = ModelRow(
        name=name,
        accuracy=metrics.accuracy(cm),
        sensitivity=metrics.sensitivity(cm),
        specificity=metrics.specificity(cm),
        fscore=metrics.fscore(cm),
        f1=metrics.f1(cm),
        auc=auc_value,
    )
    return row, curve


def ga_wrapper_spec(config: ExperimentConfig) -> LearnerSpec:
    """The GA's wrapper learner, seeded from the master seed."""
    return learner_spec(config.ga.wrapper, derive_seed(config.master_seed, "ga-wrapper"))


def ga_mask(config: ExperimentConfig, ds: Dataset, seed_tags) -> GaRun:
    """One GA run on `ds` with the config's `ga` knobs and a seed derived
    from `seed_tags`."""
    ga_config = replace(config.ga_run_config, n_bits=ds.n_features,
                        seed=derive_seed(config.master_seed, "ga", *seed_tags))
    return run_ga(ga_config, ds, ga_wrapper_spec(config), cv_k=config.ga.cv_folds)


def train_group(config: ExperimentConfig, fit_ds: Dataset, ga_tags) -> GroupFit:
    """The group's models fitted on `fit_ds`, the GA seeded from `ga_tags`;
    a failure is returned as its exception. The singles and the GA are one
    `run_tasks` list: the singles first, so the workers take them, and the GA
    last, so this process starts with it. The stack follows on the GA's columns.
    """
    tasks = [(train, learner_spec(entry, derive_seed(config.master_seed, "bench", i)), fit_ds)
             for i, entry in enumerate(config.learners)]
    if config.ga.enabled:
        tasks.append((ga_mask, config, fit_ds, ga_tags))
    fits = run_tasks(_timed, tasks)
    singles, ga = tuple(fits[:len(config.learners)]), fits[-1] if config.ga.enabled else None
    ga_run, _, ga_error = ga or (None, 0.0, None)
    mask = None if ga_run is None else np.flatnonzero(ga_run.best_chromosome)
    stack = None
    if config.stack.enabled:
        # the spec is built outside the timed call: a config error stops the run
        stack = (None, 0.0, ga_error) if ga_error is not None else _timed(
            train_stack, stack_spec_from_config(config), select_features(fit_ds, mask))
    return GroupFit(singles, ga, stack, mask)


def evaluate_partition(config: ExperimentConfig, fit: GroupFit, eval_parts) -> list:
    """Score the fitted models on each dataset in `eval_parts` (the stack on
    the `fit.mask` columns), one `predict_proba` call per model and part.

    Returns one (rows, curves, timings) per part: a ModelRow per single
    learner and then the stack row, ROC curves keyed by row name, and
    seconds per row, a model's fit counted in the first part.
    """
    results = [([], {}, {}) for _ in eval_parts]

    def score(name, outcomes):
        for part, (proba, seconds, error), (rows, curves, timings) in zip(
                eval_parts, outcomes, results):
            t0 = time.perf_counter()
            row, curve = _scored_row(name, part.labels, proba, error)
            timings[name] = seconds + time.perf_counter() - t0
            rows.append(row)
            if curve is not None:
                curves[name] = curve

    for name, fitted in zip(single_names(config), fit.singles):
        score(name, _timed_probas(fitted, lambda model, part: predict_proba(
            model, part.features), eval_parts))
    if fit.stack is not None:
        score(STACK_ROW_GA if config.ga.enabled else STACK_ROW_PLAIN, _timed_probas(
            fit.stack, lambda model, part: predict_proba_stack(
                model, select_features(part, fit.mask).features), eval_parts))
    return results


def ga_summary(ga_run: GaRun, ds: Dataset) -> GaSummary:
    return GaSummary(
        mask=tuple(int(b) for b in ga_run.best_chromosome),
        feature_names=tuple(mask_to_names(ga_run.best_chromosome, ds)),
        best_fitness=float(ga_run.best_fitness),
        generations=len(ga_run.history),
        evaluations=ga_run.evaluations,
    )


def experiment_report(config: ExperimentConfig, timings: dict, rows=(), kfold_rows=(),
                      ga: GaSummary = None) -> Report:
    """The report of a run of `config`, its kind the split mode, with the
    protocol's notes."""
    notes = [FAITHFUL_NOTE if config.protocol == "paper_faithful" else CLEAN_NOTE]
    if config.ga.enabled and config.split.mode == "kfold":
        notes.append(KFOLD_GA_NOTES[config.protocol])
    if config.ga.enabled:
        notes.append(GA_REFERENCE_NOTE)
    return Report(kind=config.split.mode, protocol=config.protocol,
                  master_seed=config.master_seed, rows=tuple(rows),
                  kfold_rows=tuple(kfold_rows), ga=ga, notes=tuple(notes),
                  config_echo=config_to_dict(config), timings=timings)


def training_groups(config: ExperimentConfig):
    """The configured splits (the shuffled holdout split, or every fold of
    every k) as training groups, in split order; the one place that reads the
    protocol. Clean: one group per split, its parts cleaned by
    `preprocess_pair` with the split's training statistics. paper_faithful:
    one group for the whole run, fitted (statistics included) on the full
    table and scored on each split's test rows, which it trained on.
    """
    ds = load_csv(config.dataset.path, config.dataset.schema(), config.dataset.has_header)
    if config.split.mode == "holdout":
        train_raw, test_raw = shuffle_split(ds, config.split.train_fraction,
                                            derive_seed(config.master_seed, "split"))
        # `load_csv` numbers rows by position, so these ids are positions in `ds`
        splits = [(None, ("holdout",), "ga", train_raw.row_ids, test_raw.row_ids)]
    else:
        splits = []
        for k in config.split.ks:
            plan = make_folds(ds, k, config.split.stratified,
                              seed=derive_seed(config.master_seed, "kfold", k))
            splits += [(k, ("kfold", k, fold), f"ga (k={k})", plan.train_indices(fold),
                        plan.test_indices(fold)) for fold in range(k)]
    if config.protocol == "paper_faithful":
        full, _, _ = preprocess_pair(ds, ds, config.preprocessing)
        tags = ("holdout",) if config.split.mode == "holdout" else ("global",)
        yield TrainingGroup(full, tags, "ga",
                            tuple((k, full.take(np.sort(test))) for k, *_, test in splits))
        return
    for k, tags, ga_key, train, test in splits:
        fit_ds, eval_ds, _ = preprocess_pair(ds.take(train), ds.take(test), config.preprocessing)
        yield TrainingGroup(fit_ds, tags, ga_key, ((k, eval_ds),))


def holdout_partitions(config: ExperimentConfig) -> tuple:
    """(fit, eval) datasets of the configured holdout split."""
    (group,) = training_groups(config)
    return group.fit_ds, group.parts[0][1]


def _scored_groups(config: ExperimentConfig, timings: dict):
    """(group, GroupFit, `evaluate_partition` results) per training group,
    adding the GA's seconds to `timings`. A failed search fails only the
    stack row."""
    for group in training_groups(config):
        fit = train_group(config, group.fit_ds, group.ga_tags)
        if fit.ga is not None:
            timings[group.ga_key] = timings.get(group.ga_key, 0.0) + fit.ga[1]
        yield group, fit, evaluate_partition(config, fit, [eval_ds for _, eval_ds in group.parts])


def run_holdout_detailed(config: ExperimentConfig) -> tuple:
    """Full holdout benchmark; returns (Report, RunDetails)."""
    if config.split.mode != "holdout":
        raise ConfigError("run_holdout needs split.mode = 'holdout'")
    timings = {}
    [(group, fit, [(rows, curves, row_timings)])] = _scored_groups(config, timings)
    timings.update(row_timings)
    ga_run = None if fit.ga is None else fit.ga[0]
    fit_ds, eval_ds = group.fit_ds, group.parts[0][1]

    provenance = {"preprocess_stat_rows": fit_ds.row_ids}
    if config.ga.enabled:
        provenance["ga_rows"] = fit_ds.row_ids
    for row in rows:
        provenance[row.name] = {"train_rows": fit_ds.row_ids, "test_rows": eval_ds.row_ids}
    ga = None if ga_run is None else ga_summary(ga_run, fit_ds)
    report = experiment_report(config, timings, rows=rows, ga=ga)
    return report, RunDetails(curves=curves, provenance=provenance, ga_run=ga_run)


def run_holdout(config: ExperimentConfig) -> Report:
    report, _ = run_holdout_detailed(config)
    return report


def run_kfold(config: ExperimentConfig) -> Report:
    """Rotating k-fold benchmark for every configured k in one report.

    `Report.timings` holds each row's seconds summed over its folds, keyed
    "<row name> (k=<k>)", plus the GA's time. The training groups run one
    after another; each group's model fits are shared by the usable CPUs.
    """
    if config.split.mode != "kfold":
        raise ConfigError("run_kfold needs split.mode = 'kfold'")
    timings, accs, errors = {}, {}, {}
    for group, _, results in _scored_groups(config, timings):
        for (k, _), (rows, _, row_timings) in zip(group.parts, results):
            for row in rows:
                accs.setdefault((row.name, k), []).append(row.accuracy)
                if row.error is not None:
                    errors[row.name, k] = row.error
                key = f"{row.name} (k={k})"
                timings[key] = timings.get(key, 0.0) + row_timings[row.name]

    kfold_rows = []
    for (name, k), fold_accs in accs.items():
        valid = [a for a in fold_accs if a is not None]
        scores = {} if not valid else {"mean_accuracy": float(np.mean(valid)),
                                       "std": float(np.std(valid)),
                                       "fold_accuracies": tuple(fold_accs)}
        status = "failed" if not valid else "ok" if len(valid) == len(fold_accs) else "partial"
        kfold_rows.append(KfoldRow(name=name, k=k, status=status,
                                   error=errors.get((name, k)), **scores))
    return experiment_report(config, timings, kfold_rows=kfold_rows)


def feature_report(ds: Dataset, wrapper: LearnerSpec, ga_run: GaRun,
                   cv_k: int = 5, seed: int = 0) -> tuple:
    """Per-feature table: lone-feature wrapper CV accuracy, GA selection
    frequency in the final population, and best-mask membership."""
    plan = wrapper_plan(ds, cv_k, seed)
    freq = ga_run.final_population.mean(axis=0)
    best = ga_run.best_chromosome.astype(bool)
    rows = []
    for i, name in enumerate(ds.schema.predictor_names):
        sub = select_features(ds, [i])
        acc = wrapper_cv_accuracy(sub, wrapper, plan)
        rows.append(
            FeatureRow(
                name=name,
                single_feature_cv_accuracy=float(acc),
                ga_selection_frequency=float(freq[i]),
                in_best_mask=bool(best[i]),
            )
        )
    return tuple(rows)


__all__ = [
    "evaluate_partition",
    "run_holdout",
    "run_holdout_detailed",
    "run_kfold",
    "feature_report",
    "RunDetails",
]
