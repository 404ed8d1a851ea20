"""End-to-end experiment runs: preprocess, select features, stack, evaluate.

Two protocols:

- "clean": every data-derived statistic (imputation medians, clip fences,
  GA feature mask, level-1 construction) is computed inside the training
  boundary of the current split or fold and merely applied to its test part.
- "paper_faithful": statistics, the GA, and all model training use the full
  dataset, and the test rows are re-used for evaluation. This reproduces the
  inflated headline numbers such leaky protocols yield; reports carry a note
  saying so.

Holdout, k-fold and `stackga eval` all score a (fit, eval) partition through
one routine, `evaluate_partition`.
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
from .learners import LearnerSpec, labels_from_proba, predict_proba, train
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
from .stacking import StackSpec, predict_proba_stack, train_stack

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


@dataclass
class RunDetails:
    """Side outputs that accompany a Report: ROC curves keyed by row name,
    provenance row-id bookkeeping, and the GA run object."""

    curves: dict
    provenance: dict
    ga_run: GaRun = None


def _display_name(algorithm: str, taken) -> str:
    base = DISPLAY_NAMES.get(algorithm, algorithm)
    name = base
    i = 2
    while name in taken:
        name = f"{base} ({i})"
        i += 1
    return name


def preprocess_pair(train_ds: Dataset, test_ds: Dataset, prep) -> tuple:
    """Clean both partitions using statistics from the training part only."""
    stats = {}
    if prep.impute and train_ds.schema.missing_as_zero_columns:
        medians = nonzero_medians(train_ds)
        stats["impute_medians"] = medians
        train_ds, train_counts = apply_imputation(train_ds, medians)
        test_ds, test_counts = apply_imputation(test_ds, medians)
        stats["imputed_train"] = train_counts
        stats["imputed_test"] = test_counts
    if prep.clip:
        fences = outlier_fences(train_ds, prep.iqr_multiplier)
        stats["clip_fences"] = fences
        train_ds, c_train = apply_clip(train_ds, fences)
        test_ds, c_test = apply_clip(test_ds, fences)
        stats["clipped_train"] = c_train
        stats["clipped_test"] = c_test
    return train_ds, test_ds, stats


def _scored_row(name: str, y_true, proba_fn) -> tuple:
    """(ModelRow, ROC curve or None) from `proba_fn()`, the eval rows' class
    probabilities; any failure becomes a failed row."""
    try:
        proba = proba_fn()
        cm = metrics.confusion(y_true, labels_from_proba(proba))
        curve = metrics.roc_curve(y_true, proba[:, 1]) if len(np.unique(y_true)) == 2 else None
        auc_value = None if curve is None else metrics.auc(curve)
    except Exception as e:  # one bad model must not sink the benchmark table
        return ModelRow(name=name, status="failed", error=f"{type(e).__name__}: {e}"), None
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


def _guarded_ga(config: ExperimentConfig, fit_ds: Dataset, seed_tags,
                timings: dict, key: str) -> tuple:
    """(GaRun, selected column indices, error text) for one training part,
    adding the search's seconds to `timings[key]`.

    All three are None when the GA is disabled. A failed search returns only
    its error, which fails the stack row and nothing else.
    """
    if not config.ga.enabled:
        return None, None, None
    t0 = time.perf_counter()
    try:
        ga_run = ga_mask(config, fit_ds, seed_tags)
    except Exception as e:  # selection failure downgrades only the stack row
        return None, None, f"{type(e).__name__}: {e}"
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
    return ga_run, np.flatnonzero(ga_run.best_chromosome), None


def train_masked_stack(spec: StackSpec, fit_ds: Dataset, mask=None):
    """Train `spec` on the GA-selected columns of `fit_ds` (all when `mask` is None)."""
    return train_stack(spec, select_features(fit_ds, mask))


def evaluate_partition(config: ExperimentConfig, fit_ds: Dataset, eval_ds: Dataset,
                       mask=None, stack=None, ga_error: str = None) -> tuple:
    """Train every configured model on `fit_ds` and score it on `eval_ds`.

    Returns (rows, curves, timings): one ModelRow per single learner and then
    the stack row, ROC curves keyed by row name, and seconds per row. The
    stack sees only the `mask` columns. It is trained here unless an already
    trained `stack` is given; a `ga_error` fails the stack row instead.
    """
    rows, curves, timings = [], {}, {}

    def score(name, proba_fn):
        t0 = time.perf_counter()
        row, curve = _scored_row(name, eval_ds.labels, proba_fn)
        timings[name] = time.perf_counter() - t0
        rows.append(row)
        if curve is not None:
            curves[name] = curve

    taken = set()
    for i, entry in enumerate(config.learners):
        spec = learner_spec(entry, derive_seed(config.master_seed, "bench", i))
        name = _display_name(spec.algorithm, taken)
        taken.add(name)
        score(name, lambda: predict_proba(train(spec, fit_ds), eval_ds.features))

    if config.stack.enabled:
        name = STACK_ROW_GA if config.ga.enabled else STACK_ROW_PLAIN
        if ga_error is not None:
            rows.append(ModelRow(name=name, status="failed", error=ga_error))
            timings[name] = 0.0
        else:
            # built outside the scored call: a config error stops the run
            spec = None if stack is not None else stack_spec_from_config(config)

            def stack_proba():
                model = stack if spec is None else train_masked_stack(spec, fit_ds, mask)
                return predict_proba_stack(model, select_features(eval_ds, mask).features)

            score(name, stack_proba)
    return rows, curves, timings


def ga_summary(ga_run: GaRun, ds: Dataset) -> GaSummary:
    return GaSummary(
        mask=tuple(int(b) for b in ga_run.best_chromosome),
        feature_names=tuple(mask_to_names(ga_run.best_chromosome, ds)),
        best_fitness=float(ga_run.best_fitness),
        generations=len(ga_run.history),
        evaluations=ga_run.evaluations,
    )


def experiment_report(config: ExperimentConfig, timings: dict, rows=(), kfold_rows=(),
                      ga: GaSummary = None, ga_note: str = None) -> Report:
    """The report of a run of `config`, its kind the split mode, with the
    protocol's notes."""
    notes = [FAITHFUL_NOTE if config.protocol == "paper_faithful" else CLEAN_NOTE]
    if ga_note:
        notes.append(ga_note)
    if config.ga.enabled:
        notes.append(GA_REFERENCE_NOTE)
    return Report(kind=config.split.mode, protocol=config.protocol,
                  master_seed=config.master_seed, rows=tuple(rows),
                  kfold_rows=tuple(kfold_rows), ga=ga, notes=tuple(notes),
                  config_echo=config_to_dict(config), timings=timings)


def holdout_partitions(config: ExperimentConfig) -> tuple:
    """(fit, eval) datasets for the configured holdout protocol.

    Clean mode cleans the test part with train-derived statistics; the
    paper_faithful mode fits everything (statistics included) on the full
    table and evaluates on rows the models trained on.
    """
    ds_raw = load_csv(config.dataset.path, config.dataset.schema(), config.dataset.has_header)
    split_seed = derive_seed(config.master_seed, "split")
    train_raw, test_raw = shuffle_split(ds_raw, config.split.train_fraction, split_seed)
    if config.protocol == "paper_faithful":
        full, _, _ = preprocess_pair(ds_raw, ds_raw, config.preprocessing)
        fit_ds = full
        eval_ds = full.take(np.flatnonzero(np.isin(full.row_ids, test_raw.row_ids)))
    else:
        fit_ds, eval_ds, _ = preprocess_pair(train_raw, test_raw, config.preprocessing)
    return fit_ds, eval_ds


def run_holdout_detailed(config: ExperimentConfig) -> tuple:
    """Full holdout benchmark; returns (Report, RunDetails)."""
    if config.split.mode != "holdout":
        raise ConfigError("run_holdout needs split.mode = 'holdout'")
    fit_ds, eval_ds = holdout_partitions(config)
    timings = {}
    ga_run, mask, ga_error = _guarded_ga(config, fit_ds, ("holdout",), timings, "ga")
    rows, curves, row_timings = evaluate_partition(config, fit_ds, eval_ds, mask,
                                                   ga_error=ga_error)
    timings.update(row_timings)

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


def _kfold_model_rows(config, ds_raw, k, plan, full_ds, global_mask, timings):
    """Per-fold accuracies for every configured model at one k; adds the
    seconds each row took over all folds to `timings`."""
    accs = {}
    errors = {}
    for fold in range(k):
        ga_error = None
        if full_ds is not None:  # paper_faithful: every fold trains on everything
            fit_ds = full_ds
            eval_ds = full_ds.take(plan.test_indices(fold))
            mask = global_mask
        else:
            train_raw = ds_raw.take(plan.train_indices(fold))
            test_raw = ds_raw.take(plan.test_indices(fold))
            fit_ds, eval_ds, _ = preprocess_pair(train_raw, test_raw, config.preprocessing)
            _, mask, ga_error = _guarded_ga(config, fit_ds, ("kfold", k, fold),
                                            timings, f"ga (k={k})")

        rows, _, fold_timings = evaluate_partition(config, fit_ds, eval_ds, mask,
                                                   ga_error=ga_error)
        for row in rows:
            accs.setdefault(row.name, []).append(row.accuracy)
            if row.error is not None:
                errors[row.name] = row.error
            key = f"{row.name} (k={k})"
            timings[key] = timings.get(key, 0.0) + fold_timings[row.name]

    rows = []
    for name, fold_accs in accs.items():
        valid = [a for a in fold_accs if a is not None]
        if not valid:
            rows.append(KfoldRow(name=name, k=k, status="failed", error=errors.get(name)))
            continue
        rows.append(
            KfoldRow(
                name=name,
                k=k,
                mean_accuracy=float(np.mean(valid)),
                std=float(np.std(valid)),
                fold_accuracies=tuple(fold_accs),
                status="ok" if len(valid) == len(fold_accs) else "partial",
                error=errors.get(name),
            )
        )
    return rows


def run_kfold(config: ExperimentConfig) -> Report:
    """Rotating k-fold benchmark for every configured k in one report.

    `Report.timings` holds each row's seconds summed over its folds, keyed
    "<row name> (k=<k>)", plus the GA's time.
    """
    if config.split.mode != "kfold":
        raise ConfigError("run_kfold needs split.mode = 'kfold'")
    ds_raw = load_csv(config.dataset.path, config.dataset.schema(), config.dataset.has_header)

    timings = {}
    full_ds = None
    global_mask = None
    ga_note = None
    if config.protocol == "paper_faithful":
        full_ds, _, _ = preprocess_pair(ds_raw, ds_raw, config.preprocessing)
        if config.ga.enabled:
            t0 = time.perf_counter()
            ga_run = ga_mask(config, full_ds, ("global",))
            timings["ga"] = time.perf_counter() - t0
            global_mask = np.flatnonzero(ga_run.best_chromosome)
            ga_note = "GA placement: one global run on the full dataset (leaky)."
    elif config.ga.enabled:
        ga_note = "GA placement: re-run inside every fold's training part."

    kfold_rows = []
    for k in config.split.ks:
        plan = make_folds(ds_raw, k, config.split.stratified,
                          seed=derive_seed(config.master_seed, "kfold", k))
        kfold_rows.extend(
            _kfold_model_rows(config, ds_raw, k, plan, full_ds, global_mask, timings)
        )

    return experiment_report(config, timings, kfold_rows=kfold_rows, ga_note=ga_note)


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
