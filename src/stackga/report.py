"""Experiment reports: typed rows, canonical JSON, CSV and markdown views.

JSON is the lossless canonical form; `parse_report(render_report(r, "json"))`
reconstructs `r` exactly, and refuses a report whose keys or values do not
fit its fields. Wall-clock timings are carried on the report but
excluded from rendering unless asked for, so rendered bytes are a pure
function of (config, seed).
"""

import json
from dataclasses import dataclass, field, fields
from typing import Annotated, Literal

from .errors import ConfigError
from .records import from_plain, to_plain

REPORT_VERSION = 1

#: compact benchmark-table vocabulary for the report rows
DISPLAY_NAMES = {
    "random_forest": "RF",
    "knn": "KNN",
    "mlp": "MLP",
    "adaboost": "Ada boost",
    "decision_tree": "D tree Classifier",
    "gaussian_nb": "NB",
    "gradient_boosting": "GBC",
    "svm": "SVM",
    "extra_trees": "Extra Tree",
    "logistic_regression": "LR",
}

STACK_ROW_GA = "Suggest Method (ST-GA)"
STACK_ROW_PLAIN = "Suggest Method (ST)"

#: closed sets and ranges of report fields (configs share the first three)
Protocol = Literal["clean", "paper_faithful"]
SplitMode = Literal["holdout", "kfold"]
Folds = Annotated[int, ("minimum", 2)]
Fraction = Annotated[float, ("minimum", 0), ("maximum", 1)]


@dataclass(frozen=True)
class ModelRow:
    name: str
    accuracy: Fraction | None = None
    sensitivity: Fraction | None = None
    specificity: Fraction | None = None
    fscore: Fraction | None = None
    f1: Fraction | None = None
    auc: Fraction | None = None
    status: Literal["ok", "failed"] = "ok"
    error: str | None = None


@dataclass(frozen=True)
class KfoldRow:
    name: str
    k: Folds
    mean_accuracy: Fraction | None = None
    std: Annotated[float, ("minimum", 0)] | None = None
    fold_accuracies: tuple[Fraction | None, ...] = ()
    status: Literal["ok", "partial", "failed"] = "ok"
    error: str | None = None


@dataclass(frozen=True)
class FeatureRow:
    name: str
    single_feature_cv_accuracy: Fraction
    ga_selection_frequency: Fraction
    in_best_mask: bool


@dataclass(frozen=True)
class GaSummary:
    mask: tuple[Literal[0, 1], ...]
    feature_names: tuple[str, ...]
    best_fitness: Fraction
    generations: Annotated[int, ("minimum", 0)]
    evaluations: Annotated[int, ("minimum", 0)]


@dataclass(frozen=True)
class Report:
    kind: SplitMode
    protocol: Protocol
    master_seed: int
    rows: tuple[ModelRow, ...] = ()
    kfold_rows: tuple[KfoldRow, ...] = ()
    ga: GaSummary | None = None
    feature_table: tuple[FeatureRow, ...] = ()
    notes: tuple[str, ...] = ()
    config_echo: dict = field(default_factory=dict)
    timings: dict[str, Annotated[float, ("minimum", 0)]] = None  # never null in JSON
    version: Literal[REPORT_VERSION] = REPORT_VERSION


def report_to_dict(report: Report, include_timings: bool = False) -> dict:
    d = to_plain(report)
    timings = d.pop("timings")
    if include_timings and timings is not None:
        d["timings"] = timings
    return {"version": d.pop("version"), **d}


def _fmt(x, digits=4):
    return "n/a" if x is None else f"{x:.{digits}f}"


def _csv_cell(value) -> str:
    if isinstance(value, tuple):
        return ";".join(_csv_cell(v) for v in value)
    if value is None or isinstance(value, float):
        return _fmt(value, 6)
    return str(value)


def _render_csv(report: Report) -> str:
    """A flat table of the mode's rows: every row field but the error text."""
    kfold = report.kind == "kfold"
    rows, cls = (report.kfold_rows, KfoldRow) if kfold else (report.rows, ModelRow)
    names = [f.name for f in fields(cls) if f.name != "error"]
    lines = [",".join(names)] + [",".join(_csv_cell(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


def _render_markdown(report: Report) -> str:
    lines = [f"# {'K-fold cross-validation' if report.kind == 'kfold' else 'Holdout'} report",
             "", f"protocol: `{report.protocol}` | master seed: {report.master_seed}", ""]
    if report.kind == "kfold":
        ks = sorted({r.k for r in report.kfold_rows})
        names = dict.fromkeys(r.name for r in report.kfold_rows)
        by = {(r.name, r.k): r for r in report.kfold_rows}
        lines.append("| Model | " + " | ".join(f"k={k}" for k in ks) + " |")
        lines.append("|" + "---|" * (len(ks) + 1))
        for name in names:
            cells = [_fmt(by[(name, k)].mean_accuracy) if (name, k) in by else "n/a" for k in ks]
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
    else:
        lines.append("| Model | Accuracy | Sensitivity | Specificity | F-score | F1 | AUC |")
        lines.append("|---|---|---|---|---|---|---|")
        for r in report.rows:
            lines.append(
                f"| {r.name} | {_fmt(r.accuracy)} | {_fmt(r.sensitivity)} | "
                f"{_fmt(r.specificity)} | {_fmt(r.fscore)} | {_fmt(r.f1)} | {_fmt(r.auc)} |"
            )
    if report.ga is not None:
        lines += [
            "",
            f"Selected features ({len(report.ga.feature_names)}): "
            + ", ".join(report.ga.feature_names)
            + f" (wrapper CV accuracy {_fmt(report.ga.best_fitness)})",
        ]
    if report.feature_table:
        lines += ["", "| Feature | Single-feature CV acc | GA selection freq | In best mask |",
                  "|---|---|---|---|"]
        for r in report.feature_table:
            lines.append(
                f"| {r.name} | {_fmt(r.single_feature_cv_accuracy)} | "
                f"{_fmt(r.ga_selection_frequency)} | {'yes' if r.in_best_mask else 'no'} |"
            )
    if report.notes:
        lines += [""] + [f"> {note}" for note in report.notes]
    return "\n".join(lines) + "\n"


def render_report(report: Report, fmt: str, include_timings: bool = False) -> str:
    """Render to "json" (canonical), "csv" (flat table), or "markdown"."""
    if fmt == "json":
        return json.dumps(report_to_dict(report, include_timings), indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ConfigError(f"unknown report format {fmt!r}; use json, csv, or markdown")


def parse_report(text: str) -> Report:
    """Inverse of the JSON rendering. Invalid JSON raises a ValueError, and a
    report of another version, or a bad key or value, a ConfigError that
    names it, e.g. `report.rows[0].accuracy`."""
    d = json.loads(text)
    if isinstance(d, dict) and d.get("version", REPORT_VERSION) != REPORT_VERSION:
        raise ConfigError(f"unsupported report version {d.get('version')!r}")
    return from_plain(Report, d, "report")
