"""Tabular dataset loading, cleaning, and partitioning.

A `Dataset` is an immutable (features, labels, schema) triple for binary
classification. Cleaning follows the zero-as-missing convention used by the
Pima diabetes data: declared columns treat a literal 0 as a missing
measurement, imputed with the median of the nonzero values.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import child_rng

_QUARTILE_METHOD = "linear"  # interpolation between order statistics; keep fixed


@dataclass(frozen=True)
class Schema:
    """Column layout of a CSV file: names, label position, zero-sentinel columns.

    Indices in `missing_as_zero_columns` refer to positions in `column_names`
    (the raw file layout, label included).
    """

    column_names: tuple
    label_column: int
    missing_as_zero_columns: frozenset = frozenset()

    def __post_init__(self):
        names = tuple(self.column_names)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "missing_as_zero_columns", frozenset(self.missing_as_zero_columns))
        if len(set(names)) != len(names):
            raise DataError("schema column names must be unique")
        if not 0 <= self.label_column < len(names):
            raise DataError(f"label_column {self.label_column} out of range for {len(names)} columns")
        if self.label_column in self.missing_as_zero_columns:
            raise DataError("label column cannot be a zero-as-missing column")
        for c in self.missing_as_zero_columns:
            if not 0 <= c < len(names):
                raise DataError(f"missing_as_zero column {c} out of range")

    @property
    def n_columns(self) -> int:
        return len(self.column_names)

    @property
    def predictor_names(self) -> tuple:
        return tuple(n for i, n in enumerate(self.column_names) if i != self.label_column)

    def feature_index(self, column: int) -> int:
        """Map a raw column index to its position in the feature matrix."""
        if column == self.label_column:
            raise ValueError("label column has no feature index")
        return column if column < self.label_column else column - 1

    @property
    def zero_missing_feature_indices(self) -> tuple:
        return tuple(sorted(self.feature_index(c) for c in self.missing_as_zero_columns))


#: Conventional Pima layout: 8 predictors + binary outcome. The zero-sentinel
#: set (glucose, blood pressure, skinfold, insulin, BMI) is the documented
#: convention for this data; override via Schema if yours differs.
PIMA_SCHEMA = Schema(
    column_names=(
        "pregnancies",
        "glucose",
        "blood_pressure",
        "skinfold",
        "insulin",
        "bmi",
        "pedigree",
        "age",
        "outcome",
    ),
    label_column=8,
    missing_as_zero_columns=frozenset({1, 2, 3, 4, 5}),
)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + binary label vector + schema.

    `row_ids` track provenance back to the originally loaded rows so tests
    can assert that train/test partitions never overlap.
    """

    features: np.ndarray
    labels: np.ndarray
    schema: Schema
    row_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"{X.shape[0]} feature rows but {y.shape[0]} labels")
        if not ((y == 0) | (y == 1)).all():
            raise DataError("labels must all be 0 or 1")
        if X.shape[1] != self.schema.n_columns - 1:
            raise DataError(
                f"schema declares {self.schema.n_columns - 1} predictors, matrix has {X.shape[1]}"
            )
        ids = self.row_ids
        ids = np.arange(X.shape[0]) if ids is None else np.asarray(ids, dtype=np.int64)
        if ids.shape != (X.shape[0],):
            raise DataError("row_ids must have one entry per sample")
        for arr in (X, y, ids):
            arr.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "row_ids", ids)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset, preserving provenance ids."""
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.labels[idx], self.schema, self.row_ids[idx])


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every sample to one of k folds."""

    k: int
    assignments: np.ndarray
    stratified: bool
    seed: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        if self.k < 2:
            raise DataError("k must be at least 2")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise DataError("fold ids must lie in [0, k)")
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def _parse_cell(text: str, line_no: int, col: int, names) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"line {line_no}: column {col + 1} ({names[col]}): cannot parse {text!r} as a number"
        ) from None


def load_csv(path, schema: Schema, has_header: bool = False) -> Dataset:
    """Read a comma-separated file into a raw (uncleaned) Dataset.

    Every row must have exactly the schema's column count and only finite
    numbers; the label column must parse to 0 or 1. Row order is preserved.

    Lines are the file's universal-newline text split at "\\n": "\\n",
    "\\r\\n" and "\\r" end a line, a form feed or a Unicode line separator
    does not. After the header is checked, the data lines are read in one
    `np.loadtxt` call. A file that call refuses (an unparsable cell, a field
    count, a whitespace-only line), or whose table has a label other than
    0/1, a non-finite value or no rows, is read again and parsed line by
    line. That parse accepts what `float` reads, blank lines skipped, or
    raises the error of the first bad line with its line and column.
    """
    first = 2 if has_header else 1
    with open(path, "r", encoding="utf-8") as fh:
        if has_header:
            header = fh.readline()
            if not header:
                raise DataError(f"{path}: empty file")
            header = tuple(cell.strip() for cell in header.split(","))
            if header != schema.column_names:
                raise DataError(
                    f"{path}: header {header!r} does not match schema columns {schema.column_names!r}"
                )
        parsed = _read_clean(fh, schema)
        if parsed is None:
            fh.seek(0)
            parsed = _parse_lines(path, fh.read().split("\n")[first - 1:], first, schema)
    return Dataset(*parsed, schema)


def _read_clean(fh, schema: Schema):
    """(features, labels) of the data lines left in `fh`, read by one
    `np.loadtxt` call; None if it refuses them or they are not clean (a
    field count, a label other than 0/1, a non-finite value, no rows)."""
    try:
        with warnings.catch_warnings():
            # no rows is refused below, and the line-by-line parse says so
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != schema.n_columns:
        return None
    y = table[:, schema.label_column]
    X = np.delete(table, schema.label_column, axis=1)
    if not (((y == 0.0) | (y == 1.0)).all() and np.isfinite(X).all()):
        return None
    return X, y.astype(np.int64)


def _parse_lines(path, lines, first: int, schema: Schema) -> tuple:
    """(features, labels) of the data lines, line by line; the first bad
    line raises its located DataError. `first` is the line number of
    lines[0]."""
    line_no = first - 1
    rows, labels = [], []
    n_cols = schema.n_columns
    for raw in lines:
        line_no += 1
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != n_cols:
            raise DataError(f"line {line_no}: expected {n_cols} fields, found {len(cells)}")
        values = [_parse_cell(c.strip(), line_no, j, schema.column_names) for j, c in enumerate(cells)]
        label = values.pop(schema.label_column)
        if label not in (0.0, 1.0):
            raise DataError(f"line {line_no}: label must be 0 or 1, found {label!r}")
        rows.append(values)
        labels.append(int(label))
    if not rows:
        raise DataError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    # min and max propagate NaN, so both are finite only when every cell is;
    # unlike isfinite(X) this allocates no copy of the matrix
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):
        row, fi = np.argwhere(~np.isfinite(X))[0]
        col = fi if fi < schema.label_column else fi + 1
        line = [n for n, raw in enumerate(lines, start=first) if raw.strip()][row]
        raise DataError(f"line {line}: column {col + 1} ({schema.column_names[col]}): "
                        f"non-finite value {float(X[row, fi])!r}")
    return X, np.array(labels, dtype=np.int64)


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_csv(ds: Dataset, path, header: bool = True) -> None:
    """Write a Dataset back to CSV in the schema's column order.

    Numeric formatting is canonical (ints bare, floats via repr), so writing
    an already-clean file a second time is byte-identical.
    """
    label_col = ds.schema.label_column
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(ds.schema.column_names) + "\n")
        for i in range(ds.n_samples):
            cells = [_format_value(v) for v in ds.features[i]]
            cells.insert(label_col, str(int(ds.labels[i])))
            fh.write(",".join(cells) + "\n")


def nonzero_medians(ds: Dataset) -> dict:
    """Median of the nonzero entries for each declared zero-as-missing column.

    Keyed by feature index. Raises if a declared column is entirely zero.
    """
    medians = {}
    for fi in ds.schema.zero_missing_feature_indices:
        col = ds.features[:, fi]
        nonzero = col[col != 0]
        if nonzero.size == 0:
            name = ds.schema.predictor_names[fi]
            raise DataError(f"column {name!r} is all zeros; no median to impute with")
        medians[fi] = float(np.median(nonzero))
    return medians


def apply_imputation(ds: Dataset, medians: dict) -> tuple:
    """Replace zero sentinels using precomputed medians. Returns (dataset, counts)."""
    X = ds.features.copy()
    counts = {}
    for fi, med in medians.items():
        mask = X[:, fi] == 0
        X[mask, fi] = med
        counts[fi] = int(mask.sum())
    return Dataset(X, ds.labels, ds.schema, ds.row_ids), counts


def impute_median(ds: Dataset) -> Dataset:
    """Impute zero sentinels with each declared column's nonzero median."""
    out, _ = apply_imputation(ds, nonzero_medians(ds))
    return out


def outlier_fences(ds: Dataset, iqr_multiplier: float) -> tuple:
    """Per-feature (low, high, median) clip statistics from this dataset.

    Fences are [Q1 - m*IQR, Q3 + m*IQR] with linear-interpolation quartiles.
    """
    if iqr_multiplier <= 0:
        raise ValueError("iqr_multiplier must be positive")
    q1, q3 = np.percentile(ds.features, [25, 75], axis=0, method=_QUARTILE_METHOD)
    iqr = q3 - q1
    low = q1 - iqr_multiplier * iqr
    high = q3 + iqr_multiplier * iqr
    med = np.median(ds.features, axis=0)
    return low, high, med


def apply_clip(ds: Dataset, fences: tuple) -> tuple:
    """Replace out-of-fence values with the (train) column median.

    Returns (dataset, per-feature replacement counts).
    """
    low, high, med = fences
    X = ds.features.copy()
    outside = (X < low) | (X > high)
    counts = outside.sum(axis=0).astype(int)
    X[outside] = np.broadcast_to(med, X.shape)[outside]
    return Dataset(X, ds.labels, ds.schema, ds.row_ids), counts


def clip_outliers(ds: Dataset, iqr_multiplier: float = 1.5) -> tuple:
    """Clip each feature to its own IQR fence. Returns (dataset, counts)."""
    return apply_clip(ds, outlier_fences(ds, iqr_multiplier))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def shuffle_split(ds: Dataset, train_fraction: float, seed: int) -> tuple:
    """Deterministic shuffled holdout split: (train, test).

    Train size is round-half-up(fraction * n); both partitions must be
    nonempty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = ds.n_samples
    n_train = _round_half_up(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DataError(f"train_fraction {train_fraction} leaves an empty partition for n={n}")
    perm = child_rng(seed, "shuffle-split").permutation(n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


def make_folds(ds: Dataset, k: int, stratified: bool = True, seed: int = 0) -> FoldPlan:
    """Balanced k-fold assignment, optionally stratified on the label.

    One continuous round-robin deal over shuffled rows (positives first when
    stratified) keeps fold sizes within 1 of each other and, when stratified,
    per-fold positive counts within 1 as well.
    """
    n = ds.n_samples
    if k < 2:
        raise DataError("k must be at least 2")
    if k > n:
        raise DataError(f"cannot make {k} folds from {n} samples")
    rng = child_rng(seed, "folds", k)
    assignments = np.empty(n, dtype=np.int64)
    if stratified:
        pos = np.flatnonzero(ds.labels == 1)
        neg = np.flatnonzero(ds.labels == 0)
        order = np.concatenate([rng.permutation(pos), rng.permutation(neg)])
    else:
        order = rng.permutation(n)
    assignments[order] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments, stratified=stratified, seed=seed)


def select_features(ds: Dataset, feature_indices) -> Dataset:
    """Dataset restricted to the given predictor columns (mask application),
    in ascending order, with the label column last; `None` keeps every
    column."""
    if feature_indices is None:
        return ds
    idx = sorted(int(i) for i in feature_indices)
    if not idx:
        raise ValueError("at least one feature must be selected")
    names = ds.schema.predictor_names
    kept = [names[i] for i in idx]
    zero_missing = {
        kept.index(names[i])
        for i in ds.schema.zero_missing_feature_indices
        if i in idx
    }
    schema = Schema(
        column_names=tuple(kept) + (ds.schema.column_names[ds.schema.label_column],),
        label_column=len(kept),
        missing_as_zero_columns=frozenset(zero_missing),
    )
    # C-ordered like every other table, so axis-0 reductions give the same
    # bits whether the mask or the rows were taken first
    return Dataset(ds.features.take(idx, axis=1), ds.labels, schema, ds.row_ids)
