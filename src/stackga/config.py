"""Experiment configuration: a versioned, human-editable JSON file.

Each section's dataclass is the one statement of its keys and, in their
annotations, of their values (the `ga` section's are GaConfig's, and a
learner's hyperparameters are its class's): parsing, the echo and the hash
derive from its fields. `config_from_dict` reads the file with
`records.from_plain`, which names a bad value as `section.key`, then checks
the rules across fields that no annotation states (the columns, `split.ks`,
something to run, a stack's bases).
`apply_overrides` implements the CLI's repeatable `--set dotted.path=value`
flag, which may only touch keys that already exist in the resolved config.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields, make_dataclass, replace
from typing import Annotated, get_args

from .dataset import Schema
from .errors import ConfigError, DataError
from .genetic import GaConfig
from .learners import LearnerSpec
from .records import Folds, from_plain, require_keys, to_plain
from .report import Protocol, SplitMode
from .rng import derive_seed
from .stacking import Level1FeatureKind, Level1Mode, StackSpec

CONFIG_VERSION = 1

PROTOCOLS = get_args(Protocol)

#: GaConfig fields that each GA run sets (the dataset's width, a derived
#: seed) instead of the config
_GA_RUN_FIELDS = ("n_bits", "seed")

#: field metadata: how to read a value that names a learner or a dataset
#: column (each item, for a list); `section` holds the section's earlier fields
LEARNERS = {"parse": lambda value, where, section: _learner_entry(value, where)}
COLUMNS = {"parse": lambda value, where, section: _column_index(value, section["columns"], where)}


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    columns: tuple[str, ...]
    label_column: int = field(metadata=COLUMNS)
    zero_as_missing: tuple = field(default=(), metadata=COLUMNS)
    has_header: bool = True

    def schema(self) -> Schema:
        return Schema(
            column_names=self.columns,
            label_column=self.label_column,
            missing_as_zero_columns=frozenset(self.zero_as_missing),
        )


@dataclass(frozen=True)
class PreprocessConfig:
    impute: bool = True
    clip: bool = True
    iqr_multiplier: Annotated[float, ("exclusiveMinimum", 0)] = 1.5


@dataclass(frozen=True)
class SplitConfig:
    mode: SplitMode = "holdout"
    train_fraction: Annotated[float, ("exclusiveMinimum", 0), ("exclusiveMaximum", 1)] = 0.7
    ks: tuple[Folds, ...] = (5, 10, 15)
    stratified: bool = True


@dataclass(frozen=True)
class StackSettings:
    enabled: bool = True
    # empty means: the configured benchmark learner list
    base: tuple = field(default=(), metadata=LEARNERS)
    meta: dict = field(default_factory=lambda: {"algorithm": "gradient_boosting",
                                                "hyperparameters": {}}, metadata=LEARNERS)
    level1_mode: Level1Mode = "out_of_fold"
    level1_folds: Folds = 5
    level1_feature_kind: Level1FeatureKind = "probability"


GaSettings = make_dataclass(
    "GaSettings",
    [("enabled", bool, True),
     ("wrapper", dict, field(default_factory=lambda: {"algorithm": "logistic_regression",
                                                      "hyperparameters": {}}, metadata=LEARNERS)),
     ("cv_folds", Folds, 5)]
    + [(f.name, f.type, f.default) for f in fields(GaConfig) if f.name not in _GA_RUN_FIELDS],
    frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "The `ga` section: the wrapper learner and its CV folds, then "
                          "every GaConfig knob but the per-run width and seed."},
)


@dataclass(frozen=True)
class ReportConfig:
    include_timings: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    preprocessing: PreprocessConfig = PreprocessConfig()
    split: SplitConfig = SplitConfig()
    learners: tuple = field(default=(), metadata=LEARNERS)
    stack: StackSettings = StackSettings()
    ga: GaSettings = GaSettings()
    protocol: Protocol = "clean"
    master_seed: int = 0
    report: ReportConfig = ReportConfig()
    version: int = CONFIG_VERSION

    @property
    def ga_run_config(self) -> GaConfig:
        """The `ga` knobs as a GaConfig over every predictor column, seed 0;
        a GA run replaces the width and the seed."""
        knobs = {f.name: getattr(self.ga, f.name) for f in fields(GaConfig)
                 if f.name not in _GA_RUN_FIELDS}
        return GaConfig(n_bits=len(self.dataset.columns) - 1, **knobs)


def _learner_entry(entry, where: str) -> dict:
    if isinstance(entry, str):
        entry = {"algorithm": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an algorithm name or object")
    require_keys(entry, ("algorithm", "hyperparameters"), where)
    if "algorithm" not in entry:
        raise ConfigError(f"{where}: missing 'algorithm'")
    hyperparameters = entry.get("hyperparameters", {})
    if not isinstance(hyperparameters, dict):
        raise ConfigError(f"{where}.hyperparameters must be an object, got {hyperparameters!r}")
    out = {"algorithm": entry["algorithm"], "hyperparameters": dict(hyperparameters)}
    try:
        LearnerSpec(out["algorithm"], out["hyperparameters"])  # check the entry now
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None
    return out


def _column_index(ref, columns, where: str) -> int:
    if isinstance(ref, bool):
        raise ConfigError(f"{where}: expected a column name or index, got {ref!r}")
    if isinstance(ref, int):
        if not 0 <= ref < len(columns):
            raise ConfigError(f"{where}: column index {ref} out of range")
        return ref
    if ref not in columns:
        raise ConfigError(f"{where}: unknown column {ref!r}")
    return columns.index(ref)


def config_from_dict(d: dict) -> ExperimentConfig:
    if isinstance(d, dict) and d.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {d.get('version')!r}")
    cfg = from_plain(ExperimentConfig, d, "")
    if len(cfg.dataset.columns) < 2:
        raise ConfigError(f"dataset.columns must name a label and at least one predictor, "
                          f"got {list(cfg.dataset.columns)!r}")
    try:
        cfg.dataset.schema()
    except DataError as e:
        raise ConfigError(f"dataset: {e}") from None
    if not cfg.split.ks or len(set(cfg.split.ks)) < len(cfg.split.ks):
        raise ConfigError(f"split.ks must list at least one k and none twice, "
                          f"got {list(cfg.split.ks)!r}")
    if not cfg.learners and not cfg.stack.enabled:
        raise ConfigError("config enables no learners and no stack; nothing to run")
    if not (cfg.stack.base or cfg.learners):
        raise ConfigError("stack.base: a stack needs at least one base learner")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict echo of the resolved config (defaults filled in), version first."""
    d = to_plain(cfg)
    return {"version": d.pop("version"), **d}


def learner_spec(entry: dict, seed: int) -> LearnerSpec:
    """The LearnerSpec of a parsed learner entry."""
    return LearnerSpec(entry["algorithm"], dict(entry["hyperparameters"]), seed)


def stack_spec_from_config(config: ExperimentConfig) -> StackSpec:
    """The configured stack; the paper_faithful protocol builds level 1 naively."""
    bases = tuple(
        learner_spec(e, derive_seed(config.master_seed, "stack-base", t))
        for t, e in enumerate(config.stack.base or config.learners)
    )
    spec = StackSpec(
        base_specs=bases,
        meta_spec=learner_spec(config.stack.meta, derive_seed(config.master_seed, "stack-meta")),
        level1_mode=config.stack.level1_mode,
        level1_folds=config.stack.level1_folds,
        level1_feature_kind=config.stack.level1_feature_kind,
        seed=derive_seed(config.master_seed, "stack"),
    )
    return replace(spec, level1_mode="naive") if config.protocol == "paper_faithful" else spec


def config_hash(cfg: ExperimentConfig) -> str:
    """Short fingerprint of the resolved config, printed by every run."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply `key.path=value` pairs onto the raw config dict.

    Paths must name existing keys (list indices allowed); values parse as
    JSON, falling back to bare strings.
    """
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        path, _, raw_value = item.partition("=")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        parts = path.split(".")
        node = out
        for part in parts[:-1]:
            node = node[_slot(node, part, path, f"{part!r} is not a section")]
        node[_slot(node, parts[-1], path, "cannot assign into a scalar")] = value
    return out


def _slot(node, part, path, scalar_error):
    """The key or list index of `node` that the dotted-path part `part`
    names; `scalar_error` says why `node` cannot hold one."""
    if isinstance(node, list):
        try:
            idx = int(part)
        except ValueError:
            raise ConfigError(f"override {path!r}: {part!r} is not a list index") from None
        if not 0 <= idx < len(node):
            raise ConfigError(f"override {path!r}: index {idx} out of range")
        return idx
    if isinstance(node, dict):
        if part not in node:
            raise ConfigError(f"override {path!r}: no such config key {part!r}")
        return part
    raise ConfigError(f"override {path!r}: {scalar_error}")
