"""Command-line front end.

Commands: prep, select, train, eval, xval, report. All randomness flows from
the config's master_seed (overridable with --seed); every run prints the seed
and a hash of the resolved config. Exit codes: 0 success, 1 a model failed
at runtime, 2 configuration error, 3 I/O or data error.
"""

import argparse
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from .dataset import load_csv, write_csv
from .errors import ConfigError, DataError
from .genetic import history_to_csv, mask_to_names
from .persist import load_artifact, save_artifact
from .pipeline import (
    GA_REFERENCE_NOTE,
    evaluate_partition,
    experiment_report,
    feature_report,
    ga_mask,
    ga_summary,
    ga_wrapper_spec,
    holdout_partitions,
    preprocess_pair,
    run_kfold,
    stack_spec_from_config,
    train_masked_stack,
)
from .report import parse_report, render_report
from .rng import derive_seed

EXIT_OK = 0
EXIT_MODEL_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's master_seed")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print the GA's search statistics (select, train) and "
                             "the time of each training step (train) or report row "
                             "(eval, xval)")
    common.add_argument("-q", "--quiet", action="store_true", help="errors only")

    parser = argparse.ArgumentParser(
        prog="stackga",
        description="Stacked-ensemble benchmark with GA wrapper feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prep", parents=[common],
                   help="clean the configured dataset; write CSV + summary JSON")
    sub.add_parser("select", parents=[common],
                   help="run GA feature selection; write mask JSON + history CSV")
    sub.add_parser("train", parents=[common],
                   help="train the stacked model on the holdout training part")
    p_eval = sub.add_parser(
        "eval", parents=[common],
        help="evaluate a trained model; write report + ROC CSVs",
        description="Score the stacked model from --model on the holdout test part. "
                    "Only the stack comes from the artifact: the single benchmark "
                    "learners are retrained on the training part on every call.",
    )
    p_eval.add_argument("--model", required=True, help="model artifact from `train`")
    sub.add_parser("xval", parents=[common],
                   help="k-fold benchmark for every configured k")
    p_rep = sub.add_parser("report", help="re-render a JSON report")
    p_rep.add_argument("--report", required=True, help="report JSON produced by eval/xval")
    p_rep.add_argument("--format", required=True, choices=["json", "csv", "markdown"])
    p_rep.add_argument("--out", default="out")
    p_rep.add_argument("-q", "--quiet", action="store_true")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    raw = config_to_dict(cfg)
    if args.overrides:
        raw = apply_overrides(raw, args.overrides)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    return config_from_dict(raw)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _banner(args, cfg: ExperimentConfig) -> None:
    _say(args, f"master_seed={cfg.master_seed} config_hash={config_hash(cfg)}")


def _say_timings(args, timings: dict) -> None:
    if args.verbose:
        for key, seconds in timings.items():
            _say(args, f"{key}: {seconds:.3f}s")


def _say_ga_search(args, cfg: ExperimentConfig, run) -> None:
    """With -v, one line of the GA's search statistics: every fitness request
    that was not an evaluation was a memo-cache hit, and a run that ended
    before `maxgen` was stopped by the stall rule."""
    if args.verbose:
        generations = len(run.history)
        requests = cfg.ga.nind * cfg.ga.subpop * (1 + generations)
        _say(args, f"ga search: generations={generations} evaluations={run.evaluations} "
                   f"requests={requests} cache_hits={requests - run.evaluations} "
                   f"stall_stop={'yes' if generations < cfg.ga.maxgen else 'no'}")


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _write(path: Path, text: str, args) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    _say(args, f"wrote {path}")


def cmd_prep(args) -> int:
    cfg = _resolve_config(args)
    _banner(args, cfg)
    ds = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header)
    cleaned, _, stats = preprocess_pair(ds, ds, cfg.preprocessing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / (Path(cfg.dataset.path).stem + "_clean.csv")
    write_csv(cleaned, csv_path, header=cfg.dataset.has_header)
    names = cleaned.schema.predictor_names
    summary = {
        "rows": cleaned.n_samples,
        "imputed": {names[i]: int(c) for i, c in stats.get("imputed_train", {}).items()
                    if int(c)},
        "clipped": {names[i]: int(c) for i, c in enumerate(stats.get("clipped_train", []))
                    if int(c)},
    }
    _say(args, f"wrote {csv_path}")
    _write(out / "prep_summary.json", json.dumps(summary, indent=2) + "\n", args)
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.ga.enabled:
        raise ConfigError("GA feature selection is disabled in this config (ga.enabled=false)")
    _banner(args, cfg)
    ds = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header)
    cleaned, _, _ = preprocess_pair(ds, ds, cfg.preprocessing)
    run = ga_mask(cfg, cleaned, ("select",))
    _say_ga_search(args, cfg, run)
    out = Path(args.out)
    mask = {
        "selected": mask_to_names(run.best_chromosome, cleaned),
        "mask": [int(b) for b in run.best_chromosome],
        "best_fitness": float(run.best_fitness),
        "generations": len(run.history),
        "evaluations": run.evaluations,
        "reference_note": GA_REFERENCE_NOTE,
    }
    _write(out / "mask.json", json.dumps(mask, indent=2) + "\n", args)
    _write(out / "ga_history.csv", history_to_csv(run), args)
    table = feature_report(cleaned, ga_wrapper_spec(cfg), run, cv_k=cfg.ga.cv_folds,
                           seed=derive_seed(cfg.master_seed, "ga", "select"))
    _write(out / "feature_table.json",
           json.dumps([asdict(r) for r in table], indent=2) + "\n", args)
    _say(args, f"selected {len(mask['selected'])} features: {', '.join(mask['selected'])}")
    return EXIT_OK


def _train_fingerprint(cfg: ExperimentConfig) -> dict:
    d = config_to_dict(cfg)
    d.pop("report")
    return d


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.split.mode != "holdout":
        raise ConfigError("train needs split.mode = 'holdout'")
    if not cfg.stack.enabled:
        raise ConfigError("train needs stack.enabled = true")
    _banner(args, cfg)
    fit_ds, _ = holdout_partitions(cfg)
    ga_run = None
    mask_indices = None
    timings = {}
    if cfg.ga.enabled:
        t0 = time.perf_counter()
        ga_run = ga_mask(cfg, fit_ds, ("holdout",))
        timings["ga"] = time.perf_counter() - t0
        mask_indices = np.flatnonzero(ga_run.best_chromosome)
        _say(args, f"GA selected {len(mask_indices)} features: "
                   f"{', '.join(mask_to_names(ga_run.best_chromosome, fit_ds))}")
        _say_ga_search(args, cfg, ga_run)
    t0 = time.perf_counter()
    stack = train_masked_stack(stack_spec_from_config(cfg), fit_ds, mask_indices)
    timings["stack"] = time.perf_counter() - t0
    _say_timings(args, timings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.pkl"
    save_artifact(
        model_path,
        "stack-bundle",
        {
            "fingerprint": _train_fingerprint(cfg),
            "mask": None if mask_indices is None else [int(i) for i in mask_indices],
            "ga_summary": None if ga_run is None else ga_summary(ga_run, fit_ds),
            "stack_model": stack,
        },
    )
    _say(args, f"wrote {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if cfg.split.mode != "holdout":
        raise ConfigError("eval needs split.mode = 'holdout'")
    bundle = load_artifact(args.model, "stack-bundle")
    ours = _train_fingerprint(cfg)
    theirs = bundle["fingerprint"]
    if ours != theirs:
        differing = sorted(k for k in ours if ours.get(k) != theirs.get(k))
        raise ConfigError(
            f"model {args.model} was trained under a different configuration; "
            f"mismatched sections: {differing}"
        )
    _banner(args, cfg)
    fit_ds, eval_ds = holdout_partitions(cfg)
    [(rows, curves, timings)] = evaluate_partition(cfg, fit_ds, [eval_ds], bundle["mask"],
                                                   stack=bundle["stack_model"])
    report = experiment_report(cfg, timings, rows=rows, ga=bundle["ga_summary"])
    _say_timings(args, timings)
    out = Path(args.out)
    _write(out / "report.json",
           render_report(report, "json", include_timings=cfg.report.include_timings), args)
    for row_name, curve in curves.items():
        _write(out / f"roc_{_slug(row_name)}.csv", curve.to_csv(), args)
    return EXIT_MODEL_FAILURE if any(r.status != "ok" for r in rows) else EXIT_OK


def cmd_xval(args) -> int:
    cfg = _resolve_config(args)
    if cfg.split.mode != "kfold":
        raise ConfigError("xval needs split.mode = 'kfold'")
    _banner(args, cfg)
    report = run_kfold(cfg)
    _say_timings(args, report.timings)
    out = Path(args.out)
    _write(out / "report.json",
           render_report(report, "json", include_timings=cfg.report.include_timings), args)
    bad = any(r.status == "failed" for r in report.kfold_rows)
    return EXIT_MODEL_FAILURE if bad else EXIT_OK


def cmd_report(args) -> int:
    text = Path(args.report).read_text(encoding="utf-8")
    try:
        report = parse_report(text)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"{args.report}: not a report JSON ({e})") from None
    ext = {"json": "json", "csv": "csv", "markdown": "md"}[args.format]
    out = Path(args.out) / f"report.{ext}"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_report(report, args.format), encoding="utf-8")
    if not args.quiet:
        print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "prep": cmd_prep,
    "select": cmd_select,
    "train": cmd_train,
    "eval": cmd_eval,
    "xval": cmd_xval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError, OSError) as e:
        print(f"data/io error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_MODEL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
