"""Command-line front end.

Commands: prep, select, train, eval, xval, report. All randomness flows from
the config's master_seed (overridable with --seed); every run prints the seed
and a hash of the resolved config. Exit codes: 0 success, 1 a model failed
at runtime, 2 configuration error, 3 I/O or data error.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

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
from .genetic import history_to_csv, mask_to_names, table_best
from .persist import load_artifact, save_artifact
from .pipeline import (
    GA_REFERENCE_NOTE,
    GroupFit,
    error_text,
    evaluate_partition,
    experiment_report,
    feature_report,
    ga_mask,
    ga_summary,
    ga_wrapper_spec,
    holdout_partitions,
    preprocess_pair,
    run_kfold,
    single_names,
    train_group,
)
from .records import to_plain
from .report import parse_report, render_report
from .rng import derive_seed

EXIT_OK = 0
EXIT_MODEL_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: the keys of the payload that `train` saves and `eval` loads
_BUNDLE_KEYS = ("fingerprint", "mask", "ga_summary", "stack_model", "singles")


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
                   help="train the stacked model and the single benchmark learners "
                        "on the holdout training part")
    p_eval = sub.add_parser(
        "eval", parents=[common],
        help="evaluate a trained model; write report + ROC CSVs",
        description="Score the stacked model and the single benchmark learners from "
                    "--model on the holdout test part. Nothing is trained: every model, "
                    "or the error that stopped its training, comes from the artifact.",
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
    """Print `message` unless -q. A closed standard output (its reader has
    gone) is pointed at os.devnull, and the command goes on as it would."""
    if not args.quiet:
        try:
            print(message, flush=True)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _banner(args, cfg: ExperimentConfig) -> None:
    _say(args, f"master_seed={cfg.master_seed} config_hash={config_hash(cfg)}")


def _say_timings(args, timings: dict, notes=None) -> None:
    """With -v, one `<key>: <seconds>s` line per timing, followed by its
    entry of `notes`, if any."""
    if args.verbose:
        for key, seconds in timings.items():
            _say(args, f"{key}: {seconds:.3f}s{(notes or {}).get(key, '')}")


def _convergence_note(model) -> str:
    """` (<note>)` when a trained single's model has a `convergence_note`
    (an iterative solver that can stop at its limit) and it is not empty."""
    note = getattr(None if model is None else model.impl, "convergence_note", None)
    text = "" if note is None else note()
    return f" ({text})" if text else ""


def _say_ga_search(args, cfg: ExperimentConfig, run) -> None:
    """With -v, one line of the GA's search statistics: every fitness request
    that was not an evaluation was a memo-cache hit, and a run that ended
    before `maxgen` was stopped by the stall rule. A run that filled the mask
    table also says how many masks tie at the table's best fitness and
    whether the GA's mask is the table's best."""
    if args.verbose:
        generations = len(run.history)
        requests = cfg.ga.nind * cfg.ga.subpop * (1 + generations)
        table = ""
        if run.table is not None:
            best, ties = table_best(run.table, len(run.best_chromosome))
            table = (f" table={run.table.size} best_ties={ties} "
                     f"ga_is_best={'yes' if (best == run.best_chromosome).all() else 'no'}")
        _say(args, f"ga search: generations={generations} evaluations={run.evaluations} "
                   f"requests={requests} cache_hits={requests - run.evaluations} "
                   f"stall_stop={'yes' if generations < cfg.ga.maxgen else 'no'}{table}")


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
           json.dumps(to_plain(table), indent=2) + "\n", args)
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
    fit = train_group(cfg, fit_ds, ("holdout",))
    stack, stack_seconds, error = fit.stack
    if error is not None:
        raise error  # the failed search's or the stack's own; its type sets the exit code
    timings = {}
    if fit.ga is not None:
        ga_run, timings["ga"], _ = fit.ga
        _say(args, f"GA selected {len(fit.mask)} features: "
                   f"{', '.join(mask_to_names(ga_run.best_chromosome, fit_ds))}")
        _say_ga_search(args, cfg, ga_run)
    notes = {}
    for name, (model, seconds, _) in zip(single_names(cfg), fit.singles):
        timings[f"{name} fit"] = seconds
        notes[f"{name} fit"] = _convergence_note(model)
    timings["stack"] = stack_seconds
    _say_timings(args, timings, notes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.pkl"
    save_artifact(
        model_path,
        "stack-bundle",
        {
            "fingerprint": _train_fingerprint(cfg),
            "mask": None if fit.mask is None else [int(i) for i in fit.mask],
            "ga_summary": None if fit.ga is None else ga_summary(fit.ga[0], fit_ds),
            "stack_model": stack,
            # (model or None, error text or None) per configured learner
            "singles": [(model, None if error is None else error_text(error))
                        for model, _, error in fit.singles],
        },
    )
    _say(args, f"wrote {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if cfg.split.mode != "holdout":
        raise ConfigError("eval needs split.mode = 'holdout'")
    bundle = load_artifact(args.model, "stack-bundle")
    if set(bundle) != set(_BUNDLE_KEYS):
        missing = [k for k in _BUNDLE_KEYS if k not in bundle]
        extra = sorted(repr(k) for k in bundle if k not in _BUNDLE_KEYS)
        raise ConfigError(f"{args.model}: not a stack bundle (missing keys {missing}, "
                          f"unexpected keys [{', '.join(extra)}]); retrain it with this "
                          "version of stackga")
    ours = _train_fingerprint(cfg)
    theirs = bundle["fingerprint"]
    if ours != theirs:
        differing = sorted(k for k in ours if ours.get(k) != theirs.get(k))
        raise ConfigError(
            f"model {args.model} was trained under a different configuration; "
            f"mismatched sections: {differing}"
        )
    _banner(args, cfg)
    _, eval_ds = holdout_partitions(cfg)
    fit = GroupFit(singles=tuple((model, 0.0, error) for model, error in bundle["singles"]),
                   stack=(bundle["stack_model"], 0.0, None), mask=bundle["mask"])
    [(rows, curves, timings)] = evaluate_partition(cfg, fit, [eval_ds])
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
    except (ConfigError, ValueError) as e:
        raise ConfigError(f"{args.report}: not a report JSON ({e})") from None
    ext = {"json": "json", "csv": "csv", "markdown": "md"}[args.format]
    _write(Path(args.out) / f"report.{ext}", render_report(report, args.format), args)
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
