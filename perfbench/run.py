"""stackga benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
`stackga` package under `src/`, driven through child.py in child processes.
Workloads (see README.md in this directory): holdout, xval-k5, ga-wide, score.

`--trace 0` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
accuracy); `--trace 1` makes one traced repetition and reports the per-layer
metrics of spans.py. Human-readable lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import BATCH_ROWS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SCHEMA = ROOT / "docs" / "report.schema.json"

#: every child runs with BLAS pinned to this many threads (at most nproc)
BLAS_THREADS = "1"
#: end-to-end metrics, in BENCHMARK.json order: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction"}
#: a run must end within 180 s: a child still running this long after the
#: start is killed, and its operations fail
DEADLINE_S = 170.0
#: the holdout acceptance band for the stacked row
MIN_STACK_ACC = 0.75

_TINY_LEARNERS = 'learners=["gaussian_nb","knn"]'
SIZES = {
    "full": {
        # set-up runs timed before each repetition of the job and after the last
        "setup_probes": 4,
        "holdout_set": [],
        "xval_set": ["split.ks=[5]"],
        # A fixed generation count (no stall stop) keeps the GA's work from
        # swinging with the seed: the stall stop alone gave 31 to 59 generations.
        "ga_wide_set": ["ga.maxgen=40", "ga.stall_generations=40"],
        "ga_noise": 16,
        "ga_rows": 768,
        "score_rows": 100_000,
    },
    # Same code paths on inputs small enough for a test suite.
    "tiny": {
        "setup_probes": 2,
        "holdout_set": ["ga.maxgen=2", "stack.level1_folds=3", _TINY_LEARNERS],
        "xval_set": ["split.ks=[3]", "ga.maxgen=2", "stack.level1_folds=2", _TINY_LEARNERS],
        "ga_wide_set": ["ga.maxgen=2", "ga.stall_generations=2"],
        "ga_noise": 4,
        "ga_rows": 300,
        "score_rows": 2500,
    },
}


class Ctx:
    """One benchmark invocation: where it works and how it runs children."""

    def __init__(self, seed, traced, size, work):
        self.seed = seed
        self.traced = traced
        self.size = SIZES[size]
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        # Children cache bytecode, as an installed package does, whatever the
        # caller's environment says; the warm-up set-up run compiles it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.spans_files = []
        self.deadline = time.monotonic() + DEADLINE_S

    def rel(self, path) -> str:
        return str(Path(path).relative_to(ROOT))

    def _spans_flag(self) -> list:
        path = self.work / f"spans{len(self.spans_files)}.json"
        self.spans_files.append(path)
        return ["--spans", str(path)]

    def child(self, *args, traced=True) -> list:
        """Command line for one child.py process, traced in a traced run."""
        flag = self._spans_flag() if self.traced and traced else []
        return [sys.executable, str(CHILD), *flag, *args]


# --- child processes -------------------------------------------------------

def run_child(argv, ctx) -> dict:
    """Run one child to completion: wall and CPU time, peak RSS, exit code."""
    with open(ctx.work / "stderr.log", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ctx.env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, ctx.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def run_sequence(commands, ctx) -> dict:
    """Run commands in order, stopping at the first failure."""
    procs = []
    for argv in commands:
        procs.append(run_child(argv, ctx))
        if procs[-1]["code"] != 0:
            break
    return {
        "wall_s": sum(p["wall_s"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "ok": len(procs) == len(commands) and procs[-1]["code"] == 0,
        "procs": procs,
    }


# --- output checks ---------------------------------------------------------

def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def schema_errors(report: dict) -> list:
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    validator = jsonschema.Draft7Validator(schema)
    return [e.message for e in validator.iter_errors(report)]


def resolved_config(path, overrides, seed):
    from stackga.config import apply_overrides, config_from_dict, config_to_dict, load_config

    raw = apply_overrides(config_to_dict(load_config(ROOT / path)), overrides)
    raw["master_seed"] = seed
    return config_from_dict(raw)


def check_report(path, rows_key, expected_rows, ok, stack_row_band) -> dict:
    """Checks shared by holdout and xval-k5: one operation per report row."""
    outcome = {"attempted": expected_rows, "failed": expected_rows, "problems": []}
    if not ok:
        outcome["problems"].append("a stackga command exited non-zero")
        return outcome
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = schema_errors(report)
    if errors:
        outcome["problems"].append(f"report.json fails the schema: {errors[0]}")
        return outcome
    from stackga.report import STACK_ROW_GA as STACK_ROW

    rows = report[rows_key]
    if len(rows) != expected_rows:
        outcome["problems"].append(f"{len(rows)} report rows, expected {expected_rows}")
        return outcome
    problems = {r["name"]: f"status {r['status']}" for r in rows if r["status"] != "ok"}
    stack = [r for r in rows if r["name"] == STACK_ROW]
    acc_key = "accuracy" if rows_key == "rows" else "mean_accuracy"
    if not stack:
        problems[STACK_ROW] = "missing"
    elif stack_row_band and not stack[0][acc_key] >= MIN_STACK_ACC:
        problems[STACK_ROW] = f"accuracy {stack[0][acc_key]} < {MIN_STACK_ACC}"
    outcome["problems"] += [f"row {name}: {why}" for name, why in problems.items()]
    outcome["failed"] = len(problems)
    outcome["accuracy"] = stack[0][acc_key] if stack else None
    outcome["report"] = report
    outcome["digest"] = ("report.json sha256", sha256(path))
    return outcome


# --- workloads -------------------------------------------------------------

class CliWorkload:
    """A job made of `stackga` CLI calls; its set-up is timed as `stackga prep`
    with the same config and overrides."""

    def _cli_args(self, ctx, config, overrides):
        self.common = ["--config", config, "--seed", str(ctx.seed), "-q"]
        for item in overrides:
            self.common += ["--set", item]

    def setup_command(self, ctx):
        return ctx.child("cli", "prep", *self.common, "--out", ctx.rel(ctx.work / "probe"),
                         traced=False)


class Holdout(CliWorkload):
    """`stackga train` then `stackga eval` on the shipped holdout config."""

    config = "configs/pima_holdout.json"

    def prepare(self, ctx):
        self.out = ctx.work / "holdout"
        self._cli_args(ctx, self.config, ctx.size["holdout_set"])
        cfg = resolved_config(self.config, ctx.size["holdout_set"], ctx.seed)
        self.attempted = len(cfg.learners) + 1

    def commands(self, ctx):
        out = ctx.rel(self.out)
        return [ctx.child("cli", "train", *self.common, "--out", out),
                ctx.child("cli", "eval", *self.common, "--out", out,
                          "--model", f"{out}/model.pkl")]

    def check(self, ctx, ok):
        o = check_report(self.out / "report.json", "rows", self.attempted, ok, True)
        if "report" in o:
            ga = o["report"]["ga"]
            o["shown"] = {"stack_acc": o["accuracy"], "ga_fitness": ga["best_fitness"],
                          "ga_evaluations": ga["evaluations"]}
        return o


class XvalK5(CliWorkload):
    """`stackga xval` on the shipped k-fold config, k = 5 only."""

    config = "configs/pima_xval.json"

    def prepare(self, ctx):
        self.out = ctx.work / "xval"
        self._cli_args(ctx, self.config, ctx.size["xval_set"])
        cfg = resolved_config(self.config, ctx.size["xval_set"], ctx.seed)
        self.attempted = (len(cfg.learners) + 1) * len(cfg.split.ks)

    def commands(self, ctx):
        return [ctx.child("cli", "xval", *self.common, "--out", ctx.rel(self.out))]

    def check(self, ctx, ok):
        o = check_report(self.out / "report.json", "kfold_rows", self.attempted, ok, False)
        if "report" in o:
            o["shown"] = {"stack_acc": o["accuracy"]}
        return o


class GaWide(CliWorkload):
    """`stackga select` on a seeded 8 + noise column table."""

    def prepare(self, ctx):
        import inputs

        self.out = ctx.work / "ga_wide"
        self.attempted = 1
        data = ctx.work / "ga_wide.csv"
        columns = inputs.write_ga_wide_table(data, ctx.seed, ctx.size["ga_rows"],
                                             ctx.size["ga_noise"])
        cfg = inputs.ga_wide_config(ROOT, ctx.rel(data), columns)
        self.ga = cfg["ga"]
        config = ctx.work / "ga_wide.json"
        inputs.write_json(config, cfg)
        self._cli_args(ctx, ctx.rel(config), ctx.size["ga_wide_set"])

    def commands(self, ctx):
        return [ctx.child("cli", "select", *self.common, "--out", ctx.rel(self.out))]

    def check(self, ctx, ok):
        o = {"attempted": 1, "failed": 1, "problems": []}
        path = self.out / "mask.json"
        if not ok:
            o["problems"].append("stackga select exited non-zero")
            return o
        mask = json.loads(path.read_text(encoding="utf-8"))
        if not mask["selected"]:
            o["problems"].append("the GA selected no feature")
            return o
        requests = self.ga["nind"] * self.ga["subpop"] * (1 + mask["generations"])
        o.update(failed=0, accuracy=mask["best_fitness"], digest=("mask.json sha256", sha256(path)))
        o["shown"] = {"ga_fitness": mask["best_fitness"], "ga_evaluations": mask["evaluations"],
                      "ga_generations": mask["generations"],
                      "ga_cache_hit_ratio": 1.0 - mask["evaluations"] / requests,
                      "selected_features": len(mask["selected"])}
        return o


class Score:
    """Batch scoring with a stack artifact trained once per invocation."""

    def prepare(self, ctx):
        import inputs
        from stackga.synth import make_pima_like

        rows = ctx.size["score_rows"]
        self.csv = ctx.work / "score.csv"
        inputs.write_score_table(self.csv, ctx.seed, rows)
        self.labels = make_pima_like(n=rows, seed=ctx.seed).labels
        self.attempted = -(-rows // BATCH_ROWS)
        self.out = ctx.work / "score"
        fixture = ctx.work / "fixture"
        self.model = fixture / "model.pkl"
        holdout = Holdout()
        holdout.prepare(ctx)
        cmd = ctx.child("cli", "train", *holdout.common, "--out", ctx.rel(fixture), traced=False)
        self.fixture_ok = run_child(cmd, ctx)["code"] == 0

    def _args(self, ctx):
        return ["score", "--model", ctx.rel(self.model), "--csv", ctx.rel(self.csv),
                "--out", ctx.rel(self.out)]

    def setup_command(self, ctx):
        return ctx.child(*self._args(ctx), "--setup-only", traced=False)

    def commands(self, ctx):
        return [ctx.child(*self._args(ctx))]

    def check(self, ctx, ok):
        import numpy as np

        n = len(self.labels)
        o = {"attempted": self.attempted, "failed": self.attempted, "problems": []}
        if not (self.fixture_ok and ok):
            o["problems"].append("fixture training or scoring exited non-zero")
            return o
        proba = np.load(self.out / "proba.npy", allow_pickle=False)
        batch_s = json.loads((self.out / "batches.json").read_text())["batch_s"]
        if proba.shape != (n, 2) or len(batch_s) != self.attempted:
            o["problems"].append(f"scored {proba.shape} in {len(batch_s)} batches, "
                                 f"expected ({n}, 2) in {self.attempted}")
            return o
        bad = 0
        for lo in range(0, n, BATCH_ROWS):
            part = proba[lo:lo + BATCH_ROWS]
            if not (np.isfinite(part).all() and (part >= 0).all() and (part <= 1).all()):
                bad += 1
        if bad:
            o["problems"].append(f"{bad} batches with probabilities outside [0, 1]")
        p50 = statistics.median(batch_s)
        tail = tail_percentile(batch_s)
        o.update(failed=bad, accuracy=float(np.mean((proba[:, 1] > 0.5) == self.labels)),
                 digest=("proba.npy sha256", sha256(self.out / "proba.npy")))
        o["shown"] = {"stack_acc": o["accuracy"], "rows_per_s": n / sum(batch_s),
                      "batch_p50_ms": 1000 * p50, "batches": len(batch_s)}
        if tail is not None:
            o["shown"][f"batch_p{tail[0]}_ms"] = 1000 * tail[1]
        return o


WORKLOADS = {"holdout": Holdout, "xval-k5": XvalK5, "ga-wide": GaWide, "score": Score}


# --- statistics and environment --------------------------------------------

def tail_percentile(samples, beyond: int = 10):
    """(p, value): the highest whole percentile p with at least `beyond`
    samples above its value, or None when there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    pct = (100 * (n - beyond)) // n
    idx = max(0, -(-pct * n // 100) - 1)
    return pct, ordered[idx]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


# --- main ------------------------------------------------------------------

def measure(workload, ctx, seconds):
    """The job, repeated until `seconds` have passed since measuring started
    (exactly once when traced), with a group of set-up runs timed before each
    repetition and after the last, so that `setup_s` samples the whole window.

    Returns the timed set-up runs, the repetitions, and the problems of set-up
    runs, the untimed warm-up included, that exited non-zero."""
    warm_up = run_child(workload.setup_command(ctx), ctx)  # bytecode, file cache
    n_probes = 0 if ctx.traced else ctx.size["setup_probes"]

    def probe_group():
        return [run_child(workload.setup_command(ctx), ctx) for _ in range(n_probes)]

    probes, reps = [], []
    t0 = time.perf_counter()
    while True:
        probes += probe_group()
        shutil.rmtree(workload.out, ignore_errors=True)
        run = run_sequence(workload.commands(ctx), ctx)
        try:
            run["check"] = workload.check(ctx, run["ok"])
        except (OSError, ValueError, KeyError, TypeError) as e:
            run["check"] = {"attempted": workload.attempted, "failed": workload.attempted,
                            "problems": [f"unreadable output: {e!r}"]}
        reps.append(run)
        if ctx.traced or time.perf_counter() - t0 >= seconds:
            break
    probes += probe_group()
    problems = [f"a set-up run exited with code {p['code']}"
                for p in [warm_up, *probes] if p["code"] != 0]
    return probes, reps, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)

    if not (SRC / "stackga" / "__init__.py").is_file():
        print(f"perfbench: no stackga package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(args.seed, bool(args.trace), args.size, work)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(ctx)
        probes, reps, setup_problems = measure(workload, ctx, args.seconds)
        result = summarize(args, ctx, probes, reps, setup_problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (ROOT / ".bench_work").rmdir()
    print(json.dumps(result))
    return 0


def summarize(args, ctx, probes, reps, setup_problems=()) -> dict:
    checks = [r["check"] for r in reps]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    problems = [*setup_problems, *(p for c in checks for p in c["problems"])]
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} reps={len(reps)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"FAILED CHECK: {problem}")

    last = checks[-1]
    lines = {"error_rate": (failed / attempted, f"({failed}/{attempted} operations)")}
    if args.trace:
        import spans

        processes = []
        for path, proc in zip(ctx.spans_files, reps[0]["procs"]):
            if not path.is_file():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            processes.append({**data, "cpu_s": proc["cpu_s"], "wall_s": proc["wall_s"]})
        layer = spans.layer_metrics(processes)
        metrics = {name: {"value": value, "unit": spans.layer_unit(name)}
                   for name, value in layer.items()}
        for name, value in layer.items():
            if value:
                lines[name] = (value, spans.layer_unit(name))
    else:
        accuracy = [c["accuracy"] for c in checks if c.get("accuracy") is not None]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "accuracy": statistics.median(accuracy) if accuracy else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        counts = {"wall_s": f"median of {len(reps)} runs",
                  "setup_s": f"median of {len(probes)} set-up runs",
                  "peak_rss_mb": f"median of {len(reps)} runs",
                  "accuracy": "median over runs"}
        for name, unit in END_TO_END.items():
            lines[name] = (values[name], f"{unit}  {counts[name]}")
        lines["cpu_s"] = (statistics.median(r["cpu_s"] for r in reps), "s  CPU time of the job")
        for name, value in last.get("shown", {}).items():
            lines[name] = (value, "")
    if "digest" in last:
        lines[last["digest"][0]] = (last["digest"][1], "")
    for name, (value, note) in lines.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {note}")

    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
