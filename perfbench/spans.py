"""In-memory spans around stackga's public functions, and the per-layer
metrics derived from them.

`install` wraps module attributes from outside the package: `pipeline`,
`stacking`, `genetic` and `cli` import `train`, `predict_proba` and friends by
name, so every `stackga.*` module attribute that *is* a traced function is
replaced by the same wrapper. No file of the package is edited.

A span is a dict: name, start, end (seconds on `time.perf_counter`), parent
(index of the enclosing span, -1 at the root) and attrs (counts measured at
the same boundary). Spans stay in memory and are written out once, at exit.
"""

import functools
import os
import sys
import time

#: the nine benchmark learners plus the GA wrapper / meta learner
ALGORITHMS = (
    "random_forest", "knn", "mlp", "adaboost", "decision_tree",
    "gaussian_nb", "gradient_boosting", "svm", "extra_trees",
    "logistic_regression",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "attrs": attrs})
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, **attrs) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        span = self.spans[idx]
        span["end"] = self.clock()
        span["attrs"].update(attrs)

    def parent(self):
        return self.spans[self._open[-1]] if self._open else None

    def export(self) -> list:
        """Spans with in-memory-only attrs (leading underscore) dropped."""
        return [
            {**s, "attrs": {k: v for k, v in s["attrs"].items() if not k.startswith("_")}}
            for s in self.spans
        ]


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children[i], key=lambda j: spans[j]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# --- instrumentation -------------------------------------------------------

def _algorithm(obj) -> str:
    spec = getattr(obj, "spec", obj)
    return spec.algorithm


def _fit_enter(tracer, args, kwargs):
    parent = tracer.parent()
    if parent is not None and parent["name"] == "stacking.train_stack":
        spec = args[0] if args else kwargs["spec"]
        return {"role": "meta" if spec == parent["attrs"]["_meta"] else "refit"}
    return {}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _ga_counts(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    generations = len(result.history)
    return {
        "generations": generations,
        "evaluations": int(result.evaluations),
        "requests": config.nind * config.subpop * (1 + generations),
    }


def _targets():
    """(module, attribute, span name or name function, enter, leave)."""
    from stackga import (cli, config, dataset, genetic, learners, metrics,
                         persist, pipeline, report, stacking)

    t = [
        (config, "load_config", "config.load_config", None, None),
        (config, "apply_overrides", "config.apply_overrides", None, None),
        (config, "config_from_dict", "config.config_from_dict", None, None),
        (dataset, "load_csv", "dataset.load_csv", None,
         lambda a, k, r: {"rows": int(r.n_samples)}),
        (genetic, "run_ga", "genetic.run_ga", None, _ga_counts),
        (learners, "train", lambda a, k: f"learners.{_algorithm(a[0])}.fit", _fit_enter, None),
        (learners, "predict", lambda a, k: f"learners.{_algorithm(a[0])}.predict", None, None),
        (learners, "predict_proba", lambda a, k: f"learners.{_algorithm(a[0])}.predict",
         None, None),
        (stacking, "build_level1_dataset", "stacking.build_level1_dataset", None, None),
        (stacking, "train_stack", "stacking.train_stack",
         lambda tr, a, k: {"_meta": (a[0] if a else k["spec"]).meta_spec}, None),
        (stacking, "predict_stack", "stacking.predict_stack", None, None),
        (stacking, "predict_proba_stack", "stacking.predict_proba_stack", None, None),
        (persist, "save_artifact", "persist.save_artifact", None, _file_bytes),
        (persist, "load_artifact", "persist.load_artifact", None, _file_bytes),
        (metrics, "roc_curve", "metrics.roc_curve", None, None),
        (report, "render_report", "report.render_report", None,
         lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
        (cli, "main", "cli.main", None, None),
    ]
    for fn in ("nonzero_medians", "apply_imputation", "outlier_fences", "apply_clip",
               "impute_median", "clip_outliers"):
        t.append((dataset, fn, f"dataset.preprocess.{fn}", None, None))
    for fn in ("holdout_partitions", "ga_mask", "stack_spec_from_config", "run_kfold",
               "feature_report"):
        t.append((pipeline, fn, f"pipeline.{fn}", None, None))
    return t


def _wrap(tracer, fn, name, enter, leave):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = enter(tracer, args, kwargs) if enter else {}
        idx = tracer.begin(name(args, kwargs) if callable(name) else name, **attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, error=1)
            raise
        tracer.end(idx, **(leave(args, kwargs, result) if leave else {}))
        return result

    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every traced function wherever stackga binds it; returns the
    number of module attributes replaced."""
    wrappers = {}
    for module, attr, name, enter, leave in _targets():
        fn = getattr(module, attr)
        wrappers[id(fn)] = _wrap(tracer, fn, name, enter, leave)
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if modname != "stackga" and not modname.startswith("stackga."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and callable(value):
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


# --- per-layer metrics -----------------------------------------------------

def layer_metric_names() -> list:
    names = [
        "process.import_s", "process.cpu_s", "process.wall_s",
        "cli.self_s", "config.load_s",
        "dataset.load_csv_s", "dataset.rows_loaded", "dataset.preprocess_s",
        "genetic.run_ga_s", "genetic.self_s", "genetic.generations",
        "genetic.evaluations", "genetic.requests", "genetic.cache_hit_ratio",
        "genetic.s_per_eval",
    ]
    for alg in ALGORITHMS:
        names += [f"learners.{alg}.{m}"
                  for m in ("fit_s", "fit_calls", "predict_s", "predict_calls", "errors")]
    names += [
        "stacking.level1_s", "stacking.level1_fits", "stacking.meta_fit_s",
        "stacking.refit_s", "stacking.predict_s",
        "persist.save_s", "persist.load_s", "persist.artifact_bytes",
        "metrics.roc_s", "report.render_s", "report.bytes", "pipeline.self_s",
    ]
    return names


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("s_per_eval"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "fraction"
    return "count"


def _ancestors(spans, i):
    p = spans[i]["parent"]
    while p >= 0:
        yield p
        p = spans[p]["parent"]


def _outermost(spans, pred) -> list:
    """Spans matching `pred` with no matching ancestor (no double count)."""
    return [i for i, s in enumerate(spans)
            if pred(s["name"]) and not any(pred(spans[a]["name"]) for a in _ancestors(spans, i))]


def layer_metrics(processes) -> dict:
    """Per-layer metrics summed over the traced processes of one run.

    `processes` holds one dict per process: spans (as exported), import_s,
    cpu_s and wall_s.
    """
    m = dict.fromkeys(layer_metric_names(), 0.0)
    for proc in processes:
        spans = proc["spans"]
        selfs = self_times(spans)
        dur = [s["end"] - s["start"] for s in spans]

        def total(pred):
            return sum(dur[i] for i in _outermost(spans, pred))

        def self_of(prefix):
            return sum(t for s, t in zip(spans, selfs) if s["name"].startswith(prefix))

        m["process.import_s"] += proc["import_s"]
        m["process.cpu_s"] += proc["cpu_s"]
        m["process.wall_s"] += proc["wall_s"]
        m["cli.self_s"] += self_of("cli.")
        m["pipeline.self_s"] += self_of("pipeline.")
        m["genetic.self_s"] += self_of("genetic.")
        m["config.load_s"] += total(lambda n: n.startswith("config."))
        m["dataset.load_csv_s"] += total(lambda n: n == "dataset.load_csv")
        m["dataset.preprocess_s"] += total(lambda n: n.startswith("dataset.preprocess."))
        m["genetic.run_ga_s"] += total(lambda n: n == "genetic.run_ga")
        m["stacking.level1_s"] += total(lambda n: n == "stacking.build_level1_dataset")
        m["stacking.predict_s"] += total(lambda n: n.startswith("stacking.predict"))
        m["persist.save_s"] += total(lambda n: n == "persist.save_artifact")
        m["persist.load_s"] += total(lambda n: n == "persist.load_artifact")
        m["metrics.roc_s"] += total(lambda n: n == "metrics.roc_curve")
        m["report.render_s"] += total(lambda n: n == "report.render_report")

        for i, s in enumerate(spans):
            name, attrs = s["name"], s["attrs"]
            if name == "dataset.load_csv":
                m["dataset.rows_loaded"] += attrs.get("rows", 0)
            elif name == "genetic.run_ga":
                for key in ("generations", "evaluations", "requests"):
                    m[f"genetic.{key}"] += attrs.get(key, 0)
            elif name.startswith("persist."):
                m["persist.artifact_bytes"] = max(m["persist.artifact_bytes"],
                                                  attrs.get("bytes", 0))
            elif name == "report.render_report":
                m["report.bytes"] += attrs.get("bytes", 0)
            elif name.startswith("learners."):
                if name.endswith(".fit"):
                    if any(spans[a]["name"] == "stacking.build_level1_dataset"
                           for a in _ancestors(spans, i)):
                        m["stacking.level1_fits"] += 1
                    if attrs.get("role") == "meta":
                        m["stacking.meta_fit_s"] += dur[i]
                    elif attrs.get("role") == "refit":
                        m["stacking.refit_s"] += dur[i]

        for kind in ("fit", "predict"):
            for i in _outermost(spans, lambda n, k=kind: n.startswith("learners.")
                                and n.endswith("." + k)):
                alg = spans[i]["name"].split(".")[1]
                if f"learners.{alg}.errors" in m:
                    m[f"learners.{alg}.{kind}_s"] += dur[i]
                    m[f"learners.{alg}.{kind}_calls"] += 1
                    m[f"learners.{alg}.errors"] += spans[i]["attrs"].get("error", 0)

    if m["genetic.requests"]:
        m["genetic.cache_hit_ratio"] = 1.0 - m["genetic.evaluations"] / m["genetic.requests"]
    if m["genetic.evaluations"]:
        m["genetic.s_per_eval"] = m["genetic.run_ga_s"] / m["genetic.evaluations"]
    return m
