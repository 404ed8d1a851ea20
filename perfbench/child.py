"""One benchmark child process.

    python perfbench/child.py [--spans FILE] cli STACKGA_ARGS...
    python perfbench/child.py [--spans FILE] score --model M --csv C --out DIR
                              [--setup-only]

`cli` runs `stackga.cli.main`, so every CLI call of the benchmark, traced or
not, goes through this one entry point. `score` is the read side of the
learners layer: load a stack artifact, load and clean a CSV, then score it in
batches of BATCH_ROWS rows, writing `proba.npy` and `batches.json`. With
`--setup-only` it stops before the first prediction, which is how the
benchmark times its set-up.

With `--spans`, spans are recorded around stackga's public functions (see
spans.py) and written to FILE as JSON when the process ends.
"""

import argparse
import json
import sys
import time
from pathlib import Path

#: rows per scoring batch
BATCH_ROWS = 1000


def _score(argv) -> int:
    import numpy as np
    from stackga import dataset, persist, stacking

    p = argparse.ArgumentParser(prog="child.py score")
    p.add_argument("--model", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    bundle = persist.load_artifact(args.model, "stack-bundle")
    ds = dataset.load_csv(args.csv, dataset.PIMA_SCHEMA, has_header=True)
    # The artifact carries no training statistics, so the table is cleaned
    # with its own medians and fences.
    ds = dataset.impute_median(ds)
    ds, _ = dataset.clip_outliers(ds)
    if bundle["mask"] is not None:
        ds = dataset.select_features(ds, bundle["mask"])
    if args.setup_only:
        return 0

    stack = bundle["stack_model"]
    X = ds.features
    proba = np.empty((X.shape[0], 2))
    batch_s = []
    for lo in range(0, X.shape[0], BATCH_ROWS):
        hi = min(lo + BATCH_ROWS, X.shape[0])
        t0 = time.perf_counter()
        proba[lo:hi] = stacking.predict_proba_stack(stack, X[lo:hi])
        batch_s.append(time.perf_counter() - t0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "proba.npy", proba)
    (out / "batches.json").write_text(
        json.dumps({"batch_s": batch_s}) + "\n",
        encoding="utf-8",
    )
    return 0


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    t0 = time.perf_counter()
    import stackga.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if mode == "cli":
            return stackga.cli.main(rest)
        if mode == "score":
            return _score(rest)
        print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            Path(spans_path).write_text(
                json.dumps({"import_s": import_s, "spans": tracer.export()}),
                encoding="utf-8",
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
