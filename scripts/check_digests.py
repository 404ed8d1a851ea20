#!/usr/bin/env python3
"""Check that the shipped configs still produce their pinned output bytes.

Every case below runs through `stackga.cli` in child processes, once with
every usable CPU and once pinned to one CPU (`os.sched_setaffinity` in the
child, so the fits run serially), with BLAS limited to one thread. The
sha256 of each output is compared with the table in this file. The script
lists every mismatch and exits 1, or exits 0 when every digest matches.

    python3 scripts/check_digests.py           # about 30 s on a 2-CPU host
    python3 scripts/check_digests.py --all-ks  # adds the clean full k in
                                               # {5, 10, 15} xval run, about
                                               # a minute more

A change that alters output bytes on purpose updates the table and says why
in CHANGES.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOLDOUT = "configs/pima_holdout.json"
PAPER_FAITHFUL = "configs/pima_paper_faithful.json"
XVAL = "configs/pima_xval.json"


def _train_eval(config):
    return [
        ["train", "--config", config, "--out", "{out}", "-q"],
        ["eval", "--config", config, "--model", "{out}/model.pkl", "--out", "{out}", "-q"],
    ]


#: case -> (commands, {output file: sha256}); "{out}" is the case's output directory
CASES = {
    "holdout": (
        _train_eval(HOLDOUT)
        + [["report", "--report", "{out}/report.json", "--format", "markdown",
            "--out", "{out}", "-q"]],
        {
            "report.json": "922bae63e439214dd186a24788dbcceee25c9cd956d54627c0e6e8e0a27e57ab",
            "report.md": "be3dcc168e1b9b1315b8b58000fcfadfb8e9826715274f9d906b506d41a743a1",
            "model.pkl": "3339f987ae1623f64e2dcb9396a6cbdd9cea7ae0ac01dcda43321768d02fe118",
        },
    ),
    "paper_faithful": (
        _train_eval(PAPER_FAITHFUL),
        {
            "report.json": "d32052ea3a3f896f1eb368553b852b1f99e9072375a57f5806142aced9870704",
            "model.pkl": "a46561b373197ba4e02356eb78ecddd065ae605de268df83d98affc94e70e642",
        },
    ),
    "xval_k5": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--out", "{out}", "-q"]],
        {"report.json": "72c0bbf012e0706d7a17d4408a265d1ae7e60267cb121b06eff77ac4cff2d24d"},
    ),
    "xval_k5_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--set",
          "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "74c987de1d89eaecada28b28d5066e4d05ab3109f553f7b704ab1639fa092978"},
    ),
    "xval_all_ks_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "a92f90ee1f58cca7c1fee9941d86590ca0652e303998f95dbd8f07d25c285c8b"},
    ),
    "select": (
        [["select", "--config", HOLDOUT, "--out", "{out}", "-q"]],
        {
            "mask.json": "870a9e2f9017059d2af655e6b8adb54fc5effe935632dca2facf36f270bbc210",
            "ga_history.csv": "53cb2845a0df4edd0753d833507564b9f358064d7323416385437cbf87f7b436",
            "feature_table.json": "07aae8c0080c59d447c2fbc0ee6a8909b87fd8fcee2016c9c245833909fb1419",
        },
    ),
}

#: the clean full xval run, only with --all-ks
ALL_KS = {
    "xval_all_ks": (
        [["xval", "--config", XVAL, "--out", "{out}", "-q"]],
        {"report.json": "2e1f8a58a75235379e31503d4859c3b2e1bb5f8e5e9cada8379584968f44bf14"},
    ),
}

# sets the child's CPU affinity (when given one) before stackga is imported
_CHILD = """\
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from stackga.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_case(commands, outputs, cpu, workdir):
    """Run one case's commands; returns ({file: sha256}, error text or None)."""
    for argv in commands:
        argv = [a.replace("{out}", str(workdir)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, "" if cpu is None else str(cpu), *argv],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return {}, f"`stackga {' '.join(argv)}` exited {proc.returncode}: " \
                       f"{proc.stderr.strip()[-500:]}"
    digests = {}
    for name in outputs:
        path = Path(workdir) / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return digests, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all-ks", action="store_true",
                        help="also run the clean full k in {5, 10, 15} xval config")
    args = parser.parse_args(argv)
    cases = dict(CASES, **(ALL_KS if args.all_ks else {}))
    one_cpu = min(os.sched_getaffinity(0))
    mismatches = []
    for label, cpu in (("all usable CPUs", None), (f"pinned to CPU {one_cpu}", one_cpu)):
        for case, (commands, expected) in cases.items():
            with tempfile.TemporaryDirectory(prefix="stackga-digests-") as workdir:
                digests, error = run_case(commands, expected, cpu, workdir)
            if error:
                mismatches.append(f"{case} ({label}): {error}")
                print(f"FAIL  {case} ({label}): {error}")
                continue
            for name, want in expected.items():
                got = digests[name]
                ok = got == want
                print(f"{'ok  ' if ok else 'FAIL'}  {case}/{name} ({label}): {got}")
                if not ok:
                    mismatches.append(f"{case}/{name} ({label}): expected {want}, got {got}")
    if mismatches:
        print(f"\n{len(mismatches)} mismatch(es):")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print("\nevery digest matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
