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
            "report.json": "4246bb4f6b9dadb2615f617655c61d266d97eac404715a962074e9deba1bafa8",
            "report.md": "be3dcc168e1b9b1315b8b58000fcfadfb8e9826715274f9d906b506d41a743a1",
            "model.pkl": "f0d4911d2e086bef7cc842a3da2888722f80e5050daff561ddf3623509444d02",
        },
    ),
    "paper_faithful": (
        _train_eval(PAPER_FAITHFUL),
        {
            "report.json": "e7d87d222c1a2e4e2c928b9a385668f33c2ab73973cad968e6e4a0160f8ececa",
            "model.pkl": "bf089b420bdbb4e4941aed48629f3eabca186e49ab81bf5cd7e9d4004081d817",
        },
    ),
    "xval_k5": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--out", "{out}", "-q"]],
        {"report.json": "2c50b88900572de68f85f238ae681ca4fa7a1b4c9fdda7eaa5c720f409335fd2"},
    ),
    "xval_k5_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--set",
          "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "6482b8ae05a903b3799fe9349cb29a82562a34430ac2d3040b2baaf447772e5a"},
    ),
    "xval_all_ks_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "b1d53381f7491e897b005c2f36da55c2d3a0d6e507eb83fb8a9cd4e679e72c7d"},
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
        {"report.json": "5715d71d7e84a6303d20d53aa5b771981b47464b47565b23e92a39aab0e163fb"},
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
