#!/usr/bin/env python3
"""Check that the shipped configs still produce their pinned output bytes.

Every case below runs through `stackga.cli` in child processes, once with
every usable CPU and once pinned to one CPU (`os.sched_setaffinity` in the
child, so the fits run serially), with BLAS limited to one thread. The
sha256 of each output is compared with the table in this file. The script
lists every mismatch and exits 1, or exits 0 when every digest matches.

    python3 scripts/check_digests.py           # about 40 s on a 2-CPU host
    python3 scripts/check_digests.py --all-ks  # adds the clean full k in
                                               # {5, 10, 15} xval run, about
                                               # a minute more

A change that alters output bytes on purpose updates the table and says why
in CHANGES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOLDOUT = "configs/pima_holdout.json"
PAPER_FAITHFUL = "configs/pima_paper_faithful.json"
XVAL = "configs/pima_xval.json"


def _write_wide(out):
    """`wide.csv`, the shipped table with 8 seeded N(0, 1) noise columns
    before its label (16 features), and `wide.json`, the holdout config on
    it with a short GA, both written to the case's directory `out`."""
    import numpy as np

    lines = (ROOT / "data/pima_like.csv").read_text(encoding="utf-8").splitlines()
    noise = np.random.default_rng(16).normal(size=(len(lines) - 1, 8))
    rows = [line.rsplit(",", 1) for line in lines]
    extra = [[f"noise{j}" for j in range(8)]] + [[repr(v) for v in row] for row in noise.tolist()]
    Path(out, "wide.csv").write_text(
        "".join(f"{head},{','.join(cols)},{label}\n" for (head, label), cols in zip(rows, extra)),
        encoding="utf-8")
    config = json.loads((ROOT / HOLDOUT).read_text(encoding="utf-8"))
    columns = config["dataset"]["columns"]
    config["dataset"]["columns"] = columns[:-1] + extra[0] + columns[-1:]
    config["dataset"]["path"] = str(Path(out, "wide.csv"))
    config["ga"]["maxgen"] = 8
    Path(out, "wide.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def _train_eval(config):
    return [
        ["train", "--config", config, "--out", "{out}", "-q"],
        ["eval", "--config", config, "--model", "{out}/model.pkl", "--out", "{out}", "-q"],
    ]


#: case -> (commands, {output file: sha256}); "{out}" is the case's output
#: directory, and a command that is a function is called with it instead
CASES = {
    "holdout": (
        _train_eval(HOLDOUT)
        + [["report", "--report", "{out}/report.json", "--format", "markdown",
            "--out", "{out}", "-q"]],
        {
            "report.json": "0fc869e9330eb0c608c9bc8b868fcdaee9df62b77f1306594879559f1e9bb0df",
            "report.md": "67d595ea4efb3779e1b4c540a62beb31264ce0cb480240615849015a47d3c84d",
            "model.pkl": "2ecc705cdb91941daf74a2a407ee11991a7bf8c3c750a23abcaf75e603f2b760",
        },
    ),
    "paper_faithful": (
        _train_eval(PAPER_FAITHFUL),
        {
            "report.json": "f3201aacbdfe5610ed2baf753593cd191be205fc1bde9a42a6906d428b50b1de",
            "model.pkl": "c34774e622de6924e698c9ecd613df57a9881306b134d2f69bbc618f35c613a9",
        },
    ),
    "xval_k5": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--out", "{out}", "-q"]]
        + [["report", "--report", "{out}/report.json", "--format", fmt, "--out", "{out}", "-q"]
           for fmt in ("markdown", "csv")],
        {
            "report.json": "41f9907613fb6d222905c794a970df03a138b88c32883ec75ee5ed3bab9c84f0",
            "report.md": "dde90439623287750935135fb77572d1edc3523745cdd98bb642504cb51e47b9",
            "report.csv": "2b786f434efc6938103a998c4f3b47940a2c7c077b5f223466af3af6d9e8a7b9",
        },
    ),
    "xval_k5_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "split.ks=[5]", "--set",
          "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "ae5a654e48fbfe08a611caabb0dad408b017386b42fc553f89a5ccdfcf752d0f"},
    ),
    "xval_all_ks_paper_faithful": (
        [["xval", "--config", XVAL, "--set", "protocol=paper_faithful", "--out", "{out}", "-q"]],
        {"report.json": "4f0e56181493e79433bd4bbdafc7bbffd774db931575af14dd47a3bf9170db4c"},
    ),
    "select": (
        [["select", "--config", HOLDOUT, "--out", "{out}", "-q"]],
        {
            "mask.json": "870a9e2f9017059d2af655e6b8adb54fc5effe935632dca2facf36f270bbc210",
            "ga_history.csv": "53cb2845a0df4edd0753d833507564b9f358064d7323416385437cbf87f7b436",
            "feature_table.json": "07aae8c0080c59d447c2fbc0ee6a8909b87fd8fcee2016c9c245833909fb1419",
        },
    ),
    # a wrapper without stacked fits: every fold fit runs a table at a time
    "select_gaussian_nb": (
        [["select", "--config", HOLDOUT, "--set", 'ga.wrapper={"algorithm": "gaussian_nb"}',
          "--set", "ga.maxgen=10", "--out", "{out}", "-q"]],
        {
            "mask.json": "2456a1b73ef86d1ff1ad82c1913b665bad6b15c79a068c749a2781d2ecdeacb5",
            "ga_history.csv": "5b3328af51f96873118850b20ce4caa7c52a9183f1dde89b9f4d70d9eb98508c",
            "feature_table.json": "b7e2b2f41c0b6cb71b630085ec91521b18b9b8c948020c9c3089e346dec9a8cc",
        },
    ),
    # 16 features: more than the GA scores as one table, so its searches run a
    # generation at a time
    "select_wide": (
        [_write_wide, ["select", "--config", "{out}/wide.json", "--out", "{out}", "-q"]],
        {
            "mask.json": "abcf56d6333b301a45b27e38b632ebf2ed518cd95cdd2f4e74b218d12d099672",
            "ga_history.csv": "da8f40b143bf8ec1a9e2cef3f5319c6477100180e8d84cb43d92af474aa866ba",
            "feature_table.json": "7f623676237916677102f14421372a60e7f14626eb4525cc31dcd4d3adac3687",
        },
    ),
}

#: the clean full xval run, only with --all-ks
ALL_KS = {
    "xval_all_ks": (
        [["xval", "--config", XVAL, "--out", "{out}", "-q"]],
        {"report.json": "7c6cf6335b1cd8c005f39bbad519baecc9f71284368ee044d967d7769b354e3d"},
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
        if callable(argv):
            argv(workdir)
            continue
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
