"""The fork pool behind stacking and evaluation: results, failures and
reports do not depend on the number of usable CPUs, and one CPU starts no
process."""

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stackga import parallel
from stackga.cli import main
from stackga.persist import load_artifact
from stackga.errors import ConfigError
from stackga.learners import LearnerSpec
from stackga.parallel import run_tasks, usable_cpus
from stackga.stacking import StackSpec, build_level1_dataset, predict_proba_stack, train_stack

from support import holdout_report
from test_pipeline import light_config_dict

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cpus(monkeypatch):
    """Call with n to make `run_tasks` use n processes, whatever the host has."""
    return lambda n: monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def _square(i):
    return i * i


def _pid_meeting(i, last, flag):
    """Task 0 raises `flag`; the last task waits for it, so whoever runs the
    last task first cannot also be the one to run task 0."""
    if i == 0:
        Path(flag).touch()
    elif i == last:
        deadline = time.monotonic() + 60
        while not Path(flag).exists():
            if time.monotonic() > deadline:
                raise TimeoutError("task 0 never ran")
            time.sleep(0.01)
    return os.getpid()


def _dies_in_a_worker(parent_pid):
    if os.getpid() != parent_pid:
        os._exit(3)
    time.sleep(0.05)


def _fails_at_2_and_4(i, first_error):
    if i == 2:
        time.sleep(0.2)  # a worker reaches task 4's failure first
        raise first_error("task 2 failed")
    if i == 4:
        raise ValueError("task 4 failed")
    return i


def test_usable_cpus_is_positive():
    assert usable_cpus() >= 1


@pytest.mark.parametrize("n", [1, 2, 4])
def test_results_come_in_task_order(cpus, n):
    cpus(n)
    assert run_tasks(_square, [(i,) for i in range(11)]) == [i * i for i in range(11)]


def test_one_cpu_runs_here_and_two_share_tasks_with_a_worker(cpus, tmp_path):
    tasks = [(i, 7, str(tmp_path / "serial")) for i in range(8)]
    cpus(1)
    assert set(run_tasks(_pid_meeting, tasks)) == {os.getpid()}
    tasks = [(i, 7, str(tmp_path / "forked")) for i in range(8)]
    cpus(2)
    pids = run_tasks(_pid_meeting, tasks)
    # this process starts on the last task and waits in it for task 0,
    # which only the worker can then run
    assert pids[-1] == os.getpid()
    assert pids[0] != os.getpid()
    assert len(set(pids)) == 2


def test_a_dead_worker_is_an_error_not_a_hang(cpus):
    cpus(2)
    with pytest.raises(RuntimeError, match="exited with codes \\[3\\]"):
        run_tasks(_dies_in_a_worker, [(os.getpid(),)] * 6)


def test_results_pickle_alike_whichever_process_made_them(cpus):
    # results made in one process would share numpy's dtype object; every
    # result comes through one pickle round trip, so none does
    tasks = [(3,)] * 20
    cpus(1)
    alone = pickle.dumps(run_tasks(np.zeros, tasks))
    cpus(2)
    assert pickle.dumps(run_tasks(np.zeros, tasks)) == alone


@pytest.mark.parametrize("first_error", [ConfigError, ZeroDivisionError])
@pytest.mark.parametrize("n", [1, 2])
def test_lowest_failing_task_is_raised(cpus, n, first_error):
    cpus(n)
    with pytest.raises(first_error) as exc:
        run_tasks(_fails_at_2_and_4, [(i, first_error) for i in range(6)])
    assert type(exc.value) is first_error
    assert str(exc.value) == "task 2 failed"


def _stack_spec():
    bases = (
        LearnerSpec("random_forest", {"n_estimators": 7}, 1),
        LearnerSpec("knn", {}, 2),
        LearnerSpec("decision_tree", {}, 3),
        LearnerSpec("extra_trees", {"n_estimators": 5}, 4),
    )
    return StackSpec(bases, LearnerSpec("logistic_regression", {}, 5),
                     "out_of_fold", level1_folds=4, seed=6)


def test_level1_and_stack_identical_for_one_and_two_cpus(cpus, pima_split_clean):
    tr, te = pima_split_clean
    spec = _stack_spec()
    runs = []
    for n in (1, 2):
        cpus(n)
        runs.append((build_level1_dataset(spec, tr),
                     predict_proba_stack(train_stack(spec, tr), te.features)))
    (l1, p1), (l2, p2) = runs
    assert l1.dataset.features.tobytes() == l2.dataset.features.tobytes()
    np.testing.assert_array_equal(l1.assignments, l2.assignments)
    assert l1.trained_on.keys() == l2.trained_on.keys()
    for fold in l1.trained_on:
        np.testing.assert_array_equal(l1.trained_on[fold], l2.trained_on[fold])
    assert p1.tobytes() == p2.tobytes()


def test_failed_single_model_row_same_under_two_cpus(cpus, pima_csv, tmp_path):
    d = light_config_dict(pima_csv)
    d["learners"] = [
        {"algorithm": "knn", "hyperparameters": {"n_neighbors": 100000}},
        "decision_tree",
    ]
    d["stack"]["base"] = ["decision_tree"]  # a stack that trains
    cpus(1)
    serial = {r.name: r for r in holdout_report(d, tmp_path / "serial").rows}
    cpus(2)
    forked = {r.name: r for r in holdout_report(d, tmp_path / "forked").rows}
    assert forked["KNN"].status == "failed"
    assert forked["KNN"].error == serial["KNN"].error
    assert "n_neighbors" in forked["KNN"].error
    assert forked == serial


def _cfg(tmp_path, d):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    return str(cfg)


def test_train_eval_bytes_do_not_depend_on_cpus(cpus, pima_csv, tmp_path):
    cfg = _cfg(tmp_path, light_config_dict(pima_csv))
    reports, models = [], []
    for n in (1, 2, 3):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(["train", "--config", cfg, "--out", str(out), "-q"]) == 0
        assert main(["eval", "--config", cfg, "--model", str(out / "model.pkl"),
                     "--out", str(out), "-q"]) == 0
        reports.append((out / "report.json").read_bytes())
        models.append((out / "model.pkl").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert models[0] == models[1] == models[2]


def test_model_with_its_singles_same_bytes_on_one_and_two_cpus(cpus, pima_csv, tmp_path):
    d = light_config_dict(pima_csv)
    d["learners"] = ["decision_tree", {"algorithm": "knn",
                                       "hyperparameters": {"n_neighbors": 100000}},
                     "gaussian_nb", "mlp"]
    d["stack"]["base"] = ["gaussian_nb", "decision_tree"]
    cfg = _cfg(tmp_path, d)
    models = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(["train", "--config", cfg, "--out", str(out), "-q"]) == 0
        models.append((out / "model.pkl").read_bytes())
    assert models[0] == models[1]
    singles = load_artifact(tmp_path / "cpus2" / "model.pkl", "stack-bundle")["singles"]
    assert [None if m is None else m.spec.algorithm for m, _ in singles] == \
        ["decision_tree", None, "gaussian_nb", "mlp"]
    assert [e is None for _, e in singles] == [True, False, True, True]
    assert "n_neighbors" in singles[1][1]


def test_xval_report_bytes_do_not_depend_on_cpus(cpus, pima_csv, tmp_path):
    d = light_config_dict(pima_csv)
    d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
    cfg = _cfg(tmp_path, d)
    reports = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(["xval", "--config", cfg, "--out", str(out), "-q"]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_prep_and_one_cpu_train_never_import_multiprocessing(pima_csv, tmp_path):
    cfg = _cfg(tmp_path, light_config_dict(pima_csv))
    script = (
        "import os, sys\n"
        "import stackga.cli\n"
        "assert 'multiprocessing' not in sys.modules, 'import'\n"
        f"assert stackga.cli.main(['prep', '--config', {cfg!r}, '--out', {str(tmp_path)!r},"
        " '-q']) == 0\n"
        "assert 'multiprocessing' not in sys.modules, 'prep'\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"assert stackga.cli.main(['train', '--config', {cfg!r}, '--out', {str(tmp_path)!r},"
        " '-q']) == 0\n"
        "assert 'multiprocessing' not in sys.modules, 'train on one CPU'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
