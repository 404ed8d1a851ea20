"""Deterministic fan-out of independent tasks over forked worker processes.

A task is a module-level function and its arguments. Every task's result
depends only on its arguments (learner seeds come from `derive_seed` tags),
so the results, returned in task order, are the same for any number of
workers. The number of processes is `usable_cpus()`, so an affinity mask
(`taskset -c 0 ...`) is how to run serially. With one usable CPU the tasks
run in a plain loop in this process, which imports no `multiprocessing` and
starts no process.

With more CPUs, this process and one forked worker per further CPU claim
tasks until none is left: the workers from the front of the list, this
process from the back. A caller that puts its longest tasks first thus has
them started early and leaves the short ones to fill in at both ends. The
workers inherit the task list through `fork`, so only results are pickled,
and the calling process does its share of the fits instead of waiting.
Every result, on either path and in whichever process it was made, is
pickled and unpickled once, so it arrives as a fresh object graph and the
bytes of anything that pickles results again (a saved model) do not depend
on the number of CPUs or on which process ran which task.
"""

import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _fresh(result):
    """`result` through one pickle round trip, as a worker's result arrives."""
    return pickle.loads(pickle.dumps(result))


def _outcome(fn, args) -> tuple:
    """(True, result), or (False, the exception): a task's error is returned, not raised."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _claim(ends, from_back: bool = False) -> int:
    """The next unclaimed task index at the front (or back) of the shared
    [front, back] range, or -1 when none is left."""
    with ends.get_lock():
        front, back = ends[0], ends[1]
        if front > back:
            return -1
        if from_back:
            ends[1] = back - 1
            return back
        ends[0] = front + 1
        return front


def _work(fn, tasks, ends, results) -> None:
    """A worker's loop: run the front unclaimed task until none is left."""
    while (i := _claim(ends)) >= 0:
        results.put((i, _outcome(fn, tasks[i])))


def run_tasks(fn, tasks) -> list:
    """`[fn(*t) for t in tasks]`, computed by this process and up to
    `usable_cpus() - 1` forked workers; put the longest tasks first.

    A failing task raises what the serial loop would raise first: the
    exception, with its type and message, of the lowest-index failing task.
    """
    tasks = list(tasks)
    processes = min(usable_cpus(), len(tasks))
    if processes < 2 or not hasattr(os, "fork"):
        return [_fresh(fn(*t)) for t in tasks]
    import multiprocessing
    from queue import Empty

    ctx = multiprocessing.get_context("fork")
    ends = ctx.Array("q", [0, len(tasks) - 2])  # the last task is this process's own
    results = ctx.Queue()
    workers, outcomes = [], {}
    try:
        for _ in range(processes - 1):
            workers.append(ctx.Process(target=_work, args=(fn, tasks, ends, results),
                                       daemon=True))
            workers[-1].start()
        i = len(tasks) - 1
        while i >= 0:
            outcomes[i] = _fresh(_outcome(fn, tasks[i]))
            i = _claim(ends, from_back=True)
        while len(outcomes) < len(tasks):
            exited = all(w.exitcode is not None for w in workers)
            try:
                i, outcome = results.get(timeout=0.5)
            except Empty:
                if exited:  # all they sent has arrived, and a result is missing
                    raise RuntimeError(
                        f"worker processes exited with codes {[w.exitcode for w in workers]} "
                        f"before returning {len(tasks) - len(outcomes)} task results"
                    ) from None
                continue
            outcomes[i] = outcome
    finally:
        for w in workers:
            if len(outcomes) < len(tasks):
                w.terminate()  # abandoned work
            w.join()
    for i in range(len(tasks)):
        ok, value = outcomes[i]
        if not ok:
            raise value
    return [outcomes[i][1] for i in range(len(tasks))]
