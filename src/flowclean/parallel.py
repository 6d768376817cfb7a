"""One pool of forked worker processes for independent items.

train grows blocks of trees on it and clean cleans apps on it. A worker
is started with the `fork` method and inherits the task, and whatever
the task refers to, from the calling process; it is sent only item
indices and sends back the task's results, so those should be small.
`spawn` and `forkserver` are not used because they start helper
processes (the resource tracker and the fork server) that outlive the
pool. A fork copies only the calling thread, so no other thread of the
caller may be needed by a worker.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

# The task of a worker process, set there by _start_worker. The calling
# process never sets it; its serial path calls the task directly.
_task: Callable | None = None


def _start_worker(task: Callable) -> None:
    global _task
    _task = task


def _run(i: int):
    return _task(i)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def fork_map(task: Callable, n_items: int, workers: int) -> list:
    """[task(i) for i in range(n_items)], on up to `workers` processes.

    workers is further capped by n_items and usable_cpus(). With one
    worker, or where the platform cannot fork, the items run in this
    process. Results come back in item order; the first failing item's
    error is raised here, and unstarted items are cancelled. The pool
    is shut down before this returns, so no process outlives the call.
    """
    workers = min(workers, n_items, usable_cpus())
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(i) for i in range(n_items)]
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(task,),
    ) as pool:
        return list(pool.map(_run, range(n_items)))
