"""One fan-out of independent blocks of numpy work over the process's CPUs.

numpy ufuncs, `cdist` and BLAS release the GIL, so threads over disjoint
blocks of such work run in parallel.  Threads are started for each call and
joined before it returns: no pool or thread outlives a call, and a forked
child has no state to reset.

Work that draws random numbers splits in two: the caller makes every RNG
call first, in the sequential order, and only a pure map of the numbers
drawn (a dependence model's ``from_noise``, AMMD's kernel terms) fans out.
Tasks call only private helpers, never a public function or a ``sample``
method, so that wrappers installed around those from outside see calls
from the calling thread only.
"""

from __future__ import annotations

import os
import threading

# one worker per CPU this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def fan_out(fn, items, buffers=lambda: None) -> list:
    """``[fn(item, buf) for item in items]``, item i in the buffers of task i % n_tasks.

    n_tasks = min(_WORKERS, len(items)); no task, and no thread, for no
    items.  Each task's buffers are made here, on the calling thread, before
    any task starts.  Task 0 runs on the calling thread and the others on
    threads started for this call; all are joined before the call returns.
    The first exception, in task order, is re-raised.  Calls of `fn` must
    write disjoint parts of any shared output, so that the result does not
    depend on n_tasks.
    """
    items = list(items)
    n_tasks = min(_WORKERS, len(items))
    bufs = [buffers() for _ in range(n_tasks)]
    out = [None] * len(items)
    errors = [None] * n_tasks

    def run(w):
        try:
            for i in range(w, len(items), n_tasks):
                out[i] = fn(items[i], bufs[w])
        except Exception as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = []
    try:
        for w in range(1, n_tasks):
            t = threading.Thread(target=run, args=(w,), name=f"mtsgen-par-{w}")
            t.start()
            threads.append(t)
        if n_tasks:
            run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out
