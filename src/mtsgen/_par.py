"""Two maps of independent work over the process's CPUs: threads and forked processes.

numpy ufuncs, `cdist` and BLAS release the GIL, so threads over disjoint
blocks of such work run in parallel (`fan_out`).  Work that holds the GIL,
such as the margin MLEs' Python-level optimiser loops, runs in forked
children instead (`fork_map`).  Threads and children are started for each
call and joined before it returns: no pool, thread or process outlives a
call, and a forked child has no state to reset.

Work that draws random numbers splits in two: the caller makes every RNG
call first, in the sequential order, and only a pure map of the numbers
drawn (a dependence model's ``from_noise``, AMMD's kernel terms) fans out.
`fan_out`'s tasks call only private helpers, never a public function or a
``sample`` method, so that wrappers installed around those from outside
see calls from the calling thread only.  What `fork_map`'s children call,
no wrapper in the caller sees.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading

# one worker per CPU this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# OpenBLAS's thread-count setter under the names its builds export
_BLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


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


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` over min(_WORKERS, len(items)) forked children.

    The children inherit `fn` and the items through the fork and are sent
    item indices only.  Each pins OpenBLAS to one thread first: the
    children's BLAS threads would otherwise compete for the CPUs.  Results
    come in item order; the first error in item order is re-raised.  The
    map runs in process when there is one worker, no ``fork``, no OpenBLAS
    setter, or a second live thread, which a fork would leave behind.
    """
    items = list(items)
    n_procs = min(_WORKERS, len(items))
    setters = (_blas_setters() if n_procs > 1 and threading.active_count() == 1
               and "fork" in multiprocessing.get_all_start_methods() else [])
    if not setters:
        return [fn(item) for item in items]
    pool = multiprocessing.get_context("fork").Pool(n_procs, _start_child, (setters, fn, items))
    try:
        return list(pool.imap(_call_child, range(len(items))))
    finally:
        pool.terminate()
        pool.join()


def _blas_setters() -> list:
    """The distinct OpenBLAS thread-count setters of the libraries loaded now."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    setters = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a loaded library
            continue
        for fn in filter(None, (getattr(lib, name, None) for name in _BLAS_SETTERS)):
            fn.argtypes, fn.restype = [ctypes.c_int], None
            setters[ctypes.cast(fn, ctypes.c_void_p).value] = fn
    return list(setters.values())


def _start_child(setters, fn, items) -> None:
    global _job  # set in the forked child only
    for set_threads in setters:
        set_threads(1)
    _job = fn, items


def _call_child(i: int):
    fn, items = _job
    return fn(items[i])
