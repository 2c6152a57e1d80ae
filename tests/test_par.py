"""The fan-out helper: threads per call, errors, and its two call sites."""

import threading

import numpy as np
import pytest

from mtsgen import _par, avs
from mtsgen.gmmn import KernelSpec, _TILE, _mmd_grad_wrt_output

_RNG = np.random.default_rng(70)
_PATHS, _X = _RNG.standard_normal((5, 40, 4)), _RNG.standard_normal((5, 4))
_STEP = (*_RNG.random((2, 400, 3)), KernelSpec.for_training())
assert len(range(0, 400, _TILE // 400)) >= 3    # the step has at least 3 tiles

CALLS = {
    "avs": lambda: avs(_PATHS, _X),
    "gmmn_step": lambda: _mmd_grad_wrt_output(*_STEP),
}


def threads_of(call, monkeypatch) -> set:
    """The threads the call's fan-out tasks ran on."""
    ran_on = set()
    fan_out = _par.fan_out

    def spy(task, blocks, buffers):
        def traced(w, n_tasks, bufs):
            ran_on.add(threading.current_thread())
            task(w, n_tasks, bufs)
        fan_out(traced, blocks, buffers)

    monkeypatch.setattr(_par, "fan_out", spy)
    CALLS[call]()
    return ran_on


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_sets_the_threads(call, workers, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", workers)
    ran_on = threads_of(call, monkeypatch)
    assert len(ran_on) == workers
    assert threading.current_thread() in ran_on


def test_no_thread_outlives_avs(monkeypatch):
    # the GMMN step's case is TestTiledStep in test_gmmn.py
    monkeypatch.setattr(_par, "_WORKERS", 3)
    before = set(threading.enumerate())
    ran_on = threads_of("avs", monkeypatch)
    assert set(threading.enumerate()) == before
    assert not [t for t in ran_on if t.is_alive() and t is not threading.current_thread()]


def test_buffers_made_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    made_on = []

    def buffers():
        made_on.append(threading.current_thread())
        return np.zeros(1)

    out = np.zeros(4)

    def task(w, n_tasks, buf):
        out[w] = n_tasks + buf[0]

    _par.fan_out(task, 10, buffers)
    assert made_on == [threading.current_thread()] * 3
    assert np.array_equal(out, [3, 3, 3, 0])


def test_one_task_for_one_block(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    seen = []
    _par.fan_out(lambda w, n, buf: seen.append((w, n)), 1, lambda: None)
    assert seen == [(0, 1)]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_first_error_reraised_after_join(failing, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    before = set(threading.enumerate())
    done = []

    def task(w, n_tasks, buf):
        if w >= failing:
            raise ValueError(f"task {w}")
        done.append(w)

    with pytest.raises(ValueError, match=f"task {failing}"):
        _par.fan_out(task, 3, lambda: None)
    assert sorted(done) == list(range(failing))
    assert set(threading.enumerate()) == before
