"""The fan-out helper: threads per call, errors, and its call sites."""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

import mtsgen
from mtsgen import (_par, ArmaGarchParams, AssessConfig, GmmnCopula, IndependenceCopula,
                    MarginalFitResult, MtsModel, PcaTransform, QuantileMaps, ammd, avs,
                    forecast_paths)
from mtsgen.gmmn import KernelSpec, _TILE, _mmd_grad_wrt_output, glorot_init

_RNG = np.random.default_rng(70)
_PATHS, _X = _RNG.standard_normal((5, 40, 4)), _RNG.standard_normal((5, 4))
_STEP = (*_RNG.random((2, 400, 3)), KernelSpec.for_training())
assert len(range(0, 400, _TILE // 400)) >= 3    # the step has at least 3 tiles
_U = _RNG.random((30, 3))
_GMMN = GmmnCopula(glorot_init((3, 8, 3), _RNG))
_NOISE = [_RNG.standard_normal((20, 3)) for _ in range(3)]
_MARGIN = MarginalFitResult(ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.1], omega=0.05,
                                            alpha=[0.1], beta=[0.8], nu=6.0),
                            filter=None, loglik=0.0, converged=True)
_MODEL = MtsModel(margins=[_MARGIN] * 3, pca=PcaTransform.identity(3),
                  dependence=IndependenceCopula(3),
                  quantile_maps=QuantileMaps.scaled_t([6.0] * 3), tau=50)

# Each call makes one fan-out of at least 3 blocks.
CALLS = {
    "avs": lambda: avs(_PATHS, _X),
    "gmmn_step": lambda: _mmd_grad_wrt_output(*_STEP),
    "ammd": lambda: ammd(_U, IndependenceCopula(3), AssessConfig(n_rep=3),
                         np.random.default_rng(71)),
    "paths": lambda: forecast_paths(_MODEL, _X[:, :3], 10, 2, np.random.default_rng(72)),
    "gmmn_draws": lambda: _GMMN.from_noise(_NOISE),
}
# Where each fan-out is called: module and enclosing function, and its entry in CALLS.
SITES = {
    "assess.vs_per_step": "avs",
    "gmmn._mmd_grad_wrt_output": "gmmn_step",
    "assess.ammd": "ammd",
    "forecast._paths": "paths",
    "gmmn.GmmnCopula.from_noise": "gmmn_draws",
}
SOURCES = sorted(Path(mtsgen.__file__).parent.glob("*.py"))


def threads_of(call, monkeypatch) -> set:
    """The threads the call's fan-out tasks ran on."""
    ran_on = set()
    fan_out = _par.fan_out

    def spy(fn, items, buffers=lambda: None):
        def traced(item, buf):
            ran_on.add(threading.current_thread())
            return fn(item, buf)
        return fan_out(traced, items, buffers)

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
        return len(made_on) - 1   # the task the buffers are for

    out = _par.fan_out(lambda item, buf: (item, buf), range(10), buffers)
    assert made_on == [threading.current_thread()] * 3
    assert out == [(i, i % 3) for i in range(10)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_item_order_in_task_buffers(workers, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", workers)
    made = []

    def buffers():
        made.append([])
        return made[-1]

    def fn(item, buf):
        buf.append(item)
        return item * item, threading.current_thread()

    out = _par.fan_out(fn, range(7), buffers)
    assert [sq for sq, _ in out] == [i * i for i in range(7)]
    # item i ran in task i % n_tasks's buffers, on one thread per task
    assert made == [list(range(w, 7, workers)) for w in range(workers)]
    assert len({t for _, t in out}) == workers
    assert {t for i, (_, t) in enumerate(out) if i % workers == 0} == {threading.current_thread()}


def test_no_items_start_no_thread(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    started = []
    monkeypatch.setattr(_par.threading, "Thread", lambda *a, **kw: started.append(a))

    def buffers():
        raise AssertionError("buffers made for no items")

    assert _par.fan_out(lambda item, buf: item, [], buffers) == []
    assert started == []


def test_one_task_for_one_block(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    seen = []
    assert _par.fan_out(lambda item, buf: seen.append(threading.current_thread()), [7]) == [None]
    assert seen == [threading.current_thread()]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_first_error_reraised_after_join(failing, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 3)
    before = set(threading.enumerate())
    done = []

    def fn(item, buf):
        if item >= failing:
            raise ValueError(f"task {item}")
        done.append(item)

    with pytest.raises(ValueError, match=f"task {failing}"):
        _par.fan_out(fn, range(3))
    assert sorted(done) == list(range(failing))
    assert set(threading.enumerate()) == before


def fan_out_sites(tree: ast.Module, module: str) -> list:
    """module.qualname of the function that encloses each `_par.fan_out(` call."""
    sites = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, names + [child.name])
                continue
            func = getattr(child, "func", None)
            if (isinstance(func, ast.Attribute) and func.attr == "fan_out"
                    and isinstance(func.value, ast.Name) and func.value.id == "_par"):
                sites.append(".".join([module, *names]))
            visit(child, names)

    visit(tree, [])
    return sites


def test_every_fan_out_site_has_a_call():
    sites = [site for path in SOURCES
             for site in fan_out_sites(ast.parse(path.read_text()), path.stem)]
    assert sorted(sites) == sorted(SITES)
    assert sorted(SITES.values()) == sorted(CALLS)


def test_only_par_imports_threads():
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("threading", "concurrent") for m in modules):
                importers.add(path.name)
    assert importers == {"_par.py"}
