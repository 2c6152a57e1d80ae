"""The two maps: the thread fan-out and the fork map of the margin fits."""

import ast
import csv
import ctypes
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mtsgen
from mtsgen import cli, margins, pipeline
from mtsgen import (_par, ArmaGarchParams, AssessConfig, Dataset, GmmnCopula,
                    IndependenceCopula, InputError, MarginalFitResult, MtsModel,
                    NumericalError, PcaTransform, PipelineConfig, QuantileMaps, ammd,
                    arma_garch_simulate, avs, fit_arma_garch, fit_mts, forecast_paths)
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts
from mtsgen.gmmn import KernelSpec, _TILE, _mmd_grad_wrt_output, glorot_init
from test_margins import ORACLE_PARAMS

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
            if any(m.split(".")[0] in ("threading", "concurrent", "multiprocessing")
                   for m in modules):
                importers.add(path.name)
    assert importers == {"_par.py"}


# ---------------------------------------------------------------------------
# the fork map
# ---------------------------------------------------------------------------

def workload_series(d: int, rho: float) -> tuple:
    """The seed-0 series of a gated benchmark workload (perfbench/workloads.py), tau 700."""
    params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05, alpha=[0.1],
                             beta=[0.85], nu=6.0)
    x = simulate_mts([params] * d, GaussianCopulaSampler(equicorrelation(d, rho)), 1000,
                     np.random.default_rng(0))
    return x, 700, (1, 1, 1, 1)


def oracle_series(key: str) -> tuple:
    """test_margins.py's oracle_case series, whole and reversed, fitted in full."""
    p = ORACLE_PARAMS[key]
    x = arma_garch_simulate(p, np.random.default_rng(21).standard_t(6, 5000) / np.sqrt(1.5))
    return np.column_stack([np.append(x, 0.0), np.append(x[::-1], 0.0)]), 5000, p.orders


FIT_SETS = {"gmmn-d5": lambda: workload_series(5, 0.5),
            "pca-d30-boot": lambda: workload_series(30, 0.95),
            **{f"oracle-{key}": lambda key=key: oracle_series(key) for key in ORACLE_PARAMS}}


def dataset(x, tau: int) -> Dataset:
    return Dataset(name="x", times=list(range(len(x))), values=x,
                   columns=[f"c{j}" for j in range(x.shape[1])], transform="none", tau=tau)


SMALL = dataset(simulate_mts([_MARGIN.params] * 3, GaussianCopulaSampler(equicorrelation(3, 0.5)),
                             130, np.random.default_rng(73)), 110)
CFG = PipelineConfig(dependence="independence")


@pytest.fixture(scope="module", params=sorted(FIT_SETS))
def fit_set(request):
    """A dataset, its config and the margins fitted in this process by direct calls."""
    x, tau, orders = FIT_SETS[request.param]()
    want = [fit_arma_garch(x[:tau, j], orders=orders) for j in range(x.shape[1])]
    return dataset(x, tau), PipelineConfig(dependence="independence", orders=orders), want


def fits_in_parent(monkeypatch) -> list:
    """Records each margin fit that fit_mts makes in this process; children record their own."""
    calls, fit = [], pipeline.fit_arma_garch

    def spy(x, **kw):
        calls.append(os.getpid())
        return fit(x, **kw)

    monkeypatch.setattr(pipeline, "fit_arma_garch", spy)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_fits_bit_for_bit(fit_set, workers, monkeypatch):
    ds, cfg, want = fit_set
    monkeypatch.setattr(_par, "_WORKERS", workers)
    in_parent = fits_in_parent(monkeypatch)
    got = fit_mts(cfg, ds).margins
    assert len(in_parent) == (ds.d if workers == 1 else 0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("mu", "phi", "gamma", "omega", "alpha", "beta", "nu"):
            assert np.array_equal(getattr(g.params, name), getattr(w.params, name))
        assert g.loglik == w.loglik and g.converged == w.converged
        for name in ("z_t", "mu_t", "sigma2_t"):
            assert np.array_equal(getattr(g.filter, name), getattr(w.filter, name))


@pytest.mark.parametrize("path", ["forked", "one_worker", "second_thread", "no_fork",
                                  "no_blas_setter"])
def test_which_path_fits_the_margins(path, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 1 if path == "one_worker" else 2)
    if path == "no_fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    if path == "no_blas_setter":
        monkeypatch.setattr(_par, "_blas_setters", list)
    in_parent = fits_in_parent(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if path == "second_thread":
        other.start()
    try:
        fit_mts(CFG, SMALL)
    finally:
        release.set()
        if path == "second_thread":
            other.join(timeout=60)
            assert not other.is_alive()
    assert in_parent == ([] if path == "forked" else [os.getpid()] * SMALL.d)


@pytest.mark.parametrize("constant", [None, 0, 2])
def test_no_child_outlives_fit_mts(constant, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 2)
    in_parent = fits_in_parent(monkeypatch)
    values = SMALL.values.copy()
    if constant is None:
        fit_mts(CFG, SMALL)
    else:
        values[:, constant] = 1.0
        with pytest.raises(NumericalError, match="zero sample variance"):
            fit_mts(CFG, dataset(values, SMALL.tau))
    assert in_parent == []
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1   # the pool's own threads are joined too


@pytest.mark.parametrize("bad", [1.0, np.nan], ids=["constant", "nan"])
def test_child_error_keeps_type_and_message(bad, monkeypatch):
    values = SMALL.values.copy()
    values[:, 1] = bad
    raised = {}
    for workers in (1, 2):
        monkeypatch.setattr(_par, "_WORKERS", workers)
        with pytest.raises((NumericalError, InputError)) as info:
            fit_mts(CFG, dataset(values, SMALL.tau))
        raised[workers] = type(info.value), str(info.value)
    assert raised[2] == raised[1]


def test_child_numerical_error_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_par, "_WORKERS", 2)
    path = tmp_path / "x.csv"
    with open(path, "w", newline="") as fh:
        rows = np.column_stack([SMALL.values[:, :2], np.ones(SMALL.n_obs)])
        csv.writer(fh).writerows([["t", "a", "b", "c"],
                                  *([t, *map(repr, row)] for t, row in enumerate(rows.tolist()))])
    code = cli.main(["fit", "--data", str(path), "--seed", "1", "--tau", str(SMALL.tau),
                     "--out", str(tmp_path / "m.npz")])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: series has zero sample variance\n"
    assert multiprocessing.active_children() == []


def test_first_error_in_item_order_reraised(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 2)

    def fn(i):
        if i == 1:
            time.sleep(0.5)   # item 2 fails first in time
            raise InputError("item 1")
        if i == 2:
            raise NumericalError("item 2")
        return i

    with pytest.raises(InputError, match="item 1"):
        _par.fork_map(fn, range(5))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_fork_map_results_in_item_order(workers, monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", workers)
    out = _par.fork_map(lambda i: (i * i, os.getpid()), range(7))
    assert [sq for sq, _ in out] == [i * i for i in range(7)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) <= workers


def test_children_pin_blas_before_any_work(monkeypatch):
    monkeypatch.setattr(_par, "_WORKERS", 2)
    pinned = []
    monkeypatch.setattr(_par, "_blas_setters", lambda: [pinned.append, pinned.append])
    assert _par.fork_map(lambda i: list(pinned), range(4)) == [[1, 1]] * 4
    assert pinned == []   # the caller's BLAS keeps its threads


@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                    ["blas"]["name"], reason="numpy is not built with OpenBLAS")
def test_openblas_setter_found():
    setters = _par._blas_setters()
    assert setters
    assert len({ctypes.cast(f, ctypes.c_void_p).value for f in setters}) == len(setters)


def test_non_convergence_warnings_from_the_parent_in_margin_order(monkeypatch, caplog):
    monkeypatch.setattr(margins, "_MAXITER", 1)
    records = {}
    for workers in (1, 2):
        monkeypatch.setattr(_par, "_WORKERS", workers)
        in_parent = fits_in_parent(monkeypatch)
        caplog.clear()
        with caplog.at_level("WARNING", logger="mtsgen"):
            fit_mts(CFG, SMALL)
        assert len(in_parent) == (SMALL.d if workers == 1 else 0)
        records[workers] = [(r.name, r.levelname, r.process, r.getMessage())
                            for r in caplog.records]
    assert records[2] == records[1]
    assert [(name, level, pid) for name, level, pid, _ in records[2]] == (
        [("mtsgen.pipeline", "WARNING", os.getpid())] * SMALL.d)
    assert [msg.split(":")[0] for *_, msg in records[2]] == (
        [f"margin {j} (c{j})" for j in range(SMALL.d)])
