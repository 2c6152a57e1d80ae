"""One workload in one fresh process: set up its inputs, then time, check and trace it.

run.py starts this script once per workload, so the process's peak RSS is the
workload's own, and a few more times with --setup-only to sample set-up time.
The script writes its findings as JSON to --result; it prints nothing that
run.py parses.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR --result FILE
              [--setup-only]

Untraced calls time the user-facing entry points: fit_mts and
run_pipeline(cfg, ds, model=...) for API workloads, mtsgen.cli.main for
`bootstrap --out` and `assess --model` otherwise.  With --trace 1, one more
fit and eval run traced and record spans (tracing.py), from which the
per-layer metrics come.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = workloads.ROOT

DEFAULT_SEED = 0
# Relative tolerance against the stored reference table.  It admits the
# last-place drift of reordered floating-point sums (about 1e-15 relative,
# amplified a few orders by the filter recursions) and catches any change of
# an RNG stream, which moves every metric by far more than 1e-9.
REFERENCE_RTOL = 1e-9
# The layers' self times must add up to the timed entry-point calls within
# this share; the rest is the wrappers' own time outside any span.
SELF_TIME_SLACK = 0.02
# A run's planned calls may overrun --seconds by this share of it.
PLAN_SLACK = 0.1
# reference_work samples a set-up-only process takes after set-up.
SETUP_REFERENCE_SAMPLES = 2


def reference_work() -> float:
    """Seconds this process takes for a fixed mix of the kinds of work mtsgen
    does: interpreted Python, numpy calls on small arrays in a Python loop,
    and elementwise numpy and a matrix product on 3 MB arrays.  The timed
    part allocates no large array, so it measures the processor rather than
    the state of the heap.  It runs no mtsgen code, so a change to mtsgen
    leaves it alone; it tracks how fast the machine runs now.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    rows, big = rng.standard_normal((20_000, 30)), rng.standard_normal((1000, 400))
    tmp, prod = np.empty_like(big), np.empty((1000, 1000))
    start = time.perf_counter()
    x = 0.0
    for k in range(1_200_000):
        x = x * 0.999 + (k % 7)
    h = np.zeros(30)
    for row in rows:
        h = 0.9 * h + 0.1 * row * row
    for _ in range(6):
        np.multiply(big, big, out=tmp)
        np.exp(np.negative(tmp, out=tmp), out=tmp).sum()
        np.matmul(big, big.T, out=prod).trace()
    return time.perf_counter() - start


class Ops:
    """Counts operations (timed entry-point calls and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def timed(self, name, call):
        """Run and time one entry-point call; an exception is a failed operation."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # recorded with its reason; the run still reports
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return out, time.perf_counter() - start

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name}: {detail}")
        return ok


def run_cli(argv):
    from mtsgen import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code


@contextlib.contextmanager
def capture_paths(seen: dict):
    """Record the shape of the paths run_pipeline returns inside `mtsgen assess`."""
    from mtsgen import cli
    inner = cli.run_pipeline

    def probe(*args, **kwargs):
        result = inner(*args, **kwargs)
        seen["shape"] = result.paths.shape
        return result

    cli.run_pipeline = probe
    try:
        yield
    finally:
        cli.run_pipeline = inner


def table_text(rows) -> str:
    from mtsgen.pipeline import METRICS_HEADER
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=METRICS_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def api_fit(inputs, ops):
    """fit_mts; returns (model or None, seconds)."""
    from mtsgen import pipeline
    return ops.timed("fit_mts", lambda: pipeline.fit_mts(inputs.config, inputs.dataset))


def api_eval(inputs, model, ops):
    """run_pipeline with the fitted model; returns (seconds, table, paths shape) or None."""
    from mtsgen import pipeline
    result, eval_s = ops.timed("run_pipeline", lambda: pipeline.run_pipeline(
        inputs.config, inputs.dataset, model=model))
    if result is None:
        return None
    return eval_s, table_text(result.metrics), result.paths.shape


def cli_fit(inputs, ops):
    """`mtsgen bootstrap --out`, in-process; the model is the file it writes."""
    inputs.model_path.unlink(missing_ok=True)
    code, fit_s = ops.timed("mtsgen bootstrap", lambda: run_cli(inputs.bootstrap_argv))
    ok = code is not None and ops.check("bootstrap exit code", code == 0, f"exit {code}")
    return (inputs.model_path if ok else None), fit_s


def cli_eval(inputs, model, ops):
    """`mtsgen assess --model`, in-process, reading the table it writes."""
    inputs.metrics_path.unlink(missing_ok=True)
    seen = {}
    with capture_paths(seen):
        code, eval_s = ops.timed("mtsgen assess", lambda: run_cli(inputs.assess_argv))
    if code is None or not ops.check("assess exit code", code == 0, f"exit {code}"):
        return None
    return eval_s, inputs.metrics_path.read_bytes().decode(), seen.get("shape")


def check_table(ops, w, seed, text, reference):
    """The four metrics are present and finite; at DEFAULT_SEED they match the reference."""
    rows = list(csv.DictReader(io.StringIO(text)))
    try:
        values = {r["metric"]: float(r["value"]) for r in rows}
    except (KeyError, TypeError, ValueError) as exc:
        return ops.check("metrics table parses", False, repr(exc))
    ok = ops.check("four metrics present and finite",
                   sorted(values) == sorted(workloads.TABLE_METRICS)
                   and all(math.isfinite(v) for v in values.values()),
                   f"got {values}")
    if seed != DEFAULT_SEED or not ok:
        return ok
    if reference is None:
        return ops.check(f"reference table at seed {DEFAULT_SEED}", False, "none stored")
    got = [(r["dataset"], r["model"], r["metric"]) for r in rows]
    want = [tuple(r[:3]) for r in reference]
    bad = [f"{m}: {values[m]!r} vs {v!r}" for (_, _, m), (*_, v) in zip(got, reference)
           if not math.isclose(values[m], v, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)]
    if got != want:
        bad.insert(0, f"labels {got} vs {want}")
    return ops.check(f"reference table at seed {DEFAULT_SEED} (rtol {REFERENCE_RTOL:g})",
                     not bad, "; ".join(bad))


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtsgen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict:
    """Thread count of each OpenBLAS this process loaded, asked from the library."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(), "src_sha256": source_hash(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas": blas, "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def plan(fit_s: float, eval_s: float, budget: float) -> tuple[int, int]:
    """Numbers of fit and eval calls, at least one each, that fill `budget`.

    Of the counts whose predicted time stays within `budget` (plus PLAN_SLACK),
    it picks the one whose larger relative sampling variance, of the median
    eval time or of the median total, is least (ties: their sum), taking every
    call as equally noisy relative to its length.  A workload with a long fit
    gets a few fits and more evals; one with a long eval gets a single fit.
    """
    total = fit_s + eval_s
    best, best_var = (1, 1), (math.inf, math.inf)
    for n_fit in range(1, 1 + int(budget // fit_s) + 1):
        n_eval = int((budget * (1 + PLAN_SLACK) - n_fit * fit_s) // eval_s)
        if n_eval < 1:
            break
        var_total = (fit_s ** 2 / n_fit + eval_s ** 2 / n_eval) / total ** 2
        var = (max(var_total, 1 / n_eval), var_total + 1 / n_eval)
        if var < best_var:
            best, best_var = (n_fit, n_eval), var
    return best


def measure(w, seed, seconds, trace, inputs, ops, tracer, store: Path, refs: list):
    """Closed loop of fit and eval calls for `seconds` (half of it with tracing).

    One fit and one eval come first; their times set how many more of each
    fill the budget (`plan`).  Every eval call uses the last fitted model
    (fits are deterministic, so all models are equal).  With tracing, one
    traced fit and eval follow.  Returns the fit times, the eval times and
    the traced (fit, eval) pairs.  Before each untraced call and after the
    last one, `reference_work` adds a sample to `refs`.
    """
    fit, evaluate = (cli_fit, cli_eval) if w.cli else (api_fit, api_eval)
    reference = json.loads((Path(__file__).parent / "reference.json").read_text()).get(w.name)
    first_table = None

    def check(out, traced=False):
        nonlocal first_table
        _, text, shape = out
        ops.check("paths shape", shape == (workloads.N_TEST, workloads.N_PTH, w.d),
                  f"got {shape}")
        check_table(ops, w, seed, text, reference)
        if traced:
            ops.check("traced table byte-identical to untraced", text == first_table)
        elif first_table is not None:
            ops.check("table identical across eval calls", text == first_table)
        else:
            first_table = text
            if store.exists():
                ops.check("table identical to an earlier run of this seed",
                          store.read_bytes() == text.encode(), f"{store} differs")
            else:
                store.write_bytes(text.encode())

    fits, evals, traced = [], [], []
    n_fit = n_eval = 1
    while len(fits) < n_fit or len(evals) < n_eval:
        refs.append(reference_work())
        if len(fits) < n_fit:
            model, fit_s = fit(inputs, ops)
            if model is None:
                return fits, evals, traced
            fits.append(fit_s)
            continue
        out = evaluate(inputs, model, ops)
        if out is None:
            return fits, evals, traced
        evals.append(out[0])
        check(out)
        if len(evals) == 1:
            ref = statistics.median(refs)
            n_fit, n_eval = plan(fits[0] + ref, evals[0] + ref,
                                 seconds / 2 if trace else seconds)
    refs.append(reference_work())
    if not trace:
        return fits, evals, traced

    tracer.install()
    try:
        model, fit_s = fit(inputs, ops)
        out = None if model is None else evaluate(inputs, model, ops)
    finally:
        tracer.uninstall()
    if out is not None:
        check(out, traced=True)
        traced.append((fit_s, out[0]))
        layer_sum = sum(tracer.self_times())
        ops.check(f"layer self times add up to traced wall within {SELF_TIME_SLACK:.0%}",
                  abs(layer_sum - fit_s - out[0]) <= SELF_TIME_SLACK * (fit_s + out[0]),
                  f"{layer_sum:.4f} s vs {fit_s + out[0]:.4f} s")
    return fits, evals, traced


def trace_metrics(w, tracer, fits, evals, traced, inputs, ops) -> dict:
    out = tracing.layer_metrics(tracer, useful_steps=workloads.T * w.d)
    model_kb = 0.0
    if inputs.model_path is not None and inputs.model_path.exists():
        model_kb = inputs.model_path.stat().st_size / 1024
    out["serialize.file_kb"] = model_kb
    untraced_total = statistics.median(fits) + statistics.median(evals)
    out["trace.overhead_pct"] = 100.0 * (sum(traced[0]) / untraced_total - 1.0)
    for layer in w.busy_layers:
        ops.check(f"traced layer {layer} records spans", out[f"{layer}.calls"] > 0)
    for layer in w.idle_layers:
        ops.check(f"traced layer {layer} records no call", out[f"{layer}.calls"] == 0,
                  f"{out[f'{layer}.calls']} calls")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    # set-up: import mtsgen and build the inputs (the clock started at spawn)
    import mtsgen
    inputs = workloads.prepare(w, args.seed, args.work)
    ready = time.monotonic()
    if args.setup_only:
        refs = [reference_work() for _ in range(SETUP_REFERENCE_SAMPLES)]
        args.result.write_text(json.dumps({"ready": ready, "reference_s": refs}))
        return 0

    if not Path(mtsgen.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mtsgen imported from {mtsgen.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment()
    ops = Ops()
    tracer = tracing.Tracer(run_id=f"{w.name}-s{args.seed}")
    tables = workloads.OUT / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    store = tables / f"{env['src_sha256'][:16]}-{w.name}-s{args.seed}.csv"
    refs = []
    fits, evals, traced = measure(w, args.seed, args.seconds, args.trace, inputs, ops,
                                  tracer, store, refs)
    result = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "ready": ready, "sizes": workloads.sizes(w), "env": env,
              "fit_s": fits, "eval_s": evals, "reference_s": refs, "traced": traced}
    if traced:
        result["per_layer"] = trace_metrics(w, tracer, fits, evals, traced, inputs, ops)
        spans = args.result.with_suffix(".spans.jsonl")
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    result.update(attempted=ops.attempted, failures=ops.failures)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
