#!/usr/bin/env python3
"""Benchmark for mtsgen: fit/eval time and peak memory on seeded workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (the directory holding src/mtsgen); no
installation is needed.  For each workload the script starts fresh
processes, one at a time, so that peak memory is the workload's own and
the 4 GB workload never shares the machine with another:

  * two set-up-only processes plus the measuring process each give one
    sample of set-up time, from process start until the inputs are ready;
  * the measuring process (worker.py) calls fit and then eval in a closed
    loop for --seconds (half of it with --trace 1), checks every output, and
    with --trace 1 then runs one traced fit and eval for the per-layer
    metrics.

It prints each metric by name with its unit, the input sizes and the
environment, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones BENCHMARK.json lists, with --trace 1 the per-layer
ones.
`--workload all` (the default) runs every workload untraced and then traced.
Full records, spans and inputs go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402  (after dont_write_bytecode: leave no cache files)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
SETUP_SAMPLES = 3
# About the time worker.reference_work takes on a 2-vCPU Xeon virtual machine
# running at full speed.  Timings are reported scaled to that speed: each is
# multiplied by REFERENCE_S over the median time reference_work took in the
# same process.  The speed of a shared machine drifts by up to 2x over
# minutes, for all work alike; the scaled timings drift far less, and a
# change to mtsgen moves them as much as the raw ones, since the reference
# work runs no mtsgen code.
REFERENCE_S = 0.2
# A run must end within 180 s; the worker is stopped after this long.
WORKER_TIMEOUT_S = 170.0

# (name, unit) of the end-to-end metrics.  The result line carries those that
# BENCHMARK.json lists; the others are printed only.
END_TO_END = [("setup_s", "s"), ("fit_s", "s"), ("eval_s", "s"), ("total_s", "s"),
              ("peak_rss_mb", "MB")]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        # one BLAS thread on both commits, at most nproc, steady under load
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args: list, log: Path, timeout: float):
    """Run worker.py; returns (spawn time, exit status text or None, rusage)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with open(log, "w") as out:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=worker_env(),
                                cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - started > timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                return started, f"stopped after {timeout:.0f} s", usage
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        name = signal.Signals(-proc.returncode).name
        hint = " (the kernel's out-of-memory killer sends SIGKILL)" if name == "SIGKILL" else ""
        return started, f"killed by {name}{hint}", usage
    if proc.returncode:
        return started, f"exit code {proc.returncode}", usage
    return started, None, usage


def summarize(samples: list) -> dict:
    """Median plus the highest listed percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for q in (99, 95, 90, 75):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[-(-len(ordered) * q // 100) - 1]
            break
    return out


def fmt(value, unit, summary=None) -> str:
    text = f"{value:.6g} {unit}"
    if summary is not None:
        extra = ", ".join(f"{k}={v:.6g}" for k, v in summary.items() if k.startswith("p"))
        text += f"  (median of n={summary['n']}" + (f"; {extra}" if extra else
                                                     "; no percentile has 10 samples beyond it")
        text += f"; raw median {summary['raw']:.6g} {unit})"
    return text


def run_workload(w, seed: int, seconds: float, trace: int) -> dict:
    """Set-up samples, then the measuring worker; returns the full record."""
    base = workloads.OUT / "runs" / f"{w.name}-s{seed}-t{trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    failures, setup, setup_refs = [], [], []
    common = ["--workload", w.name, "--seed", str(seed)]

    for i in range(SETUP_SAMPLES - 1):
        result = base / f"setup{i}.json"
        started, error, _ = spawn([*common, "--work", str(base / f"setup{i}"),
                                   "--result", str(result), "--setup-only"],
                                  base / f"setup{i}.log", deadline - time.monotonic())
        if error:
            failures.append(f"set-up process {i}: {error}")
        else:
            out = json.loads(result.read_text())
            setup.append(out["ready"] - started)
            setup_refs.append(statistics.median(out["reference_s"]))
        shutil.rmtree(base / f"setup{i}", ignore_errors=True)

    result = base / "result.json"
    started, error, usage = spawn(
        [*common, "--seconds", str(seconds), "--trace", str(trace),
         "--work", str(base / "inputs"), "--result", str(result)],
        base / "worker.log", deadline - time.monotonic())
    record = {"workload": w.name, "seed": seed, "trace": trace, "sizes": workloads.sizes(w),
              "attempted": 1, "failures": []}
    if error is None and result.exists():
        record = json.loads(result.read_text())
        setup.append(record["ready"] - started)
        setup_refs.append(statistics.median(record["reference_s"]))
    else:
        tail = (base / "worker.log").read_text()[-2000:]
        failures.append(f"measuring process: {error or 'no result'}; log tail:\n{tail}")
    record["failures"] = failures + record["failures"]
    record["attempted"] += SETUP_SAMPLES - 1
    record["setup_s"], record["setup_reference_s"] = setup, setup_refs
    record["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    shutil.rmtree(base / "inputs", ignore_errors=True)
    (workloads.OUT / "results").mkdir(parents=True, exist_ok=True)
    (workloads.OUT / "results" / f"{w.name}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def end_to_end(record) -> tuple[dict, dict]:
    """Metric values and, for sampled timings, summaries of the timings as
    taken ("raw") and scaled to the reference speed."""
    values, summaries = {}, {}
    for name in ("setup_s", "fit_s", "eval_s"):
        if record.get(name):
            refs = (record["setup_reference_s"] if name == "setup_s" else
                    [statistics.median(record["reference_s"])] * len(record[name]))
            summaries[name] = summarize([t * REFERENCE_S / r
                                         for t, r in zip(record[name], refs)])
            summaries[name]["raw"] = statistics.median(record[name])
            values[name] = summaries[name]["median"]
    if "fit_s" in values and "eval_s" in values:
        values["total_s"] = values["fit_s"] + values["eval_s"]
    values["peak_rss_mb"] = record["peak_rss_mb"]
    return values, summaries


def report(record, trace: int, gated: set) -> dict:
    """Print one workload's metrics; return the metrics for the JSON line."""
    w = record["workload"]
    failed = len(record["failures"])
    sizes = " ".join(f"{k}={v}" for k, v in record["sizes"].items())
    print(f"== {w}  seed={record['seed']}  trace={trace}  [{sizes}]")
    if "env" in record:
        print("   env: " + json.dumps(record["env"], sort_keys=True))
    metrics = {}
    if trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
        for name, value in record.get("per_layer", {}).items():
            print(f"   {name:32s} {fmt(value, units[name])}")
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        values, summaries = end_to_end(record)
        for name, unit in END_TO_END:
            if name in values:
                note = "  (median fit_s + median eval_s)" if name == "total_s" else ""
                print(f"   {name:12s} {fmt(values[name], unit, summaries.get(name))}{note}")
                if name in gated:
                    metrics[name] = {"value": values[name], "unit": unit}
    print(f"   {'fail_ratio':12s} {failed / record['attempted']:.6g} 1  "
          f"({failed} failed of {record['attempted']} operations)")
    for reason in record["failures"]:
        print(f"   FAILED: {reason}")
    return metrics


def gated_end_to_end() -> set:
    """Names of the end-to-end metrics BENCHMARK.json gates, after checking that it
    declares this script's per-layer metrics and a subset of its workloads and
    end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if (not gated <= set(END_TO_END) or per_layer != tracing.PER_LAYER_METRICS
            or not {x["name"] for x in spec["workloads"]} <= set(workloads.WORKLOADS)):
        sys.exit("BENCHMARK.json does not match the metrics and workloads of perfbench")
    return {name for name, _ in gated}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # exit through the cleanup in spawn(), which stops the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "mtsgen" / "__init__.py").is_file():
        print(f"error: no mtsgen source tree at {ROOT / 'src' / 'mtsgen'}", file=sys.stderr)
        return 2
    gated = gated_end_to_end()

    if args.workload != "all":
        record = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace)
        metrics = report(record, args.trace, gated)
        records = [record]
    else:
        metrics, records = {}, []
        for trace in (0, 1):
            for w in workloads.WORKLOADS.values():
                record = run_workload(w, args.seed, args.seconds, trace)
                records.append(record)
                for name, m in report(record, trace, gated).items():
                    metrics[f"{w.name}/{name}"] = m
        seen = {layer for r in records for layer in tracing.LAYERS
                if r.get("per_layer", {}).get(f"{layer}.calls", 0) > 0}
        missing = [layer for layer in tracing.LAYERS if layer not in seen]
        records[-1]["attempted"] += 1
        if missing:
            records[-1]["failures"].append(f"layers with no span on any workload: {missing}")
            print(f"FAILED: layers with no span on any workload: {missing}")
    failed = sum(len(r["failures"]) for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
