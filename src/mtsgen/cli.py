"""Command-line interface: fit, forecast, assess, bootstrap, report.

Configuration comes from a JSON file; command-line flags override
individual keys.  Exit codes: 0 success, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .bootstrap import BootstrapMixture
from .errors import ConfigError, InputError, MtsgenError, NumericalError
from .forecast import rolling_var
from .pipeline import (DEPENDENCE_KINDS, METRICS_HEADER, TRANSFORMS, PipelineConfig,
                       _model_name, load_dataset, fit_mts, rolling_forecasts,
                       run_pipeline, seed_streams, write_metrics)
from .serialize import load_model, save_model


def _build_config(args) -> PipelineConfig:
    cfg_dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg_dict = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg_dict, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    overrides = {
        "dependence": getattr(args, "dependence", None),
        "pca_enabled": getattr(args, "pca", None),
        "n_pth": getattr(args, "n_pth", None),
        "n_rep": getattr(args, "n_rep", None),
        "bootstrap_n_bt": getattr(args, "n_bt", None),
        "gmmn_n_epo": getattr(args, "epochs", None),
    }
    for key, val in overrides.items():
        if val is not None:
            cfg_dict[key] = val
    cfg_dict["seed"] = args.seed
    return PipelineConfig.from_dict(cfg_dict)


def _load_data(args):
    return load_dataset(args.data, transform=args.transform, tau=args.tau,
                        name=args.dataset_name)


def cmd_fit(args) -> int:
    """`fit`, and `bootstrap`, which also requires --n-bt >= 1."""
    cfg = _build_config(args)
    if args.command == "bootstrap" and cfg.bootstrap_n_bt < 1:
        raise InputError("bootstrap requires --n-bt >= 1")
    dataset = _load_data(args)
    model = fit_mts(cfg, dataset)
    save_model(model, args.out)
    dep = model.dependence
    what = (f"bootstrap mixture ({dep.n_bt} x {_model_name(dep.components[0])})"
            if isinstance(dep, BootstrapMixture) else f"fitted model ({_model_name(dep)})")
    print(f"{what} written to {args.out} [config {cfg.config_hash}]")
    return 0


def cmd_forecast(args) -> int:
    cfg = _build_config(args)
    dataset = _load_data(args)
    model = load_model(args.model)
    fc_ss, _ = seed_streams(cfg.seed)
    paths = rolling_forecasts(model, dataset, cfg.n_pth, fc_ss)
    # through a file handle: np.savez would add ".npz" to a bare path
    with open(args.out, "wb") as fh:
        np.savez(fh, paths=paths, var_series=rolling_var(paths, cfg.var_alpha),
                 origins=np.arange(dataset.tau, dataset.n_obs),
                 seed=cfg.seed)
    print(f"{paths.shape[0]} one-step forecasts "
          f"({cfg.n_pth} paths each) written to {args.out}")
    return 0


def cmd_assess(args) -> int:
    cfg = _build_config(args)
    dataset = _load_data(args)
    model = load_model(args.model) if args.model else None
    result = run_pipeline(cfg, dataset, model=model)
    write_metrics(result.metrics, args.out)
    for row in result.metrics:
        print(f"{row['dataset']}\t{row['model']}\t{row['metric']}\t{row['value']}")
    print(f"metrics written to {args.out}")
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.metrics:
        try:
            with open(path, newline="") as fh:
                rows.extend(list(csv.DictReader(fh)))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    missing = [r for r in rows if set(METRICS_HEADER) - set(r)]
    if missing:
        raise InputError("metrics file missing required columns")

    # one wide table: a row per (dataset, model), a column per metric
    by_model: dict = {}
    for r in rows:
        by_model.setdefault((r["dataset"], r["model"]), {})[r["metric"]] = r["value"]
    metrics_seen = sorted({r["metric"] for r in rows})
    table = [["dataset", "model"] + metrics_seen]
    table += [[ds, model] + [vals.get(m, "") for m in metrics_seen]
              for (ds, model), vals in sorted(by_model.items())]
    for line in table:
        print("\t".join(line))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        print(f"report table written to {args.out}")
    return 0


def _add_common(p):
    p.add_argument("--data", required=True, help="CSV input (time label + numeric columns)")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--transform", default="none", choices=TRANSFORMS)
    p.add_argument("--tau", type=int, help="training cut (default: 70%% of rows)")
    p.add_argument("--dataset-name", help="label used in the metrics table")
    p.add_argument("--dependence", choices=DEPENDENCE_KINDS)
    p.add_argument("--pca", action="store_const", const=True, default=None)
    p.add_argument("--n-pth", type=int, dest="n_pth")
    p.add_argument("--n-rep", type=int, dest="n_rep")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True)
    _add_verbose(p)


def _add_verbose(p):
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log to stderr: -v for INFO, -vv for DEBUG")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtsgen",
        description="Multivariate time-series modeling with generative dependence learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit margins, reduction and dependence model")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bootstrap", help="fit a bootstrap mixture of dependence models")
    _add_common(p)
    p.add_argument("--n-bt", type=int, dest="n_bt", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="rolling one-step predictive paths")
    _add_common(p)
    p.add_argument("--model", required=True, help="fitted model container (.npz)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("assess", help="run forecasts and emit the metrics table")
    _add_common(p)
    p.add_argument("--model", help="fitted model container (.npz); fitted here if not given")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("report", help="merge metrics tables into one report")
    p.add_argument("metrics", nargs="+", help="metrics CSV files")
    p.add_argument("--out")
    _add_verbose(p)
    p.set_defaults(func=cmd_report)

    return parser


def _check_out(path) -> None:
    """Refuse, before any work, an `--out` that is not a file in an existing directory."""
    if path is not None and (os.path.isdir(path)
                             or not os.path.isdir(os.path.dirname(path) or ".")):
        raise InputError(f"cannot write --out {path}: not a file in an existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("mtsgen")
    level = logger.level
    handler = None
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO if args.verbose == 1 else logging.DEBUG)
    try:
        _check_out(args.out)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InputError, MtsgenError, OSError) as exc:
        # reads raise InputError, so an OSError is a failed write, which names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
