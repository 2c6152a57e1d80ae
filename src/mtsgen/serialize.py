"""Versioned binary persistence for fitted models.

Models are stored as an ``.npz`` container holding every tensor in 64-bit
floats, except the rank copulas' ranks in 64-bit integers, plus a JSON
metadata entry with a version header.  Round trips are exact: forecasts
from a loaded model are bit-identical given the same seed.  Each value
is stored once: what other entries fix is derived on load.  The loader
reads only the keys the writer emits, so keys that older files of the
same version still carry are ignored.
"""

from __future__ import annotations

import json

import numpy as np

from .bootstrap import BootstrapMixture
from .dependence import (EmpiricalBetaCopula, EmpiricalCopula,
                         IndependenceCopula, PseudoSample)
from .errors import InputError
from .forecast import MtsModel, QuantileMaps
from .gmmn import GmmnCopula, GmmnModel
from .margins import ArmaGarchParams, MarginalFitResult
from .pca import PcaTransform

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = "mtsgen-model-v1"
# the rank copulas, each stored as its integer ranks
_RANK_COPULA = {"empirical": EmpiricalCopula, "empirical_beta": EmpiricalBetaCopula}
_RANK_KIND = {cls: kind for kind, cls in _RANK_COPULA.items()}


def _pack_gmmn(prefix: str, model: GmmnModel, arrays: dict, meta: dict) -> None:
    meta[prefix] = {"layer_dims": list(model.layer_dims),
                    "dropout_rate": model.dropout_rate}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"{prefix}/w{l}"] = w
        arrays[f"{prefix}/b{l}"] = b
    for l in range(model.n_hidden):
        arrays[f"{prefix}/bn_scale{l}"] = model.bn_scale[l]
        arrays[f"{prefix}/bn_shift{l}"] = model.bn_shift[l]
        arrays[f"{prefix}/bn_mean{l}"] = model.bn_mean[l]
        arrays[f"{prefix}/bn_var{l}"] = model.bn_var[l]


def _unpack_gmmn(prefix: str, arrays, meta: dict) -> GmmnModel:
    m = meta[prefix]
    dims = tuple(m["layer_dims"])
    n_layers = len(dims) - 1
    return GmmnModel(
        layer_dims=dims,
        weights=[arrays[f"{prefix}/w{l}"] for l in range(n_layers)],
        biases=[arrays[f"{prefix}/b{l}"] for l in range(n_layers)],
        bn_scale=[arrays[f"{prefix}/bn_scale{l}"] for l in range(n_layers - 1)],
        bn_shift=[arrays[f"{prefix}/bn_shift{l}"] for l in range(n_layers - 1)],
        bn_mean=[arrays[f"{prefix}/bn_mean{l}"] for l in range(n_layers - 1)],
        bn_var=[arrays[f"{prefix}/bn_var{l}"] for l in range(n_layers - 1)],
        dropout_rate=m["dropout_rate"],
    )


def _pack_dependence(prefix: str, dep, arrays: dict, meta: dict) -> None:
    if isinstance(dep, IndependenceCopula):
        meta[prefix] = {"kind": "independence"}
    elif type(dep) in _RANK_KIND:   # exact class: a beta copula is an EmpiricalCopula too
        meta[prefix] = {"kind": _RANK_KIND[type(dep)]}
        arrays[f"{prefix}/ranks"] = dep.ps.ranks
    elif isinstance(dep, GmmnCopula):
        meta[prefix] = {"kind": "gmmn_copula"}
        _pack_gmmn(f"{prefix}/net", dep.model, arrays, meta)
    elif isinstance(dep, BootstrapMixture):
        meta[prefix] = {"kind": "bootstrap_mixture", "n_bt": dep.n_bt}
        for b, comp in enumerate(dep.components):
            _pack_dependence(f"{prefix}/c{b}", comp, arrays, meta)
            for j, table in enumerate(dep.component_quantiles[b].tables):
                arrays[f"{prefix}/q{b}_{j}"] = table
    else:
        raise InputError(f"cannot serialize dependence model {type(dep).__name__}")


def _unpack_dependence(prefix: str, arrays, meta: dict):
    m = meta[prefix]
    kind = m["kind"]
    if kind == "independence":
        return IndependenceCopula(meta["pca_k"])
    if kind in _RANK_COPULA:
        return _RANK_COPULA[kind](PseudoSample(arrays[f"{prefix}/ranks"]))
    if kind == "gmmn_copula":
        return GmmnCopula(_unpack_gmmn(f"{prefix}/net", arrays, meta))
    if kind == "bootstrap_mixture":
        comps = [_unpack_dependence(f"{prefix}/c{b}", arrays, meta)
                 for b in range(m["n_bt"])]
        quantiles = [QuantileMaps(tables=[arrays[f"{prefix}/q{b}_{j}"] for j in range(comp.d)])
                     for b, comp in enumerate(comps)]
        return BootstrapMixture(components=comps, component_quantiles=quantiles)
    raise InputError(f"unknown dependence kind {kind!r} in model file")


def save_model(model: MtsModel, path) -> None:
    arrays: dict = {}
    meta: dict = {"version": FORMAT_VERSION, "tau": model.tau}

    margins_meta = []
    for j, fit in enumerate(model.margins):
        p = fit.params
        arrays[f"margin{j}/phi"] = p.phi
        arrays[f"margin{j}/gamma"] = p.gamma
        arrays[f"margin{j}/alpha"] = p.alpha
        arrays[f"margin{j}/beta"] = p.beta
        margins_meta.append({"mu": p.mu, "omega": p.omega, "nu": p.nu,
                             "loglik": fit.loglik, "converged": fit.converged})
    meta["margins"] = margins_meta

    arrays["pca/gamma"] = model.pca.gamma
    arrays["pca/lambdas"] = model.pca.lambdas
    meta["pca_k"] = model.pca.k

    _pack_dependence("dep", model.dependence, arrays, meta)

    qm = model.quantile_maps
    if qm is not None:
        # scaled-t maps take the margins' nu; empirical ones hold pca_k tables
        meta["qmap_mode"] = qm.mode
        if qm.mode == "empirical":
            for j, table in enumerate(qm.tables):
                arrays[f"qmap/t{j}"] = table

    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path) -> MtsModel:
    try:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except Exception as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    for key, arr in arrays.items():
        # strings or complex numbers would load, then fail untyped in a forecast
        if arr.dtype.kind not in "biuf":
            raise InputError(f"corrupt model file {path}: array {key!r} holds "
                             f"{arr.dtype}, not real numbers")
    if "__meta__" not in arrays:
        raise InputError(f"{path} is not a model container (missing metadata)")
    try:
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        if not isinstance(meta, dict):
            raise TypeError("metadata is not a JSON object")
        if meta.get("version") != FORMAT_VERSION:
            raise InputError(
                f"model format version mismatch: file has {meta.get('version')!r}, "
                f"expected {FORMAT_VERSION!r}")
        return _unpack_model(arrays, meta)
    except (LookupError, ValueError, TypeError) as exc:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors; an
        # array of the wrong rank raises IndexError
        raise InputError(f"corrupt model file {path}: "
                         f"{type(exc).__name__}: {exc}") from exc


def _unpack_model(arrays: dict, meta: dict) -> MtsModel:
    margins = []
    for j, mm in enumerate(meta["margins"]):
        params = ArmaGarchParams(
            mu=mm["mu"], phi=arrays[f"margin{j}/phi"], gamma=arrays[f"margin{j}/gamma"],
            omega=mm["omega"], alpha=arrays[f"margin{j}/alpha"],
            beta=arrays[f"margin{j}/beta"], nu=mm["nu"])
        margins.append(MarginalFitResult(params=params, filter=None,
                                         loglik=mm["loglik"],
                                         converged=mm["converged"]))

    pca = PcaTransform(gamma=arrays["pca/gamma"], lambdas=arrays["pca/lambdas"],
                       k=meta["pca_k"])

    dep = _unpack_dependence("dep", arrays, meta)

    if isinstance(dep, BootstrapMixture):
        qmaps = None
    elif meta["qmap_mode"] == "scaled_t":
        qmaps = QuantileMaps.scaled_t([m.params.nu for m in margins])
    else:
        qmaps = QuantileMaps(tables=[arrays[f"qmap/t{j}"] for j in range(pca.k)])

    return MtsModel(margins=margins, pca=pca, dependence=dep,
                    quantile_maps=qmaps, tau=meta["tau"])
