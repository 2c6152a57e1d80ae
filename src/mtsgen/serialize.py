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
# each dependence kind of the file and the class it stores, matched exactly
# both ways: a beta copula is an EmpiricalCopula too, and a subclass would
# load back as its parent
_KINDS = {"independence": IndependenceCopula, "empirical": EmpiricalCopula,
          "empirical_beta": EmpiricalBetaCopula, "gmmn_copula": GmmnCopula,
          "bootstrap_mixture": BootstrapMixture}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}
# the net's per-layer arrays: GmmnModel field, key stem, and whether only
# the hidden layers (batch norm) carry it
_NET = (("weights", "w", False), ("biases", "b", False),
        ("bn_scale", "bn_scale", True), ("bn_shift", "bn_shift", True),
        ("bn_mean", "bn_mean", True), ("bn_var", "bn_var", True))
# a margin's lag coefficients are arrays, its other parameters metadata
_LAGS = ("phi", "gamma", "alpha", "beta")
_SCALARS = ("mu", "omega", "nu")


def _put(arrays: dict, stem: str, tables) -> None:
    """Store a numbered family of tables as stem0, stem1, ..."""
    for j, table in enumerate(tables):
        arrays[f"{stem}{j}"] = table


def _get(arrays, stem: str, n: int) -> list:
    """The n tables of a numbered family stored by `_put`."""
    return [arrays[f"{stem}{j}"] for j in range(n)]


def _pack_dependence(prefix: str, dep, arrays: dict, meta: dict) -> None:
    if type(dep) not in _KIND_OF:
        raise InputError(f"cannot serialize dependence model {type(dep).__name__}")
    meta[prefix] = {"kind": _KIND_OF[type(dep)]}
    if isinstance(dep, EmpiricalCopula):
        arrays[f"{prefix}/ranks"] = dep.ps.ranks
    elif isinstance(dep, GmmnCopula):
        net = dep.model
        meta[f"{prefix}/net"] = {"layer_dims": list(net.layer_dims),
                                 "dropout_rate": net.dropout_rate}
        for field, stem, _ in _NET:
            _put(arrays, f"{prefix}/net/{stem}", getattr(net, field))
    elif isinstance(dep, BootstrapMixture):
        meta[prefix]["n_bt"] = dep.n_bt
        for b, (comp, maps) in enumerate(zip(dep.components, dep.component_quantiles)):
            _pack_dependence(f"{prefix}/c{b}", comp, arrays, meta)
            _put(arrays, f"{prefix}/q{b}_", maps.tables)


def _unpack_dependence(prefix: str, arrays, meta: dict):
    kind = meta[prefix]["kind"]
    if kind not in _KINDS:
        raise InputError(f"unknown dependence kind {kind!r} in model file")
    cls = _KINDS[kind]
    if cls is IndependenceCopula:
        return cls(meta["pca_k"])
    if issubclass(cls, EmpiricalCopula):
        return cls(PseudoSample(arrays[f"{prefix}/ranks"]))
    if cls is GmmnCopula:
        net = meta[f"{prefix}/net"]
        dims = tuple(net["layer_dims"])
        n_layers = len(dims) - 1
        return cls(GmmnModel(
            layer_dims=dims, dropout_rate=net["dropout_rate"],
            **{field: _get(arrays, f"{prefix}/net/{stem}", n_layers - hidden_only)
               for field, stem, hidden_only in _NET}))
    comps = [_unpack_dependence(f"{prefix}/c{b}", arrays, meta)
             for b in range(meta[prefix]["n_bt"])]
    quantiles = [QuantileMaps(tables=_get(arrays, f"{prefix}/q{b}_", comp.d))
                 for b, comp in enumerate(comps)]
    return cls(components=comps, component_quantiles=quantiles)


def save_model(model: MtsModel, path) -> None:
    arrays: dict = {}
    meta: dict = {"version": FORMAT_VERSION, "tau": model.tau}

    margins_meta = []
    for j, fit in enumerate(model.margins):
        for name in _LAGS:
            arrays[f"margin{j}/{name}"] = getattr(fit.params, name)
        margins_meta.append({**{name: getattr(fit.params, name) for name in _SCALARS},
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
            _put(arrays, "qmap/t", qm.tables)

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
        params = ArmaGarchParams(**{name: mm[name] for name in _SCALARS},
                                 **{name: arrays[f"margin{j}/{name}"] for name in _LAGS})
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
        qmaps = QuantileMaps(tables=_get(arrays, "qmap/t", pca.k))

    return MtsModel(margins=margins, pca=pca, dependence=dep,
                    quantile_maps=qmaps, tau=meta["tau"])
