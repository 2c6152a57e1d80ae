"""The MMD step and the kernel-mixture mean pinned bit for bit on multi-tile inputs.

Each case reaches one way a Gaussian kernel block can come out: every entry
kept, most kept and some underflowing to 0.0, most underflowing, only the
generated-vs-generated diagonal kept with every cross entry 0.0, a zero
off-diagonal distance, and non-finite rows that must propagate.  The pins
hold the sha256 of the bytes of ``(sq, grad)`` from ``_mmd_grad_wrt_output``
and of the ``_mix_mean`` values, for 1, 2 and 3 workers.

The bytes depend on numpy's and scipy's floating-point kernels, so the
comparison runs only under the versions the pins were recorded with.  To
print them anew (under a source tree on ``PYTHONPATH``)::

    python tests/test_kernel_pins.py
"""

import hashlib

import numpy as np
import pytest
import scipy
from scipy.spatial.distance import cdist

from mtsgen import KernelSpec, _par
from mtsgen.gmmn import _mix_mean, _mmd_grad_wrt_output

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
N = 700   # n = m = 700 rows: seven tiles of 93 generated rows, and a partial one
TRAIN = KernelSpec.for_training()
CASES = {
    # name: (d, scale of the uniform rows, spec, edit of (u, g))
    "train": (5, 1.0, TRAIN, None),
    # only the vv diagonal is kept; every uv entry underflows
    "identity": (5, 1.0, KernelSpec((0.001,)), None),
    # about 97% of the entries underflow
    "sparse": (5, 1.0, KernelSpec((0.01,)), None),
    # about 15% of the entries underflow
    "partial": (60, 1.7, KernelSpec((0.15,)), None),
    "plain": (5, 1.0, KernelSpec.for_assessment(), None),
    "duplicate": (5, 1.0, TRAIN, "duplicate"),
    "nan": (5, 1.0, TRAIN, "nan"),
    "inf_generated": (5, 1.0, TRAIN, "inf_generated"),
    "inf_target": (5, 1.0, TRAIN, "inf_target"),
}
PINS = {
    "train": ("6a180ffaae57fe4d17d670f894ff299ed89d24be5cadcefe9c7da792c135fb56",
              "c21ab420b1fc9c0ef05477ca6513ba9c2450c6a97a94935cc529a33c1c1d78f3"),
    "identity": ("7a41d8a87946bf93b26645243e1c117f6611a863f13e79c33a6a675d13d3c296",
                 "c06a29f247f583a7bbdaadede7be2e4c7f34ac2492257a4ed2aaca5e86b2b815"),
    "sparse": ("eb229e08757cbc8a1797b0ecf63d7c88ae384f12680a6ffce9d5c53e8ca3dd14",
               "e5ab8365aed5fe456f76e0846718506c666011db275dd043825a5fe75cc8d1a4"),
    "partial": ("e2cee6f88cf2e3ae22b3798982c1f491d7513c1ebd0ae95c7ddb9f61406817d9",
                "8404797fc17d892aba4482d5054d1ee215c4e25d20aea18c0a6083fa6211ea69"),
    "plain": ("8ee12e510cb3e60e12d2f1f44c93cb9962c32e23d0bd6974351b4edfb992ed28",
              "8970837b877275a2e2c76a8ab97b4b84aae2c7b2efcce4ffabac8e2ce330a851"),
    "duplicate": ("58b2110b04140d40e28fc47256825df556171b0e6a0fac241dee6662812c7269",
                  "c15007b8b7bcd0f466707df7dcf3b1a27c1e59d930e7d7d6eae5f6433d6b5aa2"),
    "nan": ("b1e8ebfc3cff96935d12a7a285a001e6ec205dba9c6097ae43d8727e51816fd9",
            "0faec020a58a8c574d006ada35b145995562537360367cbf861bd0698de70666"),
    "inf_generated": ("1762c33d41266bb12d811426e403462a5942348b7f427cab7c776f6a58dcc4a9",
                      "f52c2b2a600b7775ac21e2520ea7d0ee7ee0c1d8f3612642dc8feefc7639729a"),
    "inf_target": ("fc3f64329a5348bdb340fab0a19cc72c5ba885fe5a9e0bdc5350ed562bc4652a",
                   "6f9a5efda0fc558429df59096a6682da78c1ea037659a39778d4e3de0a582b52"),
}


def inputs(case: str):
    d, scale, spec, edit = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    u, g = scale * rng.random((N, d)), scale * rng.random((N, d))
    if edit == "duplicate":
        # every generated row has a twin, and every seventh target is a generated row
        g[N // 2:] = g[:N // 2]
        u[::7] = g[::7]
    elif edit == "nan":
        g[3, 1] = np.nan
    elif edit == "inf_generated":
        g[400, 0] = np.inf
    elif edit == "inf_target":
        u[5, 2] = -np.inf
    return u, g, spec


def digests(case: str) -> tuple:
    u, g, spec = inputs(case)
    sq, grad = _mmd_grad_wrt_output(u, g, spec)
    step = hashlib.sha256(np.float64(sq).tobytes() + grad.tobytes()).hexdigest()
    means = np.array([_mix_mean(u, u, spec), _mix_mean(u, g, spec), _mix_mean(g, g, spec)])
    return step, hashlib.sha256(means.tobytes()).hexdigest()


class TestKernelPins:
    @pytest.fixture(autouse=True)
    def same_versions(self):
        running = {"numpy": np.__version__, "scipy": scipy.__version__}
        if running != VERSIONS:
            pytest.skip(f"pins recorded under {VERSIONS}, running {running}")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"))
        if case.startswith("inf") else case for case in CASES])
    def test_pinned(self, case, workers, monkeypatch):
        monkeypatch.setattr(_par, "_WORKERS", workers)
        step, means = digests(case)
        assert step == PINS[case][0]
        assert means == PINS[case][1]

    def test_cases_reach_their_paths(self):
        def exponents(case, s):
            u, g, _ = inputs(case)
            vv = cdist(g, g, "sqeuclidean")
            np.fill_diagonal(vv, np.nan)   # set the zero diagonal aside
            return -vv / (2.0 * s * s), -cdist(u, g, "sqeuclidean") / (2.0 * s * s)

        vv, uv = exponents("identity", 0.001)
        assert np.nanmax(vv) < -746.0 and uv.max() < -746.0
        for case, s, lo, hi in (("sparse", 0.01, 0.9, 0.99), ("partial", 0.15, 0.05, 0.5),
                                ("plain", 0.1, 0.0, 0.0)):
            for e in exponents(case, s):
                assert lo <= np.mean(e < -746.0) <= hi
        vv, uv = exponents("duplicate", 0.001)
        assert np.nanmax(vv) == 0.0 and uv.max() == 0.0


if __name__ == "__main__":
    print("PINS = {")
    for case in CASES:
        print(f'    "{case}": {digests(case)!r},')
    print("}")
