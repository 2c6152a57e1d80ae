"""`import mtsgen` leaves scipy.signal and scipy.stats unloaded.

Importing the two takes about half a second, and the paper's one-lag
ARMA(1,1)-GARCH(1,1) margins need neither.  pytest itself imports
scipy.stats, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = '''
import json, sys
import numpy as np
import mtsgen, mtsgen.cli
from mtsgen import ArmaGarchParams, Dataset, PipelineConfig, fit_arma_garch, run_pipeline
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts

HEAVY = ("scipy.signal", "scipy.stats")
loaded = {"import": [m for m in HEAVY if m in sys.modules]}
p = ArmaGarchParams(mu=0.0, phi=[0.3], gamma=[-0.2], omega=0.05, alpha=[0.1], beta=[0.8], nu=6.0)
x = simulate_mts([p, p], GaussianCopulaSampler(equicorrelation(2, 0.5)), 160,
                 np.random.default_rng(0))
ds = Dataset("guard", list(range(len(x))), x, ["a", "b"], "none", 120)
run_pipeline(PipelineConfig(dependence="empirical", n_pth=20, n_rep=2), ds)
loaded["fit_and_assess"] = [m for m in HEAVY if m in sys.modules]
fit_arma_garch(x[:, 0], orders=(2, 1, 1, 2))
loaded["two_lags"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
'''


def test_default_orders_load_neither_scipy_signal_nor_stats():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["fit_and_assess"] == []
    # a recursion with two lags takes scipy.signal.lfilter (which loads scipy.stats)
    assert "scipy.signal" in loaded["two_lags"]
