"""Multivariate time-series modeling with generative dependence learning.

Margins are ARMA-GARCH with scaled-t innovations; cross-sectional
dependence is captured nonparametrically or by a moment-matching
generative network; rolling one-step predictive distributions feed the
assessment metrics.
"""

import logging

from .assess import AssessConfig, ammd, amse, avs, vear
from .bootstrap import BootstrapMixture, bootstrap_fit
from .dependence import (EmpiricalBetaCopula, EmpiricalCopula,
                         IndependenceCopula, PseudoSample, QuantileMaps,
                         pseudo_observations)
from .errors import ConfigError, InputError, MtsgenError, NumericalError
from .forecast import MtsModel, forecast_paths, var_forecast
from .gmmn import (AdamState, GmmnCopula, GmmnModel, KernelSpec, TrainConfig,
                   adam_step, kernel_mix, mmd, mmd_loss_and_grad, nn_forward,
                   sample_gmmn, train_gmmn)
from .margins import (ArmaGarchParams, FilterOutput, LaggedState,
                      MarginalFitResult, arma_garch_filter,
                      arma_garch_simulate, fit_arma_garch, scaled_t_quantile)
from .pca import PcaTransform, fit_pca, lift, project, select_k
from .pipeline import (Dataset, PipelineConfig, PipelineResult, fit_mts,
                       load_dataset, run_pipeline, write_metrics)
from .serialize import load_model, save_model

__version__ = "0.1.0"

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
