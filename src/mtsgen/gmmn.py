"""Generative moment matching network for cross-sectional dependence.

A feedforward net maps standard-normal prior draws to points in the unit
hypercube and is trained to minimize the kernel maximum mean discrepancy
(MMD) between its output sample and a target pseudo-observation sample.
Hidden layers use batch normalization, ReLU and inverted dropout; the
output layer is sigmoid.  Gradients are computed by explicit
backpropagation and parameters updated with Adam.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np
from scipy.spatial.distance import cdist

from . import _par
from .dependence import DependenceModel, _on_grid, _ranks
from .errors import ConfigError, InputError, NumericalError

__all__ = [
    "KernelSpec",
    "GmmnModel",
    "AdamState",
    "TrainConfig",
    "kernel_mix",
    "mmd",
    "nn_forward",
    "mmd_loss_and_grad",
    "adam_step",
    "train_gmmn",
    "sample_gmmn",
    "GmmnCopula",
]

_log = logging.getLogger(__name__)

TRAIN_BANDWIDTHS = (0.001, 0.01, 0.15, 0.25, 0.50, 0.75)
TEST_BANDWIDTHS = (0.1, 0.3, 0.5, 0.7, 0.9)
# batch normalization: momentum of the running statistics, variance floor
_BN_MOMENTUM = 0.99
_BN_EPS = 1e-5


@dataclass(frozen=True)
class KernelSpec:
    """Mixture of Gaussian kernels, one component per bandwidth."""

    bandwidths: tuple = TRAIN_BANDWIDTHS

    def __post_init__(self):
        if len(self.bandwidths) == 0 or any(s <= 0 for s in self.bandwidths):
            raise ConfigError("bandwidths must be nonempty and positive")

    @classmethod
    def for_training(cls) -> "KernelSpec":
        return cls(TRAIN_BANDWIDTHS)

    @classmethod
    def for_assessment(cls) -> "KernelSpec":
        return cls(TEST_BANDWIDTHS)


# ---------------------------------------------------------------------------
# kernels and the MMD statistic
# ---------------------------------------------------------------------------

# exp(x) rounds to exactly 0.0 for every x below about -745.13.  np.exp takes
# a slow path on such inputs, so kernel entries below this bound are written
# as 0.0 directly.
_EXP_ZERO_BELOW = -746.0


class _GaussKernel:
    """exp(-d2 / (2 s^2)) for one bandwidth at a time, in one reused buffer.

    Called with the negated squared distances nd2; the returned matrix is a
    view into the buffer, valid until the next call.  The result is bit for
    bit that of np.exp(-d2 / (2.0 * s * s)).
    """

    def __init__(self, size: int):
        self._buf = np.empty(size)
        self._keep = np.empty(size, dtype=bool)

    def __call__(self, nd2: np.ndarray, s: float) -> np.ndarray:
        k = self._buf[:nd2.size].reshape(nd2.shape)
        np.divide(nd2, 2.0 * s * s, out=k)
        if k.min() < _EXP_ZERO_BELOW:
            keep = self._keep[:nd2.size].reshape(nd2.shape)
            np.greater_equal(k, _EXP_ZERO_BELOW, out=keep)
            np.exp(k, out=k, where=keep)
            np.logical_not(keep, out=keep)
            k[keep] = 0.0
        else:
            np.exp(k, out=k)
        return k


def _mix_buffers(n_pairs: int) -> tuple:
    """Buffers of :func:`_mix_mean` for up to n_pairs pairs of rows."""
    return np.empty(n_pairs), _GaussKernel(n_pairs), np.empty(n_pairs)


def _mix_mean(a: np.ndarray, b: np.ndarray, spec: KernelSpec, bufs: tuple | None = None) -> float:
    """Mean of the kernel-mixture matrix between the rows of a and b, in `bufs` if given."""
    n_pairs = len(a) * len(b)
    d2, kern, mix = bufs or _mix_buffers(n_pairs)
    nd2 = cdist(a, b, "sqeuclidean", out=d2[:n_pairs].reshape(len(a), len(b)))
    np.negative(nd2, out=nd2)
    out = mix[:n_pairs].reshape(nd2.shape)
    out[...] = 0.0
    for s in spec.bandwidths:
        out += kern(nd2, s)
    return float(out.mean())


def kernel_mix(u, v, spec: KernelSpec) -> float:
    """K(u, v) = sum_i exp(-||u - v||^2 / (2 sigma_i^2))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d2 = float(np.sum((u - v) ** 2))
    return float(sum(np.exp(-d2 / (2.0 * s * s)) for s in spec.bandwidths))


def mmd(a, b, spec: KernelSpec, *, aa_term: float | None = None) -> float:
    """Biased two-sample MMD statistic between the rows of a and b.

    The squared MMD is the V-statistic: full double sums, diagonal terms
    included.  It is clamped at 0 against rounding, so the result is always
    nonnegative and exactly 0 for identical samples.  `aa_term`, when given,
    is the mean kernel value over all pairs of rows of a, so a caller that
    scores many samples against the same a computes it only once.
    """
    return _mmd(a, b, spec, aa_term)


def _mmd(a, b, spec: KernelSpec, aa_term: float | None, bufs: tuple | None = None) -> float:
    """:func:`mmd`, its kernel means in `bufs` if given."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise InputError("both samples must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise InputError("samples must share the same dimension")
    if aa_term is None:
        aa_term = _mix_mean(a, a, spec, bufs)
    sq = aa_term - 2.0 * _mix_mean(a, b, spec, bufs) + _mix_mean(b, b, spec, bufs)
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# network model
# ---------------------------------------------------------------------------

def _views(flat: np.ndarray, layer_dims) -> tuple:
    """Weights, biases, BN scales and BN shifts as lists of views into flat.

    This is the one definition of the parameter layout: layer by layer, the
    weight matrix (row-major), the bias and, for a hidden layer, its BN
    scale and shift.
    """
    weights, biases, bn_scale, bn_shift = [], [], [], []
    i = 0
    for l, (d_prev, d_cur) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        weights.append(flat[i:i + d_cur * d_prev].reshape(d_cur, d_prev))
        i += d_cur * d_prev
        biases.append(flat[i:i + d_cur]); i += d_cur
        if l < len(layer_dims) - 2:
            bn_scale.append(flat[i:i + d_cur]); i += d_cur
            bn_shift.append(flat[i:i + d_cur]); i += d_cur
    if i != flat.size:
        raise InputError("theta length does not match model shape")
    return weights, biases, bn_scale, bn_shift


@dataclass
class GmmnModel:
    """Feedforward generator with per-hidden-layer batch normalization.

    `layer_dims` runs input -> hidden ... -> output; `bn_mean`/`bn_var` are
    running statistics used at inference time, updated with the fixed
    momentum _BN_MOMENTUM during training; _BN_EPS is the fixed variance
    floor.  The prior is independent standard normal of dimension
    `layer_dims[0]`.  The trainable parameters live in one vector, `theta`:
    the arrays passed as `weights`, `biases`, `bn_scale` and `bn_shift` are
    copied into it, and those lists then hold views into `theta`, so a
    write through either is seen by both.
    """

    layer_dims: tuple
    weights: list
    biases: list
    bn_scale: list
    bn_shift: list
    bn_mean: list
    bn_var: list
    dropout_rate: float = 0.5
    train_loss: np.ndarray | None = None
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        given = (self.weights, self.biases, self.bn_scale, self.bn_shift)
        self.theta = np.empty(sum(np.size(a) for part in given for a in part))
        views = _views(self.theta, self.layer_dims)
        for part, dst in zip(given, views):
            if [np.shape(a) for a in part] != [v.shape for v in dst]:
                raise InputError(f"parameter shapes do not match layer_dims {self.layer_dims}")
            for a, v in zip(part, dst):
                v[...] = a
        self.weights, self.biases, self.bn_scale, self.bn_shift = views
        # a model file's running statistics must fit the hidden layers before any forecast
        hidden = [(h,) for h in self.layer_dims[1:-1]]
        for name in ("bn_mean", "bn_var"):
            for l, (a, shape) in enumerate(zip_longest(getattr(self, name), hidden)):
                if np.shape(a) != shape:
                    raise InputError(f"{name}{l} has shape {np.shape(a)}, not {shape}")
        for l, var in enumerate(self.bn_var):
            if not np.all(np.isfinite(var) & (np.asarray(var) > 0.0)):
                raise InputError(f"bn_var{l} must be finite and positive")

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]


def glorot_init(layer_dims, rng: np.random.Generator, dropout_rate: float = 0.5) -> GmmnModel:
    """Uniform(+-sqrt(6/(fan_in + fan_out))) weights, zero biases, unit BN scale."""
    if len(layer_dims) < 3:
        raise ConfigError("need at least one hidden layer")
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError("dropout_rate must lie in [0, 1)")
    weights, biases = [], []
    for d_prev, d_cur in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (d_prev + d_cur))
        weights.append(rng.uniform(-bound, bound, size=(d_cur, d_prev)))
        biases.append(np.zeros(d_cur))
    hidden = layer_dims[1:-1]
    return GmmnModel(
        layer_dims=tuple(layer_dims),
        weights=weights,
        biases=biases,
        bn_scale=[np.ones(h) for h in hidden],
        bn_shift=[np.zeros(h) for h in hidden],
        bn_mean=[np.zeros(h) for h in hidden],
        bn_var=[np.ones(h) for h in hidden],
        dropout_rate=dropout_rate,
    )


def flatten_theta(model: GmmnModel) -> np.ndarray:
    """A copy of the trainable parameters (weights, biases, BN scale/shift)."""
    return model.theta.copy()


def set_theta(model: GmmnModel, theta: np.ndarray) -> None:
    """Write a flattened parameter vector into the model's `theta`, in place."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != model.theta.shape:
        raise InputError("theta length does not match model shape")
    model.theta[...] = theta


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _forward(model: GmmnModel, v: np.ndarray, train: bool,
             mask_rng: np.random.Generator | None,
             update_running: bool, want_cache: bool):
    a = v
    caches = []
    n = v.shape[0]
    keep = 1.0 - model.dropout_rate
    for l in range(model.n_hidden):
        s = a @ model.weights[l].T
        s += model.biases[l]
        if train:
            mu_b = s.mean(axis=0)
            var_b = s.var(axis=0)
            if update_running:
                m = _BN_MOMENTUM
                model.bn_mean[l] = m * model.bn_mean[l] + (1.0 - m) * mu_b
                model.bn_var[l] = m * model.bn_var[l] + (1.0 - m) * var_b
        else:
            mu_b = model.bn_mean[l]
            var_b = model.bn_var[l]
        istd = 1.0 / np.sqrt(var_b + _BN_EPS)
        work = None if want_cache else s   # without a cache, one array per layer
        xhat = np.subtract(s, mu_b, out=work)
        xhat *= istd
        y = np.multiply(xhat, model.bn_scale[l], out=work)
        y += model.bn_shift[l]
        r = np.maximum(y, 0.0, out=work)
        if train and model.dropout_rate > 0.0:
            mask = (mask_rng.random(r.shape) < keep).astype(float) / keep
        else:
            mask = None
        a_next = r * mask if mask is not None else r
        if want_cache:
            caches.append(dict(a_prev=a, s=s, mu_b=mu_b, istd=istd,
                               xhat=xhat, y=y, mask=mask))
        a = a_next
    s_out = a @ model.weights[-1].T + model.biases[-1]
    out = _sigmoid(s_out)
    if want_cache:
        caches.append(dict(a_prev=a, out=out))
    return out, caches


def nn_forward(model: GmmnModel, v, train: bool = False,
               mask_rng: np.random.Generator | int | None = None,
               update_running: bool = False) -> np.ndarray:
    """Map prior draws through the network.

    Training mode normalizes with batch statistics and applies inverted
    dropout (mask drawn from `mask_rng`); inference mode uses running
    statistics and no dropout.  Running statistics are only mutated when
    `update_running` is set.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if v.shape[1] != model.d_in:
        raise InputError(f"input dimension {v.shape[1]} != prior dimension {model.d_in}")
    if train and v.shape[0] < 2:
        raise InputError("training mode needs a batch of at least 2 rows")
    if isinstance(mask_rng, (int, np.integer)):
        mask_rng = np.random.default_rng(mask_rng)
    out, _ = _forward(model, v, train, mask_rng, update_running, want_cache=False)
    return out


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

# Kernel entries per tile of the MMD step.  A tile of b generated rows holds
# b x max(n, m) kernel entries, so one worker's buffers stay in cache and the
# step's memory does not grow with the square of the sample size.
_TILE = 2**16


def _mmd_tile(u: np.ndarray, g: np.ndarray, i0: int, i1: int, spec: KernelSpec,
              bufs: tuple, grad: np.ndarray) -> np.ndarray:
    """Gradient rows i0:i1 into grad, and this tile's (2, n_bandwidths) kernel sums.

    Entries [0, j] and [1, j] are the sums of the generated-vs-generated and
    of the target-vs-generated kernel block at bandwidth j.
    """
    n, m = u.shape[0], g.shape[0]
    kern, d_vv, d_uv = bufs
    g_b = g[i0:i1]
    b = i1 - i0
    sums = np.empty((2, len(spec.bandwidths)))
    nd2_vv = cdist(g_b, g, "sqeuclidean", out=d_vv[:b * m].reshape(b, m))
    nd2_uv = cdist(u, g_b, "sqeuclidean", out=d_uv[:n * b].reshape(n, b))
    np.negative(nd2_vv, out=nd2_vv)
    np.negative(nd2_uv, out=nd2_uv)
    grad_b = grad[i0:i1]
    for j, s in enumerate(spec.bandwidths):
        inv = 1.0 / (s * s)
        # d/dg of the generated-vs-generated double sum
        k_vv = kern(nd2_vv, s)
        sums[0, j] = k_vv.sum()
        grad_b -= (2.0 / (m * m)) * inv * (k_vv.sum(axis=1)[:, None] * g_b - k_vv @ g)
        # d/dg of the cross double sum (enters the loss with factor -2)
        k_uv = kern(nd2_uv, s)
        sums[1, j] = k_uv.sum()
        grad_b += (2.0 / (n * m)) * inv * (k_uv.sum(axis=0)[:, None] * g_b - k_uv.T @ u)
    return sums


def _mmd_grad_wrt_output(u: np.ndarray, g: np.ndarray, spec: KernelSpec,
                         uu_term: float | None = None):
    """Squared-MMD value and its gradient with respect to the generated rows g.

    The work runs over tiles of b = _TILE // max(n, m) generated rows, at
    most m, mapped by `_par.fan_out`, which runs one task per CPU, no more
    than there are tiles.  A tile holds one block of each kernel matrix, so
    the step needs O(workers * _TILE) memory besides its inputs and output.  Each task owns its kernel and distance
    buffers, which `fan_out` allocates on the calling thread.  The kernel
    sums are reduced here, in tile order, so the result depends on n,
    m and _TILE but not on the number of workers.  With a single tile the
    result is bit for bit that of the full kernel matrices, one bandwidth
    at a time.  Kernel entries whose exponent lies below -746 are set to
    exactly 0.0 without calling exp, which rounds them to 0.0 too.
    """
    n, m = u.shape[0], g.shape[0]
    if uu_term is None:
        uu_term = _mix_mean(u, u, spec)
    b = max(1, min(m, _TILE // max(n, m)))
    grad = np.zeros_like(g)
    sums = _par.fan_out(lambda tile, bufs: _mmd_tile(u, g, *tile, spec, bufs, grad),
                        [(i0, min(i0 + b, m)) for i0 in range(0, m, b)],
                        lambda: (_GaussKernel(max(n, m) * b), np.empty(b * m), np.empty(n * b)))
    vv_mean = 0.0
    uv_mean = 0.0
    for vv, uv in sums:
        for j in range(len(spec.bandwidths)):
            vv_mean += vv[j] / (m * m)
            uv_mean += uv[j] / (n * m)
    return uu_term + (vv_mean - 2.0 * uv_mean), grad


def mmd_loss_and_grad(model: GmmnModel, u_batch, v_batch, spec: KernelSpec,
                      mask_seed: int = 0, uu_term: float | None = None, *,
                      update_running: bool = False):
    """MMD between targets and generated batch, with the exact parameter gradient.

    The gradient is taken through the square root with the denominator
    clamped at 1e-12; at an exact zero of the loss the gradient is defined
    as 0, avoiding the sqrt singularity at the optimum.  With
    `update_running` the forward pass also folds this batch's statistics
    into the running BN statistics, as in `nn_forward`.
    """
    u = np.asarray(u_batch, dtype=float)
    v = np.asarray(v_batch, dtype=float)
    if u.shape[0] < 2 or v.shape[0] < 2:
        raise InputError("batches must contain at least 2 rows")
    mask_rng = np.random.default_rng(mask_seed)
    g, caches = _forward(model, v, train=True, mask_rng=mask_rng,
                         update_running=update_running, want_cache=True)

    sq, d_g = _mmd_grad_wrt_output(u, g, spec, uu_term=uu_term)
    loss = float(np.sqrt(max(sq, 0.0)))
    grad = np.zeros_like(model.theta)
    if sq <= 0.0:
        return loss, grad
    d_g = d_g / (2.0 * max(loss, 1e-12))
    grads_w, grads_b, grads_scale, grads_shift = _views(grad, model.layer_dims)

    # backprop: output layer
    out_cache = caches[-1]
    out = out_cache["out"]
    ds = d_g * out * (1.0 - out)
    grads_w[-1][...] = ds.T @ out_cache["a_prev"]
    grads_b[-1][...] = ds.sum(axis=0)
    da = ds @ model.weights[-1]

    n_rows = v.shape[0]
    for l in range(model.n_hidden - 1, -1, -1):
        c = caches[l]
        if c["mask"] is not None:
            da = da * c["mask"]
        dy = da * (c["y"] > 0.0)
        grads_scale[l][...] = (dy * c["xhat"]).sum(axis=0)
        grads_shift[l][...] = dy.sum(axis=0)
        dxhat = dy * model.bn_scale[l]
        s_cent = c["s"] - c["mu_b"]
        istd = c["istd"]
        dvar = (dxhat * s_cent).sum(axis=0) * (-0.5) * istd**3
        dmu = -(dxhat.sum(axis=0)) * istd + dvar * (-2.0 / n_rows) * s_cent.sum(axis=0)
        ds = dxhat * istd + dvar * (2.0 / n_rows) * s_cent + dmu / n_rows
        grads_w[l][...] = ds.T @ c["a_prev"]
        grads_b[l][...] = ds.sum(axis=0)
        da = ds @ model.weights[l]
    return loss, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m1: np.ndarray
    m2: np.ndarray
    r: int = 0
    # the fixed hyperparameters: class attributes, not fields
    alpha = 0.001
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m1=np.zeros(n), m2=np.zeros(n), r=0)


def adam_step(state: AdamState, grad: np.ndarray, theta: np.ndarray):
    """One Adam update: moment recursions, bias correction, parameter step."""
    r = state.r + 1
    m1 = state.beta1 * state.m1 + (1.0 - state.beta1) * grad
    m2 = state.beta2 * state.m2 + (1.0 - state.beta2) * grad**2
    m1_hat = m1 / (1.0 - state.beta1**r)
    m2_hat = m2 / (1.0 - state.beta2**r)
    theta_new = theta - state.alpha * m1_hat / (np.sqrt(m2_hat) + state.eps)
    return AdamState(m1=m1, m2=m2, r=r), theta_new


# ---------------------------------------------------------------------------
# training and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; n_bat=None means full-batch optimization."""

    n_epo: int = 1000
    n_bat: int | None = None
    hidden_dims: tuple = (100,)
    dropout_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_epo < 1:
            raise ConfigError(f"n_epo={self.n_epo} must be at least 1")
        if self.n_bat is not None and self.n_bat < 2:
            raise ConfigError(f"n_bat={self.n_bat} must be at least 2")
        if len(self.hidden_dims) == 0 or any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims must be a nonempty list of positive sizes")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate={self.dropout_rate} must lie in [0, 1)")


def train_gmmn(u_train, cfg: TrainConfig) -> GmmnModel:
    """Fit the generator to a pseudo-observation sample.

    Weights start from the Glorot-uniform initialization; the prior sample is
    drawn once up front, then each epoch randomly re-partitions targets and
    prior draws into batches and applies one Adam step per batch on the
    MMD with the training bandwidths, KernelSpec.for_training().  All
    randomness (init, prior, partitions, dropout masks) derives from
    cfg.seed, so runs are bit-reproducible.  A non-finite loss or gradient
    raises NumericalError at the step where it appears.  When training ends,
    one DEBUG record on the `mtsgen.gmmn` logger summarizes the loss path
    and the median step time.
    """
    u = np.asarray(u_train, dtype=float)
    tau, d_star = u.shape
    if tau < 2:
        raise InputError(f"training needs at least 2 rows, got {tau}")
    n_bat = cfg.n_bat if cfg.n_bat is not None else tau
    if tau % n_bat != 0:
        raise ConfigError(f"batch size {n_bat} does not divide sample size {tau}")

    ss = np.random.SeedSequence(cfg.seed)
    init_ss, prior_ss, shuffle_ss, mask_ss = ss.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    prior_rng = np.random.default_rng(prior_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    n_steps_total = cfg.n_epo * (tau // n_bat)
    mask_seeds = mask_ss.generate_state(n_steps_total, dtype=np.uint64)

    layer_dims = (d_star, *cfg.hidden_dims, d_star)
    model = glorot_init(layer_dims, init_rng, dropout_rate=cfg.dropout_rate)
    prior = prior_rng.standard_normal((tau, d_star))

    adam = AdamState.zeros(model.theta.size)
    losses = np.empty(n_steps_total)
    step_s = np.empty(n_steps_total)
    full_batch = n_bat == tau
    spec = KernelSpec.for_training()
    uu_term = _mix_mean(u, u, spec) if full_batch else None

    step = 0
    for epoch in range(cfg.n_epo):
        perm_u = shuffle_rng.permutation(tau)
        perm_v = shuffle_rng.permutation(tau)
        for b in range(tau // n_bat):
            t0 = time.perf_counter()
            sl = slice(b * n_bat, (b + 1) * n_bat)
            u_b = u[perm_u[sl]]
            v_b = prior[perm_v[sl]]
            loss, grad = mmd_loss_and_grad(
                model, u_b, v_b, spec, mask_seed=int(mask_seeds[step]),
                uu_term=uu_term, update_running=True)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise NumericalError(
                    f"GMMN training diverged: non-finite loss or gradient "
                    f"at epoch {epoch + 1}, step {b + 1}")
            adam, theta = adam_step(adam, grad, model.theta)
            model.theta[...] = theta
            losses[step] = loss
            step_s[step] = time.perf_counter() - t0
            step += 1

    model.train_loss = losses
    best = int(np.argmin(losses))
    _log.debug("GMMN training: %d steps, loss first %.6g, min %.6g at epoch %d, "
               "last %.6g; median step %.2f ms",
               n_steps_total, losses[0], losses[best], best // (tau // n_bat) + 1,
               losses[-1], 1000.0 * np.median(step_s))
    return model


def sample_gmmn(model: GmmnModel, n_gen: int, rng: np.random.Generator) -> np.ndarray:
    """Draw prior noise, push it through the net, and re-rank the outputs.

    The pseudo-observation step forces every output column to be exactly the
    multiset {1/(n_gen+1), ..., n_gen/(n_gen+1)}.
    """
    return GmmnCopula(model).sample(n_gen, rng)


class GmmnCopula(DependenceModel):
    """Dependence-model wrapper exposing the common sampling contract."""

    def __init__(self, model: GmmnModel):
        self.model = model
        self.d = model.d_out

    def noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Prior noise of n draws."""
        return rng.standard_normal((n, self.model.d_in))

    def from_noise(self, noises: list, quantile_maps=None) -> list:
        """The net's outputs on each noise, ranked; one forward pass per noise,
        as a larger matrix product may round differently, fanned out over them."""
        def ranks(z, _):
            return _ranks(_forward(self.model, z, train=False, mask_rng=None,
                                   update_running=False, want_cache=False)[0])

        # the lookups, which may build the maps' grid table, run on this thread
        return [_on_grid(r, len(r), quantile_maps) for r in _par.fan_out(ranks, noises)]
