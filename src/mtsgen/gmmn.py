"""Generative moment matching network for cross-sectional dependence.

A feedforward net maps standard-normal prior draws to points in the unit
hypercube and is trained to minimize the kernel maximum mean discrepancy
(MMD) between its output sample and a target pseudo-observation sample.
Hidden layers use batch normalization, ReLU and inverted dropout; the
output layer is sigmoid.  Gradients are computed by explicit
backpropagation and parameters updated with Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .dependence import DependenceModel, pseudo_observations
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

TRAIN_BANDWIDTHS = (0.001, 0.01, 0.15, 0.25, 0.50, 0.75)
TEST_BANDWIDTHS = (0.1, 0.3, 0.5, 0.7, 0.9)


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


def _mix_from_sqdist(d2: np.ndarray, spec: KernelSpec) -> np.ndarray:
    nd2 = np.negative(d2)
    kern = _GaussKernel(d2.size)
    out = np.zeros_like(d2)
    for s in spec.bandwidths:
        out += kern(nd2, s)
    return out


def _mix_mean(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> float:
    """Mean of the kernel-mixture matrix between the rows of a and b."""
    return float(_mix_from_sqdist(cdist(a, b, "sqeuclidean"), spec).mean())


def kernel_mix(u, v, spec: KernelSpec) -> float:
    """K(u, v) = sum_i exp(-||u - v||^2 / (2 sigma_i^2))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d2 = float(np.sum((u - v) ** 2))
    return float(sum(np.exp(-d2 / (2.0 * s * s)) for s in spec.bandwidths))


def _mmd_sq(a: np.ndarray, b: np.ndarray, spec: KernelSpec,
            aa_term: float | None = None) -> float:
    """Squared MMD, full double sums including diagonal terms (V-statistic)."""
    if aa_term is None:
        aa_term = _mix_mean(a, a, spec)
    return aa_term - 2.0 * _mix_mean(a, b, spec) + _mix_mean(b, b, spec)


def mmd(a, b, spec: KernelSpec, *, aa_term: float | None = None) -> float:
    """Biased two-sample MMD statistic between the rows of a and b.

    The radicand is clamped at 0 against rounding, so the result is always
    nonnegative and exactly 0 for identical samples.  `aa_term`, when given,
    is the mean kernel value over all pairs of rows of a, so a caller that
    scores many samples against the same a computes it only once.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise InputError("both samples must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise InputError("samples must share the same dimension")
    return float(np.sqrt(max(_mmd_sq(a, b, spec, aa_term), 0.0)))


# ---------------------------------------------------------------------------
# network model
# ---------------------------------------------------------------------------

@dataclass
class GmmnModel:
    """Feedforward generator with per-hidden-layer batch normalization.

    `layer_dims` runs input -> hidden ... -> output; `bn_mean`/`bn_var` are
    running statistics used at inference time, updated with `bn_momentum`
    during training.  The prior is independent standard normal of dimension
    `layer_dims[0]`.
    """

    layer_dims: tuple
    weights: list
    biases: list
    bn_scale: list
    bn_shift: list
    bn_mean: list
    bn_var: list
    bn_momentum: float = 0.99
    bn_eps: float = 1e-5
    dropout_rate: float = 0.5
    seed: int | None = None
    kernel: KernelSpec = field(default_factory=KernelSpec.for_training)
    train_loss: np.ndarray | None = None

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]


def glorot_init(layer_dims, rng: np.random.Generator, dropout_rate: float = 0.5,
                kernel: KernelSpec | None = None, seed: int | None = None) -> GmmnModel:
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
        seed=seed,
        kernel=kernel if kernel is not None else KernelSpec.for_training(),
    )


def flatten_theta(model: GmmnModel) -> np.ndarray:
    """Trainable parameters (weights, biases, BN scale/shift) as one vector."""
    parts = []
    for l in range(len(model.weights)):
        parts.append(model.weights[l].ravel())
        parts.append(model.biases[l])
        if l < model.n_hidden:
            parts.append(model.bn_scale[l])
            parts.append(model.bn_shift[l])
    return np.concatenate(parts)


def set_theta(model: GmmnModel, theta: np.ndarray) -> None:
    """Write a flattened parameter vector back into the model, in place."""
    i = 0
    for l in range(len(model.weights)):
        w = model.weights[l]
        model.weights[l] = theta[i:i + w.size].reshape(w.shape).copy()
        i += w.size
        b = model.biases[l]
        model.biases[l] = theta[i:i + b.size].copy()
        i += b.size
        if l < model.n_hidden:
            h = model.bn_scale[l].size
            model.bn_scale[l] = theta[i:i + h].copy(); i += h
            model.bn_shift[l] = theta[i:i + h].copy(); i += h
    if i != theta.size:
        raise InputError("theta length does not match model shape")


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
        s = a @ model.weights[l].T + model.biases[l]
        if train:
            mu_b = s.mean(axis=0)
            var_b = s.var(axis=0)
            if update_running:
                m = model.bn_momentum
                model.bn_mean[l] = m * model.bn_mean[l] + (1.0 - m) * mu_b
                model.bn_var[l] = m * model.bn_var[l] + (1.0 - m) * var_b
        else:
            mu_b = model.bn_mean[l]
            var_b = model.bn_var[l]
        istd = 1.0 / np.sqrt(var_b + model.bn_eps)
        xhat = (s - mu_b) * istd
        y = model.bn_scale[l] * xhat + model.bn_shift[l]
        r = np.maximum(y, 0.0)
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

def _mmd_grad_wrt_output(u: np.ndarray, g: np.ndarray, spec: KernelSpec,
                         uu_term: float | None = None):
    """Squared-MMD value and its gradient with respect to the generated rows g.

    All kernel matrices share one buffer.  Kernel entries whose exponent lies
    below -746 are set to exactly 0.0 without calling exp, which rounds them
    to 0.0 too, so the result is bit for bit that of a plain np.exp.
    """
    n, m = u.shape[0], g.shape[0]
    nd2_vv = cdist(g, g, "sqeuclidean")
    nd2_uv = cdist(u, g, "sqeuclidean")
    np.negative(nd2_vv, out=nd2_vv)
    np.negative(nd2_uv, out=nd2_uv)
    if uu_term is None:
        uu_term = _mix_mean(u, u, spec)
    kern = _GaussKernel(max(n, m) * m)
    sq = uu_term
    grad = np.zeros_like(g)
    vv_mean = 0.0
    uv_mean = 0.0
    for s in spec.bandwidths:
        inv = 1.0 / (s * s)
        # d/dg of the generated-vs-generated double sum
        k_vv = kern(nd2_vv, s)
        vv_mean += k_vv.mean()
        grad -= (2.0 / (m * m)) * inv * (k_vv.sum(axis=1)[:, None] * g - k_vv @ g)
        # d/dg of the cross double sum (enters the loss with factor -2)
        k_uv = kern(nd2_uv, s)
        uv_mean += k_uv.mean()
        grad += (2.0 / (n * m)) * inv * (k_uv.sum(axis=0)[:, None] * g - k_uv.T @ u)
    sq += vv_mean - 2.0 * uv_mean
    return sq, grad


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
    if sq <= 0.0:
        return loss, np.zeros(flatten_theta(model).size)
    d_g = d_g / (2.0 * max(loss, 1e-12))

    # backprop: output layer
    out_cache = caches[-1]
    out = out_cache["out"]
    ds = d_g * out * (1.0 - out)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    grads_scale = [None] * model.n_hidden
    grads_shift = [None] * model.n_hidden
    grads_w[-1] = ds.T @ out_cache["a_prev"]
    grads_b[-1] = ds.sum(axis=0)
    da = ds @ model.weights[-1]

    n_rows = v.shape[0]
    for l in range(model.n_hidden - 1, -1, -1):
        c = caches[l]
        if c["mask"] is not None:
            da = da * c["mask"]
        dy = da * (c["y"] > 0.0)
        grads_scale[l] = (dy * c["xhat"]).sum(axis=0)
        grads_shift[l] = dy.sum(axis=0)
        dxhat = dy * model.bn_scale[l]
        s_cent = c["s"] - c["mu_b"]
        istd = c["istd"]
        dvar = (dxhat * s_cent).sum(axis=0) * (-0.5) * istd**3
        dmu = -(dxhat.sum(axis=0)) * istd + dvar * (-2.0 / n_rows) * s_cent.sum(axis=0)
        ds = dxhat * istd + dvar * (2.0 / n_rows) * s_cent + dmu / n_rows
        grads_w[l] = ds.T @ c["a_prev"]
        grads_b[l] = ds.sum(axis=0)
        da = ds @ model.weights[l]

    parts = []
    for l in range(len(model.weights)):
        parts.append(grads_w[l].ravel())
        parts.append(grads_b[l])
        if l < model.n_hidden:
            parts.append(grads_scale[l])
            parts.append(grads_shift[l])
    return loss, np.concatenate(parts)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m1: np.ndarray
    m2: np.ndarray
    r: int = 0
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n: int, **kw) -> "AdamState":
        return cls(m1=np.zeros(n), m2=np.zeros(n), r=0, **kw)


def adam_step(state: AdamState, grad: np.ndarray, theta: np.ndarray):
    """One Adam update: moment recursions, bias correction, parameter step."""
    r = state.r + 1
    m1 = state.beta1 * state.m1 + (1.0 - state.beta1) * grad
    m2 = state.beta2 * state.m2 + (1.0 - state.beta2) * grad**2
    m1_hat = m1 / (1.0 - state.beta1**r)
    m2_hat = m2 / (1.0 - state.beta2**r)
    theta_new = theta - state.alpha * m1_hat / (np.sqrt(m2_hat) + state.eps)
    new_state = AdamState(m1=m1, m2=m2, r=r, alpha=state.alpha,
                          beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_state, theta_new


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
    kernel: KernelSpec = field(default_factory=KernelSpec.for_training)
    seed: int = 0


def train_gmmn(u_train, cfg: TrainConfig) -> GmmnModel:
    """Fit the generator to a pseudo-observation sample.

    Weights start from the Glorot-uniform initialization; the prior sample is
    drawn once up front, then each epoch randomly re-partitions targets and
    prior draws into batches and applies one Adam step per batch.  All
    randomness (init, prior, partitions, dropout masks) derives from
    cfg.seed, so runs are bit-reproducible.  A non-finite loss or gradient
    raises NumericalError at the step where it appears.
    """
    u = u_train.u if hasattr(u_train, "u") else np.asarray(u_train, dtype=float)
    tau, d_star = u.shape
    n_bat = cfg.n_bat if cfg.n_bat is not None else tau
    if n_bat < 2:
        raise ConfigError("batch size must be at least 2")
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
    model = glorot_init(layer_dims, init_rng, dropout_rate=cfg.dropout_rate,
                        kernel=cfg.kernel, seed=cfg.seed)
    prior = prior_rng.standard_normal((tau, d_star))

    theta = flatten_theta(model)
    adam = AdamState.zeros(theta.size)
    losses = np.empty(n_steps_total)
    full_batch = n_bat == tau
    uu_term = _mix_mean(u, u, cfg.kernel) if full_batch else None

    step = 0
    for epoch in range(cfg.n_epo):
        perm_u = shuffle_rng.permutation(tau)
        perm_v = shuffle_rng.permutation(tau)
        for b in range(tau // n_bat):
            sl = slice(b * n_bat, (b + 1) * n_bat)
            u_b = u[perm_u[sl]]
            v_b = prior[perm_v[sl]]
            loss, grad = mmd_loss_and_grad(
                model, u_b, v_b, cfg.kernel, mask_seed=int(mask_seeds[step]),
                uu_term=uu_term, update_running=True)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise NumericalError(
                    f"GMMN training diverged: non-finite loss or gradient "
                    f"at epoch {epoch + 1}, step {b + 1}")
            adam, theta = adam_step(adam, grad, theta)
            set_theta(model, theta)
            losses[step] = loss
            step += 1

    model.train_loss = losses
    return model


def sample_gmmn(model: GmmnModel, n_gen: int, rng: np.random.Generator) -> np.ndarray:
    """Draw prior noise, push it through the net, and re-rank the outputs.

    The pseudo-observation step forces every output column to be exactly the
    multiset {1/(n_gen+1), ..., n_gen/(n_gen+1)}.
    """
    v = rng.standard_normal((n_gen, model.d_in))
    out = nn_forward(model, v, train=False)
    return pseudo_observations(out).u


class GmmnCopula(DependenceModel):
    """Dependence-model wrapper exposing the common sampling contract."""

    kind = "gmmn"

    def __init__(self, model: GmmnModel):
        self.model = model
        self.d = model.d_out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_gmmn(self.model, n, rng)
