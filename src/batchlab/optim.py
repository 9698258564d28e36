"""Large-batch optimizer recipe.

Momentum SGD with coupled weight decay, a poly learning-rate decay with
linear warmup, the linear batch-size scaling rule, and layer-wise adaptive
rate scaling (LARS): per group, lr multiplier

    lambda = trust * ||w|| / (||grad|| + weight_decay * ||w||)

applied on top of the global scheduled rate.  Bias and norm parameters are
skipped (lambda = 1) by default because their tiny norms make the ratio
ill-conditioned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ScheduleExhaustedError
from .nn import BIAS, NORM_SCALE, NORM_SHIFT, WEIGHT

DEFAULT_LARS_SKIP = frozenset({BIAS, NORM_SCALE, NORM_SHIFT})


@dataclass
class HyperParams:
    base_lr: float
    epochs: int
    batch_size: int
    momentum: float = 0.9
    weight_decay: float = 0.0005
    poly_power: float = 2.0
    warmup_epochs: int = 0
    lars_enabled: bool = False
    lars_trust: float = 0.001
    lars_skip_categories: frozenset = DEFAULT_LARS_SKIP

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.poly_power <= 0:
            raise ConfigError("poly_power must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("need 0 <= warmup_epochs < epochs")
        if self.lars_trust <= 0:
            raise ConfigError("lars_trust must be positive")
        unknown = sorted(self.lars_skip_categories - {WEIGHT, BIAS, NORM_SCALE, NORM_SHIFT})
        if unknown:
            raise ConfigError(f"lars_skip names unknown parameter categories {unknown}")
        for v in (self.base_lr, self.momentum, self.weight_decay, self.poly_power, self.lars_trust):
            if not math.isfinite(v):
                raise ConfigError("hyperparameters must be finite")


@dataclass
class ScheduleState:
    max_iterations: int
    iterations_per_epoch: int
    iteration: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or self.iterations_per_epoch <= 0:
            raise ConfigError("schedule sizes must be positive")


def linear_scaled_lr(base_lr, base_batch, new_batch):
    """Linear scaling rule: batch k times bigger -> learning rate k times bigger."""
    if base_batch <= 0 or new_batch <= 0:
        raise ConfigError("batch sizes must be positive")
    return base_lr * (new_batch / base_batch)


def scheduled_lr(hp, st):
    """Learning rate at st.iteration: linear warmup, then poly decay.

    Warmup ramps from base_lr / warmup_iterations up to exactly base_lr at
    the warmup boundary; afterwards lr = base_lr * (1 - progress)^power over
    the remaining iterations.
    """
    it = st.iteration
    if it > st.max_iterations:
        raise ScheduleExhaustedError(
            f"iteration {it} past schedule end {st.max_iterations}"
        )
    warmup_iters = hp.warmup_epochs * st.iterations_per_epoch
    if it < warmup_iters:
        return hp.base_lr * (it + 1) / warmup_iters
    span = st.max_iterations - warmup_iters
    if span <= 0:
        return 0.0
    progress = (it - warmup_iters) / span
    return hp.base_lr * (1.0 - progress) ** hp.poly_power


def lars_local_lr(param, grad, weight_decay, trust):
    """Layer-wise trust ratio for one parameter group."""
    w_norm = float(np.linalg.norm(param))
    g_norm = float(np.linalg.norm(grad))
    denom = g_norm + weight_decay * w_norm
    if w_norm == 0.0:
        return 0.0
    if denom == 0.0:
        # flat group with no decay pull: fall back to the plain rate
        return 1.0
    return trust * w_norm / denom


def group_local_lr(group, hp):
    if not hp.lars_enabled or group.category in hp.lars_skip_categories:
        return 1.0
    return lars_local_lr(group.param, group.grad, hp.weight_decay, hp.lars_trust)


def apply_update(params, hp, lr, iteration=0):
    """One momentum step at the given learning rate; returns per-group lambdas.

    g <- grad + weight_decay * param
    v <- momentum * v + lambda * lr * g
    param <- param - v

    Lambdas come per group from its views; the step itself runs once over
    the flat vectors, with each group's lambda * lr written over its span of
    `params.rate` and lambda * lr * g into `params.step`.
    """
    lambdas = {g.name: group_local_lr(g, hp) for g in params}
    rate, step = params.rate, params.step
    for g in params:
        rate[g.span] = lambdas[g.name] * lr
    np.multiply(params.param, hp.weight_decay, out=step)
    step += params.grad
    step *= rate
    params.momentum *= hp.momentum
    params.momentum += step
    params.param -= params.momentum
    if not np.all(np.isfinite(params.param)):
        group = next(g.name for g in params if not np.all(np.isfinite(g.param)))
        raise DivergenceError(iteration, group)
    return lambdas


def sgd_step(params, hp, st):
    """Scheduled momentum/LARS step; advances the iteration counter.

    Returns (lr, lambdas): the scheduled rate applied and the per-group
    LARS multipliers.
    """
    lr = scheduled_lr(hp, st)
    lambdas = apply_update(params, hp, lr, iteration=st.iteration)
    st.iteration += 1
    return lr, lambdas
